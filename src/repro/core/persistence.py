"""Index persistence: save and restore a WarpGate deployment artifact.

§5.2.2 of the paper discusses provisioning WarpGate in production; the
operational unit there is the *profiled index* — column embeddings plus
their addresses — which is much cheaper to ship than to recompute (every
recompute is a metered warehouse scan).

The artifact is a single ``.npz`` file holding the index's columnar
payload — the ``float32`` embedding matrix and, for the LSH backend, the
packed ``uint64`` SimHash band keys — plus a JSON header with the column
refs and the config fields needed to rebuild the search backend
identically.  Loading never touches the warehouse.

Format history
--------------
* **format 3** (current): *uncompressed* archive; refs ship as a
  fixed-width unicode member (no pickling, C-speed parse).  Stored
  members are memory-mapped on load (:mod:`repro.index.mmapio`) and
  adopted zero-copy into the arena with derived structures left to lazy
  resynchronization, so a cold process maps a multi-GB index in
  milliseconds — O(refs), independent of ``dim`` — and pages vectors in
  lazily as queries touch them.  ``compress=True`` opts back into
  deflate (smaller file, in-memory load).
* **format 2**: compressed archive, pickled ref array, ``float32``
  vectors + signatures; restored through the bulk-load path.
* **format 1**: compressed, ``float64`` vectors, no signatures; the
  signatures are rehashed from the stored vectors on load.

All three load; only format 3 is written.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.config import WarpGateConfig
from repro.core.warpgate import WarpGate
from repro.durability import faultpoints
from repro.errors import ArtifactCorruptionError, DiscoveryError
from repro.index.mmapio import load_npz_arrays
from repro.storage.schema import ColumnRef

__all__ = [
    "save_index",
    "load_index",
    "load_service",
    "save_index_durable",
    "load_index_durable",
]

_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)


def _write_npz_atomic(path: Path, payload: dict, *, compress: bool) -> Path:
    """Write an ``.npz`` artifact atomically: temp + fsync + ``os.replace``.

    The temp file lives in the target directory (``os.replace`` must not
    cross filesystems), so a crash mid-save leaves at worst a stale
    ``.tmp`` file — the previous artifact at ``path`` is never clobbered
    until the new bytes are durable.  ``np.savez`` appends ``.npz`` to
    bare *paths* but not to open file objects, so the final suffix is
    normalized first and the archive written through a handle.
    """
    final = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    tmp = final.with_name(f".{final.name}.tmp")
    writer = np.savez_compressed if compress else np.savez
    with tmp.open("wb") as handle:
        writer(handle, **payload)
        handle.flush()
        os.fsync(handle.fileno())
    faultpoints.fire("artifact.save.before_replace")
    os.replace(tmp, final)
    faultpoints.fire("artifact.save.after_replace")
    return final


def _export_sorted(system) -> tuple[list[ColumnRef], np.ndarray, np.ndarray | None]:
    """The index payload with refs in canonical (str) order."""
    keys, vectors, signatures = system._index.export_rows()
    refs = list(keys)
    order = sorted(range(len(refs)), key=lambda position: str(refs[position]))
    ordered = np.asarray(order, dtype=np.int64)
    refs = [refs[position] for position in order]
    vectors = (
        vectors[ordered]
        if len(refs)
        else np.zeros((0, system.config.dim), dtype=np.float32)
    )
    signatures = signatures[ordered] if signatures is not None and len(refs) else None
    return refs, vectors, signatures


def save_index(system, path: str | Path, *, compress: bool = False) -> Path:
    """Write an indexed system's index payload + config to ``path`` (.npz).

    Accepts a :class:`WarpGate` or a
    :class:`~repro.service.discovery.DiscoveryService` (unwrapped to its
    engine).  The archive is uncompressed by default so it can be
    memory-mapped on load — pass ``compress=True`` to trade the zero-copy
    cold load for a smaller file.  Raises :class:`DiscoveryError` if the
    system has not indexed a corpus.
    """
    system = getattr(system, "engine", system)
    if not system.is_indexed:
        raise DiscoveryError("cannot save an unindexed WarpGate")
    path = Path(path)
    refs, vectors, signatures = _export_sorted(system)
    # Refs ship as a fixed-width unicode member (not pickled objects, not
    # JSON): it loads without allow_pickle, memory-maps like any numeric
    # member, and converts back to Python strings in one C-speed tolist.
    ref_parts = np.array(
        [[ref.database, ref.table, ref.column] for ref in refs], dtype=np.str_
    ).reshape(len(refs), 3)
    payload: dict[str, np.ndarray] = {
        "refs": ref_parts,
        "vectors": np.ascontiguousarray(vectors, dtype=np.float32),
    }
    if signatures is not None:
        payload["signatures"] = np.ascontiguousarray(signatures, dtype=np.uint64)
    header = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(system.config),
        # Per-member CRC32 of the raw array bytes; loaders verify any
        # member they materialize in memory (mmap'd members stay lazy —
        # hashing them would force a full page-in).
        "member_crc32": {
            name: zlib.crc32(np.ascontiguousarray(array).tobytes())
            for name, array in payload.items()
        },
    }
    payload = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        **payload,
    }
    return _write_npz_atomic(path, payload, compress=compress)


def _save_legacy(system, path: str | Path, *, version: int) -> Path:
    """Write a format-1/2 artifact (tests + load-compat benchmarks only).

    Replicates what earlier releases wrote: compressed archive, pickled
    ref array; format 1 additionally downcasts to the old ``float64``
    no-signature payload.
    """
    if version not in (1, 2):
        raise ValueError(f"legacy writer supports formats 1 and 2, got {version}")
    system = getattr(system, "engine", system)
    if not system.is_indexed:
        raise DiscoveryError("cannot save an unindexed WarpGate")
    path = Path(path)
    refs, vectors, signatures = _export_sorted(system)
    raw_refs = np.empty(len(refs), dtype=object)
    raw_refs[:] = [[ref.database, ref.table, ref.column] for ref in refs]
    header = {"format_version": version, "config": asdict(system.config)}
    payload: dict[str, np.ndarray] = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "refs": raw_refs,
        "vectors": (
            vectors.astype(np.float64) if version == 1 else vectors
        ),
    }
    if version == 2 and signatures is not None:
        payload["signatures"] = signatures
    return _write_npz_atomic(path, payload, compress=True)


def load_index(path: str | Path) -> WarpGate:
    """Rebuild a searchable WarpGate from a saved artifact.

    Format-3 artifacts restore zero-copy: the vector (and signature)
    members stay memory-mapped and the arena adopts them directly, so the
    load cost is O(refs), not O(n·dim) — the OS pages vector data in
    lazily.  Format-1/2 artifacts take the legacy decompress + bulk-load
    path.

    The restored system answers :meth:`~repro.core.warpgate.WarpGate.search`
    only through pre-embedded queries (no connector is attached); use
    :meth:`attach` semantics by calling ``index_corpus`` if live scanning is
    needed again.  Practically: call ``system.search_vector(...)`` or attach
    the original warehouse connector.
    """
    path = Path(path)
    if not path.exists():
        raise DiscoveryError(f"no index artifact at {path}")
    # A truncated download, a bit flip, or a non-archive file must
    # surface as one typed error naming the path (and, when known, the
    # member) — never a raw zipfile/numpy traceback from the loader's
    # guts, and never a silently wrong index.
    try:
        payload = load_npz_arrays(path, allow_pickle=True)
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as error:
        raise ArtifactCorruptionError(path, detail=str(error)) from error
    if "header" not in payload:
        raise ArtifactCorruptionError(path, member="header", detail="missing")
    try:
        header = json.loads(
            bytes(np.asarray(payload["header"]).tobytes()).decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ArtifactCorruptionError(
            path, member="header", detail=str(error)
        ) from error
    version = header.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise DiscoveryError(f"unsupported index format {version!r}")
    config = WarpGateConfig.from_saved(header["config"])
    for member in ("refs", "vectors"):
        if member not in payload:
            raise ArtifactCorruptionError(path, member=member, detail="missing")
    vectors = payload["vectors"]
    signatures = payload.get("signatures")
    # Per-member CRC (format-3 headers): verify every member the loader
    # materialized in memory.  Memory-mapped members stay lazy — the OS
    # pages them in on demand, and hashing would defeat the zero-copy
    # load — so mmap'd artifacts rely on the durable store's
    # segment-level checksums instead.
    expected_crcs = header.get("member_crc32") or {}
    for member, expected in expected_crcs.items():
        array = payload.get(member)
        if array is None or isinstance(array, np.memmap):
            continue
        actual = zlib.crc32(np.ascontiguousarray(array).tobytes())
        if actual != int(expected):
            raise ArtifactCorruptionError(
                path,
                member=member,
                detail=f"CRC mismatch ({actual:#010x} != {int(expected):#010x})",
            )
    if version >= 3:
        # Fixed-width unicode member → three Python string lists in one
        # C-speed pass; this loop is on the cold-start critical path.
        parts = np.asarray(payload["refs"])
        refs = (
            list(map(ColumnRef, *parts.T.tolist())) if parts.size else []
        )
    else:
        raw_refs = payload["refs"]
        refs = [
            ColumnRef(*(str(part) for part in raw_refs[position]))
            for position in range(len(raw_refs))
        ]
    system = WarpGate(config)
    if refs:
        index = system._index
        if signatures is not None and index.arena.signature_words != (
            signatures.shape[1] if signatures.ndim == 2 else -1
        ):
            # Backend/banding drift (shouldn't happen — the config travels
            # with the artifact); rehash rather than load bad keys.
            signatures = None
        if version >= 3:
            # Zero-copy: the arena adopts the (typically memory-mapped)
            # artifact members without a normalization or copy pass.
            index.adopt_rows(refs, vectors, signatures)
        else:
            index.bulk_load(refs, np.asarray(vectors), signatures=signatures)
        system._indexed = True
    return system


def load_service(path: str | Path, *, connector=None):
    """Rebuild a :class:`~repro.service.discovery.DiscoveryService` from an artifact.

    The serving-layer counterpart of :func:`load_index`; pass ``connector``
    to re-enable live-scanning queries and incremental mutation.
    """
    from repro.service.discovery import DiscoveryService

    return DiscoveryService.load(path, connector=connector)


def save_index_durable(system, directory: str | Path):
    """Checkpoint an indexed system into a durable store at ``directory``.

    The directory-based counterpart of :func:`save_index`: state lands as
    an immutable checksummed segment plus an atomically-published
    manifest (see :mod:`repro.durability.store`), so a crash mid-save
    never clobbers the previous state.  Returns the open
    :class:`~repro.durability.DurableIndexStore` — subsequent mutations
    can be WAL-logged through it.
    """
    from repro.durability.store import DurableIndexStore

    system = getattr(system, "engine", system)
    if not system.is_indexed:
        raise DiscoveryError("cannot save an unindexed WarpGate")
    config = system.config
    store = DurableIndexStore(
        directory,
        fsync=config.durable_fsync,
        checkpoint_every=config.checkpoint_every,
    )
    store.checkpoint(system)
    return store


def load_index_durable(directory: str | Path):
    """Recover a WarpGate from a durable store: validate, replay, rebuild.

    Runs the full recovery algorithm — manifest parse, segment checksum
    validation, torn-tail discard, WAL replay past ``wal_applied_seq`` —
    and rebuilds a searchable engine holding exactly the
    last-acknowledged mutation set.  Returns ``(system, store, report)``
    where ``report`` says what recovery found (segments loaded, records
    replayed/skipped, torn bytes).  Checksum failures raise the typed
    :mod:`repro.errors` durability errors, never a silent wrong answer.
    """
    from dataclasses import replace

    from repro.durability.store import DurableIndexStore

    directory = Path(directory)
    store = DurableIndexStore(directory, fsync="never")
    config_dict, refs, vectors, report = store.recover()
    config = WarpGateConfig.from_saved(config_dict)
    # The store may have been moved/copied since the manifest was
    # written; the directory actually recovered from is the truth.
    config = replace(config, durable_dir=str(directory))
    # Reopen the WAL under the recovered fsync policy for future appends.
    store.close()
    store = DurableIndexStore(
        directory,
        fsync=config.durable_fsync,
        checkpoint_every=config.checkpoint_every,
    )
    system = WarpGate(config)
    if refs:
        # Replay rebuilds vectors bitwise; SimHash signatures rehash
        # deterministically from them inside bulk_load.
        system._index.bulk_load(refs, vectors)
        system._indexed = True
    system.rebuild_index()
    return system, store, report
