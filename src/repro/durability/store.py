"""Crash-safe durable index store: segments + manifest + WAL.

Directory layout::

    <durable_dir>/
        MANIFEST            # JSON, published atomically (temp -> os.replace)
        wal.log             # append-only mutation log (see repro.durability.wal)
        segments/
            seg-000001.npz  # immutable, checksummed, mmap-able payload

**Invariants.**  The manifest is the store's only source of truth: it
names the segment files that make up the checkpointed state (with their
byte sizes and CRC32s) and the WAL sequence number already absorbed into
them (``wal_applied_seq``).  Segments are immutable once renamed into
place; every state change is either

* a **WAL append** — one fsync'd, CRC-framed record per acknowledged
  mutation (the ack barrier: the serving layer returns success only
  after the record is durable), or
* a **checkpoint** — seal the engine's current payload as a fresh
  segment (write temp, fsync, ``os.replace``, fsync directory), publish
  a new manifest pointing at it with ``wal_applied_seq`` advanced past
  every logged record, then truncate the WAL.

A crash at *any* point leaves a recoverable store: the old manifest
rules until the ``os.replace`` lands (rename is atomic on POSIX), WAL
records with ``seq <= wal_applied_seq`` are skipped on replay (so a
crash between manifest publish and WAL truncation is harmless), and a
torn WAL tail — the unacknowledged mutation in flight — is discarded.
Every write/fsync/rename site fires a named crash point
(:mod:`repro.durability.faultpoints`); the crash-matrix test kills the
process at each one and asserts recovery restores exactly the
last-acknowledged state.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from repro.durability import faultpoints
from repro.durability.wal import (
    WriteAheadLog,
    decode_vectors,
    encode_vectors,
    scan_wal,
)
from repro.errors import (
    ArtifactCorruptionError,
    DurabilityError,
    ManifestError,
    SegmentChecksumError,
)
from repro.storage.schema import ColumnRef

__all__ = ["DurableIndexStore", "fsck_store", "read_manifest_file"]

MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"
SEGMENT_DIR = "segments"
_MANIFEST_FORMAT = 1


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _file_crc32(path: Path, chunk_size: int = 1 << 20) -> int:
    crc = 0
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc


def read_manifest_file(path: Path) -> dict:
    """Parse and structurally validate a manifest file."""
    if not path.exists():
        raise ManifestError(path, "missing (store was never checkpointed)")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ManifestError(path, f"unparseable JSON: {error}") from error
    if not isinstance(manifest, dict):
        raise ManifestError(path, "not a JSON object")
    if manifest.get("format_version") != _MANIFEST_FORMAT:
        raise ManifestError(
            path,
            f"unsupported format_version {manifest.get('format_version')!r}",
        )
    for key in ("config", "segments", "wal_applied_seq", "manifest_seq"):
        if key not in manifest:
            raise ManifestError(path, f"missing key {key!r}")
    return manifest


def _refs_to_parts(refs: list[ColumnRef]) -> np.ndarray:
    return np.array(
        [[ref.database, ref.table, ref.column] for ref in refs], dtype=np.str_
    ).reshape(len(refs), 3)


def _parts_to_refs(parts: np.ndarray) -> list[ColumnRef]:
    parts = np.asarray(parts)
    return list(map(ColumnRef, *parts.T.tolist())) if parts.size else []


class DurableIndexStore:
    """One durable store rooted at ``directory`` (single writer).

    Parameters
    ----------
    directory:
        Store root; created (with its ``segments/`` subdirectory) when
        missing.
    fsync:
        WAL fsync policy — ``always`` (acknowledged mutations survive a
        crash; default) or ``never`` (OS-buffered; bench/test use).
    checkpoint_every:
        Auto-compact after this many WAL records (0 disables; call
        :meth:`checkpoint` explicitly).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "always",
        checkpoint_every: int = 0,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / SEGMENT_DIR).mkdir(exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self._wal = WriteAheadLog(self.directory / WAL_NAME, fsync=fsync)
        self._manifest: dict | None = None
        self._next_seq = 1
        self._pending_records = 0
        if self.has_manifest:
            manifest = self.read_manifest()
            applied = int(manifest.get("wal_applied_seq", 0))
            records, _info = scan_wal(self.wal_path)
            live = [r for r in records if int(r["seq"]) > applied]
            self._next_seq = max([applied, *(int(r["seq"]) for r in records)]) + 1
            self._pending_records = len(live)

    # -- paths / introspection ----------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    @property
    def segment_dir(self) -> Path:
        return self.directory / SEGMENT_DIR

    @property
    def has_manifest(self) -> bool:
        return self.manifest_path.exists()

    @property
    def fsync(self) -> str:
        return self._wal.fsync

    @property
    def pending_records(self) -> int:
        """WAL records appended (or replayable) since the last checkpoint."""
        return self._pending_records

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "DurableIndexStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def read_manifest(self) -> dict:
        """Parse and structurally validate the manifest (cached)."""
        if self._manifest is None:
            self._manifest = read_manifest_file(self.manifest_path)
        return self._manifest

    def stats(self) -> dict:
        """Counters for the serving layer's ``IndexStats.durability``."""
        manifest = self.read_manifest() if self.has_manifest else None
        return {
            "directory": str(self.directory),
            "fsync": self.fsync,
            "checkpoint_every": self.checkpoint_every,
            "manifest_seq": manifest.get("manifest_seq") if manifest else None,
            "wal_pending_records": self._pending_records,
        }

    # -- WAL append (the ack barrier) ---------------------------------------------

    def ensure_base(self, system) -> None:
        """Checkpoint once when the store is empty, establishing a base.

        The first WAL record needs a manifest to replay onto; a brand-new
        store absorbs the engine's current (possibly bulk-indexed) state
        as segment + manifest before any record is appended.
        """
        if not self.has_manifest:
            self.checkpoint(system)

    def log_upsert(self, refs: list[ColumnRef], vectors: np.ndarray) -> int:
        """Durably record ``refs`` now carrying ``vectors`` (exact bytes)."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] != len(refs):
            raise DurabilityError(
                f"upsert shape mismatch: {len(refs)} refs, "
                f"vectors {vectors.shape}"
            )
        return self._append(
            {
                "op": "upsert",
                "refs": [[r.database, r.table, r.column] for r in refs],
                "dim": int(vectors.shape[1]),
                "vectors": encode_vectors(vectors),
            }
        )

    def log_remove(self, refs: list[ColumnRef]) -> int:
        """Durably record the eviction of ``refs``."""
        return self._append(
            {
                "op": "remove",
                "refs": [[r.database, r.table, r.column] for r in refs],
            }
        )

    def _append(self, record: dict) -> int:
        seq = self._next_seq
        record["seq"] = seq
        self._wal.append(record)
        self._next_seq = seq + 1
        self._pending_records += 1
        return seq

    def maybe_checkpoint(self, system) -> bool:
        """Auto-checkpoint when the pending-record budget is spent."""
        if (
            self.checkpoint_every > 0
            and self._pending_records >= self.checkpoint_every
        ):
            self.checkpoint(system)
            return True
        return False

    # -- checkpoint ---------------------------------------------------------------

    def checkpoint(self, system) -> dict:
        """Compact the engine's state into a fresh segment + manifest.

        Publish order is the crash-safety argument:

        1. seal the segment (temp + fsync + rename + dir fsync) — a crash
           here leaves an orphan file the old manifest never references;
        2. publish the manifest naming it, with ``wal_applied_seq`` set
           past every logged record — a crash *before* the replace keeps
           the old manifest + full WAL (replay as if no checkpoint),
           *after* it the new manifest rules and stale WAL records are
           skipped by sequence number;
        3. truncate the WAL and delete superseded segments — pure
           cleanup; a crash here is absorbed by the seq skip / fsck's
           orphan report.
        """
        from repro.core.persistence import _export_sorted

        system = getattr(system, "engine", system)
        refs, vectors, _signatures = _export_sorted(system)
        applied_seq = self._next_seq - 1
        manifest_seq = 1
        previous_segments: list[str] = []
        if self.has_manifest:
            manifest = self.read_manifest()
            manifest_seq = int(manifest["manifest_seq"]) + 1
            previous_segments = [
                entry["name"] for entry in manifest["segments"]
            ]
        segment = self._seal_segment(manifest_seq, refs, vectors)
        from dataclasses import asdict

        manifest = {
            "format_version": _MANIFEST_FORMAT,
            "manifest_seq": manifest_seq,
            "config": asdict(system.config),
            "segments": [segment],
            "wal_applied_seq": applied_seq,
        }
        self._publish_manifest(manifest)
        self._wal.truncate()
        self._pending_records = 0
        for name in previous_segments:
            if name != segment["name"]:
                (self.segment_dir / name).unlink(missing_ok=True)
        return manifest

    def _seal_segment(
        self, manifest_seq: int, refs: list[ColumnRef], vectors: np.ndarray
    ) -> dict:
        name = f"seg-{manifest_seq:06d}.npz"
        final = self.segment_dir / name
        tmp = self.segment_dir / f".{name}.tmp"
        header = {"rows": len(refs), "dim": int(vectors.shape[1]) if len(refs) else 0}
        faultpoints.fire("segment.seal.before_write")
        with tmp.open("wb") as handle:
            np.savez(
                handle,
                header=np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
                refs=_refs_to_parts(refs),
                vectors=np.ascontiguousarray(vectors, dtype=np.float32),
            )
            handle.flush()
            os.fsync(handle.fileno())
        faultpoints.fire("segment.seal.after_write")
        os.replace(tmp, final)
        faultpoints.fire("segment.seal.after_rename")
        _fsync_dir(self.segment_dir)
        return {
            "name": name,
            "rows": len(refs),
            "bytes": final.stat().st_size,
            "crc32": _file_crc32(final),
        }

    def _publish_manifest(self, manifest: dict) -> None:
        payload = json.dumps(manifest, indent=2).encode("utf-8")
        tmp = self.directory / f".{MANIFEST_NAME}.tmp"
        faultpoints.fire("manifest.publish.before_write")
        with tmp.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        faultpoints.fire("manifest.publish.before_replace")
        os.replace(tmp, self.manifest_path)
        faultpoints.fire("manifest.publish.after_replace")
        _fsync_dir(self.directory)
        self._manifest = manifest

    # -- recovery -----------------------------------------------------------------

    def _load_segment(self, entry: dict) -> tuple[list[ColumnRef], np.ndarray]:
        """Validate one manifest-listed segment and load its payload."""
        path = self.segment_dir / entry["name"]
        if not path.exists():
            raise SegmentChecksumError(path, int(entry["crc32"]), 0)
        if path.stat().st_size != int(entry["bytes"]):
            raise ArtifactCorruptionError(
                path,
                detail=(
                    f"size {path.stat().st_size} != manifest's {entry['bytes']}"
                ),
            )
        actual = _file_crc32(path)
        if actual != int(entry["crc32"]):
            raise SegmentChecksumError(path, int(entry["crc32"]), actual)
        from repro.index.mmapio import load_npz_arrays

        try:
            payload = load_npz_arrays(path)
            refs = _parts_to_refs(payload["refs"])
            vectors = np.asarray(payload["vectors"], dtype=np.float32)
        except (KeyError, ValueError, OSError) as error:
            raise ArtifactCorruptionError(path, detail=str(error)) from error
        if len(refs) != int(entry["rows"]) or vectors.shape[0] != len(refs):
            raise ArtifactCorruptionError(
                path, detail="row count disagrees with the manifest"
            )
        return refs, vectors

    def recover(self) -> tuple[dict, list[ColumnRef], np.ndarray, dict]:
        """Rebuild the last-acknowledged logical state from disk.

        Returns ``(config_dict, refs, vectors, report)``.  Applies the
        manifest's segments in order (last writer wins per ref), then
        replays WAL records with ``seq > wal_applied_seq`` — upserts
        update in place or append, removes drop (idempotently) — so the
        result is exactly the acknowledged mutation history, bitwise.
        """
        manifest = self.read_manifest()
        state: dict[ColumnRef, np.ndarray] = {}
        order: list[ColumnRef] = []
        for entry in manifest["segments"]:
            seg_refs, seg_vectors = self._load_segment(entry)
            for ref, vector in zip(seg_refs, seg_vectors):
                if ref not in state:
                    order.append(ref)
                state[ref] = vector
        rows_from_segments = len(order)
        applied = int(manifest["wal_applied_seq"])
        records, info = scan_wal(self.wal_path)
        replayed = skipped = 0
        for record in records:
            if int(record["seq"]) <= applied:
                skipped += 1
                continue
            refs = [ColumnRef(*parts) for parts in record["refs"]]
            if record["op"] == "upsert":
                vectors = decode_vectors(
                    record["vectors"], len(refs), int(record["dim"])
                )
                for ref, vector in zip(refs, vectors):
                    if ref not in state:
                        order.append(ref)
                    state[ref] = vector
            elif record["op"] == "remove":
                for ref in refs:
                    state.pop(ref, None)
            else:
                raise DurabilityError(
                    f"unknown WAL op {record['op']!r} at seq {record['seq']}"
                )
            replayed += 1
        refs = [ref for ref in order if ref in state]
        dim = int(manifest.get("config", {}).get("dim", 0))
        vectors = (
            np.stack([state[ref] for ref in refs])
            if refs
            else np.zeros((0, dim), dtype=np.float32)
        )
        self._next_seq = max([applied, *(int(r["seq"]) for r in records)]) + 1
        self._pending_records = replayed
        report = {
            "manifest_seq": int(manifest["manifest_seq"]),
            "segments_loaded": len(manifest["segments"]),
            "rows_from_segments": rows_from_segments,
            "wal_records_replayed": replayed,
            "wal_records_skipped": skipped,
            "torn_tail_bytes": int(info["torn_tail_bytes"]),
            "recovered_columns": len(refs),
        }
        return dict(manifest["config"]), refs, vectors, report


def fsck_store(directory: str | Path) -> dict:
    """Diagnose a durable store without mutating it.

    Returns a report dict with ``clean`` (bool), ``problems`` (hard
    faults: missing/corrupt manifest, segment checksum failures, corrupt
    complete WAL frames) and ``warnings`` (repairable damage: a torn WAL
    tail, orphan segment files a crashed checkpoint left behind).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DurabilityError(f"no durable store at {directory}")
    report: dict = {
        "directory": str(directory),
        "manifest": None,
        "segments": [],
        "wal": {"records": 0, "torn_tail_bytes": 0, "last_seq": None},
        "orphan_segments": [],
        "problems": [],
        "warnings": [],
    }
    manifest = None
    try:
        # Standalone parse: constructing a DurableIndexStore pre-scans the
        # WAL, and fsck must diagnose a corrupt WAL, not crash on it.
        manifest = read_manifest_file(directory / MANIFEST_NAME)
    except ManifestError as error:
        report["problems"].append(str(error))
    listed: set[str] = set()
    if manifest is not None:
        report["manifest"] = {
            "manifest_seq": manifest["manifest_seq"],
            "wal_applied_seq": manifest["wal_applied_seq"],
            "segments": len(manifest["segments"]),
        }
        for entry in manifest["segments"]:
            listed.add(entry["name"])
            path = directory / SEGMENT_DIR / entry["name"]
            row = {"name": entry["name"], "rows": entry["rows"], "crc_ok": False}
            if not path.exists():
                report["problems"].append(f"segment {entry['name']} is missing")
            elif path.stat().st_size != int(entry["bytes"]):
                report["problems"].append(
                    f"segment {entry['name']}: size {path.stat().st_size} != "
                    f"manifest's {entry['bytes']} (truncated?)"
                )
            elif _file_crc32(path) != int(entry["crc32"]):
                report["problems"].append(
                    f"segment {entry['name']}: CRC mismatch"
                )
            else:
                row["crc_ok"] = True
            report["segments"].append(row)
    segment_dir = directory / SEGMENT_DIR
    if segment_dir.is_dir():
        for path in sorted(segment_dir.glob("*.npz")):
            if path.name not in listed:
                report["orphan_segments"].append(path.name)
                report["warnings"].append(
                    f"orphan segment {path.name} (crashed checkpoint?); "
                    "recovery ignores it"
                )
    try:
        records, info = scan_wal(directory / WAL_NAME)
        report["wal"] = {
            "records": len(records),
            "torn_tail_bytes": int(info["torn_tail_bytes"]),
            "last_seq": int(records[-1]["seq"]) if records else None,
        }
        if info["torn_tail_bytes"]:
            report["warnings"].append(
                f"torn WAL tail ({info['torn_tail_bytes']} bytes) — the "
                "unacknowledged record in flight at crash time; recovery "
                "discards it"
            )
    except DurabilityError as error:
        report["problems"].append(str(error))
    report["clean"] = not report["problems"] and not report["warnings"]
    return report
