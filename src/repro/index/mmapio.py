"""Zero-copy reads of uncompressed ``.npz`` members via ``np.memmap``.

``np.load(..., mmap_mode="r")`` memory-maps bare ``.npy`` files but not
``.npz`` archives — zip members go through the ``zipfile`` stream reader,
which materializes every array in RAM (and, for ``savez_compressed``,
decompresses it first).  For a multi-GB index segment that turns a cold
service start into seconds of copying.

An *uncompressed* zip, however, stores each member's bytes verbatim and
contiguously, so a stored ``.npy`` member is a perfectly valid npy file
sitting at a fixed offset inside the archive.  :func:`load_npz_arrays`
exploits that: it walks the zip directory, parses each stored member's
local header and npy header, and hands back ``np.memmap`` views directly
into the archive — the OS pages vector data in lazily as queries touch
it, and opening a multi-GB segment costs milliseconds.

Members that cannot be mapped — deflated (compressed) members, non-``.npy``
entries — fall back to a regular in-memory read.  Nothing is ever
unpickled: an object-array member raises ``ValueError``.
"""

from __future__ import annotations

import io
import struct
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["load_npz_arrays"]

# Fixed-size prefix of a zip local file header (PK\x03\x04 ... extra_len).
_LOCAL_HEADER_SIZE = 30


def _member_data_offset(raw, info: zipfile.ZipInfo) -> int:
    """Absolute offset of a stored member's payload inside the archive.

    The central directory's name/extra fields may differ from the local
    header's (zip writers pad the local extra field), so the local header
    must be parsed to find where the payload actually starts.
    """
    raw.seek(info.header_offset)
    header = raw.read(_LOCAL_HEADER_SIZE)
    if len(header) != _LOCAL_HEADER_SIZE or header[:4] != b"PK\x03\x04":
        raise ValueError(f"corrupt local header for member {info.filename!r}")
    name_len, extra_len = struct.unpack_from("<HH", header, 26)
    return info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len


def _mmap_member(path: Path, raw, info: zipfile.ZipInfo) -> np.ndarray | None:
    """Memory-map one stored ``.npy`` member; ``None`` when not mappable."""
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    data_offset = _member_data_offset(raw, info)
    raw.seek(data_offset)
    try:
        version = np.lib.format.read_magic(raw)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
        else:
            return None
    except ValueError:
        return None
    if dtype.hasobject:
        return None  # pickled payload; the regular reader refuses it
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=raw.tell(),
        shape=shape,
        order="F" if fortran else "C",
    )


def load_npz_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Load every array of a ``.npz``, memory-mapping what can be mapped.

    Returns ``{member_name_without_suffix: array}``.  Stored numeric
    members come back as read-only ``np.memmap`` views into the archive
    (zero copy, lazy paging); deflated members are read into memory the
    normal way, and an object (pickled) member raises ``ValueError``.
    The archive file remains open for the lifetime of the returned
    memmaps (the OS handles paging and close-on-drop).
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        with open(path, "rb") as raw:
            for info in archive.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                name = info.filename[: -len(".npy")]
                mapped = _mmap_member(path, raw, info)
                if mapped is not None:
                    arrays[name] = mapped
                    continue
                payload = io.BytesIO(archive.read(info.filename))
                arrays[name] = np.load(payload, allow_pickle=False)
    return arrays
