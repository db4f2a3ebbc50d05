"""The on-disk format: the tensor record and the single-file bundle.

A tensor record is the magic ``TNSR``, a u32 version, a u8 order, i64
extents and the f64 entries in canonical (first index fastest) order; it is
read back as a Fortran-ordered array, the layout sampling gives a snapshot
tensor.  A bundle is the magic ``TRBL``, a u32 version, a u64 metadata
length, JSON metadata and then one tensor record per blob.  Bundles hold
snapshot sets and offline artifacts.  Writing is deterministic (sorted JSON
keys, explicit blob order), so a load/save round trip is byte-identical; a
short read or bytes after the last blob raise ``ValueError``.
"""
from __future__ import annotations

import json
import os
import struct
from typing import BinaryIO

import numpy as np

TENSOR_MAGIC = b"TNSR"
TENSOR_VERSION = 1
MAGIC = b"TRBL"
FORMAT_VERSION = 1


def write_tensor(fh: BinaryIO, t: np.ndarray) -> None:
    """Write one tensor record; a scalar is stored as a length-1 vector."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.ndim > 255:
        raise ValueError("tensor order exceeds format limit")
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<I", TENSOR_VERSION))
    fh.write(struct.pack("<B", t.ndim))
    fh.write(struct.pack(f"<{t.ndim}q", *t.shape))
    fh.write(np.ascontiguousarray(t.ravel(order="F"), dtype="<f8").tobytes())


def read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes; a short read raises ``ValueError``."""
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"truncated {what}: expected {count} bytes, got {len(data)}")
    return data


def read_tensor(fh: BinaryIO) -> np.ndarray:
    """Read one tensor record into a Fortran-ordered (canonical) array: the
    one copy is the conversion out of the read-only file bytes."""
    magic = read_exact(fh, 4, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    (version,) = struct.unpack("<I", read_exact(fh, 4, "tensor header"))
    if version != TENSOR_VERSION:
        raise ValueError(f"unsupported tensor format version {version}")
    (order,) = struct.unpack("<B", read_exact(fh, 1, "tensor header"))
    dims = struct.unpack(f"<{order}q", read_exact(fh, 8 * order, "tensor header"))
    if any(n < 0 for n in dims):
        raise ValueError(f"negative tensor extent in {dims}")
    count = int(np.prod(dims, dtype=np.int64)) if order else 0
    raw = read_exact(fh, 8 * count, f"tensor data of shape {dims}")
    data = np.frombuffer(raw, dtype="<f8", count=count)
    return np.reshape(data.astype(np.float64), dims, order="F")


def save_bundle(path, meta: dict, blobs: dict[str, np.ndarray]) -> None:
    meta = meta | {"blobs": list(blobs)}
    payload = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for name in meta["blobs"]:
            write_tensor(fh, blobs[name])


def load_bundle(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a bundle; a truncated file or bytes after the last blob raise
    ``ValueError``."""
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "bundle magic")
        if magic != MAGIC:
            raise ValueError(f"bad bundle magic {magic!r}")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "bundle header"))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported bundle version {version}")
        (meta_len,) = struct.unpack("<Q", read_exact(fh, 8, "bundle header"))
        meta = json.loads(read_exact(fh, meta_len, "bundle metadata").decode("utf-8"))
        blobs = {name: read_tensor(fh) for name in meta["blobs"]}
        extra = os.fstat(fh.fileno()).st_size - fh.tell()
        if extra:
            raise ValueError(f"{extra} trailing bytes after the last blob of {path}")
    return meta, blobs
