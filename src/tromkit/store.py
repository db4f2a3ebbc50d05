"""Single-file bundle format: JSON metadata followed by raw tensor blobs.

Used for snapshot sets and offline artifacts.  Writing is deterministic
(sorted JSON keys, explicit blob order), so a load/save round trip is
byte-identical.
"""
from __future__ import annotations

import json
import os
import struct

import numpy as np

from .tensors import read_exact, read_tensor, write_tensor

MAGIC = b"TRBL"
FORMAT_VERSION = 1


def dumps_meta(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_bundle(path, meta: dict, blobs: dict[str, np.ndarray]) -> None:
    meta = dict(meta)
    meta["blobs"] = list(blobs.keys())
    payload = dumps_meta(meta)
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
