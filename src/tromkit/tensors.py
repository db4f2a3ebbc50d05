"""Dense tensor kernels: unfoldings, mode products, norms, binary I/O.

Tensors are plain float64 ``numpy.ndarray`` values and all functions here are
pure.  The canonical element order (unfolding columns, serialized entries) is
Fortran order: the first index varies fastest.
"""
from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

MAGIC = b"TNSR"
FORMAT_VERSION = 1

# Refuse to materialize tensors above this entry count (~16 GiB of float64).
MAX_DENSE_ENTRIES = 2**31


def as_tensor(data) -> np.ndarray:
    """Coerce to a float64 ndarray of order >= 1."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def frobenius_norm(t: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t).ravel()))


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfolding along ``mode``: rows run over that index, columns over the
    remaining indices in canonical order (earlier modes vary fastest)."""
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def unfold_mode1(t: np.ndarray) -> np.ndarray:
    """First-mode unfolding; columns are the mode-1 fibers."""
    t = np.asarray(t)
    if t.ndim < 2:
        raise ValueError("mode-1 unfolding needs an order >= 2 tensor")
    return t.reshape(t.shape[0], -1, order="F")


def refold(mat: np.ndarray, mode: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`unfold` for a tensor of the given full shape."""
    rest = shape[:mode] + shape[mode + 1:]
    t = np.reshape(mat, (shape[mode],) + rest, order="F")
    return np.moveaxis(t, 0, mode)


def mode_vector_product(t: np.ndarray, mode: int, a: np.ndarray) -> np.ndarray:
    """Contract ``mode`` of ``t`` with the vector ``a``; order drops by one."""
    t = np.asarray(t)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a vector")
    if t.shape[mode] != a.shape[0]:
        raise ValueError(
            f"mode {mode} has extent {t.shape[mode]}, vector has {a.shape[0]}")
    return np.tensordot(t, a, axes=(mode, 0))


def mode_matrix_product(t: np.ndarray, mode: int, a: np.ndarray) -> np.ndarray:
    """Multiply ``mode`` of ``t`` by the matrix ``a`` (shape J x dims[mode])."""
    t = np.asarray(t)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if t.shape[mode] != a.shape[1]:
        raise ValueError(
            f"mode {mode} has extent {t.shape[mode]}, matrix has {a.shape[1]} columns")
    out = np.tensordot(t, a, axes=(mode, 1))
    return np.moveaxis(out, -1, mode)


def guard_dense_size(shape) -> None:
    if int(np.prod([int(s) for s in shape], dtype=object)) > MAX_DENSE_ENTRIES:
        raise ValueError(f"refusing to materialize dense tensor of shape {tuple(shape)}")


def write_tensor(fh: BinaryIO, t: np.ndarray) -> None:
    """Serialize: magic, u32 version, u8 order, i64 dims, f64 entries (canonical order)."""
    t = as_tensor(t)
    if t.ndim > 255:
        raise ValueError("tensor order exceeds format limit")
    fh.write(MAGIC)
    fh.write(struct.pack("<I", FORMAT_VERSION))
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
    magic = read_exact(fh, 4, "tensor magic")
    if magic != MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    (version,) = struct.unpack("<I", read_exact(fh, 4, "tensor header"))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported tensor format version {version}")
    (order,) = struct.unpack("<B", read_exact(fh, 1, "tensor header"))
    dims = struct.unpack(f"<{order}q", read_exact(fh, 8 * order, "tensor header"))
    if any(n < 0 for n in dims):
        raise ValueError(f"negative tensor extent in {dims}")
    count = int(np.prod(dims, dtype=np.int64)) if order else 0
    raw = read_exact(fh, 8 * count, f"tensor data of shape {dims}")
    data = np.frombuffer(raw, dtype="<f8", count=count)
    # C-contiguous result so downstream kernels see the usual memory layout
    return np.ascontiguousarray(np.reshape(data.astype(np.float64), dims, order="F"))
