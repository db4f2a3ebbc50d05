"""Dense in-memory tensor kernels: unfoldings, norms and the size guard.

Tensors are plain float64 ``numpy.ndarray`` values and all functions here are
pure.  The canonical element order (unfolding columns, serialized entries) is
Fortran order: the first index varies fastest.  The on-disk tensor record
lives in :mod:`tromkit.store`.
"""
from __future__ import annotations

import numpy as np

# Refuse to materialize tensors above this entry count (~16 GiB of float64).
MAX_DENSE_ENTRIES = 2**31


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


def refold(mat: np.ndarray, mode: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`unfold` for a tensor of the given full shape."""
    rest = shape[:mode] + shape[mode + 1:]
    t = np.reshape(mat, (shape[mode],) + rest, order="F")
    return np.moveaxis(t, 0, mode)


def guard_dense_size(shape) -> None:
    if int(np.prod([int(s) for s in shape], dtype=object)) > MAX_DENSE_ENTRIES:
        raise ValueError(f"refusing to materialize dense tensor of shape {tuple(shape)}")
