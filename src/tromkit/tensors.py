"""Dense in-memory tensor kernels: unfolding and refolding.

Tensors are plain float64 ``numpy.ndarray`` values and all functions here are
pure.  The canonical element order (unfolding columns, serialized entries) is
Fortran order: the first index varies fastest.  Snapshot tensors are held in
that order, so the first unfolding of one is a view.  The on-disk tensor record
lives in :mod:`tromkit.store`.
"""
from __future__ import annotations

import numpy as np


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
