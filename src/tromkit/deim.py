"""Empirical-interpolation (DEIM) row selection on a column basis and the
stability constant of the oblique projector it defines."""
from __future__ import annotations

import numpy as np
import scipy.linalg.lapack


def deim_select(basis: np.ndarray) -> np.ndarray:
    """Greedy DEIM row selection on a column basis: distinct row indices in
    pick order.

    The first index maximizes |first column|; each later index maximizes the
    residual of the next column after interpolating it at the rows already
    selected.  That residual is the next column of the Schur complement in
    Gaussian elimination with partial pivoting, so the DEIM indices are the
    first n row pivots of one LU factorisation (Sorensen & Embree, SISC 2016).
    Ties resolve as LAPACK's ``dgetrf`` resolves them: to the first maximal
    entry in the current pivot order.  Raises ``LinAlgError`` naming the
    offending column if a pivot is exactly zero, i.e. that column depends on
    the ones before it at the selected rows.
    """
    y = np.asarray(basis, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] > y.shape[0]:
        raise ValueError("basis must be a tall matrix (cols <= rows)")
    m, n = y.shape
    _, piv, info = scipy.linalg.lapack.dgetrf(y)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"column {info - 1} is dependent on previously selected columns")
    rows = np.arange(m)
    for j, p in enumerate(piv[:n]):
        rows[[j, p]] = rows[[p, j]]
    return rows[:n]


def selection_gain(basis: np.ndarray, rows: np.ndarray) -> float:
    """Spectral norm of (P^T Y)^{-1}; the interpolation stability constant."""
    sub = np.asarray(basis)[rows, :]
    smin = np.linalg.svd(sub, compute_uv=False)[-1]
    if smin == 0.0:
        raise np.linalg.LinAlgError("selected square system is singular")
    return float(1.0 / smin)

