"""Empirical-interpolation (DEIM) row selection on a column basis, the
oblique projector it defines and that projector's stability constant."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack


@dataclass(frozen=True)
class SelectionIndices:
    """Distinct row indices picked by the DEIM selection, in pick order."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        if idx.ndim != 1 or len(np.unique(idx)) != idx.size:
            raise ValueError("selection indices must be a 1-D list of distinct rows")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def matrix(self, n_rows: int) -> np.ndarray:
        """Dense selection matrix P (n_rows x len); columns are unit vectors."""
        p = np.zeros((n_rows, self.indices.size))
        p[self.indices, np.arange(self.indices.size)] = 1.0
        return p


def deim_select(basis: np.ndarray) -> SelectionIndices:
    """Greedy DEIM row selection on a column basis.

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
    return SelectionIndices(rows[:n])


def deim_apply(basis: np.ndarray, sel: SelectionIndices, f: np.ndarray) -> np.ndarray:
    """Oblique projection Y (P^T Y)^{-1} P^T f onto range(Y)."""
    y = np.asarray(basis, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    sub = y[sel.indices, :]
    return y @ np.linalg.solve(sub, f[sel.indices])


def selection_gain(basis: np.ndarray, sel: SelectionIndices) -> float:
    """Spectral norm of (P^T Y)^{-1}; the interpolation stability constant."""
    sub = np.asarray(basis)[sel.indices, :]
    smin = np.linalg.svd(sub, compute_uv=False)[-1]
    if smin == 0.0:
        raise np.linalg.LinAlgError("selected square system is singular")
    return float(1.0 / smin)

