"""Conventional POD-DEIM reduced-order model, the comparison baseline.

The projection basis is the leading left singular vectors of the mode-1
unfolding of the state-snapshot tensor; the interpolation basis likewise for
the nonlinear-term snapshots.  Each is a ``decomp.TTPart`` without cores,
the singular values as its time scale and the identity as its time factor,
so its core matrix is ``diag(sigma)``; the baseline, an ``OfflineArtifact``
with ``fmt="pod"`` and ``grid`` None, runs the shared TROM online stage.
"""
from __future__ import annotations

import numpy as np

from .decomp import TTPart, _kept_rank
from .stepping import AffineOperator
from .tensors import unfold
from .trom import (OfflineArtifact, _coupled_artifact, build_reduced_system, local_bases,
                   trom_solve)


# Columns of the unfolding per QR step of ``pod_basis``, in multiples of its
# row count: each step factors a (5 M) x M stack, which keeps the work close to
# one QR of the whole transposed unfolding and the memory at a few M x M blocks.
_QR_BLOCK = 4


def pod_basis(snapshot_tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of the mode-1 unfolding.

    With ``A`` the M x K unfolding, the triangular factor ``R`` of the QR of
    ``A^T`` is accumulated over blocks of columns of ``A`` (each step a QR of
    ``R`` stacked on the next block), and the SVD of ``R^T`` gives the left
    singular vectors and the singular values of ``A``.  No right singular
    vectors of ``A`` are formed, and the unfolding of a Fortran-ordered
    tensor is never copied whole.  Every singular value is returned; the
    basis keeps the columns a budget-0 truncation keeps, every direction up
    to the last nonzero singular value.
    """
    mat = unfold(np.asarray(snapshot_tensor, dtype=np.float64), 0)
    rows = mat.shape[0]
    step = _QR_BLOCK * rows
    r = np.empty((0, rows))
    for j in range(0, mat.shape[1], step):
        r = np.linalg.qr(np.concatenate((r, mat[:, j:j + step].T)), mode="r")
    u, svals, _ = np.linalg.svd(r.T, full_matrices=False)
    return np.ascontiguousarray(u[:, :_kept_rank(svals, 0.0)]), svals


def pod_offline(u_snaps: np.ndarray, f_snaps: np.ndarray, n_u: int, n_f: int,
                a_op: AffineOperator | None = None) -> OfflineArtifact:
    """Baseline artifact with the POD bases truncated to ``n_u`` and ``n_f`` columns."""
    if n_u < 1 or n_f < 1:
        raise ValueError(f"basis sizes ({n_u}, {n_f}) must be at least 1")
    parts = []
    for name, snaps, n in (("state", u_snaps, n_u), ("term", f_snaps, n_f)):
        u, s = pod_basis(snaps)
        if n > u.shape[1] or s[n - 1] <= s[0] * 1e-14:
            raise ValueError(f"{name} snapshots are rank-deficient below n={n}")
        parts.append(TTPart(cores=(), time_scale=s[:n], basis=u[:, :n], time_factor=np.eye(n)))
    return _coupled_artifact(*parts, a_op=a_op)


def pod_solve(art: OfflineArtifact, alpha, term, u0: np.ndarray, dt: float,
              n_steps: int, stab: float = 0.0):
    """Integrate the projected system in ``deim`` mode; returns (betas,
    states) as ``trom.trom_solve`` does."""
    local = local_bases(art, alpha, *art.local_dim_bounds())
    return trom_solve(art, build_reduced_system(art, local, mode="deim"), term, u0,
                      dt, n_steps, stab)
