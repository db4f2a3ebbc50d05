"""Conventional POD-DEIM reduced-order model, the comparison baseline.

The projection basis is the leading left singular vectors of the mode-1
unfolding of the state-snapshot tensor; the interpolation basis likewise for
the nonlinear-term snapshots.  The reduced system is marched with the same
semi-implicit BDF2 family as the full-order model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import truncated_left_svd
from .deim import SelectionIndices, deim_select
from .stepping import (AffineOperator, affine_sum, integrate_reduced,
                       reduced_system)
from .tensors import unfold


def pod_basis(snapshot_tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of the mode-1 unfolding.

    Budget 0 keeps every direction with a nonzero singular value, so this
    runs the SVD path of ``truncated_left_svd``.
    """
    u, svals, _ = truncated_left_svd(unfold(snapshot_tensor, 0), 0.0)
    return u, svals


@dataclass(frozen=True)
class PodRom:
    """Offline data of the baseline ROM: bases, selection, and the
    pre-composed projection factors."""

    u_basis: np.ndarray            # M x n_u, orthonormal
    f_basis: np.ndarray            # M x n_f, orthonormal
    selection: SelectionIndices
    f_map: np.ndarray              # (U^T Y)(P^T Y)^{-1}
    u_sing_vals: np.ndarray        # full spectrum of the state unfolding
    f_sing_vals: np.ndarray
    a_terms_reduced: tuple[np.ndarray, ...] | None
    a_op: AffineOperator | None


def pod_offline(u_snaps: np.ndarray, f_snaps: np.ndarray, n_u: int, n_f: int,
                a_op: AffineOperator | None = None) -> PodRom:
    """Build the baseline ROM from the two snapshot tensors."""
    u_basis, u_svals = pod_basis(u_snaps)
    f_basis, f_svals = pod_basis(f_snaps)
    for name, have, want, svals in (("state", u_basis.shape[1], n_u, u_svals),
                                    ("term", f_basis.shape[1], n_f, f_svals)):
        if want > have or svals[want - 1] <= svals[0] * 1e-14:
            raise ValueError(f"{name} snapshots are rank-deficient below n={want}")
    u_basis = u_basis[:, :n_u]
    f_basis = f_basis[:, :n_f]
    sel = deim_select(f_basis)
    f_map = (u_basis.T @ f_basis) @ np.linalg.inv(f_basis[sel.indices, :])
    reduced = a_op.reduce(u_basis) if a_op is not None else None
    return PodRom(u_basis=u_basis, f_basis=f_basis, selection=sel, f_map=f_map,
                  u_sing_vals=u_svals, f_sing_vals=f_svals,
                  a_terms_reduced=reduced, a_op=a_op)


def pod_solve(rom: PodRom, alpha, term, u0: np.ndarray, dt: float, n_steps: int,
              stab: float = 0.0):
    """Integrate the projected system; returns (betas, states).

    ``betas`` holds reduced coordinates at t = dt .. n_steps*dt; ``states``
    is the lifted trajectory.
    """
    if rom.a_terms_reduced is None:
        raise ValueError("offline stage was built without an operator")
    a_red = affine_sum(rom.a_op.coeff, rom.a_terms_reduced, alpha)
    sys, beta0 = reduced_system(rom.u_basis, rom.selection.indices, a_red, rom.f_map,
                                term, u0, stab)
    betas = integrate_reduced(sys, beta0, dt, n_steps)
    return betas, rom.u_basis @ betas
