"""One semi-implicit BDF2 scheme behind every solver, full-order and reduced.

``_bdf2`` holds the recurrence: a BDF1 start, then BDF2 steps whose history
term is ``(2 x_j - x_{j-1} / 2) / dt`` and whose nonlinearity is treated at
the extrapolation ``2 x_j - x_{j-1}``.  It is the full-order march.

The state may have any shape, and the loop writes each step into a
caller-given ``out`` view.  The full-order models march a block of runs, the
nodes that share a node of the first grid axis, straight into that slab of
the snapshot tensors; a single run is the block of one.  A full-order solver
differs from another only in the per-step solve callback it hands to the
loop:

* pointwise -- the phase-field block march (``AllenCahnConfig.march_block``)
  solves with the constant step matrix by fast diagonalisation of the 1-D
  factor its Laplacian is built from, each run by its own m x m products;
* advective -- the transport block march (``BurgersConfig.march``) writes
  the three bands of its step matrix, the one kept copy of the transport
  stencil, and calls LAPACK ``dgtsv`` directly.  A block stacks its runs,
  whose step matrices depend on their own states, into one tridiagonal
  system with exactly zero coupling entries: one ``dgtsv`` per step.

``integrate_reduced`` marches the rank-sized coefficients by the same scheme
into one history array, without a callback.  From the second BDF2 step on,
one product with the last two history columns gives a step's right-hand
side and extrapolation; the first BDF2 step extrapolates from the exact
initial-state entries instead:

* reduced pointwise -- the inverse of the constant step matrix, stacked with
  the selected basis rows, so one product gives the linear part and the
  extrapolated state at the selected rows and a second adds ``f_map`` times
  the term;
* reduced advective -- one LAPACK ``dgesv`` of the rank-sized step matrix,
  which changes with the extrapolated state.  The hyper-reduced transport
  term is linear in that state, so it is contracted once per query into an
  (n+1) x n^2 tensor and a step forms its matrix with one product against
  the extrapolated coefficients (the last row carries the initial state).

Two nonlinearity shapes cover the test problems:

* ``PointwiseTerm`` -- f acts entrywise on the state and is evaluated
  explicitly at the extrapolated state;
* ``AdvectiveTerm`` -- f(u) = -u * (G u); the transported factor is treated
  implicitly inside each step (the coefficient is extrapolated), which keeps
  the step a linear solve.

The full-order integrators record the nonlinear-term value actually used at
step ``j`` as the j-th f-snapshot; every integrator produces states at times
``dt, 2 dt, ..., n_steps * dt``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgesv


@dataclass(frozen=True)
class AffineOperator:
    """Linear operator sum_i g_i(alpha) * A_i, with sparse full-order terms
    or the dense rank-sized ones that ``reduce`` projects with the same coeff."""

    terms: tuple[sp.spmatrix | np.ndarray, ...]
    coeff: Callable[[np.ndarray], np.ndarray]

    def assemble(self, alpha) -> sp.spmatrix | np.ndarray:
        g = np.atleast_1d(self.coeff(np.atleast_1d(np.asarray(alpha, dtype=np.float64))))
        return sum(gi * ti for gi, ti in zip(g, self.terms))

    def reduce(self, basis: np.ndarray) -> AffineOperator:
        """Project every term: basis^T A_i basis."""
        return AffineOperator(tuple(basis.T @ (t @ basis) for t in self.terms), self.coeff)


@dataclass(frozen=True)
class PointwiseTerm:
    """Entrywise nonlinearity: f(u)_i = fn(u_i); each entry needs one state entry."""

    fn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AdvectiveTerm:
    """Quasi-linear transport nonlinearity f(u) = -u * (G u)."""

    grad: sp.csr_matrix


def _bdf2(solve, x0: np.ndarray, dt: float, n_steps: int, *, stab: float = 0.0,
          out: np.ndarray | None = None) -> np.ndarray:
    """March x_1 .. x_{n_steps} into ``out[..., j-1]`` and return ``out``.

    The state may have any shape, for example a block of runs that step
    together; ``out`` has its shape plus a trailing time axis and may be a
    view into a larger array (one grid slab of a snapshot tensor).  It is
    allocated when not given.

    ``solve(c, w, rhs)`` returns the solution of the step with diagonal shift
    ``c`` (``1/dt + stab`` for the BDF1 start, ``1.5/dt + stab`` after) and
    right-hand side ``rhs`` (history plus ``stab`` times the extrapolated
    state), adding its own nonlinearity: at the exact initial state when
    ``w`` is None (the start), otherwise at the extrapolated state ``w``.
    Each step gets a fresh ``rhs``, which ``solve`` may overwrite.
    One more step is launched past the last stored state, so that the
    full-order solvers can record its term value; its solution is dropped.
    """
    if out is None:
        out = np.empty(x0.shape + (n_steps,))
    c = 1.0 / dt + stab
    x_prev, x_curr = x0, solve(c, None, c * x0)
    out[..., 0] = x_curr
    c = 1.5 / dt + stab
    for j in range(1, n_steps + 1):
        w = 2.0 * x_curr - x_prev
        rhs = (2.0 * x_curr - 0.5 * x_prev) / dt
        if stab:
            rhs += stab * w
        x_prev, x_curr = x_curr, solve(c, w, rhs)
        if j < n_steps:     # the extra last solve only records its term value
            out[..., j] = x_curr
    return out


@dataclass(frozen=True)
class ReducedSystem:
    """Everything a projected BDF2 step needs, sized by ranks only.

    ``f_map`` composes the hyper-reduced nonlinearity back into the reduced
    state equation; ``sel_state`` maps reduced coordinates to the state
    entries the nonlinearity needs at the selected rows; ``u0_sel`` holds the
    exact initial-state entries there (the early steps reference the initial
    state directly).

    For the advective form, ``transport`` is the (n+1) x n^2 contraction of
    the hyper-reduced transport term: with ``s_l`` column l of ``sel_state``
    (l < n) or ``u0_sel`` (l = n), row l is ``f_map diag(s_l) sel_grad``
    flattened in Fortran order, ``sel_grad`` being the selected rows of the
    transport matrix times the basis.  So ``(y @ transport)`` read in
    Fortran order is the step-matrix part at the extrapolation
    ``[sel_state, u0_sel] @ y``.

    The BDF1 start-up step evaluates the nonlinearity at the fully known
    initial state, so its exactly projected contribution ``start`` (a vector
    for the pointwise form, a matrix for the advective one) is supplied up
    front; later steps never touch full-size data.
    """

    a_red: np.ndarray
    f_map: np.ndarray
    sel_state: np.ndarray
    u0_sel: np.ndarray
    term: PointwiseTerm | AdvectiveTerm
    start: np.ndarray
    transport: np.ndarray | None = None
    stab: float = 0.0


def _transport_tensor(f_map: np.ndarray, samples: np.ndarray,
                      sel_grad: np.ndarray) -> np.ndarray:
    """Row l: ``f_map @ (samples[:, l, None] * sel_grad)`` in Fortran order,
    from one product of ``samples.T`` with the row-wise Kronecker product of
    ``sel_grad`` and ``f_map.T``."""
    rows, n = sel_grad.shape
    kron = (sel_grad[:, :, None] * f_map.T[:, None, :]).reshape(rows, n * n)
    return samples.T @ kron


def reduced_system(lifted: np.ndarray, rows: np.ndarray, a_red: np.ndarray,
                   f_map: np.ndarray, term, u0: np.ndarray,
                   stab: float = 0.0) -> tuple[ReducedSystem, np.ndarray]:
    """Projected system on the lifted basis (M x n, orthonormal columns) with
    the nonlinearity sampled at ``rows``; returns (system, beta0).

    The products with ``lifted`` here are M-sized; every later step is
    sized by the ranks.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    sel_state, u0_sel = lifted[rows, :], u0[rows]
    transport = None
    if isinstance(term, AdvectiveTerm):
        grad_lifted = term.grad @ lifted
        start = lifted.T @ (u0[:, None] * grad_lifted)
        transport = _transport_tensor(f_map, np.column_stack((sel_state, u0_sel)),
                                      grad_lifted[rows, :])
    else:
        start = lifted.T @ term.fn(u0)
    sys = ReducedSystem(a_red=a_red, f_map=f_map, sel_state=sel_state,
                        u0_sel=u0_sel, term=term, start=start,
                        transport=transport, stab=stab)
    return sys, lifted.T @ u0


def integrate_reduced(sys: ReducedSystem, beta0: np.ndarray, dt: float,
                      n_steps: int) -> np.ndarray:
    """Project the full-order scheme onto the reduced space; returns the
    coefficient trajectory, n x n_steps, at times dt .. n_steps*dt."""
    n, stab = beta0.size, sys.stab
    eye = np.eye(n)
    c1, c2 = 1.0 / dt + stab, 1.5 / dt + stab
    c_c, c_p = 2.0 / dt + 2.0 * stab, -(0.5 / dt + stab)   # rhs c_c beta_j + c_p beta_{j-1}
    hist = np.empty((n, n_steps + 1), order="F")    # column j is beta_j
    hist[:, 0] = beta0

    if isinstance(sys.term, PointwiseTerm):
        fn, sel = sys.term.fn, sys.sel_state
        hist[:, 1] = np.linalg.solve(c1 * eye - sys.a_red, c1 * beta0 + sys.start)
        if n_steps > 1:
            # The step matrix is constant.  For the phase field a_red projects
            # a negative semi-definite Laplacian, so the eigenvalues of
            # c2 I - a_red are at least c2 and the explicit inverse is well
            # conditioned.
            inv = np.linalg.inv(c2 * eye - sys.a_red)
            inv_f_map = inv @ sys.f_map
            w = 2.0 * (sel @ hist[:, 1]) - sys.u0_sel
            hist[:, 2] = inv @ (c_c * hist[:, 1] + c_p * beta0) + inv_f_map @ fn(w)
            # times the pair [beta_{j-1}; beta_j]: the linear part and the
            # extrapolated state at the selected rows
            stacked = np.block([[c_p * inv, c_c * inv], [-sel, 2.0 * sel]])
            seq = hist.reshape(-1, order="F")       # a view: beta_0, beta_1, ...
            for j in range(2, n_steps):
                both = stacked @ seq[(j - 1) * n:(j + 1) * n]
                np.add(both[:n], inv_f_map @ fn(both[n:]), out=hist[:, j + 1])

    elif isinstance(sys.term, AdvectiveTerm):
        if stab != 0.0:
            raise ValueError("stabilization shift applies to the pointwise form only")
        step_mat = np.empty((n, n), order="F")      # dgesv factors it in place
        flat = step_mat.reshape(n * n, order="F")   # a view, written by the products

        def solve(step, rhs):
            _, _, x, info = dgesv(step_mat, rhs, overwrite_a=True)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"singular reduced step matrix at step {step} of {n_steps}, n={n} "
                    f"(dgesv info={info})")
            hist[:, step] = x

        step_mat[:] = c1 * eye - sys.a_red + sys.start
        solve(1, c1 * beta0)
        shift = (c2 * eye - sys.a_red).ravel(order="F")
        if n_steps > 1:
            # The last transport row carries the initial state, so the first
            # extrapolation is 2 sel_state beta_1 - u0_sel, as in the pointwise form.
            flat[:] = np.append(2.0 * hist[:, 1], -1.0) @ sys.transport + shift
            solve(2, c_c * hist[:, 1] + c_p * beta0)
        head = sys.transport[:n]
        coef = np.array([[-1.0, 2.0], [c_p, c_c]])
        both = np.empty((2, n))                       # the extrapolation and the rhs
        ext, rhs = both
        pairs = hist.T                                # a view: row j is beta_j
        for j in range(2, n_steps):
            np.dot(coef, pairs[j - 1:j + 1], out=both)
            np.add(np.dot(ext, head, out=flat), shift, out=flat)
            solve(j + 1, rhs)

    else:
        raise TypeError(f"unsupported nonlinearity {type(sys.term)!r}")
    return hist[:, 1:]
