"""Reference solvers and formulas that only the tests use: a generic sparse
full-order stepper, a reduced march through the selected rows, and the
phase-field potential's derivative."""
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tromkit import fom
from tromkit.stepping import PointwiseTerm, _bdf2


def integrate_full(a_mat: sp.spmatrix, term, u0: np.ndarray, dt: float, n_steps: int,
                   stab: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Run the pointwise scheme with the sparse matrix ``a_mat``; returns
    (states, f_values).  This generic stepper is the reference for the
    phase-field FOM, which solves its steps by fast diagonalisation instead.

    Each is M x n_steps: ``states[:, j-1]`` is the solution at t = j dt and
    ``f_values[:, j-1]`` the nonlinear-term value used by the BDF2 step
    launched from it; one extra internal step past the last stored state
    supplies the final f-snapshot, mirroring how the snapshots are defined.
    ``u0`` may be a block of runs that share ``a_mat``, shape (..., M): a
    step is one multi-right-hand-side solve with the shift's ``splu``, and
    ``term.fn`` sees the whole block.
    """
    if not isinstance(term, PointwiseTerm):
        raise TypeError(f"unsupported nonlinearity {type(term)!r}; transport runs "
                        "march through fom.run_fom")
    u0 = np.asarray(u0, dtype=np.float64)
    f_out = np.empty(u0.shape + (n_steps,))
    a_mat = sp.csr_matrix(a_mat)
    size = u0.shape[-1]
    eye = sp.identity(size, format="csr")
    factor = lru_cache(maxsize=None)(lambda c: spla.splu((c * eye - a_mat).tocsc()))
    f_cols = iter(np.moveaxis(f_out, -1, 0))    # entry j-1 takes the term value of step j

    def solve(c, w, rhs):
        f = term.fn(u0 if w is None else w)
        if w is not None:
            next(f_cols)[:] = f
        g = rhs + f
        # runs as the columns of one Fortran-ordered right-hand side
        return factor(c).solve(g.reshape(-1, size).T).T.reshape(g.shape)

    return _bdf2(solve, u0, dt, n_steps, stab=stab), f_out


def observed_bdf2(solve, x0: np.ndarray, dt: float, n_steps: int, observe,
                  y0: np.ndarray, stab: float = 0.0) -> np.ndarray:
    """The BDF2 recurrence of ``stepping._bdf2`` with the nonlinearity read
    through an observation of the state: ``solve(c, w, rhs)`` gets ``w = 2
    y_j - y_{j-1}`` with ``y = observe(x)`` and ``y0`` the exact observed
    initial state, and the shift adds ``stab (2 x_j - x_{j-1})``.  Marching
    a reduced system through its selected rows, it is the oracle of
    ``stepping.integrate_reduced``; returns x_1 .. x_{n_steps} as columns."""
    out = np.empty(x0.shape + (n_steps,))
    c = 1.0 / dt + stab
    x_prev, x_curr = x0, solve(c, None, c * x0)
    y_prev, y_curr = y0, observe(x_curr)
    out[..., 0] = x_curr
    c = 1.5 / dt + stab
    for j in range(1, n_steps):
        w = 2.0 * y_curr - y_prev
        rhs = (2.0 * x_curr - 0.5 * x_prev) / dt
        if stab:
            rhs += stab * (2.0 * x_curr - x_prev)
        x_prev, x_curr = x_curr, solve(c, w, rhs)
        out[..., j] = x_curr
        y_prev, y_curr = y_curr, observe(x_curr)
    return out


def potential_derivative(u: np.ndarray, asym) -> np.ndarray:
    """Derivative of the double well u^2 (1-u)^2 + (asym/10)(u^4 - u/2),
    2u(1-u)(1-2u) + (asym/10)(4u^3 - 1/2), evaluated as the cubic
    (4 + 0.4 asym) u^3 - 6 u^2 + 2 u - 0.05 asym by the phase field's Horner
    helper.  ``asym`` is a number or a column (..., 1) of one asymmetry per
    row of ``u``."""
    return fom._cubic(u, 4.0 + 0.4 * asym, -6.0, 2.0, -0.05 * asym)
