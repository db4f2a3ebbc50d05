"""Low-rank tensor formats: tensor train, Tucker (HOSVD), and CP-ALS.

Each format has one representation, the part the online stage reads: an
orthonormal space basis (from the mode-1 factor), the parametric cores or
factors, and an orthonormal time factor (``TTPart``, ``TuckerPart``,
``CPPart``).
``tt_svd``, ``hosvd`` and ``cp_als`` build these parts directly from an
order-d snapshot tensor shaped (space, parameters..., time).

The adaptive formats (``tt_svd``, ``hosvd``) take a relative accuracy ``eps``
and guarantee a relative Frobenius error of at most ``eps`` by splitting the
error budget equally over the truncated SVD sweeps.  CP is fitted by
alternating least squares at a user-chosen rank and reports the accuracy it
achieved instead of guaranteeing one.

``relative_error`` measures a part against its tensor one grid node at a
time: it assembles each M x N slice with ``dense_local`` at unit weights,
walking the parametric modes in ``np.ndindex`` order, so it never holds more
than one slice of the rebuilt tensor.

Every truncated SVD goes through ``truncated_left_svd``, which picks one of
three paths from the shape of the unfolding and the size of the budget:

* a wide matrix (more columns than rows) with a budget well above the
  rounding error of its Gram matrix takes the eigen-decomposition of the
  row Gram matrix ``mat @ mat.T``, which costs far less than an SVD of the
  wide matrix and builds no right singular vectors;
* a tall or square matrix with such a budget takes the eigen-decomposition
  of the column Gram matrix ``mat.T @ mat`` (the method of snapshots,
  Sirovich 1987).  Its eigenvalues give the singular values and the kept
  rank; the kept span ``mat @ v_r`` is orthonormalised by QR, which keeps the
  basis orthonormal where ``mat @ v / s`` would lose it at small singular
  values.  One Rayleigh-Ritz step, the eigen-decomposition of the small
  Gram matrix of the projected rows, then rotates that basis onto the left
  singular vectors, so the projected rows come back mutually orthogonal;
* small budgets (``eps = 0`` included) take ``np.linalg.svd``.

``hosvd`` is sequentially truncated: each unfolding is taken from the core
already contracted with the factors found before it, which keeps the
eps-guarantee and shrinks the later unfoldings.

A ``cp_als`` sweep updates the modes in order, each from the newest factors
of the others, and forms their MTTKRPs (matricized tensor times Khatri-Rao
product) from two full-size products (Phan, Tichavsky & Cichocki, IEEE TSP
2013).  The modes split into a left half ``[0, d // 2)`` and a right half.
Before the left modes update, the tensor, as a (left x right) matrix, is
multiplied once by the Khatri-Rao product of the right factors; each left
mode's MTTKRP is then that partial contracted with the other left factors.
The right modes update the same way from a partial of the freshly updated
left factors.  In exact arithmetic the iterates are those of one unfolding
and one dense Khatri-Rao product per mode (Kolda & Bader, SIAM Review 2009).
Each mode's rank x rank normal equations, whose matrix is the Hadamard
product of the other modes' Gram matrices, are solved by one Cholesky
``dposv``.  The reciprocal condition number of the Cholesky factor is then
estimated with ``dpocon``; below ``sqrt(u)``, or when the factorisation
fails, the update falls back to ``np.linalg.lstsq`` with ``rcond=None``,
which gives the minimum-norm solution for a rank-deficient Gram matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpocon, dposv

from .tensors import refold, unfold


# ---------------------------------------------------------------------------
# Compressed parts
# ---------------------------------------------------------------------------

class OnlinePart:
    """What the part kinds share: an orthonormal space basis and an
    orthonormal time factor around a small core matrix, which each format
    contracts from its own parametric data in ``scaled_core_matrix``.

    Parts declare these two fields last: declared order is blob order, and
    loading them after the small online arrays kept the peak RSS of repeated
    sample-build-save-load cycles about 15% below the reverse order."""

    basis: np.ndarray                  # M x r_first, orthonormal
    time_factor: np.ndarray            # N x r_last, orthonormal columns

    @property
    def local_dim_bound(self) -> int:
        return min(self.basis.shape[1], self.time_factor.shape[1])

    def dense_local(self, weights) -> np.ndarray:
        """Assembled local snapshot matrix (M x N); ``relative_error`` takes
        it at every grid node."""
        return self.basis @ self.scaled_core_matrix(weights) @ self.time_factor.T


@dataclass(frozen=True)
class TTPart(OnlinePart):
    """TT pieces of one snapshot tensor: orthonormal space basis, the
    parametric cores, and the time factor split into an orthonormal matrix
    and its column-norm scales."""

    cores: tuple[np.ndarray, ...]      # (r_i, K_i, r_{i+1})
    time_scale: np.ndarray             # r_last, positive
    basis: np.ndarray
    time_factor: np.ndarray

    kind = "tt"

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.basis.shape[1],) + tuple(c.shape[2] for c in self.cores)

    @property
    def online_entries(self) -> int:
        # Parametric cores plus the scale block, counted as a dense r x r
        # matrix as in the paper but stored as the vector ``time_scale``.
        return sum(c.size for c in self.cores) + self.time_scale.size**2

    def core_matrix(self, weights) -> np.ndarray:
        # Right to left, so that every product is only as wide as the last
        # rank; each core is read between its first and last nonzero weight
        # only (interp_weights gives at most two, adjacent).
        out = None
        for core, w in zip(self.cores[::-1], weights[::-1]):
            nz = np.flatnonzero(w)
            lo, hi = nz[0], nz[-1] + 1
            mat = np.einsum("rkq,k->rq", core[:, lo:hi], w[lo:hi])
            out = mat if out is None else mat @ out
        # A train of an order-2 tensor, or a POD basis, has no parametric core.
        return np.eye(self.time_scale.size) if out is None else out

    def scaled_core_matrix(self, weights) -> np.ndarray:
        return self.core_matrix(weights) * self.time_scale[None, :]


@dataclass(frozen=True)
class TuckerPart(OnlinePart):
    core: np.ndarray                     # r1 x K~_1 x ... x K~_D x r_last
    param_factors: tuple[np.ndarray, ...]  # K_i x K~_i, orthonormal
    basis: np.ndarray
    time_factor: np.ndarray

    kind = "hosvd"

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    @property
    def online_entries(self) -> int:
        return self.core.size + sum(f.size for f in self.param_factors)

    def core_matrix(self, weights) -> np.ndarray:
        out = self.core
        for factor, w in zip(self.param_factors, weights):
            out = np.tensordot(out, factor.T @ w, axes=(1, 0))
        return out

    scaled_core_matrix = core_matrix


@dataclass(frozen=True)
class CPPart(OnlinePart):
    r_left: np.ndarray                   # r_u x R
    r_right: np.ndarray                  # r_v x R
    sigma_factors: tuple[np.ndarray, ...]  # K_i x R
    basis: np.ndarray                    # QR of the space factor
    time_factor: np.ndarray              # QR of the time factor

    kind = "cp"

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.r_left.shape[1],)

    @property
    def online_entries(self) -> int:
        # Two triangular rank x rank factors, stored whole, plus the parametric
        # vectors; trapezoidal QR factors (rank above a tensor extent) are
        # counted as full triangles to keep the accounting rank-determined.
        (r,) = self.ranks
        return r * (r + 1) // 2 * 2 + sum(f.size for f in self.sigma_factors)

    def core_matrix(self, weights) -> np.ndarray:
        s = np.ones(self.r_left.shape[1])
        for factor, w in zip(self.sigma_factors, weights):
            s = s * (factor.T @ w)
        return self.r_left @ (s[:, None] * self.r_right.T)

    scaled_core_matrix = core_matrix


# ---------------------------------------------------------------------------
# Truncated SVD kernel and builders
# ---------------------------------------------------------------------------

def _kept_rank(s: np.ndarray, budget: float) -> int:
    """Smallest r with tail energy sum_{i>r} s_i^2 <= budget^2 (at least 1)."""
    tail = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])
    r = int(np.argmax(tail <= budget * budget))
    return max(r, 1)


# Gram eigenvalues carry an absolute error of about n * u * sigma_1^2 (u the
# unit roundoff, n = min(rows, cols) the dimension of the Gram matrix); either
# Gram path runs only when the squared budget clears that error by this
# factor, so that it cannot move the kept rank.
_GRAM_SAFETY = 1e3


def truncated_left_svd(mat: np.ndarray, budget: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading left singular vectors of ``mat`` with tail energy <= budget^2.

    Returns ``(u_r, s, u_r.T @ mat)``: the kept left singular vectors as a
    C-contiguous array with orthonormal columns, every singular value
    (descending), and the projected rows, which are mutually orthogonal.
    When ``budget^2 > _GRAM_SAFETY * min(rows, cols) * u * |mat|_F^2`` the
    rounding error of a Gram matrix's eigenvalues cannot move the kept rank,
    and a Gram path runs: a wide matrix (cols > rows) takes ``mat @ mat.T``,
    any other the column Gram matrix ``mat.T @ mat`` followed by a QR of the
    kept span and one Rayleigh-Ritz step.  Smaller budgets take
    ``np.linalg.svd``.
    """
    rows, cols = mat.shape
    floor = (_GRAM_SAFETY * min(rows, cols) * np.finfo(np.float64).eps
             * np.linalg.norm(mat)**2)
    if budget * budget <= floor:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        r = _kept_rank(s, budget)
        return np.ascontiguousarray(u[:, :r]), s, s[:r, None] * vt[:r]
    wide = cols > rows
    evals, evecs = np.linalg.eigh(mat @ mat.T if wide else mat.T @ mat)
    s = np.sqrt(np.clip(evals[::-1], 0.0, None))
    r = _kept_rank(s, budget)
    kept = evecs[:, ::-1][:, :r]
    if wide:
        u_r = np.ascontiguousarray(kept)
        return u_r, s, u_r.T @ mat
    q = np.linalg.qr(mat @ kept)[0]
    proj = q.T @ mat
    w = np.linalg.eigh(proj @ proj.T)[1][:, ::-1]
    return np.ascontiguousarray(q @ w), s, w.T @ proj


def tt_svd(t: np.ndarray, eps: float) -> TTPart:
    """Sequential truncated-SVD sweep producing a tensor train.

    Each of the order-1 unfolding SVDs is truncated with budget
    ``eps * |t| / sqrt(order - 1)``, which yields the usual relative
    eps-guarantee.  ``eps = 0`` keeps every singular value.
    The last factor is split into unit time columns and their norms.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 2:
        raise ValueError("tensor train needs order >= 2")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    dims = t.shape
    d = t.ndim
    budget = eps * np.linalg.norm(t) / math.sqrt(d - 1)

    first, _, rest = truncated_left_svd(t.reshape(dims[0], -1, order="F"), budget)
    cores = []
    rank = first.shape[1]
    for k in range(1, d - 1):
        u, _, rest = truncated_left_svd(rest.reshape(rank * dims[k], -1, order="F"),
                                        budget)
        r = u.shape[1]
        cores.append(u.reshape(rank, dims[k], r, order="F"))
        rank = r

    # rest is ranks[-1] x N; its rows are orthogonal with norms equal to the
    # trailing singular values, so columns of `last` inherit them.
    last = rest.T.copy()
    scale = np.linalg.norm(last, axis=0)
    keep = scale > scale.max() * 1e-14
    if not np.all(keep):
        # Degenerate trailing components would make the scale block singular.
        scale = scale[keep]
        last = last[:, keep]
        if cores:
            cores[-1] = cores[-1][:, :, keep]
        else:
            first = first[:, keep]
    return TTPart(cores=tuple(cores), time_scale=scale, basis=first,
                  time_factor=last / scale[None, :])


def hosvd(t: np.ndarray, eps: float) -> TuckerPart:
    """Sequentially truncated higher-order SVD with per-mode budget
    ``eps*|t|/sqrt(order)``; mode k is unfolded from the core already
    contracted with the factors of modes 0..k-1."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 2:
        raise ValueError("Tucker decomposition needs order >= 2")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    d = t.ndim
    budget = eps * np.linalg.norm(t) / math.sqrt(d)
    factors = []
    core = t
    for k in range(d):
        u, _, rest = truncated_left_svd(unfold(core, k), budget)
        factors.append(u)
        core = refold(rest, k, core.shape[:k] + (u.shape[1],) + core.shape[k + 1:])
    return TuckerPart(core=np.ascontiguousarray(core), param_factors=tuple(factors[1:-1]),
                      basis=factors[0], time_factor=factors[-1])


def _khatri_rao(mats: list[np.ndarray]) -> np.ndarray:
    """Columnwise Kronecker stacking with the first matrix index fastest,
    matching the canonical (Fortran) unfolding column order."""
    out = mats[0]
    for m in mats[1:]:
        out = (m[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


def _half_mttkrp(partial: np.ndarray, mats: list[np.ndarray], k: int) -> np.ndarray:
    """MTTKRP of mode ``k`` of one half of the modes from that half's
    partial, shaped (that half's dims) + (rank,): contract it with every
    factor of the half except the ``k``-th."""
    h = len(mats)
    ops = [partial, list(range(h + 1))]
    for j, m in enumerate(mats):
        if j != k:
            ops += [m, [j, h]]
    return np.einsum(*ops, [k, h])


# A Cholesky solve of the normal equations is kept only when the estimated
# reciprocal condition number of the factor is at least sqrt(u); a singular
# Gram matrix can factor with info 0 and still give a solution that is off by
# orders of magnitude, where ``lstsq`` returns the minimum-norm one.
_CHOL_RCOND = math.sqrt(np.finfo(np.float64).eps)


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``x`` with ``gram @ x = rhs`` for a symmetric positive semi-definite
    ``gram``, by Cholesky unless its factor fails the ``_CHOL_RCOND`` check."""
    chol, x, info = dposv(gram, rhs)
    if info == 0:
        rcond, info = dpocon(chol, np.linalg.norm(gram, 1))
        if info == 0 and rcond >= _CHOL_RCOND:
            return x
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def cp_als(
    t: np.ndarray,
    rank: int,
    *,
    max_sweeps: int = 300,
    tol: float = 1e-9,
    seed: int = 0,
) -> tuple[CPPart, dict]:
    """Fit a rank-``rank`` CP model by alternating least squares.

    Stops when the relative-error improvement between sweeps drops below
    ``tol`` or after ``max_sweeps``.  Non-convergence is reported through the
    ``converged`` flag, not raised.  The factors start from seeded uniform
    draws on [-1, 1].  Each mode update solves its rank x rank normal
    equations by Cholesky (``dposv``); when the factor's condition estimate
    (``dpocon``) is below ``_CHOL_RCOND``, or the matrix is not numerically
    positive definite, it falls back to ``np.linalg.lstsq`` with
    ``rcond=None``, which handles rank-deficient Gram matrices.  Returns the
    part, whose space and time factors are QR-factorised into
    ``basis``/``r_left`` and ``time_factor``/``r_right``, and the fit:
    ``rel_error``, ``sweeps`` and ``converged``.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    if t.ndim < 2:
        raise ValueError("CP decomposition needs order >= 2")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    d = t.ndim
    dims = t.shape
    norm_t = np.linalg.norm(t)
    if norm_t == 0.0:
        return (_cp_from_factors([np.zeros((n, rank)) for n in dims]),
                {"rel_error": 0.0, "sweeps": 0, "converged": True})

    rng = np.random.default_rng(seed)
    factors = [rng.uniform(-1.0, 1.0, size=(n, rank)) for n in dims]
    grams = [f.T @ f for f in factors]

    # Rows of `mat` run over the left modes [0, h), columns over the right
    # ones, both in C order; _khatri_rao of a reversed list matches that.
    h = d // 2
    mat = t.reshape(math.prod(dims[:h]), -1)
    halves = ((0, h, mat, slice(h, d)), (h, d, mat.T, slice(0, h)))

    err_prev = np.inf
    err = np.inf
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        for lo, hi, unfolded, other in halves:
            partial = (unfolded @ _khatri_rao(factors[other][::-1])
                       ).reshape(dims[lo:hi] + (rank,))
            for k in range(lo, hi):
                gram = np.ones((rank, rank))
                for j in range(d):
                    if j != k:
                        gram *= grams[j]
                mttkrp = _half_mttkrp(partial, factors[lo:hi], k - lo)
                factors[k] = _solve_normal(gram, mttkrp.T).T
                grams[k] = factors[k].T @ factors[k]

        # Error from the last mode's normal-equation pieces; no dense rebuild.
        gram_all = grams[d - 1] * gram
        inner = float(np.sum(mttkrp * factors[d - 1]))
        sq = norm_t**2 - 2.0 * inner + float(np.sum(gram_all))
        err = math.sqrt(max(sq, 0.0)) / norm_t

        # Rebalance: unit columns everywhere except the last factor.
        scale = np.ones(rank)
        for k in range(d - 1):
            nrm = np.linalg.norm(factors[k], axis=0)
            nrm[nrm == 0.0] = 1.0
            factors[k] /= nrm
            scale *= nrm
        factors[d - 1] *= scale
        grams = [f.T @ f for f in factors]

        if abs(err_prev - err) < tol:
            converged = True
            break
        err_prev = err

    return (_cp_from_factors([np.ascontiguousarray(f) for f in factors]),
            {"rel_error": float(err), "sweeps": sweeps, "converged": converged})


def _cp_from_factors(factors: list[np.ndarray]) -> CPPart:
    """CP part of the factor matrices: QR of the space and time factors."""
    q_u, r_u = np.linalg.qr(factors[0])
    q_v, r_v = np.linalg.qr(factors[-1])
    return CPPart(r_left=r_u, r_right=r_v, sigma_factors=tuple(factors[1:-1]),
                  basis=q_u, time_factor=q_v)


def relative_error(part: OnlinePart, t: np.ndarray) -> float:
    """Frobenius distance between ``t`` and the part, over ``|t|``.

    The part is assembled one grid node at a time with ``dense_local`` at
    unit weights, the nodes in ``np.ndindex`` order.
    """
    t = np.asarray(t, dtype=np.float64)
    norm_t = np.linalg.norm(t)
    if norm_t == 0.0:
        raise ValueError("relative error undefined for a zero tensor")
    eyes = [np.eye(k) for k in t.shape[1:-1]]
    sq = 0.0
    for mi in np.ndindex(t.shape[1:-1]):
        w = [eye[:, j] for eye, j in zip(eyes, mi)]
        sq += float(np.sum((part.dense_local(w) - t[(slice(None),) + mi])**2))
    return float(np.sqrt(sq) / norm_t)
