"""Low-rank tensor decompositions: tensor train, Tucker (HOSVD), and CP-ALS.

The adaptive formats (``tt_svd``, ``hosvd``) take a relative accuracy ``eps``
and guarantee ``|t - reconstruct| <= eps * |t|`` in the Frobenius norm by
splitting the error budget equally over the truncated SVD sweeps.  CP is
fitted by alternating least squares at a user-chosen rank and reports the
accuracy it achieved instead of guaranteeing one.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import frobenius_norm, guard_dense_size, refold, unfold


@dataclass(frozen=True)
class TTDecomposition:
    """Tensor-train factors of an order-d tensor.

    ``first`` has orthonormal columns; ``last`` has mutually orthogonal
    columns whose norms carry the trailing singular values.  ``cores[i]`` has
    shape (ranks[i], dims[i+1], ranks[i+1]).
    """

    first: np.ndarray
    cores: tuple[np.ndarray, ...]
    last: np.ndarray

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.first.shape[1],) + tuple(c.shape[2] for c in self.cores)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.first.shape[0],) + tuple(c.shape[1] for c in self.cores) \
            + (self.last.shape[0],)


@dataclass(frozen=True)
class TuckerDecomposition:
    """Tucker core plus one orthonormal factor matrix per mode."""

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True)
class CPDecomposition:
    """Canonical polyadic factors; column norms are absorbed into the last
    factor, so reconstruction is the plain sum of rank-one terms."""

    factors: tuple[np.ndarray, ...]
    rel_error: float
    sweeps: int
    converged: bool

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


Decomposition = TTDecomposition | TuckerDecomposition | CPDecomposition


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
             * frobenius_norm(mat)**2)
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


def tt_svd(t: np.ndarray, eps: float) -> TTDecomposition:
    """Sequential truncated-SVD sweep producing a tensor train.

    Each of the order-1 unfolding SVDs is truncated with budget
    ``eps * |t| / sqrt(order - 1)``, which yields the usual relative
    eps-guarantee on reconstruction.  ``eps = 0`` keeps every singular value.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 2:
        raise ValueError("tensor train needs order >= 2")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    dims = t.shape
    d = t.ndim
    budget = eps * frobenius_norm(t) / math.sqrt(d - 1)

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
    return TTDecomposition(first=first, cores=tuple(cores), last=last)


def hosvd(t: np.ndarray, eps: float) -> TuckerDecomposition:
    """Sequentially truncated higher-order SVD with per-mode budget
    ``eps*|t|/sqrt(order)``; mode k is unfolded from the core already
    contracted with the factors of modes 0..k-1."""
    t = np.asarray(t, dtype=np.float64)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    d = t.ndim
    budget = eps * frobenius_norm(t) / math.sqrt(d)
    factors = []
    core = t
    for k in range(d):
        u, _, rest = truncated_left_svd(unfold(core, k), budget)
        factors.append(u)
        core = refold(rest, k, core.shape[:k] + (u.shape[1],) + core.shape[k + 1:])
    return TuckerDecomposition(core=np.ascontiguousarray(core), factors=tuple(factors))


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


def cp_als(
    t: np.ndarray,
    rank: int,
    *,
    max_sweeps: int = 300,
    tol: float = 1e-9,
    seed: int = 0,
) -> CPDecomposition:
    """Fit a rank-``rank`` CP model by alternating least squares.

    Stops when the relative-error improvement between sweeps drops below
    ``tol`` or after ``max_sweeps``.  Non-convergence is reported through the
    ``converged`` flag, not raised.  The factors start from seeded uniform
    draws on [-1, 1].
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    if t.ndim < 2:
        raise ValueError("CP decomposition needs order >= 2")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    d = t.ndim
    dims = t.shape
    norm_t = frobenius_norm(t)
    if norm_t == 0.0:
        factors = tuple(np.zeros((n, rank)) for n in dims)
        return CPDecomposition(factors, rel_error=0.0, sweeps=0, converged=True)

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
                factors[k] = np.linalg.lstsq(gram, mttkrp.T, rcond=None)[0].T
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

    return CPDecomposition(tuple(np.ascontiguousarray(f) for f in factors),
                           rel_error=float(err), sweeps=sweeps, converged=converged)


def reconstruct(d: Decomposition) -> np.ndarray:
    """Expand a decomposition back to a dense tensor."""
    guard_dense_size(d.shape)
    if isinstance(d, TTDecomposition):
        out = d.first
        for core in d.cores:
            out = np.tensordot(out, core, axes=(-1, 0))
        return np.tensordot(out, d.last, axes=(-1, 1))
    if isinstance(d, TuckerDecomposition):
        out = d.core
        for k, f in enumerate(d.factors):
            out = np.moveaxis(np.tensordot(out, f, axes=(k, 1)), -1, k)
        return out
    if isinstance(d, CPDecomposition):
        kr = _khatri_rao(list(d.factors[1:]))
        return (d.factors[0] @ kr.T).reshape(d.shape, order="F")
    raise TypeError(f"not a decomposition: {type(d)!r}")


def relative_error(d: Decomposition, t: np.ndarray) -> float:
    """Frobenius distance between ``t`` and the reconstruction, over ``|t|``."""
    t = np.asarray(t, dtype=np.float64)
    if tuple(t.shape) != tuple(d.shape):
        raise ValueError(f"shape mismatch: tensor {t.shape}, decomposition {d.shape}")
    norm_t = frobenius_norm(t)
    if norm_t == 0.0:
        raise ValueError("relative error undefined for a zero tensor")
    return frobenius_norm(t - reconstruct(d)) / norm_t

