"""Two-stage tensor reduced-order model.

Offline: compress the state and nonlinear-term snapshot tensors (TT, Tucker,
or CP), keep the mode-1 factors as universal bases, run the greedy selection
on the term basis, and pre-project what can be pre-projected.  Online, for an
incoming parameter vector: contract the compressed cores with interpolation
weights into small core matrices, read the local bases off their SVDs, and
assemble a rank-sized projected system with a second, local hyper-reduction
step (interpolatory or least-squares).

Everything the online stage touches is sized by compression ranks and grid
node counts; the full spatial dimension appears only in the universal bases
kept for lifting and initial-condition projection.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import store
from .decomp import cp_als, hosvd, tt_svd
from .deim import SelectionIndices, deim_select, selection_gain
from .grids import ParameterGrid, interp_weights
from .stepping import (AffineOperator, affine_sum, integrate_reduced,
                       reduced_system)


# ---------------------------------------------------------------------------
# Per-tensor compressed parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TTPart:
    """TT pieces of one snapshot tensor: orthonormal space basis, the
    parametric cores, and the time factor split into an orthonormal matrix
    and its column-norm scales."""

    basis: np.ndarray                  # M x r_first, orthonormal
    cores: tuple[np.ndarray, ...]      # (r_i, K_i, r_{i+1})
    time_factor: np.ndarray            # N x r_last, orthonormal columns
    time_scale: np.ndarray             # r_last, positive

    kind = "tt"

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.basis.shape[1],) + tuple(c.shape[2] for c in self.cores)

    @property
    def local_dim_bound(self) -> int:
        return min(self.basis.shape[1], self.time_scale.size)

    @property
    def online_entries(self) -> int:
        # Parametric cores plus the scale block counted as a dense matrix.
        return sum(c.size for c in self.cores) + self.time_scale.size**2

    def core_matrix(self, weights) -> np.ndarray:
        out = np.einsum("rkq,k->rq", self.cores[0], weights[0])
        for core, w in zip(self.cores[1:], weights[1:]):
            out = out @ np.einsum("rkq,k->rq", core, w)
        return out

    def scaled_core_matrix(self, weights) -> np.ndarray:
        return self.core_matrix(weights) * self.time_scale[None, :]

    def dense_local(self, weights) -> np.ndarray:
        """Assembled local snapshot matrix (M x N); testing/verification aid."""
        return self.basis @ self.scaled_core_matrix(weights) @ self.time_factor.T


@dataclass(frozen=True)
class TuckerPart:
    basis: np.ndarray                    # M x r1, orthonormal
    core: np.ndarray                     # r1 x K~_1 x ... x K~_D x r_last
    param_factors: tuple[np.ndarray, ...]  # K_i x K~_i, orthonormal
    time_factor: np.ndarray              # N x r_last, orthonormal

    kind = "hosvd"

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    @property
    def local_dim_bound(self) -> int:
        return min(self.core.shape[0], self.core.shape[-1])

    @property
    def online_entries(self) -> int:
        return self.core.size + sum(f.size for f in self.param_factors)

    def core_matrix(self, weights) -> np.ndarray:
        out = self.core
        for factor, w in zip(self.param_factors, weights):
            out = np.tensordot(out, factor.T @ w, axes=(1, 0))
        return out

    scaled_core_matrix = core_matrix

    def dense_local(self, weights) -> np.ndarray:
        return self.basis @ self.core_matrix(weights) @ self.time_factor.T


@dataclass(frozen=True)
class CPPart:
    basis: np.ndarray                    # M x r_u, orthonormal (QR of space factor)
    r_left: np.ndarray                   # r_u x R
    r_right: np.ndarray                  # r_v x R
    sigma_factors: tuple[np.ndarray, ...]  # K_i x R
    time_factor: np.ndarray              # N x r_v, orthonormal

    kind = "cp"

    @property
    def rank(self) -> int:
        return self.r_left.shape[1]

    @property
    def ranks(self) -> tuple[int, ...]:
        return (self.rank,)

    @property
    def local_dim_bound(self) -> int:
        return min(self.r_left.shape[0], self.r_right.shape[0])

    @property
    def online_entries(self) -> int:
        # Two triangular rank x rank factors plus the parametric vectors;
        # trapezoidal QR factors (rank above a tensor extent) are counted as
        # full triangles to keep the accounting rank-determined.
        r = self.rank
        return r * (r + 1) // 2 * 2 + sum(f.size for f in self.sigma_factors)

    def core_matrix(self, weights) -> np.ndarray:
        s = np.ones(self.rank)
        for factor, w in zip(self.sigma_factors, weights):
            s = s * (factor.T @ w)
        return self.r_left @ (s[:, None] * self.r_right.T)

    scaled_core_matrix = core_matrix

    def dense_local(self, weights) -> np.ndarray:
        return self.basis @ self.core_matrix(weights) @ self.time_factor.T


OnlinePart = TTPart | TuckerPart | CPPart


def _tt_part(tensor: np.ndarray, eps: float) -> TTPart:
    tt = tt_svd(tensor, eps)
    scale = np.linalg.norm(tt.last, axis=0)
    keep = scale > scale.max() * 1e-14
    if not np.all(keep):
        # Degenerate trailing components would make the scale block singular.
        scale = scale[keep]
        last = tt.last[:, keep]
        cores = tt.cores[:-1] + (tt.cores[-1][:, :, keep],)
    else:
        last = tt.last
        cores = tt.cores
    return TTPart(basis=tt.first, cores=cores,
                  time_factor=last / scale[None, :], time_scale=scale)


def _tucker_part(tensor: np.ndarray, eps: float) -> TuckerPart:
    td = hosvd(tensor, eps)
    return TuckerPart(basis=td.factors[0], core=td.core,
                      param_factors=tuple(td.factors[1:-1]),
                      time_factor=td.factors[-1])


def _cp_part(tensor: np.ndarray, rank: int, opts: dict) -> tuple[CPPart, dict]:
    cp = cp_als(tensor, rank, **opts)
    q_u, r_u = np.linalg.qr(cp.factors[0])
    q_v, r_v = np.linalg.qr(cp.factors[-1])
    part = CPPart(basis=q_u, r_left=r_u, r_right=r_v,
                  sigma_factors=tuple(cp.factors[1:-1]), time_factor=q_v)
    info = {"rel_error": cp.rel_error, "sweeps": cp.sweeps, "converged": cp.converged}
    return part, info


# ---------------------------------------------------------------------------
# Offline artifact
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OfflineArtifact:
    """Everything the offline stage hands to online queries."""

    fmt: str                              # "tt" | "hosvd" | "cp"
    eps: float | None
    cp_rank: int | None
    interp_order: int
    grid: ParameterGrid
    u_part: OnlinePart
    f_part: OnlinePart
    selection: SelectionIndices           # greedy rows of the term basis
    uty: np.ndarray                       # U^T Y
    pty: np.ndarray                       # P^T Y, square nonsingular
    cstar_ls: float                       # |(P^T Y)^{-1}|, shared by all queries
    a_terms_reduced: tuple[np.ndarray, ...] | None
    a_coeff: Callable[[np.ndarray], np.ndarray] | None = None
    problem: dict | None = None
    full_shape: tuple[int, ...] | None = None
    cp_fit: dict | None = None

    def weights(self, alpha) -> list[np.ndarray]:
        return interp_weights(self.grid, alpha, self.interp_order)

    def local_dim_bounds(self) -> tuple[int, int]:
        return self.u_part.local_dim_bound, self.f_part.local_dim_bound

    def compression_factors(self) -> dict[str, float]:
        """Entry count of each full tensor over its online payload; the CP
        variant reports the combined ratio as well."""
        full = int(np.prod(self.full_shape))
        out = {
            "cf_u": full / self.u_part.online_entries,
            "cf_f": full / self.f_part.online_entries,
        }
        if self.fmt == "cp":
            out["cf_combined"] = 2 * full / (
                self.u_part.online_entries + self.f_part.online_entries)
        return out


def build_offline(
    u_snaps: np.ndarray,
    f_snaps: np.ndarray,
    grid: ParameterGrid,
    *,
    fmt: str = "tt",
    eps: float | None = None,
    cp_rank: int | None = None,
    interp_order: int = 2,
    a_op: AffineOperator | None = None,
    problem: dict | None = None,
    cp_opts: dict | None = None,
) -> OfflineArtifact:
    """Offline stage: compress both snapshot tensors, select interpolation
    rows on the term basis, and precompute the coupling matrices."""
    u_snaps = np.asarray(u_snaps, dtype=np.float64)
    f_snaps = np.asarray(f_snaps, dtype=np.float64)
    if u_snaps.shape != f_snaps.shape:
        raise ValueError("state and term snapshot tensors must share a shape")
    if u_snaps.ndim != grid.ndim + 2:
        raise ValueError(
            f"order-{u_snaps.ndim} tensor does not fit a {grid.ndim}-axis grid")
    if u_snaps.shape[1:-1] != grid.shape:
        raise ValueError(f"tensor parameter extents {u_snaps.shape[1:-1]} "
                         f"do not match the grid {grid.shape}")

    cp_fit = None
    if fmt in ("tt", "hosvd"):
        if eps is None:
            raise ValueError(f"{fmt} compression needs eps")
        make = _tt_part if fmt == "tt" else _tucker_part
        u_part = make(u_snaps, eps)
        f_part = make(f_snaps, eps)
    elif fmt == "cp":
        if cp_rank is None:
            raise ValueError("cp compression needs cp_rank")
        opts = dict(cp_opts or {})
        u_part, u_info = _cp_part(u_snaps, cp_rank, opts)
        f_part, f_info = _cp_part(f_snaps, cp_rank, opts)
        cp_fit = {"u": u_info, "f": f_info}
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if u_part.basis.shape[1] == 0 or f_part.basis.shape[1] == 0:
        raise ValueError("compression collapsed to rank zero")

    selection = deim_select(f_part.basis)
    uty = u_part.basis.T @ f_part.basis
    pty = f_part.basis[selection.indices, :]
    reduced = a_op.reduce(u_part.basis) if a_op is not None else None
    return OfflineArtifact(
        fmt=fmt, eps=eps, cp_rank=cp_rank, interp_order=interp_order, grid=grid,
        u_part=u_part, f_part=f_part, selection=selection, uty=uty, pty=pty,
        cstar_ls=selection_gain(f_part.basis, selection), a_terms_reduced=reduced,
        a_coeff=a_op.coeff if a_op is not None else None,
        problem=problem, full_shape=tuple(u_snaps.shape), cp_fit=cp_fit)


def interpolate_dense(tensor: np.ndarray, weights) -> np.ndarray:
    """Contract the parametric modes of a full tensor with weight vectors;
    the dense counterpart of the core-matrix path (M x N result)."""
    out = np.asarray(tensor)
    for w in weights:
        out = np.tensordot(out, w, axes=(1, 0))
    return out


# ---------------------------------------------------------------------------
# Online stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalROM:
    """Parameter-specific reduced model, expressed in universal coordinates."""

    alpha: np.ndarray
    u_coords: np.ndarray          # r_first_u x n_u, orthonormal columns
    f_coords: np.ndarray          # r_first_f x n_f, orthonormal columns
    u_sing_vals: np.ndarray       # full spectrum of the scaled state core
    f_sing_vals: np.ndarray
    mode: str | None = None       # "ls" | "deim" once completed
    a_red: np.ndarray | None = None
    f_map: np.ndarray | None = None
    used_rows: np.ndarray | None = None   # global row indices the term needs
    cstar: float | None = None


def local_bases(art: OfflineArtifact, alpha, n_u: int, n_f: int) -> LocalROM:
    """SVD the two scaled core matrices; the leading left singular vectors
    are the local basis coordinates in the universal bases."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    w = art.weights(alpha)
    bu = art.u_part.scaled_core_matrix(w)
    bf = art.f_part.scaled_core_matrix(w)
    if n_u > min(bu.shape) or n_f > min(bf.shape):
        raise ValueError(
            f"requested local dims ({n_u}, {n_f}) exceed the admissible "
            f"bounds ({min(bu.shape)}, {min(bf.shape)})")
    uu, su, _ = np.linalg.svd(bu, full_matrices=False)
    uf, sf, _ = np.linalg.svd(bf, full_matrices=False)
    return LocalROM(alpha=alpha, u_coords=uu[:, :n_u], f_coords=uf[:, :n_f],
                    u_sing_vals=su, f_sing_vals=sf)


def build_reduced_system(art: OfflineArtifact, local: LocalROM,
                         mode: str = "ls") -> LocalROM:
    """Second hyper-reduction stage plus operator projection.

    ``mode="deim"`` re-runs the greedy selection on the rank-sized matrix
    (P^T Y) Y_n and inverts the selected square block; ``mode="ls"`` keeps
    all offline rows and uses the pseudo-inverse.  The operator comes from
    the artifact's pre-projected terms.  All composed matrices are sized by
    ranks.
    """
    if mode not in ("ls", "deim"):
        raise ValueError(f"unknown hyper-reduction mode {mode!r}")
    if art.a_terms_reduced is None:
        raise ValueError("artifact has no reduced operator; build it with a_op")
    a_tilde = affine_sum(art.a_coeff, art.a_terms_reduced, local.alpha)
    a_red = local.u_coords.T @ a_tilde @ local.u_coords

    proj = local.u_coords.T @ art.uty @ local.f_coords     # n_u x n_f
    b = art.pty @ local.f_coords                           # r_first_f x n_f
    if mode == "deim":
        sub_sel = deim_select(b)
        square = b[sub_sel.indices, :]
        gain = np.linalg.inv(square)
        f_map = proj @ gain
        used = art.selection.indices[sub_sel.indices]
        cstar = float(np.linalg.norm(gain, 2))
    else:
        f_map = proj @ np.linalg.pinv(b)
        used = art.selection.indices
        cstar = art.cstar_ls
    return dataclasses.replace(local, mode=mode, a_red=a_red, f_map=f_map,
                               used_rows=np.asarray(used), cstar=cstar)


def trom_solve(art: OfflineArtifact, local: LocalROM, term, u0: np.ndarray,
               dt: float, n_steps: int, stab: float = 0.0):
    """Integrate the local reduced system with the shared BDF2 family.

    Returns (betas, states): reduced coordinates at t = dt .. n_steps*dt and
    the lifted trajectory.  Per-step work in the nonlinear path is bounded
    by the ranks; only the lift is M-sized.
    """
    if local.mode is None:
        raise ValueError("complete the local ROM with build_reduced_system first")
    lifted = art.u_part.basis @ local.u_coords
    sys, beta0 = reduced_system(lifted, local.used_rows, local.a_red, local.f_map,
                                term, u0, stab)
    betas = integrate_reduced(sys, beta0, dt, n_steps)
    return betas, lifted @ betas


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_SCHEMA = "tromkit-artifact-1"


def _pack_triangular(r: np.ndarray) -> np.ndarray:
    if r.shape[0] != r.shape[1]:
        raise ValueError("triangular packing needs a square factor")
    return r[np.triu_indices(r.shape[0])]


def _unpack_triangular(v: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n, n))
    out[np.triu_indices(n)] = v
    return out


def _part_blobs(tag: str, part: OnlinePart) -> tuple[dict, dict, list[str]]:
    meta: dict = {"kind": part.kind}
    blobs: dict = {}
    online: list[str] = []
    if isinstance(part, TTPart):
        for i, core in enumerate(part.cores):
            blobs[f"{tag}_core{i}"] = core
            online.append(f"{tag}_core{i}")
        blobs[f"{tag}_scale"] = np.diag(part.time_scale)
        online.append(f"{tag}_scale")
        meta["n_cores"] = len(part.cores)
    elif isinstance(part, TuckerPart):
        blobs[f"{tag}_core"] = part.core
        online.append(f"{tag}_core")
        for i, f in enumerate(part.param_factors):
            blobs[f"{tag}_factor{i}"] = f
            online.append(f"{tag}_factor{i}")
        meta["n_factors"] = len(part.param_factors)
    else:
        if part.r_left.shape[0] == part.r_left.shape[1] and \
                part.r_right.shape[0] == part.r_right.shape[1]:
            blobs[f"{tag}_rleft"] = _pack_triangular(part.r_left)
            blobs[f"{tag}_rright"] = _pack_triangular(part.r_right)
            meta["packed"] = True
        else:
            blobs[f"{tag}_rleft"] = part.r_left
            blobs[f"{tag}_rright"] = part.r_right
            meta["packed"] = False
        online += [f"{tag}_rleft", f"{tag}_rright"]
        for i, f in enumerate(part.sigma_factors):
            blobs[f"{tag}_sigma{i}"] = f
            online.append(f"{tag}_sigma{i}")
        meta["rank"] = part.rank
        meta["n_sigma"] = len(part.sigma_factors)
    blobs[f"{tag}_basis"] = part.basis
    blobs[f"{tag}_time"] = part.time_factor
    return meta, blobs, online


def _part_from_blobs(tag: str, meta: dict, blobs: dict) -> OnlinePart:
    kind = meta["kind"]
    if kind == "tt":
        cores = tuple(blobs[f"{tag}_core{i}"] for i in range(meta["n_cores"]))
        return TTPart(basis=blobs[f"{tag}_basis"], cores=cores,
                      time_factor=blobs[f"{tag}_time"],
                      time_scale=np.diag(blobs[f"{tag}_scale"]).copy())
    if kind == "hosvd":
        factors = tuple(blobs[f"{tag}_factor{i}"] for i in range(meta["n_factors"]))
        return TuckerPart(basis=blobs[f"{tag}_basis"], core=blobs[f"{tag}_core"],
                          param_factors=factors, time_factor=blobs[f"{tag}_time"])
    if kind == "cp":
        rank = meta["rank"]
        if meta["packed"]:
            r_left = _unpack_triangular(blobs[f"{tag}_rleft"], rank)
            r_right = _unpack_triangular(blobs[f"{tag}_rright"], rank)
        else:
            r_left = blobs[f"{tag}_rleft"]
            r_right = blobs[f"{tag}_rright"]
        sigma = tuple(blobs[f"{tag}_sigma{i}"] for i in range(meta["n_sigma"]))
        return CPPart(basis=blobs[f"{tag}_basis"], r_left=r_left, r_right=r_right,
                      sigma_factors=sigma, time_factor=blobs[f"{tag}_time"])
    raise ValueError(f"unknown part kind {kind!r}")


def save_artifact(path, art: OfflineArtifact) -> None:
    """Write the artifact as a bundle.  Operator coefficients are functions
    and are rebuilt on load from ``problem``, so an artifact with reduced
    operator terms but no problem description is refused."""
    if art.a_terms_reduced and art.problem is None:
        raise ValueError("artifact has reduced operator terms but no problem "
                         "description to rebuild their coefficients from")
    u_meta, u_blobs, u_online = _part_blobs("u", art.u_part)
    f_meta, f_blobs, f_online = _part_blobs("f", art.f_part)
    blobs = {**u_blobs, **f_blobs, "uty": art.uty, "pty": art.pty}
    meta = {
        "schema": _SCHEMA,
        "format": art.fmt,
        "eps": art.eps,
        "cp_rank": art.cp_rank,
        "interp_order": art.interp_order,
        "grid": art.grid.to_dict(),
        "u_part": u_meta,
        "f_part": f_meta,
        "selection": art.selection.indices.tolist(),
        "cstar_ls": art.cstar_ls,
        "problem": art.problem,
        "full_shape": list(art.full_shape) if art.full_shape else None,
        "cp_fit": art.cp_fit,
        "online_blobs": {"u": u_online, "f": f_online, "shared": ["uty", "pty"]},
        "n_a_terms": len(art.a_terms_reduced) if art.a_terms_reduced else 0,
    }
    if art.a_terms_reduced:
        for i, t in enumerate(art.a_terms_reduced):
            blobs[f"a_red{i}"] = t
    store.save_bundle(path, meta, blobs)


def load_artifact(path) -> OfflineArtifact:
    # Affine coefficient functions are rebuilt from the problem description.
    from .fom import affine_operator_for, config_from_dict

    meta, blobs = store.load_bundle(path)
    if meta.get("schema") != _SCHEMA:
        raise ValueError("not an offline artifact bundle")
    u_part = _part_from_blobs("u", meta["u_part"], blobs)
    f_part = _part_from_blobs("f", meta["f_part"], blobs)
    n_terms = meta["n_a_terms"]
    a_terms = tuple(blobs[f"a_red{i}"] for i in range(n_terms)) if n_terms else None
    a_coeff = None
    if meta["problem"] is not None:
        a_coeff = affine_operator_for(config_from_dict(meta["problem"])).coeff
    return OfflineArtifact(
        fmt=meta["format"], eps=meta["eps"], cp_rank=meta["cp_rank"],
        interp_order=meta["interp_order"],
        grid=ParameterGrid.from_dict(meta["grid"]),
        u_part=u_part, f_part=f_part,
        selection=SelectionIndices(np.asarray(meta["selection"], dtype=np.intp)),
        uty=blobs["uty"], pty=blobs["pty"], cstar_ls=meta["cstar_ls"],
        a_terms_reduced=a_terms, a_coeff=a_coeff, problem=meta["problem"],
        full_shape=tuple(meta["full_shape"]) if meta["full_shape"] else None,
        cp_fit=meta["cp_fit"])
