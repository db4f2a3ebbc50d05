"""Two-stage tensor reduced-order model: the offline artifact, the online
stage, and the artifact codec.

Offline: compress the state and nonlinear-term snapshot tensors into parts
of one format (``decomp``: TT, Tucker, or CP), keep their space bases as
universal bases, run the greedy selection on the term basis, and
pre-project what can be pre-projected.  Online, for an incoming parameter
vector: contract each part's cores with interpolation weights into a small
core matrix, read the local bases off their SVDs, and assemble a rank-sized
projected system with a second, local hyper-reduction step (interpolatory or
least-squares).

Everything the online stage touches is sized by compression ranks and grid
node counts; the full spatial dimension appears only in the universal bases
kept for lifting and initial-condition projection.

On tensor-train parts without a parametric core, whose core matrix does
not depend on the parameter, the online stage is POD-DEIM (``pod``); that
in-memory artifact has ``fmt="pod"`` and ``grid`` None.

An artifact is saved as one bundle (``store``) with schema
``tromkit-artifact-3``, which holds the parts and the selection but none of
their products.  Each compressed part is written from its dataclass
fields: an array field becomes the blob ``{tag}_{field}`` and a tuple field
the blobs ``{tag}_{field}{i}``, its length kept in the part metadata beside
``kind``; ``tag`` is ``u`` or ``f``.  The metadata hold the selected rows,
``cstar_ls``, the grid, the problem description and whether the artifact
has a reduced operator.  Load recomputes ``U^T Y``, ``P^T Y`` and the reduced
operator (from the problem's operator) with the constructor that the
offline stage uses, and refuses a selection that is not one distinct
term-basis row per basis column.  Artifacts of any other schema are
refused, to be rebuilt from their snapshot bundle.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import store
from .decomp import CPPart, OnlinePart, TTPart, TuckerPart, cp_als, hosvd, tt_svd
from .deim import SelectionIndices, deim_select, selection_gain
from .grids import ParameterGrid, interp_weights
from .stepping import AffineOperator, integrate_reduced, reduced_system


# ---------------------------------------------------------------------------
# Offline artifact
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OfflineArtifact:
    """Everything the offline stage hands to online queries; ``a_reduced``
    is the linear operator projected onto the universal state basis."""

    fmt: str                              # "tt" | "hosvd" | "cp" | "pod"
    eps: float | None
    cp_rank: int | None
    interp_order: int                     # 0 for POD
    grid: ParameterGrid | None            # None for POD
    u_part: OnlinePart
    f_part: OnlinePart
    selection: SelectionIndices           # greedy rows of the term basis
    uty: np.ndarray                       # U^T Y
    pty: np.ndarray                       # P^T Y, square nonsingular
    cstar_ls: float                       # |(P^T Y)^{-1}|, shared by all queries
    full_shape: tuple[int, ...]           # shape of each snapshot tensor
    a_reduced: AffineOperator | None = None
    problem: dict | None = None
    cp_fit: dict | None = None

    def weights(self, alpha) -> list[np.ndarray]:
        return ([] if self.grid is None
                else interp_weights(self.grid, alpha, self.interp_order))

    def local_dim_bounds(self) -> tuple[int, int]:
        return self.u_part.local_dim_bound, self.f_part.local_dim_bound

    def compression_factors(self) -> dict[str, float]:
        """Entry count of each full tensor over its online payload; the CP
        variant reports the combined ratio as well."""
        if self.fmt == "pod":
            raise ValueError("a POD baseline holds no compressed tensor, "
                             "so it has no compression factors")
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
    if u_snaps.shape[1:-1] != grid.shape:
        raise ValueError(f"tensor parameter extents {u_snaps.shape[1:-1]} "
                         f"do not match the grid {grid.shape}")
    if interp_order < 1:
        raise ValueError(f"interpolation order must be at least 1, got {interp_order}")

    cp_fit = None
    if fmt in ("tt", "hosvd"):
        if eps is None:
            raise ValueError(f"{fmt} compression needs eps")
        make = tt_svd if fmt == "tt" else hosvd
        u_part = make(u_snaps, eps)
        f_part = make(f_snaps, eps)
    elif fmt == "cp":
        if cp_rank is None:
            raise ValueError("cp compression needs cp_rank")
        u_part, u_fit = cp_als(u_snaps, cp_rank, **(cp_opts or {}))
        f_part, f_fit = cp_als(f_snaps, cp_rank, **(cp_opts or {}))
        cp_fit = {"u": u_fit, "f": f_fit}
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if u_part.basis.shape[1] == 0 or f_part.basis.shape[1] == 0:
        raise ValueError("compression collapsed to rank zero")
    return _coupled_artifact(u_part, f_part, a_op, fmt=fmt, eps=eps, cp_rank=cp_rank,
                             interp_order=interp_order, grid=grid, problem=problem,
                             full_shape=tuple(u_snaps.shape), cp_fit=cp_fit)


def _coupled_artifact(u_part, f_part, a_op, selection=None, cstar_ls=None,
                      **fields) -> OfflineArtifact:
    """The one constructor of an artifact: two parts, the term-basis selection
    and its gain (run here unless given, as a loaded bundle gives them), the
    coupling matrices and the reduced operator of ``a_op``."""
    if selection is None:
        selection = deim_select(f_part.basis)
        cstar_ls = selection_gain(f_part.basis, selection)
    return OfflineArtifact(
        u_part=u_part, f_part=f_part, selection=selection,
        uty=u_part.basis.T @ f_part.basis, pty=f_part.basis[selection.indices, :],
        cstar_ls=cstar_ls,
        a_reduced=a_op.reduce(u_part.basis) if a_op is not None else None, **fields)


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
    if not (1 <= n_u <= min(bu.shape) and 1 <= n_f <= min(bf.shape)):
        raise ValueError(
            f"requested local dims ({n_u}, {n_f}) are outside the admissible "
            f"ranges 1..{min(bu.shape)} and 1..{min(bf.shape)}")
    uu, su, _ = np.linalg.svd(bu, full_matrices=False)
    uf, sf, _ = np.linalg.svd(bf, full_matrices=False)
    return LocalROM(alpha=alpha, u_coords=uu[:, :n_u], f_coords=uf[:, :n_f],
                    u_sing_vals=su, f_sing_vals=sf)


def build_reduced_system(art: OfflineArtifact, local: LocalROM,
                         mode: str = "ls") -> LocalROM:
    """Second hyper-reduction stage plus operator projection.

    ``mode="deim"`` re-runs the greedy selection on the rank-sized matrix
    b = (P^T Y) Y_n and inverts the selected square block; ``mode="ls"``
    keeps all offline rows and applies the pseudo-inverse of b as R^-1 Q^T
    from one QR of b.  That needs b of full column rank, which holds since
    P^T Y is nonsingular and Y_n has orthonormal columns, so the smallest
    singular value of b is at least 1 / ``cstar_ls``.  The operator is the
    artifact's reduced operator assembled at alpha.  All composed matrices
    are sized by ranks.
    """
    if mode not in ("ls", "deim"):
        raise ValueError(f"unknown hyper-reduction mode {mode!r}")
    if art.a_reduced is None:
        raise ValueError("artifact has no reduced operator; build it with a_op")
    a_red = local.u_coords.T @ art.a_reduced.assemble(local.alpha) @ local.u_coords

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
        q, r = scipy.linalg.qr(b, mode="economic", check_finite=False)
        f_map = scipy.linalg.solve_triangular(r, proj.T, trans="T",
                                              check_finite=False).T @ q.T
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

_SCHEMA = "tromkit-artifact-3"
_PART_KINDS = {cls.kind: cls for cls in (TTPart, TuckerPart, CPPart)}
# artifact fields that the bundle metadata hold as they are
_PLAIN_FIELDS = ("eps", "cp_rank", "interp_order", "problem", "cp_fit")


def _part_blobs(tag: str, part: OnlinePart) -> tuple[dict, dict]:
    meta: dict = {"kind": part.kind}
    blobs: dict = {}
    for field in dataclasses.fields(part):
        value = getattr(part, field.name)
        if isinstance(value, tuple):
            meta[field.name] = len(value)
            for i, item in enumerate(value):
                blobs[f"{tag}_{field.name}{i}"] = item
        else:
            blobs[f"{tag}_{field.name}"] = value
    return meta, blobs


def _part_from_blobs(tag: str, meta: dict, blobs: dict) -> OnlinePart:
    cls = _PART_KINDS.get(meta["kind"])
    if cls is None:
        raise ValueError(f"unknown part kind {meta['kind']!r}")
    values = {}
    for field in dataclasses.fields(cls):
        if field.name in meta:
            values[field.name] = tuple(blobs[f"{tag}_{field.name}{i}"]
                                       for i in range(meta[field.name]))
        else:
            values[field.name] = blobs[f"{tag}_{field.name}"]
    return cls(**values)


def save_artifact(path, art: OfflineArtifact) -> None:
    """Write the artifact's parts, selection and metadata as a bundle.  The
    operator coefficient is a function and is rebuilt on load from
    ``problem``, so an artifact with a reduced operator but no problem
    description is refused."""
    if art.grid is None:
        raise ValueError("POD artifacts are in-memory baselines and are not saved")
    if art.a_reduced is not None and art.problem is None:
        raise ValueError("artifact has a reduced operator but no problem "
                         "description to rebuild its coefficient from")
    u_meta, u_blobs = _part_blobs("u", art.u_part)
    f_meta, f_blobs = _part_blobs("f", art.f_part)
    meta = {name: getattr(art, name) for name in _PLAIN_FIELDS} | {
        "schema": _SCHEMA,
        "format": art.fmt,
        "grid": art.grid.to_dict(),
        "u_part": u_meta,
        "f_part": f_meta,
        "full_shape": list(art.full_shape),
        "reduced_operator": art.a_reduced is not None,
        # Stored, not computed again on load: a load that also re-ran
        # ``deim_select`` and ``selection_gain`` raised the transport-query
        # benchmark's peak RSS to a median of 262.8 MB against 238.3 MB,
        # past its 10% bound.
        "selection": art.selection.indices.tolist(),
        "cstar_ls": art.cstar_ls,
    }
    store.save_bundle(path, meta, {**u_blobs, **f_blobs})


def load_artifact(path) -> OfflineArtifact:
    """Read a bundle and rebuild the artifact from its parts and its stored
    selection with the constructor that ``build_offline`` uses."""
    # Affine coefficient functions are rebuilt from the problem description.
    from .fom import config_from_dict

    meta, blobs = store.load_bundle(path)
    # C-contiguous, as artifacts have always loaded: over the Fortran-ordered
    # arrays of ``read_tensor`` the online products round differently, and a
    # reloaded artifact would not answer bit for bit like the one saved.
    blobs = {name: np.ascontiguousarray(blob) for name, blob in blobs.items()}
    schema = meta.get("schema")
    if schema != _SCHEMA:
        raise ValueError(f"{path} has schema {schema!r}, not {_SCHEMA!r}; rebuild "
                         "the artifact with `tromkit offline`")
    u_part = _part_from_blobs("u", meta["u_part"], blobs)
    f_part = _part_from_blobs("f", meta["f_part"], blobs)
    # one distinct term-basis row per basis column, or ``P^T Y`` cannot be taken
    rows, (m, n) = np.asarray(meta["selection"]), f_part.basis.shape
    if not (rows.shape == (n,) and rows.dtype.kind == "i"
            and np.unique(rows[(rows >= 0) & (rows < m)]).size == n):
        raise ValueError(f"{path} has a stored selection that is not {n} distinct rows "
                         f"of its {m}-row term basis; rebuild the artifact with "
                         "`tromkit offline`")
    problem = meta["problem"]
    if meta["reduced_operator"] and not (isinstance(problem, dict) and "kind" in problem):
        raise ValueError(f"{path} has a reduced operator but no problem kind to rebuild its "
                         "coefficient from; rebuild the artifact with `tromkit offline`")
    a_op = config_from_dict(problem).affine() if meta["reduced_operator"] else None
    return _coupled_artifact(
        u_part, f_part, a_op, SelectionIndices(rows), meta["cstar_ls"], fmt=meta["format"],
        grid=ParameterGrid.from_dict(meta["grid"]), full_shape=tuple(meta["full_shape"]),
        **{name: meta[name] for name in _PLAIN_FIELDS})
