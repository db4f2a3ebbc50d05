"""Full-order finite-difference models for the two test problems and
snapshot-tensor generation over a training grid.

Both problems march with the one semi-implicit BDF2 loop of
:mod:`tromkit.stepping` (BDF1 first step), a block of runs at a time:
``sample_snapshots`` makes one march per node of the first grid axis, over
every node of the remaining axes, and writes each step straight into that
slab of the snapshot tensors.  ``run_fom`` marches the block of one run.

* The phase-field runs of one width share the operator, its
  ``AffineOperator`` (``ac_affine``), the one the offline stage projects: one
  ``splu`` per shift per width and one multi-right-hand-side solve per step,
  with the potential evaluated on the whole block through a per-run
  asymmetry column.  It can round apart from one run's solve in the last
  digits, since SuperLU then takes its multi-column kernels.
* The transport model hands the loop a banded solve, the one kept copy of
  the transport stencil: reading its bands from the assembled operators
  made a run about 10% slower at m=400 and 30% or more at m=40 (2-core
  machine, one BLAS thread), and FOM time is both sampling cost and the
  ROM/FOM speed-up's denominator.  Each run's step matrix depends on its
  own state, so a block stacks the runs into one tridiagonal system whose
  coupling entries are exactly zero; one LAPACK ``gtsv`` per step then gives
  every run the numbers of its own solve.

A non-finite state raises ``FloatingPointError`` naming the first bad step
and the parameter; a failed slab is marched again one node at a time to
name the node.  States are sampled at ``t = dt .. T`` and the
nonlinear-term snapshots are the values the stepping actually used, so one
extra internal step past ``T`` feeds the final one.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import store
from .grids import ParameterGrid, uniform_axis
from .stepping import (AdvectiveTerm, AffineOperator, PointwiseTerm, _bdf2,
                       _march_full, integrate_full)


def _require_sizes(cfg, least_m: int) -> None:
    """Refuse a config with fewer than ``least_m`` nodes per axis or no steps,
    so that every stage, full order and reduced, takes the same sizes; a JSON
    config can give a float or a boolean, which are refused too."""
    for name, least in (("m", least_m), ("n_steps", 1)):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# Viscous transport problem (1D, homogeneous Dirichlet)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurgersConfig:
    """1D viscous transport test problem with a parametric step front.

    The state holds the ``m`` interior nodes x_i = i*h, h = 1/(m+1); the
    Dirichlet boundary rows are eliminated.  Parameters: viscosity on a
    log-uniform axis and initial front position on a uniform axis.
    """

    m: int = 100
    n_steps: int = 100
    t_final: float = 1.0
    nu_range: tuple[float, float] = (0.01, 0.5)
    front_range: tuple[float, float] = (0.2, 0.8)

    kind = "burgers"
    run_name = "transport"

    def __post_init__(self):
        _require_sizes(self, least_m=3)    # the upwind stencil's minimum

    @property
    def n_dofs(self) -> int:
        return self.m

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.m + 1)

    def stabilization(self, dt: float) -> float:
        return 0.0      # the transported factor is implicit; no shift needed


def burgers_affine(cfg: BurgersConfig) -> AffineOperator:
    """Diffusion ``nu * D2 / h^2`` (Dirichlet rows eliminated), nu = alpha[0]."""
    ones = np.ones(cfg.m)
    d2 = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], offsets=(-1, 0, 1))
    return AffineOperator(terms=(((1.0 / cfg.h**2) * d2).tocsr(),),
                          coeff=lambda alpha: alpha[:1])


@lru_cache(maxsize=8)
def burgers_nonlinearity(cfg: BurgersConfig) -> AdvectiveTerm:
    """The upwind transport term of ``cfg``, built once per config and shared
    by every caller; its gradient's arrays are read-only."""
    ones = np.ones(cfg.m)
    grad = (sp.diags([-ones[:-1], ones], offsets=(-1, 0)) / cfg.h).tocsr()
    for part in (grad.data, grad.indices, grad.indptr):
        part.flags.writeable = False
    return AdvectiveTerm(grad=grad)


def burgers_initial_state(cfg: BurgersConfig, front) -> np.ndarray:
    """The step down at ``front``: a number, or a column (shape (..., 1)) of
    one front per run."""
    return (cfg.nodes < front).astype(np.float64)


def burgers_grid(cfg: BurgersConfig, shape: tuple[int, int] = (8, 16)) -> ParameterGrid:
    return ParameterGrid((
        uniform_axis(*cfg.nu_range, shape[0], log_scale=True),
        uniform_axis(*cfg.front_range, shape[1]),
    ))


def _require_finite(states: np.ndarray, run: str, alpha: np.ndarray) -> None:
    """Raise naming the first step (column j-1 holds t = j dt) whose state is
    not finite."""
    finite = np.isfinite(states)
    if not finite.all():
        step = int(np.argmin(finite.all(axis=0))) + 1
        raise FloatingPointError(
            f"non-finite state in {run} run at step {step} "
            f"of {states.shape[1]}, alpha={alpha.tolist()}")


def _burgers_march(cfg: BurgersConfig, alphas: np.ndarray, out: np.ndarray,
                   f_out: np.ndarray) -> None:
    """March the transport runs at ``alphas`` (shape (..., 2)) as one block,
    writing run r's states and term values into ``out[r]`` and ``f_out[r]``
    (each m x n_steps).

    The runs' step matrices are stacked into one tridiagonal system whose
    coupling entries are exactly zero, so one banded solve (LAPACK ``gtsv``)
    per step gives every run the numbers of its own solve.  A non-finite run
    spreads to the others through ``0 * NaN``.
    """
    m, h = cfg.m, cfg.h
    u0 = burgers_initial_state(cfg, alphas[..., 1:2])
    # per-entry band parts, so that a single run does array-array arithmetic
    # only, as fast as with scalars
    diff = np.broadcast_to(alphas[..., :1] / h**2, u0.shape)
    diag = lru_cache(maxsize=None)(lambda c: c + 2.0 * diff)
    lower = -diff[..., 1:]
    f_cols = iter(np.moveaxis(f_out, -1, 0))    # entry j-1 takes the term value of step j
    ab = np.zeros((3,) + u0.shape)
    ab[0, ..., 1:] = lower
    bands = ab.reshape(3, -1)

    def solve(c, w, rhs):
        coeff = u0 if w is None else w
        np.add(diag(c), coeff / h, out=ab[1])
        np.subtract(lower, coeff[..., 1:] / h, out=ab[2, ..., :-1])
        x = scipy.linalg.solve_banded((1, 1), bands, rhs.reshape(-1), check_finite=False)
        if w is not None:
            gu = np.empty_like(x)                   # the upwind gradient of each run
            np.subtract(x[1:], x[:-1], out=gu[1:])
            gu[::m] = x[::m]                        # a run's first node sees the Dirichlet zero
            gu /= h
            np.multiply(-w, gu.reshape(w.shape), out=next(f_cols))
        return x.reshape(rhs.shape)

    _bdf2(solve, u0, cfg.dt, cfg.n_steps, tail=True, out=out)


# ---------------------------------------------------------------------------
# Phase-field problem (2D, zero Neumann)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllenCahnConfig:
    """2D phase-field test problem with a double-well potential.

    The grid is cell-centered, ``m x m`` cells on the unit square with
    reflection (zero Neumann) closures, so M = m^2.  Parameters: interface
    width (log-uniform), potential asymmetry, and the Bernoulli probability
    of the high phase in the random initial field.  Initial states are drawn
    by thresholding one shared counter-based uniform field and relaxing it
    for ``pre_time`` at width 0.01 and zero asymmetry.

    ``beta_s`` defaults to 1/(2 dt); the explicit treatment of the potential
    needs the shift to dominate half its curvature (about 1 on the wells),
    so step sizes much above half a time unit call for an explicit value.
    """

    m: int = 50
    n_steps: int = 100
    t_final: float = 20.0
    beta_s: float | None = None
    width_range: tuple[float, float] = (0.01, 0.025)
    asym_range: tuple[float, float] = (0.0, 1.0)
    bernoulli_range: tuple[float, float] = (0.5, 0.52)
    seed: int = 1234
    pre_steps: int = 50
    pre_time: float = 1.0

    kind = "allen_cahn"
    run_name = "phase-field"

    def __post_init__(self):
        _require_sizes(self, least_m=1)

    @property
    def n_dofs(self) -> int:
        return self.m * self.m

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def stabilization(self, dt: float) -> float:
        return self.beta_s if self.beta_s is not None else 0.5 / dt


def neumann_laplacian(m: int) -> sp.csr_matrix:
    """Second-order 5-point Laplacian on an m x m cell-centered grid with
    reflection rows, scaled by 1/h^2 (h = 1/m).  Symmetric negative
    semi-definite; constants are in the null space."""
    ones = np.ones(m)
    main = -2.0 * ones
    main[0] = main[-1] = -1.0
    l1 = sp.diags([ones[:-1], main, ones[:-1]], offsets=(-1, 0, 1))
    eye = sp.identity(m)
    return ((sp.kron(l1, eye) + sp.kron(eye, l1)) * m**2).tocsr()


@lru_cache(maxsize=8)
def ac_affine(cfg: AllenCahnConfig) -> AffineOperator:
    """Diffusion ``width^2 * Laplacian``, built once per config; read-only arrays."""
    base = neumann_laplacian(cfg.m)
    for part in (base.data, base.indices, base.indptr):
        part.flags.writeable = False
    return AffineOperator(terms=(base,), coeff=lambda alpha: alpha[:1] ** 2)


def potential_derivative(u: np.ndarray, asym: float) -> np.ndarray:
    """Derivative of the double well u^2 (1-u)^2 + (asym/10)(u^4 - u/2)."""
    return 2.0 * u * (1.0 - u) * (1.0 - 2.0 * u) + (asym / 10.0) * (4.0 * u**3 - 0.5)


def ac_nonlinearity(cfg: AllenCahnConfig, asym) -> PointwiseTerm:
    """The potential term at asymmetry ``asym``: a number, or a column
    (shape (..., 1)) that gives each run of a block its own."""
    return PointwiseTerm(fn=lambda u: -potential_derivative(u, asym))


def ac_grid(cfg: AllenCahnConfig, shape: tuple[int, int, int] = (4, 3, 3)) -> ParameterGrid:
    return ParameterGrid((
        uniform_axis(*cfg.width_range, shape[0], log_scale=True),
        uniform_axis(0.0, 0.3, shape[1], box=cfg.asym_range),
        uniform_axis(*cfg.bernoulli_range, shape[2]),
    ))


def _ac_uniform_field(cfg: AllenCahnConfig) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    return rng.random(cfg.n_dofs)


@lru_cache(maxsize=8)
def _ac_sorted_field(cfg: AllenCahnConfig) -> np.ndarray:
    field = np.sort(_ac_uniform_field(cfg))
    field.flags.writeable = False
    return field


def _ac_class_probability(cfg: AllenCahnConfig, p_high: float) -> float:
    """The probability that stands for every ``p_high`` with the same mask
    ``field < p_high``: the smallest field value at or above ``p_high``, or
    1.0 when ``p_high`` exceeds them all (the field lies in [0, 1))."""
    field = _ac_sorted_field(cfg)
    i = int(np.searchsorted(field, p_high, side="left"))
    return float(field[i]) if i < field.size else 1.0


@lru_cache(maxsize=64)
def ac_initial_state(cfg: AllenCahnConfig, p_high: float) -> np.ndarray:
    """Thresholded Bernoulli field relaxed by a short pre-simulation.

    Thresholding one shared uniform field couples the draws across
    probabilities, which keeps the initial state meaningful for
    probabilities between the training values.

    The state depends on ``p_high`` only through the mask
    ``field < p_high``, so the callers in this module pass one probability
    per mask (``_ac_class_probability``) and a query relaxes a field only
    when its mask is not among the cached ones.  The cache stays an
    ``lru_cache`` keyed by ``(cfg, p_high)``: its ``cache_info()`` is how
    hits and misses are counted.
    """
    field = (_ac_uniform_field(cfg) < p_high).astype(np.float64)
    if cfg.pre_steps == 0:
        return field
    dt_pre = cfg.pre_time / cfg.pre_steps
    a_mat = ac_affine(cfg).assemble([0.01, 0.0])
    term = ac_nonlinearity(cfg, 0.0)
    states, _ = integrate_full(a_mat, term, field, dt_pre, cfg.pre_steps,
                               stab=cfg.stabilization(dt_pre))
    out = states[:, -1].copy()
    out.flags.writeable = False
    return out


def _ac_march(cfg: AllenCahnConfig, alphas: np.ndarray, out: np.ndarray,
              f_out: np.ndarray) -> None:
    """March the phase-field runs at ``alphas`` (shape (..., 3)), which share
    the width and so the operator, as one block from their initial states,
    writing run r's states and term values into ``out[r]`` and ``f_out[r]``:
    one ``splu`` per shift, one multi-right-hand-side solve per step."""
    probs = alphas[..., 2].ravel()
    u0 = np.stack([ac_initial_state(cfg, _ac_class_probability(cfg, float(p)))
                   for p in probs]).reshape(alphas.shape[:-1] + (cfg.n_dofs,))
    a_mat = ac_affine(cfg).assemble(alphas.reshape(-1, alphas.shape[-1])[0])
    term = ac_nonlinearity(cfg, alphas[..., 1:2])
    _march_full(a_mat, term, u0, cfg.dt, cfg.n_steps, cfg.stabilization(cfg.dt),
                out, f_out)


# ---------------------------------------------------------------------------
# Snapshot sets
# ---------------------------------------------------------------------------

ProblemConfig = BurgersConfig | AllenCahnConfig

_PROBLEM_KINDS = {cls.kind: cls for cls in (BurgersConfig, AllenCahnConfig)}

# the block march of each problem kind, the one way its full-order model runs
_MARCHES = {BurgersConfig.kind: _burgers_march, AllenCahnConfig.kind: _ac_march}


def config_to_dict(cfg: ProblemConfig) -> dict:
    return asdict(cfg) | {"kind": cfg.kind}


def config_from_dict(d: dict) -> ProblemConfig:
    d = dict(d)
    kind = d.pop("kind")
    cls = _PROBLEM_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown problem kind {kind!r}; expected one of "
                         f"{', '.join(_PROBLEM_KINDS)}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in d if key not in names]
    if unknown:
        raise ValueError(f"{', '.join(unknown)} {'is' if len(unknown) == 1 else 'are'} "
                         f"not among the fields of the {kind} problem: {', '.join(names)}")
    for key in ("nu_range", "front_range", "width_range", "asym_range", "bernoulli_range"):
        if key in d:
            d[key] = tuple(d[key])
    return cls(**d)


def affine_operator_for(cfg: ProblemConfig) -> AffineOperator:
    if isinstance(cfg, BurgersConfig):
        return burgers_affine(cfg)
    return ac_affine(cfg)


def nonlinearity_for(cfg: ProblemConfig, alpha) -> AdvectiveTerm | PointwiseTerm:
    if isinstance(cfg, BurgersConfig):
        return burgers_nonlinearity(cfg)
    return ac_nonlinearity(cfg, float(np.atleast_1d(alpha)[1]))


def initial_state_for(cfg: ProblemConfig, alpha) -> np.ndarray:
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if isinstance(cfg, BurgersConfig):
        return burgers_initial_state(cfg, float(alpha[1]))
    return np.array(ac_initial_state(cfg, _ac_class_probability(cfg, float(alpha[2]))))


def run_fom(cfg: ProblemConfig, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory and nonlinear-term snapshots (each n_dofs x n_steps) at one
    parameter point: the block march of one run."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    states = np.empty((cfg.n_dofs, cfg.n_steps))
    f_vals = np.empty_like(states)
    _MARCHES[cfg.kind](cfg, alpha, states, f_vals)
    _require_finite(states, cfg.run_name, alpha)
    return states, f_vals


def default_grid(cfg: ProblemConfig, shape=None) -> ParameterGrid:
    make, default = ((burgers_grid, (8, 16)) if isinstance(cfg, BurgersConfig)
                     else (ac_grid, (4, 3, 3)))
    shape = tuple(shape) if shape else default
    if len(shape) != len(default):
        raise ValueError(f"grid shape {list(shape)} has {len(shape)} entries; the "
                         f"{cfg.kind} problem has {len(default)} parameters")
    return make(cfg, shape)


@dataclass(frozen=True)
class SnapshotSet:
    """Snapshot tensors (M x K_1 x ... x K_D x N) plus what regenerates
    them: the grid and the problem config, which also fixes the time grid
    and the initial state at every parameter (``initial_state_for``)."""

    u_tensor: np.ndarray
    f_tensor: np.ndarray
    grid: ParameterGrid
    config: ProblemConfig


def sample_snapshots(cfg: ProblemConfig, grid: ParameterGrid) -> SnapshotSet:
    """Run the full-order model at every grid node and pack the tensors.

    The runs at one node of the first axis march together as one block and
    write their steps straight into that slab of both tensors.  When a slab
    fails, its nodes are marched again one at a time, so that the error
    names the first node that fails on its own: in the transport block a
    non-finite run spreads to the others.
    """
    shape = (cfg.n_dofs,) + grid.shape + (cfg.n_steps,)
    u_tensor = np.empty(shape)
    f_tensor = np.empty(shape)
    march = _MARCHES[cfg.kind]
    rest = [ax.nodes for ax in grid.axes[1:]]
    for i, first in enumerate(grid.axes[0].nodes):
        # the slab's parameters, K_2 x .. x K_D x D; then its views into the
        # tensors with the run axes first, then space and time
        alphas = np.stack(np.meshgrid([first], *rest, indexing="ij"), axis=-1)[0]
        out, f_out = (np.moveaxis(t[:, i], 0, -2) for t in (u_tensor, f_tensor))
        try:
            march(cfg, alphas, out, f_out)
            cause = None if np.isfinite(out).all() else FloatingPointError(
                f"non-finite state in the slab at alpha[0]={first}")
        except Exception as exc:
            cause = exc
        if cause is not None:
            _raise_first_failure(cfg, alphas.reshape(-1, grid.ndim), cause)
    return SnapshotSet(u_tensor=u_tensor, f_tensor=f_tensor, grid=grid, config=cfg)


def _raise_first_failure(cfg: ProblemConfig, alphas: np.ndarray,
                         cause: Exception) -> None:
    """Run the nodes of a failed slab one at a time and raise for the first
    that fails on its own."""
    for alpha in alphas:
        try:
            run_fom(cfg, alpha)
        except Exception as exc:
            raise RuntimeError(f"full-order run failed at alpha={alpha.tolist()}") from exc
    raise RuntimeError(f"full-order runs failed together at alphas={alphas.tolist()}, "
                       "but each ran on its own") from cause


def save_snapshots(path, snaps: SnapshotSet) -> None:
    meta = {
        "schema": "tromkit-snapshots-1",
        "problem": config_to_dict(snaps.config),
        "grid": snaps.grid.to_dict(),
    }
    store.save_bundle(path, meta, {"u_tensor": snaps.u_tensor, "f_tensor": snaps.f_tensor})


def load_snapshots(path) -> SnapshotSet:
    """Read a snapshot bundle; the per-point initial-state blob that older
    bundles carry is read and ignored."""
    meta, blobs = store.load_bundle(path)
    if meta.get("schema") != "tromkit-snapshots-1":
        raise ValueError("not a snapshot bundle")
    return SnapshotSet(
        u_tensor=blobs["u_tensor"],
        f_tensor=blobs["f_tensor"],
        grid=ParameterGrid.from_dict(meta["grid"]),
        config=config_from_dict(meta["problem"]),
    )
