"""Full-order finite-difference models for the two test problems and
snapshot-tensor generation over a training grid.

Both problems march with the one semi-implicit BDF2 loop of
:mod:`tromkit.stepping` (BDF1 first step); the transport model hands it a
banded solve.  A non-finite state raises ``FloatingPointError`` naming the
first bad step and the parameter.  States are sampled at
``t = dt .. T`` and the nonlinear-term snapshots are the values the stepping
actually used, so one extra internal step past ``T`` feeds the final one.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import store
from .grids import GridAxis, ParameterGrid, uniform_axis
from .stepping import (AdvectiveTerm, AffineOperator, PointwiseTerm, _bdf2,
                       integrate_full)


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

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.m + 1)


def burgers_operators(m: int, nu: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Diffusion matrix ``nu * D2 / h^2`` and the upwind (backward) first
    derivative, both with eliminated homogeneous Dirichlet rows."""
    if m < 3:
        raise ValueError("need at least 3 interior nodes")
    h = 1.0 / (m + 1)
    ones = np.ones(m)
    d2 = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], offsets=(-1, 0, 1))
    a_mat = (nu / h**2) * d2
    grad = sp.diags([-ones[:-1], ones], offsets=(-1, 0)) / h
    return a_mat.tocsr(), grad.tocsr()


def burgers_affine(cfg: BurgersConfig) -> AffineOperator:
    base, _ = burgers_operators(cfg.m, 1.0)
    return AffineOperator(terms=(base,), coeff=lambda alpha: alpha[:1])


def burgers_nonlinearity(cfg: BurgersConfig) -> AdvectiveTerm:
    _, grad = burgers_operators(cfg.m, 1.0)
    return AdvectiveTerm(grad=grad)


def burgers_initial_state(cfg: BurgersConfig, front: float) -> np.ndarray:
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


def burgers_fom(cfg: BurgersConfig, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory and nonlinear-term snapshots at one parameter point.

    Per-step systems are tridiagonal (implicit diffusion plus implicit
    transport with extrapolated coefficient), solved banded.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    nu, front = float(alpha[0]), float(alpha[1])
    m, h = cfg.m, cfg.h
    u0 = burgers_initial_state(cfg, front)

    diff = nu / h**2
    f_vals = np.empty((m, cfg.n_steps))
    f_cols = iter(f_vals.T)     # column j-1 takes the term value of step j
    ab = np.zeros((3, m))
    ab[0, 1:] = -diff

    def grad_of(u):
        gu = np.empty_like(u)
        gu[0] = u[0] / h
        gu[1:] = (u[1:] - u[:-1]) / h
        return gu

    def solve(c, w, rhs):
        coeff = u0 if w is None else w
        ab[1, :] = c + 2.0 * diff + coeff / h
        ab[2, :-1] = -diff - coeff[1:] / h
        u_next = scipy.linalg.solve_banded((1, 1), ab, rhs, check_finite=False)
        if w is not None:
            next(f_cols)[:] = -w * grad_of(u_next)
        return u_next

    states = _bdf2(solve, u0, cfg.dt, cfg.n_steps, tail=True)
    _require_finite(states, "transport", alpha)
    return states, f_vals


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


def allen_cahn_operators(m: int, width: float) -> sp.csr_matrix:
    return (width**2 * neumann_laplacian(m)).tocsr()


def ac_affine(cfg: AllenCahnConfig) -> AffineOperator:
    base = neumann_laplacian(cfg.m)
    return AffineOperator(terms=(base,), coeff=lambda alpha: alpha[:1] ** 2)


def potential_derivative(u: np.ndarray, asym: float) -> np.ndarray:
    """Derivative of the double well u^2 (1-u)^2 + (asym/10)(u^4 - u/2)."""
    return 2.0 * u * (1.0 - u) * (1.0 - 2.0 * u) + (asym / 10.0) * (4.0 * u**3 - 0.5)


def ac_nonlinearity(cfg: AllenCahnConfig, asym: float) -> PointwiseTerm:
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


@lru_cache(maxsize=64)
def ac_initial_state(cfg: AllenCahnConfig, p_high: float) -> np.ndarray:
    """Thresholded Bernoulli field relaxed by a short pre-simulation.

    Thresholding one shared uniform field couples the draws across
    probabilities, which keeps the initial state meaningful for
    probabilities between the training values.
    """
    field = (_ac_uniform_field(cfg) < p_high).astype(np.float64)
    if cfg.pre_steps == 0:
        return field
    dt_pre = cfg.pre_time / cfg.pre_steps
    a_mat = allen_cahn_operators(cfg.m, 0.01)
    term = ac_nonlinearity(cfg, 0.0)
    states, _ = integrate_full(a_mat, term, field, dt_pre, cfg.pre_steps,
                               stab=cfg.stabilization(dt_pre))
    out = states[:, -1].copy()
    out.flags.writeable = False
    return out


def allen_cahn_fom(cfg: AllenCahnConfig, alpha,
                   u0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stabilized BDF2 trajectory and nonlinear-term snapshots."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    width, asym = float(alpha[0]), float(alpha[1])
    if u0 is None:
        u0 = ac_initial_state(cfg, float(alpha[2]))
    if u0.size != cfg.n_dofs:
        raise ValueError(f"initial state has {u0.size} entries, expected {cfg.n_dofs}")
    a_mat = allen_cahn_operators(cfg.m, width)
    term = ac_nonlinearity(cfg, asym)
    states, f_vals = integrate_full(a_mat, term, u0, cfg.dt, cfg.n_steps,
                                    stab=cfg.stabilization(cfg.dt))
    _require_finite(states, "phase-field", alpha)
    return states, f_vals


# ---------------------------------------------------------------------------
# Snapshot sets
# ---------------------------------------------------------------------------

ProblemConfig = BurgersConfig | AllenCahnConfig

_PROBLEM_KINDS = {"burgers": BurgersConfig, "allen_cahn": AllenCahnConfig}


def problem_kind(cfg: ProblemConfig) -> str:
    return "burgers" if isinstance(cfg, BurgersConfig) else "allen_cahn"


def config_to_dict(cfg: ProblemConfig) -> dict:
    d = asdict(cfg)
    d["kind"] = problem_kind(cfg)
    return d


def config_from_dict(d: dict) -> ProblemConfig:
    d = dict(d)
    cls = _PROBLEM_KINDS[d.pop("kind")]
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
    return np.array(ac_initial_state(cfg, float(alpha[2])))


def run_fom(cfg: ProblemConfig, alpha) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(cfg, BurgersConfig):
        return burgers_fom(cfg, alpha)
    return allen_cahn_fom(cfg, alpha)


def default_grid(cfg: ProblemConfig, shape=None) -> ParameterGrid:
    if isinstance(cfg, BurgersConfig):
        return burgers_grid(cfg, tuple(shape) if shape else (8, 16))
    return ac_grid(cfg, tuple(shape) if shape else (4, 3, 3))


@dataclass(frozen=True)
class SnapshotSet:
    """Snapshot tensors (M x K_1 x ... x K_D x N) plus what regenerates
    them: the grid and the problem config, which also fixes the time grid
    and the initial state at every parameter (``initial_state_for``)."""

    u_tensor: np.ndarray
    f_tensor: np.ndarray
    grid: ParameterGrid
    config: ProblemConfig

    @property
    def times(self) -> np.ndarray:
        n = self.u_tensor.shape[-1]
        return self.config.dt * np.arange(1, n + 1)


def sample_snapshots(cfg: ProblemConfig, grid: ParameterGrid) -> SnapshotSet:
    """Run the full-order model at every grid node and pack the tensors."""
    m = cfg.m if isinstance(cfg, BurgersConfig) else cfg.n_dofs
    shape = (m,) + grid.shape + (cfg.n_steps,)
    u_tensor = np.empty(shape)
    f_tensor = np.empty(shape)
    for mi, alpha in grid.points():
        try:
            u_traj, f_traj = run_fom(cfg, alpha)
        except Exception as exc:
            raise RuntimeError(f"full-order run failed at alpha={alpha.tolist()}") from exc
        sl = (slice(None),) + mi + (slice(None),)
        u_tensor[sl] = u_traj
        f_tensor[sl] = f_traj
    return SnapshotSet(u_tensor=u_tensor, f_tensor=f_tensor, grid=grid, config=cfg)


def save_snapshots(path, snaps: SnapshotSet) -> None:
    meta = {
        "schema": "tromkit-snapshots-1",
        "problem": config_to_dict(snaps.config),
        "grid": snaps.grid.to_dict(),
        "times": snaps.times.tolist(),
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
