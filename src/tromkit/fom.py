"""Full-order finite-difference models of the test problems and
snapshot-tensor generation over a training grid.

Each problem is one frozen config class in the registry ``PROBLEMS``, keyed
by ``kind``.  The class defines every fact of its problem: its operator,
nonlinear term, initial state, grids, full-order march, error metrics and
CLI name.  The base ``ProblemConfig``, on the settings schema ``Settings``
that the study settings share, validates the fields, and the module
functions (``affine_operator_for``, ``run_fom``, ...) delegate to the class,
so a new problem is one class and one registry entry.

Both problems march with the one semi-implicit BDF2 loop of
:mod:`tromkit.stepping` (BDF1 first step), a block of runs at a time, and
each hands it its own step solve: the transport march one LAPACK ``dgtsv``
of its tridiagonal bands, and the phase-field march, which also relaxes the
initial states, a fast diagonalisation of ``neumann_second_difference``,
the 1-D factor its Laplacian is built from.
``sample_snapshots`` makes one march per node of the first grid axis, over
every node of the remaining axes, and writes each step straight into that
slab of the snapshot tensors.  ``run_fom`` marches the block of one run.
A non-finite state raises ``FloatingPointError`` naming the first bad step
and the parameter; a failed slab is marched again one node at a time to
name the node.  States are sampled at ``t = dt .. T`` and the
nonlinear-term snapshots are the values the stepping actually used, so one
extra internal step past ``T`` feeds the final one.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv

from . import metrics, store
from .grids import ParameterGrid, uniform_axis
from .stepping import AdvectiveTerm, AffineOperator, PointwiseTerm, _bdf2


def _finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _list_of(admits):
    return lambda v: isinstance(v, tuple) and len(v) > 0 and all(map(admits, v))


# what a settings field of each type admits, and how its refusal says so; a
# JSON config can give a float, a boolean or a string anywhere, and its lists
# arrive as tuples
_ADMITS = {
    "int": (_integer, "an integer"),
    "int | None": (lambda v: v is None or _integer(v), "None or an integer"),
    "float": (lambda v: _finite_number(v) and v > 0, "a finite number above 0"),
    "float | None": (lambda v: v is None or _finite_number(v), "None or a finite number"),
    "Real": (_finite_number, "a finite number"),
    "tuple[float, float]": (lambda v: (isinstance(v, tuple) and len(v) == 2
                                       and all(map(_finite_number, v)) and v[0] < v[1]),
                            "two finite numbers lo < hi"),
    "tuple[float, ...]": (_list_of(_finite_number), "a non-empty list of finite numbers"),
    "tuple[int, ...]": (_list_of(_integer), "a non-empty list of integers"),
    "tuple[int, ...] | None": (lambda v: v is None or _list_of(_integer)(v),
                               "None or a non-empty list of integers"),
    "tuple": (_list_of(lambda v: True), "a non-empty list"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict | None": (lambda v: v is None or isinstance(v, dict), "None or a JSON object"),
}


class Settings:
    """The base of the frozen settings dataclasses: the problem configs and
    the study settings.  Construction refuses, with a ``ValueError`` that
    starts with the field name, a value that the field's annotated type does
    not admit (``_ADMITS``), a number below its ``least`` (0 for an integer
    not named there) or not below its ``below``, and a value outside its
    ``choices``; of a list these hold for each entry, of an object for each
    key.  It converts nothing, so accepted settings serialize as given.
    """

    least, below, choices = {}, {}, {}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            admits, what = _ADMITS[f.type]
            if not admits(value):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if value is None:
                continue
            entries = (value if isinstance(value, tuple)
                       else value.keys() if isinstance(value, dict) else [value])
            name = f.name + {tuple: " entries", dict: " keys"}.get(type(value), "")
            least = self.least.get(f.name, 0 if f.type == "int" else None)
            if least is not None and min(entries) < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            if f.name in self.below and max(entries) >= self.below[f.name]:
                raise ValueError(f"{name} must be below {self.below[f.name]}, got {value}")
            if f.name in self.choices and not set(entries) <= set(self.choices[f.name]):
                raise ValueError(f"{name} must be among {', '.join(self.choices[f.name])}, "
                                 f"got {value!r}")

    @classmethod
    def from_dict(cls, d: dict, members: str):
        """The settings ``d`` describes, its JSON lists as tuples.  Refuses a
        key that is no field, naming the ``members`` (what the fields are)."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(d.keys() - set(names))
        if unknown:
            raise ValueError(f"{', '.join(unknown)} {'is' if len(unknown) == 1 else 'are'} "
                             f"not among the {members}: {', '.join(names)}")
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in d.items()})


class ProblemConfig(Settings):
    """The base of the problem configs, which also set ``kind``,
    ``cli_name``, ``run_name`` (the name their errors give),
    ``default_shape`` and the paper-scale ``paper_m``, ``paper_steps`` and
    ``paper_shape``.  The least sizes are ``least_m`` for ``m`` and 1 for
    ``n_steps``, so that every stage takes the same sizes.
    """

    least_m = 1

    @property
    def least(self) -> dict:
        return {"m": self.least_m, "n_steps": 1}

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def stabilization(self, dt: float) -> float:
        return 0.0

    def grid(self, shape=None) -> ParameterGrid:
        """The training grid, ``shape`` (or ``default_shape``) nodes per axis."""
        shape = shape or self.default_shape
        if not (isinstance(shape, (list, tuple)) and all(map(_integer, shape))):
            raise ValueError(f"grid shape {shape!r} is not a list of integers")
        if len(shape) != len(self.default_shape):
            raise ValueError(f"grid shape {list(shape)} has {len(shape)} entries; the "
                             f"{self.kind} problem has {len(self.default_shape)} parameters")
        return ParameterGrid(self._axes(shape))

    def error_metrics(self, t_window: float) -> dict:
        """Error functions ``(states, reference) -> float`` by name, the
        problem's headline metric last (the refine study tabulates it): here
        the space-time l2 error."""
        return {"l2l2": metrics.rel_l2l2}


# ---------------------------------------------------------------------------
# Viscous transport problem (1D, homogeneous Dirichlet)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurgersConfig(ProblemConfig):
    """1D viscous transport test problem with a parametric step front.

    The state holds the ``m`` interior nodes x_i = i*h, h = 1/(m+1); the
    Dirichlet boundary rows are eliminated.  Parameters: viscosity on a
    log-uniform axis and initial front position on a uniform axis.  The
    transported factor is implicit, so no stabilization shift is needed.
    """

    m: int = 100
    n_steps: int = 100
    t_final: float = 1.0
    nu_range: tuple[float, float] = (0.01, 0.5)
    front_range: tuple[float, float] = (0.2, 0.8)

    kind = "burgers"
    cli_name = "burgers"
    run_name = "transport"
    least_m = 3         # the upwind stencil's minimum
    default_shape = (8, 16)
    paper_m, paper_steps, paper_shape = 400, 200, (16, 32)

    @property
    def n_dofs(self) -> int:
        return self.m

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.m + 1)

    def affine(self) -> AffineOperator:
        """Diffusion ``nu * D2 / h^2`` (Dirichlet rows eliminated), nu = alpha[0]."""
        ones = np.ones(self.m)
        d2 = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], offsets=(-1, 0, 1))
        return AffineOperator(terms=(((1.0 / self.h**2) * d2).tocsr(),),
                              coeff=lambda alpha: alpha[:1])

    def nonlinearity(self, alpha=None) -> AdvectiveTerm:
        """The upwind transport term, which no parameter enters."""
        return self._upwind()

    @lru_cache(maxsize=8)
    def _upwind(self) -> AdvectiveTerm:
        """Built once per config and shared by every caller; its gradient's
        arrays are read-only."""
        ones = np.ones(self.m)
        grad = (sp.diags([-ones[:-1], ones], offsets=(-1, 0)) / self.h).tocsr()
        for part in (grad.data, grad.indices, grad.indptr):
            part.flags.writeable = False
        return AdvectiveTerm(grad=grad)

    def initial_state(self, alpha) -> np.ndarray:
        """The step down at the front ``alpha[1]`` of one parameter vector, or
        one step per run of a block of them (shape (..., 2))."""
        return (self.nodes < np.asarray(alpha)[..., 1:2]).astype(np.float64)

    def _axes(self, shape):
        return (uniform_axis(*self.nu_range, shape[0], log_scale=True),
                uniform_axis(*self.front_range, shape[1]))

    def error_metrics(self, t_window: float) -> dict:
        """Adds transport's headline metric, the late-window h1 quotient.
        Refuses, with a ``ValueError``, a ``t_window`` that leaves it fewer
        than two snapshot times."""
        times = self.dt * np.arange(1, self.n_steps + 1)
        count = int(np.count_nonzero(times >= t_window))
        if count < 2:
            raise ValueError(f"t_window {t_window:g} leaves {count} of the {self.n_steps} "
                             f"snapshot times (t = {self.dt:g} .. {self.t_final:g}); the "
                             f"late-window h1 quotient needs at least two")
        return super().error_metrics(t_window) | {"h1": partial(
            metrics.rel_l2h1_quotient, h=self.h, times=times, t_lo=t_window)}

    def march(self, alphas: np.ndarray, out: np.ndarray, f_out: np.ndarray) -> None:
        """March the runs at ``alphas`` (shape (..., 2)) as one block, writing
        run r's states and term values into ``out[r]`` and ``f_out[r]`` (each
        m x n_steps).

        A step is one LAPACK ``dgtsv`` on three bands written in place, the
        one kept copy of the transport stencil: reading its bands from the
        assembled operators made a run about 10% slower at m=400 and 30% or
        more at m=40 (2-core machine, one BLAS thread), and FOM time is both
        sampling cost and the ROM/FOM speed-up's denominator.  Each run's step
        matrix depends on its own state, so the block stacks them into one
        tridiagonal system whose coupling entries are exactly zero, and the
        one solve gives every run the numbers of its own.  One non-finite
        entry leaves the whole block's solution non-finite: elimination
        carries it forward (``0 * NaN`` at a zero coupling, or the row
        interchange a NaN pivot forces), back substitution backward.  A
        nonzero ``info`` raises ``np.linalg.LinAlgError``.
        """
        m, h = self.m, self.h
        u0 = self.initial_state(alphas)
        # per-entry band parts, so that a single run does array-array arithmetic
        # only, as fast as with scalars
        diff = np.broadcast_to(alphas[..., :1] / h**2, u0.shape)
        diag = lru_cache(maxsize=None)(lambda c: c + 2.0 * diff)
        lower = -diff[..., 1:]
        f_cols = iter(np.moveaxis(f_out, -1, 0))    # entry j-1 takes the term value of step j
        # bands that dgtsv overwrites, as it does the fresh rhs; it reads size - 1
        # entries of the off-diagonal ones, a run's last the zero coupling, which
        # stays zero in the sub-diagonal: no finite pivot is swapped with a zero
        sub, main, sup, upper = np.zeros((4,) + u0.shape)
        upper[..., :-1] = lower
        bands = sub.reshape(-1)[:-1], main.reshape(-1), sup.reshape(-1)[:-1]

        def solve(c, w, rhs):
            q = (u0 if w is None else w) / h
            np.add(diag(c), q, out=main)
            np.subtract(lower, q[..., 1:], out=sub[..., :-1])
            sup[...] = upper
            x, info = dgtsv(*bands, rhs.reshape(-1), overwrite_dl=True, overwrite_d=True,
                            overwrite_du=True, overwrite_b=True)[3:]
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"singular {self.run_name} step matrix (dgtsv info={info})")
            if w is not None:
                gu = np.empty_like(x)               # the upwind gradient of each run
                np.subtract(x[1:], x[:-1], out=gu[1:])
                gu[::m] = x[::m]                    # a run's first node sees the Dirichlet zero
                gu /= h
                np.multiply(-w, gu.reshape(w.shape), out=next(f_cols))
            return x.reshape(rhs.shape)

        _bdf2(solve, u0, self.dt, self.n_steps, out=out)


def _require_finite(states: np.ndarray, run: str, alpha: np.ndarray) -> None:
    """Raise naming the first step (column j-1 holds t = j dt) whose state is
    not finite."""
    finite = np.isfinite(states)
    if not finite.all():
        step = int(np.argmin(finite.all(axis=0))) + 1
        raise FloatingPointError(
            f"non-finite state in {run} run at step {step} "
            f"of {states.shape[1]}, alpha={alpha.tolist()}")


# ---------------------------------------------------------------------------
# Phase-field problem (2D, zero Neumann)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllenCahnConfig(ProblemConfig):
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
    cli_name = "allen-cahn"
    run_name = "phase-field"
    default_shape = (4, 3, 3)
    # full tensors at paper scale occupy roughly 2.6 GB in memory
    paper_m, paper_steps, paper_shape = 150, 200, (8, 3, 3)

    @property
    def n_dofs(self) -> int:
        return self.m * self.m

    def stabilization(self, dt: float) -> float:
        return self.beta_s if self.beta_s is not None else 0.5 / dt

    @lru_cache(maxsize=8)
    def affine(self) -> AffineOperator:
        """Diffusion ``width^2 * Laplacian``, built once per config; read-only arrays."""
        base = neumann_laplacian(self.m)
        for part in (base.data, base.indices, base.indptr):
            part.flags.writeable = False
        return AffineOperator(terms=(base,), coeff=lambda alpha: alpha[:1] ** 2)

    def nonlinearity(self, alpha) -> PointwiseTerm:
        """The potential term at the asymmetry ``alpha[1]``: a number for one
        parameter vector, a column (..., 1) for a block of them (..., 3)."""
        alpha = np.asarray(alpha)
        asym = float(alpha[1]) if alpha.ndim == 1 else alpha[..., 1:2]
        # minus the derivative of the double well u^2 (1-u)^2 + (asym/10)(u^4 - u/2)
        c3, c0 = -4.0 - 0.4 * asym, 0.05 * asym
        return PointwiseTerm(fn=lambda u: _cubic(u, c3, 6.0, -2.0, c0))

    def initial_state(self, alpha) -> np.ndarray:
        """The relaxed field of the mask class of ``alpha[2]``
        (``ac_initial_state``), of one parameter vector or each of a block."""
        probs = np.asarray(alpha, dtype=np.float64)[..., 2]
        return np.array([ac_initial_state(self, _ac_class_probability(self, float(p)))
                         for p in probs.flat]).reshape(probs.shape + (self.n_dofs,))

    def _axes(self, shape):
        return (uniform_axis(*self.width_range, shape[0], log_scale=True),
                uniform_axis(0.0, 0.3, shape[1], box=self.asym_range),
                uniform_axis(*self.bernoulli_range, shape[2]))

    def march(self, alphas: np.ndarray, out: np.ndarray, f_out: np.ndarray) -> None:
        """March the runs at ``alphas`` (shape (..., 3)), which share the
        width and so the operator the offline stage projects, as one block
        from their initial states, writing run r's states and term values into
        ``out[r]`` and ``f_out[r]`` (``march_block``)."""
        self.march_block(alphas, self.initial_state(alphas), self.dt, self.n_steps, out, f_out)

    def march_block(self, alphas: np.ndarray, u0: np.ndarray, dt: float, n_steps: int,
                    out: np.ndarray | None = None,
                    f_out: np.ndarray | None = None) -> np.ndarray:
        """The phase field's one block march, of ``march`` and of the
        initial-state relaxation (``ac_initial_state``): the runs at
        ``alphas``, which share the width, from ``u0`` (shape (..., M)) for
        ``n_steps`` steps of ``dt``, into ``out`` (allocated when not given)
        and, when given, their term values into ``f_out``; returns ``out``.
        A step solves with the operator's coefficient and the 1-D factor of
        its Laplacian by fast diagonalisation (``shifted_neumann_solver``),
        every run through its own products, and evaluates the potential on the
        whole block through a per-run asymmetry column."""
        g = float(self.affine().coeff(alphas.reshape(-1, alphas.shape[-1])[0])[0])
        shifted = shifted_neumann_solver(self.m, g)
        term = self.nonlinearity(alphas).fn
        f_cols = None if f_out is None else iter(np.moveaxis(f_out, -1, 0))

        def solve(c, w, rhs):
            f = term(u0 if w is None else w)
            if w is not None and f_cols is not None:
                next(f_cols)[:] = f     # entry j-1 takes the term value of step j
            return shifted(c, rhs + f)

        return _bdf2(solve, u0, dt, n_steps, stab=self.stabilization(dt), out=out)


def neumann_second_difference(m: int) -> sp.dia_matrix:
    """The 1-D factor of the phase-field operator: the second difference on
    m cells of width h = 1/m with reflection closures, scaled by 1/h^2.  A
    closure adds the reflected neighbour, which cancels one -1 of the centre,
    so a single cell, reflected on both sides, gets 0."""
    ones = np.ones(m)
    main = -2.0 * ones
    main[0] += 1.0
    main[-1] += 1.0
    return sp.diags([ones[:-1], main, ones[:-1]], offsets=(-1, 0, 1)) * m**2


def neumann_laplacian(m: int) -> sp.csr_matrix:
    """Second-order 5-point Laplacian on an m x m cell-centered grid with
    reflection rows: the Kronecker sum of ``neumann_second_difference(m)``
    with itself, so the state index is row * m + column.  Symmetric negative
    semi-definite; constants are in the null space."""
    l1, eye = neumann_second_difference(m), sp.identity(m)
    return (sp.kron(l1, eye) + sp.kron(eye, l1)).tocsr()


@lru_cache(maxsize=8)
def _neumann_eigen(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``Q`` and ``lam_i + lam_j`` (m x m) of the symmetric eigendecomposition
    Q diag(lam) Q^T of ``neumann_second_difference(m)``; read-only arrays."""
    lam, q = np.linalg.eigh(neumann_second_difference(m).toarray())
    lam_sum = lam[:, None] + lam
    for part in (q, lam_sum):
        part.flags.writeable = False
    return q, lam_sum


def shifted_neumann_solver(m: int, g: float):
    """``solve(c, rhs)``: the solution x of ``(c I - g neumann_laplacian(m)) x =
    rhs`` for each run of a block ``rhs`` (shape (..., m*m)), by fast
    diagonalisation (Lynch, Rice & Thomas 1964).  With the state of a run as
    an m x m array G, the operator is ``l1 G + G l1`` for the 1-D factor
    ``l1 = Q diag(lam) Q^T``, so x is ``Q [(Q^T G Q) / (c - g (lam_i +
    lam_j))] Q^T``: four m x m products per run, which ``matmul`` takes one
    run at a time, so every run of a block gets the numbers of its own
    solve.  The denominators are kept per shift ``c``."""
    q, lam_sum = _neumann_eigen(m)
    denom = lru_cache(maxsize=None)(lambda c: c - g * lam_sum)

    def solve(c, rhs):
        x = rhs.reshape(rhs.shape[:-1] + (m, m))
        return (q @ ((q.T @ x @ q) / denom(c)) @ q.T).reshape(rhs.shape)

    return solve


def _cubic(u: np.ndarray, c3, c2: float, c1: float, c0) -> np.ndarray:
    """c3 u^3 + c2 u^2 + c1 u + c0 in Horner form: one new array and six
    in-place passes, without ``np.power``.  ``u`` is only read (the cached
    initial states are read-only)."""
    out = np.multiply(u, c3)
    out += c2
    out *= u
    out += c1
    out *= u
    out += c0
    return out


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
    ``field < p_high``, so ``AllenCahnConfig.initial_state`` passes one
    probability per mask (``_ac_class_probability``) and a query relaxes a
    field only when its mask is not among the cached ones.  The cache stays
    an ``lru_cache`` keyed by ``(cfg, p_high)``: its ``cache_info()`` is how
    hits and misses are counted.
    """
    field = (_ac_uniform_field(cfg) < p_high).astype(np.float64)
    if cfg.pre_steps == 0:
        return field
    dt_pre = cfg.pre_time / cfg.pre_steps
    # at the width 0.01 and the asymmetry 0 of the relaxation
    states = cfg.march_block(np.array([0.01, 0.0]), field, dt_pre, cfg.pre_steps)
    out = states[:, -1].copy()
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# The problem registry and snapshot sets
# ---------------------------------------------------------------------------

PROBLEMS = {cls.kind: cls for cls in (BurgersConfig, AllenCahnConfig)}


def config_to_dict(cfg: ProblemConfig) -> dict:
    return asdict(cfg) | {"kind": cfg.kind}


def config_from_dict(d: dict) -> ProblemConfig:
    """The config a dict describes; JSON lists become tuples."""
    d = dict(d) if isinstance(d, dict) else {}
    kind = d.pop("kind", None)
    cls = PROBLEMS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown problem kind {kind!r}; expected one of "
                         f"{', '.join(PROBLEMS)}")
    return cls.from_dict(d, f"fields of the {kind} problem")


def affine_operator_for(cfg: ProblemConfig) -> AffineOperator:
    return cfg.affine()


def nonlinearity_for(cfg: ProblemConfig, alpha) -> AdvectiveTerm | PointwiseTerm:
    return cfg.nonlinearity(alpha)


def initial_state_for(cfg: ProblemConfig, alpha) -> np.ndarray:
    return cfg.initial_state(alpha)


def run_fom(cfg: ProblemConfig, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory and nonlinear-term snapshots (each n_dofs x n_steps) at one
    parameter point: the block march of one run."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    states = np.empty((cfg.n_dofs, cfg.n_steps))
    f_vals = np.empty_like(states)
    cfg.march(alpha, states, f_vals)
    _require_finite(states, cfg.run_name, alpha)
    return states, f_vals


def default_grid(cfg: ProblemConfig, shape=None) -> ParameterGrid:
    return cfg.grid(shape)


@dataclass(frozen=True)
class SnapshotSet:
    """Snapshot tensors (M x K_1 x ... x K_D x N) plus what regenerates
    them: the grid and the problem config, which also fixes the time grid
    and the initial state at every parameter (``initial_state_for``).

    ``sample_snapshots`` and ``load_snapshots`` give Fortran-ordered
    (canonical, first index fastest) tensors: the space index runs
    contiguously, and the first unfolding is a view."""

    u_tensor: np.ndarray
    f_tensor: np.ndarray
    grid: ParameterGrid
    config: ProblemConfig


def sample_snapshots(cfg: ProblemConfig, grid: ParameterGrid) -> SnapshotSet:
    """Run the full-order model at every grid node and pack the tensors.

    The runs at one node of the first axis march together as one block and
    write their steps straight into that slab of both tensors.  The tensors
    are Fortran-ordered, so each step writes contiguous runs of M entries
    and the compressions read the first unfolding without a copy.  When a slab
    fails, its nodes are marched again one at a time, so that the error
    names the first node that fails on its own: in the transport block a
    non-finite run spreads to the others.
    """
    shape = (cfg.n_dofs,) + grid.shape + (cfg.n_steps,)
    u_tensor = np.empty(shape, order="F")
    f_tensor = np.empty(shape, order="F")
    rest = [ax.nodes for ax in grid.axes[1:]]
    for i, first in enumerate(grid.axes[0].nodes):
        # the slab's parameters, K_2 x .. x K_D x D; then its views into the
        # tensors with the run axes first, then space and time
        alphas = np.stack(np.meshgrid([first], *rest, indexing="ij"), axis=-1)[0]
        out, f_out = (np.moveaxis(t[:, i], 0, -2) for t in (u_tensor, f_tensor))
        try:
            cfg.march(alphas, out, f_out)
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
    try:
        return SnapshotSet(
            u_tensor=blobs["u_tensor"],
            f_tensor=blobs["f_tensor"],
            grid=ParameterGrid.from_dict(meta["grid"]),
            config=config_from_dict(meta["problem"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path} has no metadata key or blob {exc}") from None
