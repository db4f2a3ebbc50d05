"""Cartesian training grids over a box parameter domain, and the sparse
Lagrange weight vectors used to interpolate between grid nodes."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridAxis:
    """Strictly increasing finite nodes on one parameter axis.

    ``log_scale`` marks axes sampled log-uniformly; node closeness is then
    measured in log coordinates.  ``lo``/``hi`` bound the admissible query
    range, must be finite and default to the node hull.
    """

    nodes: np.ndarray
    log_scale: bool = False
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("axis needs at least one node")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("axis nodes must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("axis nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "lo", float(self.lo) if self.lo is not None else float(nodes[0]))
        object.__setattr__(self, "hi", float(self.hi) if self.hi is not None else float(nodes[-1]))
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"axis box bounds must be finite, got [{self.lo}, {self.hi}]")
        if not (self.lo <= nodes[0] and nodes[-1] <= self.hi):
            raise ValueError("nodes must lie inside the axis box")
        if self.log_scale and self.lo <= 0:
            raise ValueError(f"log-scale axis needs a positive box, got lo={self.lo}")

    def coord(self, x):
        """Scale coordinate in which closeness is measured."""
        return np.log(x) if self.log_scale else np.asarray(x, dtype=np.float64)


def uniform_axis(lo: float, hi: float, count: int, *,
                 log_scale: bool = False,
                 box: tuple[float, float] | None = None) -> GridAxis:
    """Axis with ``count`` nodes spread uniformly (or log-uniformly) on [lo, hi]."""
    if count == 1:
        nodes = np.array([0.5 * (lo + hi)]) if not log_scale else np.array([np.sqrt(lo * hi)])
    elif log_scale:
        nodes = np.geomspace(lo, hi, count)
    else:
        nodes = np.linspace(lo, hi, count)
    b = box if box is not None else (lo, hi)
    return GridAxis(nodes=nodes, log_scale=log_scale, lo=b[0], hi=b[1])


@dataclass(frozen=True)
class ParameterGrid:
    """Cartesian product of per-axis node lists inside a box domain."""

    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("grid needs at least one axis")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.nodes.size for ax in self.axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def contains(self, alpha) -> bool:
        """True when alpha has one entry per axis, each inside its box."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
        return alpha.size == self.ndim and all(
            ax.lo <= a <= ax.hi for ax, a in zip(self.axes, alpha))

    def node(self, multi_index) -> np.ndarray:
        return np.array([ax.nodes[j] for ax, j in zip(self.axes, multi_index)])

    def points(self):
        """Iterate (multi_index, alpha) over the full Cartesian grid."""
        for mi in np.ndindex(*self.shape):
            yield mi, self.node(mi)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points uniformly per axis (log-uniform on log axes)."""
        cols = []
        for ax in self.axes:
            if ax.log_scale:
                cols.append(np.exp(rng.uniform(np.log(ax.lo), np.log(ax.hi), size=count)))
            else:
                cols.append(rng.uniform(ax.lo, ax.hi, size=count))
        return np.column_stack(cols)

    def to_dict(self) -> dict:
        return {
            "axes": [
                {"nodes": ax.nodes.tolist(), "log_scale": ax.log_scale,
                 "lo": ax.lo, "hi": ax.hi}
                for ax in self.axes
            ]
        }

    @staticmethod
    def from_dict(d: dict) -> "ParameterGrid":
        return ParameterGrid(tuple(
            GridAxis(nodes=np.asarray(a["nodes"], dtype=np.float64),
                     log_scale=bool(a["log_scale"]), lo=a["lo"], hi=a["hi"])
            for a in d["axes"]))


def _lagrange_weights(nodes: np.ndarray, x: float) -> np.ndarray:
    """Lagrange basis values at ``x`` for the given support nodes."""
    k = nodes.size
    w = np.empty(k)
    for j in range(k):
        num = 1.0
        den = 1.0
        for m in range(k):
            if m == j:
                continue
            num *= nodes[m] - x
            den *= nodes[m] - nodes[j]
        w[j] = num / den
    return w


def interp_weights(grid: ParameterGrid, alpha, p: int = 2) -> list[np.ndarray]:
    """Per-axis weight vectors with at most ``p`` nonzeros each.

    The support is the ``p`` grid nodes closest to the query (bracketing
    nodes for ``p = 2``), measured in the axis scale; the nonzero values are
    the Lagrange basis polynomials evaluated at the query, so the weights sum
    to one.  Queries outside the box are rejected; ``p`` is clamped to the
    node count on short axes.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if alpha.size != grid.ndim:
        raise ValueError(f"expected {grid.ndim} parameters, got {alpha.size}")
    if p < 1:
        raise ValueError("interpolation order count must be >= 1")
    out = []
    for ax, a in zip(grid.axes, alpha):
        if not ax.lo <= a <= ax.hi:
            raise ValueError(
                f"parameter {a} outside the box [{ax.lo}, {ax.hi}]; no extrapolation")
        k = ax.nodes.size
        pi = min(p, k)
        coords = ax.coord(ax.nodes)
        ac = float(ax.coord(a))
        if pi == 2 and coords[0] <= ac <= coords[-1]:
            j = int(np.searchsorted(coords, ac, side="right")) - 1
            j = min(max(j, 0), k - 2)
            support = np.array([j, j + 1])
        else:
            dist = np.abs(coords - ac)
            support = np.sort(np.argsort(dist, kind="stable")[:pi])
        w = np.zeros(k)
        w[support] = _lagrange_weights(ax.nodes[support], float(a))
        out.append(w)
    return out
