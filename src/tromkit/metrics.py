"""Error norms behind each problem's ``error_metrics``, which the query
command and the refine study report."""
from __future__ import annotations

import numpy as np


def rel_l2l2(approx: np.ndarray, truth: np.ndarray) -> float:
    """Relative space-time l2 error over matching snapshot columns."""
    truth = np.asarray(truth, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise ValueError("reference trajectory is zero")
    return float(np.linalg.norm(approx - truth) / denom)


def h1_seminorm_sq(states: np.ndarray, h: float) -> np.ndarray:
    """Per-column spatial gradient energy, first differences over 1D nodes
    with homogeneous Dirichlet closures at both ends."""
    padded = np.vstack([np.zeros(states.shape[1]), states, np.zeros(states.shape[1])])
    diff = np.diff(padded, axis=0) / h
    return np.sum(diff * diff, axis=0) * h


def rel_l2h1_quotient(approx: np.ndarray, truth: np.ndarray, h: float,
                      times: np.ndarray, t_lo: float) -> float:
    """Late-window gradient-energy quotient.

    Trapezoidal time integral over ``t >= t_lo`` of the spatial gradient
    energy of the error, divided by the same integral for the truth.
    """
    times = np.asarray(times, dtype=np.float64)
    mask = times >= t_lo
    if mask.sum() < 2:
        raise ValueError("need at least two snapshot times past the window start")
    tt = times[mask]
    num = np.trapezoid(h1_seminorm_sq(approx[:, mask] - truth[:, mask], h), tt)
    den = np.trapezoid(h1_seminorm_sq(truth[:, mask], h), tt)
    if den == 0.0:
        raise ValueError("reference trajectory has zero gradient energy")
    return float(num / den)
