import numpy as np
import pytest

from tromkit import fom


@pytest.fixture(scope="session")
def desk_burgers():
    """Desk-scale transport snapshot set shared by the expensive tests."""
    cfg = fom.BurgersConfig(m=100, n_steps=100)
    grid = cfg.grid((8, 16))
    return cfg, grid, fom.sample_snapshots(cfg, grid)


@pytest.fixture(scope="session")
def small_burgers():
    """Tiny transport set with more snapshot times than space dofs, so the
    exact-replay identities hold at full local rank."""
    cfg = fom.BurgersConfig(m=40, n_steps=60)
    grid = cfg.grid((3, 4))
    return cfg, grid, fom.sample_snapshots(cfg, grid)


@pytest.fixture(scope="session")
def tiny_ac():
    cfg = fom.AllenCahnConfig(m=16, n_steps=24, seed=42)
    grid = cfg.grid((3, 2, 2))
    return cfg, grid, fom.sample_snapshots(cfg, grid)


def smooth_tensor(m=12, k1=5, k2=4, n=9):
    """Analytic parametric field sampled on a grid; smooth in every mode."""
    x = np.linspace(0.0, 1.0, m)
    a1 = np.linspace(0.5, 1.5, k1)
    a2 = np.linspace(-1.0, 1.0, k2)
    t = np.linspace(0.0, 1.0, n)
    xx, aa1, aa2, tt = np.meshgrid(x, a1, a2, t, indexing="ij")
    return np.exp(-((2 * xx - tt) * aa1) ** 2) + 0.1 * np.sin(3 * xx + aa2 + 2 * tt)


def deim_apply(basis, sel, f):
    """Oblique projection Y (P^T Y)^{-1} P^T f onto range(Y), the DEIM
    approximation of ``f`` at the rows of ``sel``."""
    y = np.asarray(basis, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    return y @ np.linalg.solve(y[sel.indices, :], f[sel.indices])


def selection_matrix(sel, n_rows):
    """Dense selection matrix P (n_rows x len(sel)); columns are unit vectors."""
    p = np.zeros((n_rows, len(sel)))
    p[sel.indices, np.arange(len(sel))] = 1.0
    return p
