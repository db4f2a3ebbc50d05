import warnings

import numpy as np
import pytest

from tromkit import deim

from conftest import deim_apply, selection_matrix


def greedy_oracle(y):
    """Step-by-step reference: dense residual argmax per column."""
    m, n = y.shape
    picked = [int(np.argmax(np.abs(y[:, 0])))]
    for j in range(1, n):
        rows = np.array(picked)
        coeff = np.linalg.solve(y[rows, :j], y[rows, j])
        residual = y[:, j] - y[:, :j] @ coeff
        picked.append(int(np.argmax(np.abs(residual))))
    return np.array(picked)


def orthonormal(m, n, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((m, n)))[0]


class TestSelect:
    def test_single_canonical_column(self):
        y = np.zeros((6, 1))
        y[3, 0] = 1.0
        assert deim.deim_select(y).tolist() == [3]

    def test_canonical_columns_select_their_rows(self):
        y = np.zeros((7, 2))
        y[5, 0] = 1.0
        y[2, 1] = 1.0
        assert deim.deim_select(y).tolist() == [5, 2]

    def test_matches_greedy_oracle_on_seeded_matrices(self):
        for seed in range(100):
            y = orthonormal(6, 3, seed)
            sel = deim.deim_select(y)
            assert np.array_equal(sel, greedy_oracle(y))

    @pytest.mark.parametrize("m,n,seed", [(400, 120, 40), (1000, 300, 41)])
    def test_matches_greedy_oracle_on_large_bases(self, m, n, seed):
        y = orthonormal(m, n, seed)
        assert np.array_equal(deim.deim_select(y), greedy_oracle(y))

    def test_selected_square_block_nonsingular(self):
        y = orthonormal(20, 8, 1234)
        sel = deim.deim_select(y)
        assert np.linalg.cond(y[sel, :]) < 1e8

    def test_dependent_columns_error_names_column(self):
        y = np.zeros((5, 2))
        y[:, 0] = [1.0, 2.0, 0.0, 0.0, 1.0]
        y[:, 1] = 2.0 * y[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="column 1"):
                deim.deim_select(y)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        y = orthonormal(10, 4, 77)
        perm = rng.permutation(10)
        base = deim.deim_select(y)
        permuted = deim.deim_select(y[perm, :])
        assert np.array_equal(perm[permuted], base)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            deim.deim_select(np.ones((2, 3)))


class TestApply:
    def test_reproduces_range_exactly(self):
        y = orthonormal(12, 5, 3)
        sel = deim.deim_select(y)
        f = y @ np.arange(1.0, 6.0)
        out = deim_apply(y, sel, f)
        assert np.linalg.norm(out - f) <= 1e-12 * np.linalg.norm(f)

    def test_single_canonical_column_projects_entry(self):
        y = np.zeros((5, 1))
        y[3, 0] = 1.0
        f = np.array([4.0, -1.0, 2.0, 7.0, 0.5])
        out = deim_apply(y, deim.deim_select(y), f)
        expected = np.zeros(5)
        expected[3] = 7.0
        assert np.array_equal(out, expected)

    def test_matches_dense_formula_oracle(self):
        rng = np.random.default_rng(8)
        y = orthonormal(9, 4, 5)
        sel = deim.deim_select(y)
        f = rng.standard_normal(9)
        p = selection_matrix(sel, 9)
        oracle = y @ np.linalg.inv(p.T @ y) @ (p.T @ f)
        out = deim_apply(y, sel, f)
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_projector_is_idempotent(self):
        rng = np.random.default_rng(9)
        y = orthonormal(10, 4, 6)
        sel = deim.deim_select(y)
        f = rng.standard_normal(10)
        once = deim_apply(y, sel, f)
        twice = deim_apply(y, sel, once)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(once)

    def test_selection_gain_matches_svd_oracle(self):
        y = orthonormal(10, 4, 11)
        sel = deim.deim_select(y)
        oracle = np.linalg.norm(np.linalg.inv(y[sel, :]), 2)
        assert deim.selection_gain(y, sel) == pytest.approx(oracle, rel=1e-12)
        assert np.isfinite(deim.selection_gain(y, sel))

