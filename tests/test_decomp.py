import numpy as np
import pytest

from tromkit import decomp
from tromkit.tensors import unfold


def rank_one(shape, seed=0):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(s) for s in shape]
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return out


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def with_spectrum(rows, cols, svals, seed):
    """Seeded matrix with prescribed singular values."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((rows, svals.size)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, svals.size)))[0]
    return (left * svals) @ right.T


class TestTruncatedLeftSvd:
    def test_gram_path_matches_svd_on_wide_matrix(self, monkeypatch):
        # A spectral gap after the kept rank fixes the kept span; without one
        # the span is determined only to the Gram rounding error over the gap.
        svals = np.concatenate([np.logspace(0, -3, 20), np.logspace(-6, -9, 40)])
        mat = with_spectrum(60, 200, svals, seed=30)
        budget = 1e-4 * np.linalg.norm(mat)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        r = decomp._kept_rank(s, budget)

        def no_svd(*args, **kwargs):
            raise AssertionError("wide matrix at eps 1e-4 must take the Gram path")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        u_r, s_gram, rest = decomp.truncated_left_svd(mat, budget)
        assert u_r.shape[1] == r == 20
        assert u_r.flags.c_contiguous
        assert np.max(np.abs(s_gram[:r] - s[:r])) <= 1e-10 * s[0]
        assert np.linalg.norm(u[:, :r] - u_r @ (u_r.T @ u[:, :r]), 2) < 1e-8
        assert np.array_equal(rest, u_r.T @ mat)

    @pytest.mark.parametrize("budget_rel", [0.0, 1e-9])
    def test_small_budget_takes_svd_path(self, monkeypatch, budget_rel):
        mat = with_spectrum(40, 120, np.logspace(0, -12, 40), seed=31)
        ref_u, ref_s, _ = np.linalg.svd(mat, full_matrices=False)

        def no_eigh(*args, **kwargs):
            raise AssertionError("small budgets must take the SVD path")
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        u_r, s, rest = decomp.truncated_left_svd(mat, budget_rel * np.linalg.norm(mat))
        assert np.array_equal(s, ref_s)
        assert np.array_equal(u_r, ref_u[:, :u_r.shape[1]])
        assert u_r.flags.c_contiguous
        assert np.allclose(rest, u_r.T @ mat, rtol=0, atol=1e-13)


class TestTTSVD:
    def test_rank_one_is_exact_with_unit_ranks(self):
        t = rank_one((5, 4, 3), seed=1)
        tt = decomp.tt_svd(t, 1e-12)
        assert tt.ranks == (1, 1)
        assert decomp.relative_error(tt, t) <= 1e-12

    def test_eps_zero_is_exact(self):
        t = random_tensor((4, 3, 5, 2), seed=2)
        tt = decomp.tt_svd(t, 0.0)
        assert decomp.relative_error(tt, t) < 1e-13

    def test_seeded_random_meets_eps(self):
        t = random_tensor((5, 4, 3, 6), seed=3)
        tt = decomp.tt_svd(t, 0.3)
        assert decomp.relative_error(tt, t) <= 0.3

    def test_eps_guarantee_over_many_seeds(self):
        rng = np.random.default_rng(100)
        for seed in range(60):
            order = int(rng.integers(3, 6))
            shape = tuple(int(d) for d in rng.integers(2, 9, size=order))
            t = random_tensor(shape, seed=seed)
            for eps in (0.3, 0.1, 0.01):
                tt = decomp.tt_svd(t, eps)
                assert decomp.relative_error(tt, t) <= eps

    def test_rank_monotonicity_in_eps(self):
        for seed in range(10):
            t = random_tensor((6, 5, 4, 3), seed=seed)
            coarse = decomp.tt_svd(t, 0.4).ranks
            fine = decomp.tt_svd(t, 0.05).ranks
            assert all(f >= c for f, c in zip(fine, coarse))

    def test_first_factor_orthonormal_and_last_orthogonal(self):
        t = random_tensor((6, 4, 5), seed=4)
        tt = decomp.tt_svd(t, 0.1)
        gram = tt.first.T @ tt.first
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12
        cross = tt.last.T @ tt.last
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) < 1e-12 * np.max(np.diag(cross))

    def test_first_factor_spans_leading_unfolding_singular_vectors(self):
        t = random_tensor((6, 4, 5), seed=5)
        tt = decomp.tt_svd(t, 0.1)
        r = tt.ranks[0]
        u_ref = np.linalg.svd(unfold(t, 0), full_matrices=False)[0][:, :r]
        # sine of the largest principal angle between the spans
        gap = np.linalg.norm(u_ref - tt.first @ (tt.first.T @ u_ref), 2)
        assert gap < 1e-8

    def test_eps_out_of_range(self):
        t = random_tensor((3, 3), seed=6)
        with pytest.raises(ValueError):
            decomp.tt_svd(t, -0.1)
        with pytest.raises(ValueError):
            decomp.tt_svd(t, 1.0)


class TestHOSVD:
    def test_rank_one_gets_unit_ranks(self):
        t = rank_one((5, 4, 3), seed=7)
        td = decomp.hosvd(t, 1e-12)
        assert td.ranks == (1, 1, 1)

    def test_eps_zero_exact(self):
        t = random_tensor((4, 5, 3), seed=8)
        td = decomp.hosvd(t, 0.0)
        assert decomp.relative_error(td, t) < 1e-12

    def test_seeded_random_meets_eps(self):
        t = random_tensor((6, 5, 4), seed=9)
        td = decomp.hosvd(t, 0.2)
        assert decomp.relative_error(td, t) <= 0.2

    def test_eps_guarantee_over_many_seeds(self):
        rng = np.random.default_rng(200)
        for seed in range(60):
            order = int(rng.integers(3, 6))
            shape = tuple(int(d) for d in rng.integers(2, 9, size=order))
            t = random_tensor(shape, seed=1000 + seed)
            for eps in (0.3, 0.1, 0.01):
                td = decomp.hosvd(t, eps)
                assert decomp.relative_error(td, t) <= eps

    def test_factors_orthonormal(self):
        td = decomp.hosvd(random_tensor((5, 4, 6), seed=10), 0.1)
        for f in td.factors:
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-12

    def test_mode1_factor_matches_tt_first_factor_span(self):
        t = random_tensor((6, 4, 5), seed=11)
        td = decomp.hosvd(t, 0.1)
        tt = decomp.tt_svd(t, 0.1)
        r = min(td.factors[0].shape[1], tt.first.shape[1])
        a, b = td.factors[0][:, :r], tt.first[:, :r]
        gap = np.linalg.norm(b - a @ (a.T @ b), 2)
        assert gap < 1e-8


class TestCPALS:
    def test_exact_rank_two_recovery(self):
        rng = np.random.default_rng(12)
        factors = [rng.standard_normal((n, 2)) for n in (6, 5, 4)]
        t = np.einsum("ir,jr,kr->ijk", *factors)
        cp = decomp.cp_als(t, 2, seed=1, max_sweeps=800, tol=1e-15)
        assert cp.rel_error <= 1e-6
        assert decomp.relative_error(cp, t) <= 1e-6

    def test_rank_one_on_rank_one(self):
        t = rank_one((5, 4, 3), seed=13)
        cp = decomp.cp_als(t, 1, seed=2, max_sweeps=400, tol=1e-15)
        assert decomp.relative_error(cp, t) <= 1e-10

    def test_error_non_increasing_across_sweeps(self):
        t = random_tensor((6, 5, 4), seed=14)
        history = []
        for sweeps in (1, 2, 4, 8, 16, 32):
            cp = decomp.cp_als(t, 5, seed=3, max_sweeps=sweeps, tol=0.0)
            history.append(cp.rel_error)
        for prev, curr in zip(history, history[1:]):
            assert curr <= prev + 1e-10

    def test_reported_error_matches_reconstruction(self):
        t = random_tensor((5, 4, 3, 3), seed=15)
        cp = decomp.cp_als(t, 4, seed=4, max_sweeps=50)
        assert cp.rel_error == pytest.approx(decomp.relative_error(cp, t), abs=1e-10)

    def test_non_convergence_is_reported_not_raised(self):
        t = random_tensor((6, 6, 6), seed=16)
        cp = decomp.cp_als(t, 3, seed=5, max_sweeps=2, tol=1e-16)
        assert not cp.converged
        assert cp.sweeps == 2

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            decomp.cp_als(np.ones((2, 2)), 0)


class TestReconstruct:
    def test_unit_rank_tt_is_outer_product(self):
        u = np.array([[1.0], [2.0]])
        core = np.array([[[3.0], [4.0], [5.0]]]).reshape(1, 3, 1)
        v = np.array([[6.0], [7.0]])
        tt = decomp.TTDecomposition(first=u, cores=(core,), last=v)
        expected = np.einsum("i,j,k->ijk", u[:, 0], core[0, :, 0], v[:, 0])
        assert np.allclose(decomp.reconstruct(tt), expected, rtol=0, atol=1e-15)

    def test_tucker_identity_factors_return_core(self):
        core = random_tensor((3, 4, 2), seed=18)
        td = decomp.TuckerDecomposition(core=core, factors=(np.eye(3), np.eye(4), np.eye(2)))
        assert np.array_equal(decomp.reconstruct(td), core)

    def test_tt_matches_term_sum_oracle(self):
        t = random_tensor((4, 3, 5), seed=19)
        tt = decomp.tt_svd(t, 0.0)
        r1, r2 = tt.ranks
        oracle = np.zeros_like(t)
        for a in range(r1):
            for b in range(r2):
                oracle += np.einsum("i,j,k->ijk", tt.first[:, a],
                                    tt.cores[0][a, :, b], tt.last[:, b])
        recon = decomp.reconstruct(tt)
        assert np.linalg.norm(recon - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_size_guard(self):
        tt = decomp.TTDecomposition(
            first=np.ones((10**6, 1)), cores=(np.ones((1, 10**6, 1)),),
            last=np.ones((10**5, 1)))
        with pytest.raises(ValueError):
            decomp.reconstruct(tt)


class TestRelativeError:
    def test_exact_decomposition_gives_zero(self):
        t = random_tensor((4, 4, 4), seed=20)
        assert decomp.relative_error(decomp.tt_svd(t, 0.0), t) < 1e-13

    def test_zero_tensor_rejected(self):
        t = np.zeros((3, 3, 3))
        tt = decomp.tt_svd(np.ones((3, 3, 3)), 0.0)
        with pytest.raises(ValueError):
            decomp.relative_error(tt, t)

    def test_matches_dense_difference_oracle(self):
        t = random_tensor((5, 4, 3), seed=21)
        tt = decomp.tt_svd(t, 0.2)
        oracle = np.linalg.norm(t - decomp.reconstruct(tt)) / np.linalg.norm(t)
        assert decomp.relative_error(tt, t) == pytest.approx(oracle, rel=1e-14)
