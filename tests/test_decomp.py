import tracemalloc

import numpy as np
import pytest

from tromkit import decomp, pod
from tromkit.tensors import unfold

from conftest import smooth_tensor


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

    def test_gram_path_matches_svd_on_tall_matrix(self, monkeypatch):
        # The tall twin of the wide case: column Gram matrix, QR of the kept
        # span and one Rayleigh-Ritz step.
        svals = np.concatenate([np.logspace(0, -3, 20), np.logspace(-6, -9, 40)])
        mat = with_spectrum(200, 60, svals, seed=32)
        budget = 1e-4 * np.linalg.norm(mat)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        r = decomp._kept_rank(s, budget)

        def no_svd(*args, **kwargs):
            raise AssertionError("tall matrix at eps 1e-4 must take the Gram path")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        u_r, s_gram, rest = decomp.truncated_left_svd(mat, budget)
        assert u_r.shape[1] == r == 20
        assert u_r.flags.c_contiguous
        assert np.max(np.abs(s_gram[:r] - s[:r])) <= 1e-10 * s[0]
        assert np.linalg.norm(u[:, :r] - u_r @ (u_r.T @ u[:, :r]), 2) < 1e-8
        assert np.max(np.abs(u_r.T @ u_r - np.eye(r))) <= 1e-13
        cross = rest @ rest.T
        assert np.max(np.abs(cross - np.diag(np.diag(cross)))) <= 1e-12 * s[0]**2
        assert np.allclose(rest, u_r.T @ mat, rtol=0, atol=1e-13 * s[0])

    @pytest.mark.parametrize("budget_rel", [0.0, 1e-9])
    def test_small_budget_takes_svd_path(self, monkeypatch, budget_rel):
        def no_eigh(*args, **kwargs):
            raise AssertionError("small budgets must take the SVD path")
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for rows, cols in ((40, 120), (120, 40)):
            mat = with_spectrum(rows, cols, np.logspace(0, -12, 40), seed=31)
            ref_u, ref_s, _ = np.linalg.svd(mat, full_matrices=False)
            u_r, s, rest = decomp.truncated_left_svd(mat, budget_rel * np.linalg.norm(mat))
            assert np.array_equal(s, ref_s)
            assert np.array_equal(u_r, ref_u[:, :u_r.shape[1]])
            assert u_r.flags.c_contiguous
            assert np.allclose(rest, u_r.T @ mat, rtol=0, atol=1e-13)


def dense_tt_svd(t, eps):
    """Reference TT sweep with ``np.linalg.svd`` at every unfolding and the
    budget of ``decomp.tt_svd``; returns the ranks and the last factor."""
    budget = eps * np.linalg.norm(t) / np.sqrt(t.ndim - 1)
    rest = t.reshape(t.shape[0], -1, order="F")
    ranks = []
    for k in range(1, t.ndim):
        u, s, vt = np.linalg.svd(rest, full_matrices=False)
        r = decomp._kept_rank(s, budget)
        ranks.append(r)
        rest = s[:r, None] * vt[:r]
        if k < t.ndim - 1:
            rest = rest.reshape(r * t.shape[k], -1, order="F")
    return tuple(ranks), rest.T


class TestFirstUnfoldingIsNotCopied:
    @pytest.mark.parametrize("build", [
        lambda t: decomp.tt_svd(t, 1e-3),
        lambda t: decomp.hosvd(t, 1e-3),
        pod.pod_basis,
    ], ids=["tt_svd", "hosvd", "pod_basis"])
    def test_peak_stays_below_the_tensor(self, build):
        # A Fortran-ordered tensor's first unfolding is a view.  A copy of
        # it, a C-ordered copy for the norm, or the right singular vectors
        # of the unfolding would each take the tensor's size.  The tensor has
        # CP rank 6 (at most M/4), so what the compressions keep is small.
        rng = np.random.default_rng(3)
        factors = [rng.standard_normal((n, 6)) for n in (64, 6, 8, 40)]
        t = np.asfortranarray(np.einsum("ar,br,cr,dr->abcd", *factors))
        build(t)
        tracemalloc.start()
        try:
            build(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.nbytes


class TestTTSVD:
    @pytest.mark.parametrize("shape,eps", [
        *((shape, eps) for shape in [(6, 5, 4, 3), (4, 6, 3, 2), (5, 7, 3)]
          for eps in (0.3, 0.1, 0.01)),
        ("smooth", 1e-4)])
    def test_tall_unfoldings_match_dense_svd_sweep(self, monkeypatch, shape, eps):
        # After the wide first unfolding every unfolding of these cases is
        # tall, so the sweep runs the column-Gram path at every later step.
        # The smooth tensor truncates there: ranks 8, 8, 6 of 12, 9, 9.
        t = smooth_tensor() if shape == "smooth" else random_tensor(shape, seed=sum(shape))
        ranks, last_ref = dense_tt_svd(t, eps)

        def no_svd(*args, **kwargs):
            raise AssertionError("every unfolding at these budgets takes a Gram path")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        tt = decomp.tt_svd(t, eps)
        assert tt.ranks == ranks
        assert decomp.relative_error(tt, t) <= eps
        assert np.allclose(tt.time_scale, np.linalg.norm(last_ref, axis=0),
                           rtol=1e-10, atol=0)
        last = tt.time_factor * tt.time_scale
        cross = last.T @ last
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) < 1e-12 * np.max(np.diag(cross))

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
        gram = tt.basis.T @ tt.basis
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12
        last = tt.time_factor * tt.time_scale
        cross = last.T @ last
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) < 1e-12 * np.max(np.diag(cross))

    def test_first_factor_spans_leading_unfolding_singular_vectors(self):
        t = random_tensor((6, 4, 5), seed=5)
        tt = decomp.tt_svd(t, 0.1)
        r = tt.ranks[0]
        u_ref = np.linalg.svd(unfold(t, 0), full_matrices=False)[0][:, :r]
        # sine of the largest principal angle between the spans
        gap = np.linalg.norm(u_ref - tt.basis @ (tt.basis.T @ u_ref), 2)
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
        for f in (td.basis, *td.param_factors, td.time_factor):
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-12

    def test_mode1_factor_matches_tt_first_factor_span(self):
        t = random_tensor((6, 4, 5), seed=11)
        td = decomp.hosvd(t, 0.1)
        tt = decomp.tt_svd(t, 0.1)
        r = min(td.basis.shape[1], tt.basis.shape[1])
        a, b = td.basis[:, :r], tt.basis[:, :r]
        gap = np.linalg.norm(b - a @ (a.T @ b), 2)
        assert gap < 1e-8

    def test_vector_rejected(self):
        # a part needs a space mode and a time mode
        with pytest.raises(ValueError, match="order >= 2"):
            decomp.hosvd(np.arange(1.0, 5.0), 0.1)


def dense_cp_als(t, rank, sweeps, seed):
    """The dense-unfolding CP-ALS sweep: one full unfolding times one dense
    Khatri-Rao product per mode.  Returns the factors and the fit error."""
    d, norm_t = t.ndim, np.linalg.norm(t)
    rng = np.random.default_rng(seed)
    factors = [rng.uniform(-1.0, 1.0, size=(n, rank)) for n in t.shape]
    for _ in range(sweeps):
        for k in range(d):
            others = [factors[j] for j in range(d) if j != k]
            kr = others[0]
            for m in others[1:]:
                kr = (m[:, None, :] * kr[None, :, :]).reshape(-1, rank)
            gram = np.prod([f.T @ f for f in others], axis=0)
            mttkrp = unfold(t, k) @ kr
            factors[k] = np.linalg.lstsq(gram, mttkrp.T, rcond=None)[0].T
        last = factors[-1]
        sq = norm_t**2 - 2.0 * np.sum(mttkrp * last) + np.sum(gram * (last.T @ last))
        err = np.sqrt(max(sq, 0.0)) / norm_t
        for k in range(d - 1):
            nrm = np.linalg.norm(factors[k], axis=0)
            factors[k] /= nrm
            factors[-1] *= nrm
    return factors, err


class TestCPALS:
    # Orders 2 to 5: single-mode halves, an odd split, an even one, and a
    # three-mode right half shaped like the phase field's (M, 4, 3, 3, N).
    @pytest.mark.parametrize("shape, rank", [
        ((9, 7), 3), ((6, 5, 4), 4), ((5, 4, 3, 6), 5), ((8, 4, 3, 3, 7), 6)])
    @pytest.mark.parametrize("sweeps", [1, 25])
    def test_matches_dense_unfolding_sweep(self, shape, rank, sweeps):
        t = random_tensor(shape, seed=len(shape))
        ref_factors, ref_err = dense_cp_als(t, rank, sweeps, seed=7)
        cp, fit = decomp.cp_als(t, rank, max_sweeps=sweeps, tol=0.0, seed=7)
        assert fit["sweeps"] == sweeps
        assert fit["rel_error"] == pytest.approx(ref_err, rel=1e-12)
        got_factors = (cp.basis @ cp.r_left, *cp.sigma_factors,
                       cp.time_factor @ cp.r_right)
        for got, want in zip(got_factors, ref_factors, strict=True):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    # At rank 5 on (2, 2, 9) the mode-2 Gram matrix G0 * G1 has rank at most
    # 4: a Cholesky solve can pass with info 0 there and still be far off, so
    # the update must take the lstsq fallback, like the dense oracle.
    @pytest.mark.parametrize("sweeps", [1, 25])
    def test_rank_deficient_gram_matches_dense_sweep(self, sweeps):
        t = random_tensor((2, 2, 9), seed=3)
        ref_factors, _ = dense_cp_als(t, 5, sweeps, seed=7)
        cp, fit = decomp.cp_als(t, 5, max_sweeps=sweeps, tol=0.0, seed=7)
        assert fit["sweeps"] == sweeps
        got_factors = (cp.basis @ cp.r_left, *cp.sigma_factors,
                       cp.time_factor @ cp.r_right)
        for got, want in zip(got_factors, ref_factors, strict=True):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("sweeps", [1, 25])
    def test_rank_deficient_fit_error_at_cancellation_level(self, sweeps):
        # the exact fit is 0 and the error formula cancels to about 1e-8
        t = random_tensor((2, 2, 9), seed=3)
        _, ref_err = dense_cp_als(t, 5, sweeps, seed=7)
        _, fit = decomp.cp_als(t, 5, max_sweeps=sweeps, tol=0.0, seed=7)
        assert fit["rel_error"] == pytest.approx(ref_err, abs=1e-6)

    def test_well_conditioned_build_needs_no_lstsq(self, monkeypatch):
        def no_lstsq(*args, **kwargs):
            raise AssertionError("well-conditioned Gram matrices take the Cholesky solve")
        monkeypatch.setattr(decomp.np.linalg, "lstsq", no_lstsq)
        t = random_tensor((6, 5, 4), seed=18)
        _, fit = decomp.cp_als(t, 4, max_sweeps=25, tol=0.0, seed=7)
        assert fit["sweeps"] == 25
        assert 0.0 < fit["rel_error"] < 1.0

    def test_exact_rank_two_recovery(self):
        rng = np.random.default_rng(12)
        factors = [rng.standard_normal((n, 2)) for n in (6, 5, 4)]
        t = np.einsum("ir,jr,kr->ijk", *factors)
        cp, fit = decomp.cp_als(t, 2, seed=1, max_sweeps=800, tol=1e-15)
        assert fit["rel_error"] <= 1e-6
        assert decomp.relative_error(cp, t) <= 1e-6

    def test_rank_one_on_rank_one(self):
        t = rank_one((5, 4, 3), seed=13)
        cp, _ = decomp.cp_als(t, 1, seed=2, max_sweeps=400, tol=1e-15)
        assert decomp.relative_error(cp, t) <= 1e-10

    def test_error_non_increasing_across_sweeps(self):
        t = random_tensor((6, 5, 4), seed=14)
        history = []
        for sweeps in (1, 2, 4, 8, 16, 32):
            _, fit = decomp.cp_als(t, 5, seed=3, max_sweeps=sweeps, tol=0.0)
            history.append(fit["rel_error"])
        for prev, curr in zip(history, history[1:]):
            assert curr <= prev + 1e-10

    def test_reported_error_matches_reconstruction(self):
        t = random_tensor((5, 4, 3, 3), seed=15)
        cp, fit = decomp.cp_als(t, 4, seed=4, max_sweeps=50)
        assert fit["rel_error"] == pytest.approx(decomp.relative_error(cp, t), abs=1e-10)

    def test_non_convergence_is_reported_not_raised(self):
        t = random_tensor((6, 6, 6), seed=16)
        _, fit = decomp.cp_als(t, 3, seed=5, max_sweeps=2, tol=1e-16)
        assert not fit["converged"]
        assert fit["sweeps"] == 2

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_no_sweep_rejected(self, max_sweeps):
        # without a sweep the factors would be the random start
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            decomp.cp_als(random_tensor((4, 3, 5), seed=17), 2, max_sweeps=max_sweeps)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            decomp.cp_als(np.ones((2, 2)), 0)

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="order >= 2"):
            decomp.cp_als(np.arange(1.0, 5.0), 2)


def dense_tt(part):
    """Order-3 tensor of a TT part, contracted over its fields by einsum."""
    return np.einsum("ia,akb,b,jb->ikj", part.basis, part.cores[0], part.time_scale,
                     part.time_factor)


class TestReconstruct:
    """Parts rebuilt node by node: ``relative_error`` against known tensors."""

    def test_unit_rank_tt_is_outer_product(self):
        u = np.array([[1.0], [2.0]])
        core = np.array([[[3.0], [4.0], [5.0]]]).reshape(1, 3, 1)
        v = np.array([[6.0], [7.0]])
        tt = decomp.TTPart(cores=(core,), time_scale=np.ones(1), basis=u, time_factor=v)
        expected = np.einsum("i,j,k->ijk", u[:, 0], core[0, :, 0], v[:, 0])
        assert decomp.relative_error(tt, expected) <= 1e-15

    def test_tucker_identity_factors_return_core(self):
        core = random_tensor((3, 4, 2), seed=18)
        td = decomp.TuckerPart(core=core, param_factors=(np.eye(4),), basis=np.eye(3),
                               time_factor=np.eye(2))
        assert decomp.relative_error(td, core) == 0.0

    def test_tt_matches_term_sum_oracle(self):
        t = random_tensor((4, 3, 5), seed=19)
        tt = decomp.tt_svd(t, 0.0)
        r1, r2 = tt.ranks
        last = tt.time_factor * tt.time_scale
        oracle = np.zeros_like(t)
        for a in range(r1):
            for b in range(r2):
                oracle += np.einsum("i,j,k->ijk", tt.basis[:, a], tt.cores[0][a, :, b],
                                    last[:, b])
        assert decomp.relative_error(tt, oracle) <= 1e-13


class TestRelativeError:
    def test_exact_decomposition_gives_zero(self):
        t = random_tensor((4, 4, 4), seed=20)
        assert decomp.relative_error(decomp.tt_svd(t, 0.0), t) < 1e-13

    def test_zero_tensor_rejected(self):
        t = np.zeros((3, 3, 3))
        tt = decomp.tt_svd(np.ones((3, 3, 3)), 0.0)
        with pytest.raises(ValueError, match="zero tensor"):
            decomp.relative_error(tt, t)

    def test_matches_dense_difference_oracle(self):
        t = random_tensor((5, 4, 3), seed=21)
        tt = decomp.tt_svd(t, 0.2)
        oracle = np.linalg.norm(t - dense_tt(tt)) / np.linalg.norm(t)
        assert decomp.relative_error(tt, t) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["tt", "hosvd", "cp"])
    def test_order_two_builds_are_exact(self, fmt):
        # a matrix has no parametric mode: one node, weights []
        t = random_tensor((9, 7), seed=22)
        if fmt == "cp":
            part, fit = decomp.cp_als(t, 7, seed=0, max_sweeps=5)
            assert fit["rel_error"] < 1e-12
        else:
            part = (decomp.tt_svd if fmt == "tt" else decomp.hosvd)(t, 0.0)
        # the CP rounding grows with the conditioning of its random start
        assert decomp.relative_error(part, t) < 1e-12

    def test_order_two_tt_contracts_to_scale_diagonal(self):
        tt = decomp.tt_svd(random_tensor((9, 7), seed=23), 0.1)
        assert tt.cores == ()
        assert np.array_equal(tt.scaled_core_matrix([]), np.diag(tt.time_scale))

    def test_order_two_tt_drops_degenerate_components(self):
        # at eps 0 the rounding-level singular values past rank 3 are kept by
        # the sweep and then dropped with the basis columns they pair with
        t = with_spectrum(9, 7, np.array([3.0, 2.0, 1.0]), seed=24)
        tt = decomp.tt_svd(t, 0.0)
        assert tt.ranks == (3,)
        assert tt.basis.shape == (9, 3) and tt.time_factor.shape == (7, 3)
        assert decomp.relative_error(tt, t) < 1e-13
