import re
import tracemalloc

import numpy as np
import pytest

from tromkit import fom, pod, stepping, trom
from tromkit.grids import GridAxis, ParameterGrid
from tromkit.stepping import AffineOperator

from conftest import selection_matrix, smooth_tensor
from oracles import observed_bdf2


def smooth_grid():
    return ParameterGrid((GridAxis(np.linspace(0.5, 1.5, 5)),
                          GridAxis(np.linspace(-1.0, 1.0, 4))))


def build_smooth(fmt="tt", eps=1e-10, cp_rank=None, seed=0, a_op=None):
    t = smooth_tensor()
    u = t
    f = t + 0.05 * np.sin(3.0 * t)
    grid = smooth_grid()
    kw = {}
    if fmt == "cp":
        kw["cp_opts"] = {"seed": seed, "max_sweeps": 500, "tol": 1e-14}
    return (trom.build_offline(u, f, grid, fmt=fmt, eps=eps, cp_rank=cp_rank, a_op=a_op, **kw),
            u, f, grid)


def _assert_advective_step_matches_oracle(cfg, lifted, rows, a_red, f_map, alpha,
                                          n_steps=None):
    """The contracted transport step against a fresh dense solve per step
    with the selected-row transport matrix formed independently."""
    n_steps = cfg.n_steps if n_steps is None else n_steps
    term = fom.nonlinearity_for(cfg, alpha)
    sys, beta0 = stepping.reduced_system(lifted, rows, a_red, f_map, term,
                                         fom.initial_state_for(cfg, alpha))
    sel_grad = term.grad[rows, :] @ lifted
    eye = np.eye(beta0.size)

    def solve(c, w, rhs):
        n = sys.start if w is None else f_map @ (w[:, None] * sel_grad)
        return np.linalg.solve(c * eye - a_red + n, rhs)

    oracle = observed_bdf2(solve, beta0, cfg.dt, n_steps, sys.sel_state.__matmul__, sys.u0_sel)
    got = stepping.integrate_reduced(sys, beta0, cfg.dt, n_steps)
    assert got.shape == oracle.shape
    assert np.all(np.isfinite(oracle))
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


def _assert_pointwise_step_matches_oracle(cfg, art, alpha, mode, n_steps=None):
    """The stacked-inverse step on a phase-field query against a fresh dense
    solve of the shifted step matrix at every step."""
    n_steps = cfg.n_steps if n_steps is None else n_steps
    local = trom.build_reduced_system(art, trom.local_bases(art, alpha, 8, 12), mode=mode)
    stab = cfg.stabilization(cfg.dt)
    assert stab != 0.0
    sys, beta0 = stepping.reduced_system(
        art.u_part.basis @ local.u_coords, local.used_rows, local.a_red, local.f_map,
        fom.nonlinearity_for(cfg, alpha), fom.initial_state_for(cfg, alpha), stab)
    eye = np.eye(beta0.size)

    def solve(c, w, rhs):
        f = sys.start if w is None else sys.f_map @ sys.term.fn(w)
        return np.linalg.solve(c * eye - sys.a_red, rhs + f)

    oracle = observed_bdf2(solve, beta0, cfg.dt, n_steps, sys.sel_state.__matmul__,
                           sys.u0_sel, stab=stab)
    got = stepping.integrate_reduced(sys, beta0, cfg.dt, n_steps)
    assert got.shape == oracle.shape
    assert np.all(np.isfinite(oracle))
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


class TestOffline:
    def test_lossless_compression_represents_all_snapshots(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=0.0)
        mat = snaps.u_tensor.reshape(cfg.m, -1, order="F")
        basis = art.u_part.basis
        residual = mat - basis @ (basis.T @ mat)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(mat)

    def test_projection_residual_bounded_by_eps(self, desk_burgers):
        cfg, grid, snaps = desk_burgers
        eps = 1e-3
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=eps)
        mat = snaps.u_tensor.reshape(cfg.m, -1, order="F")
        basis = art.u_part.basis
        residual = np.linalg.norm(mat - basis @ (basis.T @ mat))
        assert residual <= eps * np.linalg.norm(mat)

    def test_coupling_matrices_shapes_and_conditioning(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-4)
        r_u = art.u_part.basis.shape[1]
        r_f = art.f_part.basis.shape[1]
        assert art.uty.shape == (r_u, r_f)
        assert art.pty.shape == (r_f, r_f)
        assert art.cstar_ls == pytest.approx(
            np.linalg.norm(np.linalg.inv(art.pty), 2), rel=1e-10)

    def test_tt_time_factor_orthonormal_on_phase_field(self):
        # The later unfoldings of these tensors are tall and take the
        # column-Gram path; its Rayleigh-Ritz step keeps the normalised
        # trailing rows orthonormal (about 4e-12 here, about 3e-9 without it).
        cfg = fom.AllenCahnConfig(m=12, n_steps=40, seed=42)
        snaps = fom.sample_snapshots(cfg, cfg.grid((4, 3, 3)))
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, snaps.grid,
                                 fmt="tt", eps=1e-4)
        for part in (art.u_part, art.f_part):
            v = part.time_factor
            assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-10

    def test_basis_orthonormal_all_formats(self):
        for fmt, kw in (("tt", {"eps": 1e-8}), ("hosvd", {"eps": 1e-8}),
                        ("cp", {"cp_rank": 12})):
            art, *_ = build_smooth(fmt=fmt, **kw)
            for part in (art.u_part, art.f_part):
                q = part.basis
                assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) < 1e-12

    def test_shape_validation(self):
        grid = smooth_grid()
        t = smooth_tensor()
        with pytest.raises(ValueError, match="grid"):
            trom.build_offline(t[:, :3, :, :], t[:, :3, :, :], grid, fmt="tt", eps=0.1)
        with pytest.raises(ValueError, match="do not match the grid"):
            trom.build_offline(t[:, :, 0, :], t[:, :, 0, :], grid, fmt="tt", eps=0.1)
        with pytest.raises(ValueError, match="share a shape"):
            trom.build_offline(t, t[:, :, :, :5], grid, fmt="tt", eps=0.1)
        with pytest.raises(ValueError, match="eps"):
            trom.build_offline(t, t, grid, fmt="tt")
        with pytest.raises(ValueError, match="cp_rank"):
            trom.build_offline(t, t, grid, fmt="cp")
        with pytest.raises(ValueError, match="interpolation order"):
            trom.build_offline(t, t, grid, fmt="tt", eps=0.1, interp_order=0)


class TestCoreMatrices:
    def test_single_node_axis_ignores_alpha(self):
        t = smooth_tensor(k2=1)
        grid = ParameterGrid((GridAxis(np.linspace(0.5, 1.5, 5)),
                              GridAxis(np.array([0.3]), lo=0.0, hi=1.0)))
        art = trom.build_offline(t, t, grid, fmt="tt", eps=1e-10)
        c1 = art.u_part.core_matrix(art.weights([0.7, 0.1]))
        c2 = art.u_part.core_matrix(art.weights([0.7, 0.9]))
        assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("fmt,kw", [("tt", {"eps": 1e-10}),
                                        ("hosvd", {"eps": 1e-10}),
                                        ("cp", {"cp_rank": 25})])
    def test_matches_dense_contraction_oracle(self, fmt, kw):
        art, *_ = build_smooth(fmt=fmt, **kw)
        alpha = np.array([0.83, 0.21])
        w = art.weights(alpha)
        # the part's full tensor, contracted over its fields by einsum
        part = art.u_part
        if fmt == "tt":
            dense = np.einsum("ia,akb,blc,c,jc->iklj", part.basis, *part.cores,
                              part.time_scale, part.time_factor)
        elif fmt == "hosvd":
            dense = np.einsum("abcd,ia,kb,lc,jd->iklj", part.core, part.basis,
                              *part.param_factors, part.time_factor)
        else:
            dense = np.einsum("ir,kr,lr,jr->iklj", part.basis @ part.r_left,
                              *part.sigma_factors, part.time_factor @ part.r_right)
        oracle = trom.interpolate_dense(dense, w)
        implicit = part.dense_local(w)
        assert np.linalg.norm(implicit - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("case,nonzeros", [("node", [1, 1]), ("off_node", [2, 2]),
                                               ("single_node_axis", [2, 1])])
    def test_tt_kernel_matches_left_to_right_einsum_chain(self, case, nonzeros):
        if case == "single_node_axis":
            t = smooth_tensor(k2=1)
            grid = ParameterGrid((GridAxis(np.linspace(0.5, 1.5, 5)),
                                  GridAxis(np.array([0.3]), lo=0.0, hi=1.0)))
            alpha = [0.83, 0.9]
        else:
            t = smooth_tensor()
            grid = smooth_grid()
            alpha = grid.node((1, 2)) if case == "node" else [0.83, 0.21]
        art = trom.build_offline(t, t + 0.05 * np.sin(3.0 * t), grid, fmt="tt", eps=1e-10)
        w = art.weights(alpha)
        assert [np.count_nonzero(x) for x in w] == nonzeros
        for part in (art.u_part, art.f_part):
            chain = np.einsum("rkq,k->rq", part.cores[0], w[0])
            for core, wk in zip(part.cores[1:], w[1:]):
                chain = chain @ np.einsum("rkq,k->rq", core, wk)
            got = part.core_matrix(w)
            assert np.linalg.norm(got - chain) <= 1e-13 * np.linalg.norm(chain)

    def test_in_sample_extraction_is_exact_at_zero_eps(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=0.0)
        for mi, alpha in grid.points():
            slab_u = snaps.u_tensor[(slice(None),) + mi]
            w = art.weights(alpha)
            assembled = art.u_part.dense_local(w)
            assert np.linalg.norm(assembled - slab_u) <= 1e-10 * np.linalg.norm(slab_u)

    def test_cost_independent_of_space_dimension(self):
        # same cores with fatter bases: identical core matrices
        art, *_ = build_smooth()
        w = art.weights([0.8, 0.0])
        c_ref = art.u_part.core_matrix(w)
        import dataclasses
        fat = dataclasses.replace(art.u_part, basis=np.zeros((10 * art.u_part.basis.shape[0],
                                                              art.u_part.basis.shape[1])))
        assert np.array_equal(fat.core_matrix(w), c_ref)


class TestLocalBases:
    def test_unit_rank_gives_single_universal_vector(self):
        rng = np.random.default_rng(3)
        u = np.abs(rng.standard_normal(6)) + 1.0
        s1 = np.abs(rng.standard_normal(3)) + 1.0
        v = np.abs(rng.standard_normal(5)) + 1.0
        t = np.einsum("i,j,k->ijk", u, s1, v)
        grid = ParameterGrid((GridAxis(np.linspace(0.0, 1.0, 3)),))
        art = trom.build_offline(t, t, grid, fmt="tt", eps=1e-12)
        local = trom.local_bases(art, [0.4], 1, 1)
        assert local.u_coords.shape == (1, 1)
        assert abs(abs(local.u_coords[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("fmt,kw", [("tt", {"eps": 1e-8}),
                                        ("hosvd", {"eps": 1e-8}),
                                        ("cp", {"cp_rank": 20})])
    def test_implicit_svd_matches_dense_assembly(self, fmt, kw):
        art, *_ = build_smooth(fmt=fmt, **kw)
        rng = np.random.default_rng(4)
        for alpha in art.grid.sample(5, rng):
            w = art.weights(alpha)
            dense = art.u_part.dense_local(w)
            s_ref = np.linalg.svd(dense, compute_uv=False)
            local = trom.local_bases(art, alpha, 2, 2)
            k = min(local.u_sing_vals.size, s_ref.size)
            assert np.max(np.abs(local.u_sing_vals[:k] - s_ref[:k])) <= 1e-10 * s_ref[0]

    def test_lifted_vectors_match_dense_svd(self):
        art, *_ = build_smooth()
        alpha = np.array([1.2, -0.4])
        w = art.weights(alpha)
        dense = art.u_part.dense_local(w)
        u_ref, s_ref, _ = np.linalg.svd(dense, full_matrices=False)
        local = trom.local_bases(art, alpha, 4, 4)
        lifted = art.u_part.basis @ local.u_coords
        for i in range(4):
            gap = min(abs(s_ref[i] - s_ref[i + 1]),
                      abs(s_ref[i] - s_ref[i - 1]) if i else np.inf)
            if gap > 1e-6 * s_ref[0]:
                align = abs(np.dot(lifted[:, i], u_ref[:, i]))
                assert align > 1.0 - 1e-10

    def test_local_values_sorted_nonnegative(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-5)
        local = trom.local_bases(art, [0.1, 0.5], 3, 3)
        for vals in (local.u_sing_vals, local.f_sing_vals):
            assert np.all(vals >= 0)
            assert np.all(np.diff(vals) <= 0)

    def test_dims_above_bound_rejected(self):
        art, *_ = build_smooth()
        bounds = art.local_dim_bounds()
        with pytest.raises(ValueError, match="admissible"):
            trom.local_bases(art, [0.8, 0.0], bounds[0] + 1, 1)

    @pytest.mark.parametrize("n_u,n_f", [(0, 1), (1, 0), (-2, -1)])
    def test_dims_below_one_rejected(self, n_u, n_f):
        # negative dims would slice columns off the end of the local bases
        art, *_ = build_smooth()
        with pytest.raises(ValueError, match="admissible"):
            trom.local_bases(art, [0.8, 0.0], n_u, n_f)


class TestBuildReducedSystem:
    def test_ls_with_full_dims_matches_universal_path(self, small_burgers):
        # square full-rank fit degenerates to the plain inverse composition
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=0.0,
                                 a_op=cfg.affine())
        r_f = art.f_part.basis.shape[1]
        n_u = min(art.local_dim_bounds()[0], 10)
        assert art.local_dim_bounds()[1] == r_f  # lossless case is full rank
        local = trom.build_reduced_system(
            art, trom.local_bases(art, [0.1, 0.5], n_u, r_f), mode="ls")
        rng = np.random.default_rng(5)
        f = rng.standard_normal(cfg.m)
        got = local.f_map @ f[local.used_rows]
        u_loc = art.u_part.basis @ local.u_coords
        y = art.f_part.basis @ local.f_coords
        oracle = u_loc.T @ (y @ np.linalg.solve((y)[art.selection, :],
                                                f[art.selection]))
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_linear_term_composition_matches_dense_oracle(self):
        m = smooth_tensor().shape[0]
        art, u, f, grid = build_smooth(a_op=AffineOperator(terms=(np.eye(m) * 0,),
                                                           coeff=lambda a: np.ones(1)))
        alpha = np.array([0.9, 0.5])
        n_u, n_f = 4, 5
        local = trom.build_reduced_system(
            art, trom.local_bases(art, alpha, n_u, n_f), mode="ls")
        rng = np.random.default_rng(6)
        vec = rng.standard_normal(u.shape[0])
        got = local.f_map @ vec[local.used_rows]
        u_loc = art.u_part.basis @ local.u_coords
        y_loc = art.f_part.basis @ local.f_coords
        p = selection_matrix(art.selection, u.shape[0])
        b = (p.T @ art.f_part.basis) @ local.f_coords
        oracle = u_loc.T @ art.f_part.basis @ local.f_coords @ np.linalg.pinv(b) @ (p.T @ vec)
        assert np.linalg.norm(got - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1.0)
        assert np.allclose(y_loc.T @ y_loc, np.eye(n_f), atol=1e-12)

    @pytest.mark.parametrize("fmt,kw", [("tt", {"eps": 1e-10}),
                                        ("hosvd", {"eps": 1e-10}),
                                        ("cp", {"cp_rank": 8})])
    def test_ls_fit_matches_pseudo_inverse(self, fmt, kw):
        m = smooth_tensor().shape[0]
        art, *_ = build_smooth(fmt=fmt, a_op=AffineOperator(terms=(np.zeros((m, m)),),
                                                            coeff=lambda a: np.ones(1)), **kw)
        local = trom.local_bases(art, [0.9, 0.5], 4, 5)
        got = trom.build_reduced_system(art, local, mode="ls").f_map
        proj = local.u_coords.T @ art.uty @ local.f_coords
        oracle = proj @ np.linalg.pinv(art.pty @ local.f_coords)
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_deim_mode_selects_square_invertible_block(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-6,
                                 a_op=cfg.affine())
        local = trom.build_reduced_system(
            art, trom.local_bases(art, [0.1, 0.5], 6, 8), mode="deim")
        assert local.used_rows.size == 8
        assert np.isfinite(local.cstar)

    def test_cstar_shared_across_queries_in_ls_mode(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-6,
                                 a_op=cfg.affine())
        rng = np.random.default_rng(7)
        stars = set()
        for alpha in grid.sample(5, rng):
            local = trom.build_reduced_system(
                art, trom.local_bases(art, alpha, 6, 8), mode="ls")
            stars.add(local.cstar)
        assert stars == {art.cstar_ls}

    def test_projected_operator_matches_dense(self, small_burgers):
        cfg, grid, snaps = small_burgers
        op = cfg.affine()
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-6, a_op=op)
        alpha = np.array([0.2, 0.4])
        local = trom.build_reduced_system(art, trom.local_bases(art, alpha, 7, 9))
        lifted = art.u_part.basis @ local.u_coords
        oracle = lifted.T @ (op.assemble(alpha) @ lifted)
        assert np.linalg.norm(local.a_red - oracle) <= 1e-10 * np.linalg.norm(oracle)


class TestSolve:
    def test_constant_when_operator_and_term_vanish(self):
        m = smooth_tensor().shape[0]
        zero_op = AffineOperator(terms=(np.zeros((m, m)),), coeff=lambda a: np.ones(1))
        art, u, f, grid = build_smooth(a_op=zero_op)
        local = trom.build_reduced_system(
            art, trom.local_bases(art, [0.8, 0.0], 3, 3), mode="ls")
        from tromkit.stepping import PointwiseTerm
        term = PointwiseTerm(fn=lambda v: np.zeros_like(v))
        u0 = u[:, 2, 1, 0]
        betas, _ = trom.trom_solve(art, local, term, u0, 0.1, 12)
        beta0 = local.u_coords.T @ (art.u_part.basis.T @ u0)
        assert np.max(np.abs(betas - beta0[:, None])) < 1e-12

    def test_in_sample_replay_full_rank(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=0.0, a_op=cfg.affine())
        bounds = art.local_dim_bounds()
        term = cfg.nonlinearity()
        for mi in [(0, 0), (1, 2), (2, 3)]:
            alpha = grid.node(mi)
            local = trom.build_reduced_system(
                art, trom.local_bases(art, alpha, bounds[0], bounds[1]), mode="ls")
            u0 = cfg.initial_state(alpha)
            _, states = trom.trom_solve(art, local, term, u0, cfg.dt, cfg.n_steps)
            slab_u = snaps.u_tensor[(slice(None),) + mi]
            assert np.linalg.norm(states - slab_u) <= 1e-6 * np.linalg.norm(slab_u)

    def test_replay_both_hyper_reduction_modes_agree(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-5, a_op=cfg.affine())
        alpha = np.array([0.05, 0.45])
        term = cfg.nonlinearity()
        u0 = cfg.initial_state(alpha)
        runs = {}
        for mode in ("ls", "deim"):
            local = trom.build_reduced_system(
                art, trom.local_bases(art, alpha, 10, 14), mode=mode)
            _, runs[mode] = trom.trom_solve(art, local, term, u0, cfg.dt, cfg.n_steps)
        gap = np.linalg.norm(runs["ls"] - runs["deim"]) / np.linalg.norm(runs["ls"])
        assert gap < 0.05

    def test_pointwise_replay_allen_cahn(self, tiny_ac):
        cfg, grid, snaps = tiny_ac
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-9, a_op=cfg.affine())
        mi = (1, 1, 0)
        alpha = grid.node(mi)
        bounds = art.local_dim_bounds()
        local = trom.build_reduced_system(
            art, trom.local_bases(art, alpha, *bounds), mode="ls")
        term = fom.nonlinearity_for(cfg, alpha)
        u0 = fom.initial_state_for(cfg, alpha)
        _, states = trom.trom_solve(art, local, term, u0, cfg.dt, cfg.n_steps,
                                    stab=cfg.stabilization(cfg.dt))
        slab_u = snaps.u_tensor[(slice(None),) + mi]
        err = np.linalg.norm(states - slab_u) / np.linalg.norm(slab_u)
        assert err < 1e-6

    @pytest.mark.parametrize("mode", ["ls", "deim"])
    def test_pointwise_step_inverse_matches_per_step_solve(self, tiny_ac, mode):
        cfg, grid, snaps = tiny_ac
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-6, a_op=cfg.affine())
        _assert_pointwise_step_matches_oracle(cfg, art, np.array([0.017, 0.12, 0.507]), mode)

    @pytest.mark.parametrize("n_steps", [1, 2])
    @pytest.mark.parametrize("mode", ["ls", "deim"])
    def test_short_pointwise_march_matches_per_step_solve(self, tiny_ac, mode, n_steps):
        # the BDF1 start alone, then with the first BDF2 step: both come
        # before the march's two-column recurrence
        cfg, grid, snaps = tiny_ac
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-6, a_op=cfg.affine())
        _assert_pointwise_step_matches_oracle(cfg, art, np.array([0.017, 0.12, 0.507]),
                                              mode, n_steps)

    @pytest.mark.parametrize("mode", ["ls", "deim"])
    def test_advective_step_tensor_matches_per_step_solve(self, small_burgers, mode):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-6, a_op=cfg.affine())
        alpha = np.array([0.05, 0.45])
        local = trom.build_reduced_system(art, trom.local_bases(art, alpha, 10, 14),
                                          mode=mode)
        _assert_advective_step_matches_oracle(
            cfg, art.u_part.basis @ local.u_coords, local.used_rows, local.a_red,
            local.f_map, alpha)

    @pytest.mark.parametrize("n_steps", [1, 2])
    @pytest.mark.parametrize("mode", ["ls", "deim"])
    def test_short_advective_march_matches_per_step_solve(self, small_burgers, mode,
                                                          n_steps):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-6, a_op=cfg.affine())
        alpha = np.array([0.05, 0.45])
        local = trom.build_reduced_system(art, trom.local_bases(art, alpha, 10, 14),
                                          mode=mode)
        _assert_advective_step_matches_oracle(
            cfg, art.u_part.basis @ local.u_coords, local.used_rows, local.a_red,
            local.f_map, alpha, n_steps)

    def test_pod_advective_step_tensor_matches_per_step_solve(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 9, 13,
                              a_op=cfg.affine())
        alpha = np.array([0.05, 0.45])
        local = trom.build_reduced_system(
            art, trom.local_bases(art, alpha, *art.local_dim_bounds()), mode="deim")
        _assert_advective_step_matches_oracle(
            cfg, art.u_part.basis, local.used_rows, local.a_red, local.f_map, alpha)

    def test_singular_advective_step_names_its_step(self, small_burgers):
        cfg, _, snaps = small_burgers
        lifted = np.linalg.qr(snaps.u_tensor[:, 1, 1, :6])[0]
        rows = np.arange(0, cfg.m, 4)
        # c I - a_red vanishes at the BDF2 shift and the term does too
        a_red = 1.5 / cfg.dt * np.eye(6)
        sys, beta0 = stepping.reduced_system(
            lifted, rows, a_red, np.zeros((6, rows.size)), cfg.nonlinearity(),
            np.zeros(cfg.m))
        assert not sys.start.any()
        with pytest.raises(np.linalg.LinAlgError, match=r"at step 2 of 9, n=6"):
            stepping.integrate_reduced(sys, beta0, cfg.dt, 9)

    @pytest.mark.parametrize("step", [1, 3])
    def test_singular_advective_step_named_at_start_and_in_march(self, step):
        # n = 1 and dt = 1/4: the shifts are 4 (BDF1) and 6 (BDF2), the
        # history coefficients 8 and -2, and a_red = 6 cancels the BDF2 shift.
        # A start term of 2 makes the BDF1 matrix 4 - 6 + 2 vanish.  With 6
        # instead, beta_1 = beta_0 = 11/2, the first BDF2 matrix is
        # 2 beta_1 + 1 = 12 and gives beta_2 = 11/4, so the extrapolation
        # 2 beta_2 - beta_1 and with it the step-3 matrix vanish.
        sys = stepping.ReducedSystem(
            a_red=np.array([[6.0]]), f_map=np.eye(1), sel_state=np.eye(1),
            u0_sel=np.ones(1), term=fom.BurgersConfig(m=10).nonlinearity(),
            start=np.array([[2.0 if step == 1 else 6.0]]),
            transport=np.array([[1.0], [-1.0]]))
        with pytest.raises(np.linalg.LinAlgError, match=rf"at step {step} of 5, n=1"):
            stepping.integrate_reduced(sys, np.array([5.5]), 0.25, 5)

    def test_blown_up_pointwise_march_returns_non_finite(self):
        # A blow-up is data, not an error: the benchmark counts non-finite
        # deim-mode trajectories as a known defect, so the march must hand
        # them back without raising.
        cubic = stepping.PointwiseTerm(fn=lambda u: u**3)
        sys = stepping.ReducedSystem(
            a_red=np.zeros((1, 1)), f_map=np.eye(1), sel_state=np.eye(1),
            u0_sel=np.full(1, 10.0), term=cubic, start=np.full(1, 1e3), stab=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            betas = stepping.integrate_reduced(sys, np.full(1, 10.0), 0.1, 20)
        assert betas.shape == (1, 20)
        assert np.isfinite(betas[:, 0]).all()
        assert not np.isfinite(betas[:, -1]).any()

    def test_artifact_without_operator_rejected(self):
        art, *_ = build_smooth()
        with pytest.raises(ValueError, match="no reduced operator"):
            trom.build_reduced_system(art, trom.local_bases(art, [0.8, 0.0], 3, 3))

    def test_requires_completed_local_rom(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-4)
        local = trom.local_bases(art, [0.1, 0.5], 4, 4)
        with pytest.raises(ValueError, match="build_reduced_system"):
            trom.trom_solve(art, local, cfg.nonlinearity(),
                            np.zeros(cfg.m), cfg.dt, 5)


class TestOnlineComplexity:
    def test_online_memory_bounded_by_ranks(self, desk_burgers):
        cfg, grid, snaps = desk_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-3, a_op=cfg.affine())
        alpha = np.array([0.02, 0.44])
        trom.build_reduced_system(art, trom.local_bases(art, alpha, 10, 20))  # warm up
        tracemalloc.start()
        local = trom.build_reduced_system(art, trom.local_bases(art, alpha, 10, 20))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        full_bytes = snaps.u_tensor.nbytes
        rank_bytes = 8 * (art.u_part.online_entries + art.f_part.online_entries
                          + art.uty.size + art.pty.size)
        assert peak < max(60 * rank_bytes, full_bytes / 50)
        assert peak < full_bytes / 10
        assert local.f_map is not None

    def test_local_bases_time_independent_of_space_size(self):
        import dataclasses
        import time

        art, *_ = build_smooth(eps=0.0)
        fat = dataclasses.replace(
            art, u_part=dataclasses.replace(
                art.u_part, basis=np.zeros((4 * art.u_part.basis.shape[0],
                                            art.u_part.basis.shape[1]))),
            f_part=dataclasses.replace(
                art.f_part, basis=np.zeros((4 * art.f_part.basis.shape[0],
                                            art.f_part.basis.shape[1]))))

        def clock(a):
            best = np.inf
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(20):
                    trom.local_bases(a, [0.8, 0.0], 3, 3)
                best = min(best, time.perf_counter() - t0)
            return best

        clock(art)  # warm up
        assert clock(fat) < 2.0 * clock(art)


class TestArtifactSerialization:
    @pytest.mark.parametrize("fmt,kw", [("tt", {"eps": 1e-6}),
                                        ("hosvd", {"eps": 1e-6}),
                                        ("cp", {"cp_rank": 15})])
    def test_round_trip_byte_identical(self, tmp_path, fmt, kw):
        art, *_ = build_smooth(fmt=fmt, **kw)
        p1 = tmp_path / "a1.trbl"
        p2 = tmp_path / "a2.trbl"
        trom.save_artifact(p1, art)
        loaded = trom.load_artifact(p1)
        trom.save_artifact(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_artifact_answers_queries_identically(self, tmp_path, small_burgers,
                                                         tiny_ac):
        # every format of both problems, in both online modes, answers with
        # the betas of the artifact that was saved
        for cfg, grid, snaps in (small_burgers, tiny_ac):
            alpha = grid.sample(1, np.random.default_rng(2))[0]
            term, u0 = cfg.nonlinearity(alpha), cfg.initial_state(alpha)
            for fmt, kw in (("tt", {"eps": 1e-4}), ("hosvd", {"eps": 1e-4}),
                            ("cp", {"cp_rank": 6})):
                art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt=fmt,
                                         a_op=cfg.affine(), problem=fom.config_to_dict(cfg),
                                         **kw)
                path = tmp_path / f"{cfg.kind}_{fmt}.trbl"
                trom.save_artifact(path, art)
                loaded = trom.load_artifact(path)
                # the coupling matrices and the reduced operator, recomputed
                # on load from the parts and the stored selection
                for name in ("uty", "pty"):
                    np.testing.assert_array_equal(getattr(loaded, name), getattr(art, name))
                np.testing.assert_array_equal(loaded.selection, art.selection)
                # the facts read off the parts and the grid, and the selection's gain
                assert (art.fmt, art.cp_rank, art.full_shape) == (
                    fmt, kw.get("cp_rank"), snaps.u_tensor.shape)
                for name in ("fmt", "cp_rank", "full_shape", "cstar_ls"):
                    assert getattr(loaded, name) == getattr(art, name), name
                assert len(loaded.a_reduced.terms) == len(art.a_reduced.terms)
                for ours, theirs in zip(loaded.a_reduced.terms, art.a_reduced.terms):
                    np.testing.assert_array_equal(ours, theirs)
                dims = art.local_dim_bounds()
                for mode in ("ls", "deim"):
                    betas = [trom.trom_solve(
                        a, trom.build_reduced_system(a, trom.local_bases(a, alpha, *dims), mode),
                        term, u0, cfg.dt, cfg.n_steps, cfg.stabilization(cfg.dt))[0]
                        for a in (art, loaded)]
                    np.testing.assert_array_equal(*betas, err_msg=f"{cfg.kind} {fmt} {mode}")

    def test_truncated_artifact_rejected(self, tmp_path):
        art, *_ = build_smooth(fmt="tt", eps=1e-6)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        raw = path.read_bytes()
        meta_end = 16 + int.from_bytes(raw[8:16], "little")
        # inside the header, the metadata, a blob header and a blob's data
        for cut in (10, meta_end - 5, meta_end + 20, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated"):
                trom.load_artifact(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        art, *_ = build_smooth(fmt="tt", eps=1e-6)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="8 trailing bytes"):
            trom.load_artifact(path)

    def test_artifact_without_operator_loads_without_one(self, tmp_path, small_burgers):
        # neither an operator nor a problem to take one from
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-3)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        loaded = trom.load_artifact(path)
        assert art.a_reduced is None and loaded.a_reduced is None
        assert loaded.full_shape == snaps.u_tensor.shape

    def test_operator_defaults_to_the_problems(self, tmp_path, small_burgers):
        cfg, grid, snaps = small_burgers
        given, derived = (trom.build_offline(
            snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-3, a_op=a_op,
            problem=fom.config_to_dict(cfg)) for a_op in (cfg.affine(), None))
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, derived)
        for art in (derived, trom.load_artifact(path)):
            assert len(art.a_reduced.terms) == len(given.a_reduced.terms)
            for ours, theirs in zip(art.a_reduced.terms, given.a_reduced.terms):
                np.testing.assert_array_equal(ours, theirs)

    def test_operator_without_problem_refused(self, tmp_path, small_burgers):
        # the coefficient function cannot be stored; load rebuilds it from problem
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-3, a_op=cfg.affine())
        path = tmp_path / "a.trbl"
        with pytest.raises(ValueError, match="no problem"):
            trom.save_artifact(path, art)
        assert not path.exists()

    def test_online_payload_count_matches_formula(self, tmp_path):
        def paper_count(part, ks):
            r = part.ranks
            if part.kind == "tt":        # sum r_i K_i r_{i+1} plus the r_last^2 scales
                return sum(a * k * b for a, k, b in zip(r, ks, r[1:])) + r[-1]**2
            if part.kind == "hosvd":     # core plus the K_i x K~_i factors
                return int(np.prod(r)) + sum(k * kt for k, kt in zip(ks, r[1:-1]))
            return r[0] * (r[0] + 1) + r[0] * sum(ks)   # two triangles plus R K_i
        for i, (fmt, kw) in enumerate((
            ("tt", {"eps": 1e-6}),
            ("hosvd", {"eps": 1e-6}),
            ("cp", {"cp_rank": 8}),   # below min(M, N): square QR factors
            ("cp", {"cp_rank": 15}),  # above min(M, N): trapezoidal QR factors
        )):
            art, u, *_ = build_smooth(fmt=fmt, **kw)
            path = tmp_path / f"{fmt}{i}.trbl"
            trom.save_artifact(path, art)
            loaded = trom.load_artifact(path)
            for part in (art.u_part, art.f_part, loaded.u_part, loaded.f_part):
                assert part.online_entries == paper_count(part, art.grid.shape)
            cf = art.compression_factors()
            assert cf["cf_u"] == u.size / art.u_part.online_entries

    @pytest.mark.parametrize("schema", ["tromkit-artifact-1", "tromkit-artifact-2",
                                        "tromkit-artifact-3"])
    def test_other_schema_refused(self, tmp_path, schema):
        from tromkit import store
        art, *_ = build_smooth(fmt="tt", eps=1e-6)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        meta, blobs = store.load_bundle(path)
        meta["schema"] = schema
        store.save_bundle(path, meta, blobs)
        with pytest.raises(ValueError, match=f"'{schema}'.*tromkit offline"):
            trom.load_artifact(path)

    def test_bundle_holds_only_the_parts(self, tmp_path, small_burgers):
        from tromkit import store
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-3,
                                 a_op=cfg.affine(), problem=fom.config_to_dict(cfg))
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        meta, blobs = store.load_bundle(path)
        assert all(name[:2] in ("u_", "f_") for name in blobs)
        assert set(meta) == {"schema", "grid", "u_part", "f_part", "selection", "eps",
                             "interp_order", "problem", "cp_fit", "blobs"}
        assert meta["schema"] == "tromkit-artifact-4"

    def test_load_runs_no_selection(self, tmp_path, monkeypatch):
        art, *_ = build_smooth(fmt="tt", eps=1e-6)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        monkeypatch.setattr(trom, "deim_select",
                            lambda *args: pytest.fail("deim_select ran on load"))
        loaded = trom.load_artifact(path)
        np.testing.assert_array_equal(loaded.pty, art.pty)

    @pytest.mark.parametrize("edit", [
        lambda rows: [10**6] + rows[1:], lambda rows: [-1] + rows[1:], lambda rows: rows[:-1],
        lambda rows: rows + [max(rows) + 1], lambda rows: [rows[1]] + rows[1:],
        lambda rows: [0.5] + rows[1:]],
        ids=["out_of_range", "negative", "short", "long", "repeated", "not_integer"])
    def test_stored_selection_not_one_row_per_column_refused(self, tmp_path, edit):
        from tromkit import store
        art, *_ = build_smooth(fmt="tt", eps=1e-6)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        meta, blobs = store.load_bundle(path)
        meta["selection"] = edit(meta["selection"])
        store.save_bundle(path, meta, blobs)
        m, n = art.f_part.basis.shape
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has a stored selection "
                                             f"that is not {n} distinct rows of its {m}-row "):
            trom.load_artifact(path)

    # the reduced operator of an artifact with a problem is that problem's, so
    # a problem whose kind is null or missing, or that is no object, is refused
    @pytest.mark.parametrize("problem", [{"kind": None, "m": 12}, {"m": 12}, [1]],
                             ids=["none", "no_kind", "not_object"])
    def test_reduced_operator_without_problem_kind_refused(self, tmp_path, problem):
        from tromkit import store
        art, *_ = build_smooth(fmt="tt", eps=1e-6)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        meta, blobs = store.load_bundle(path)
        meta["problem"] = problem
        store.save_bundle(path, meta, blobs)
        with pytest.raises(ValueError, match="^unknown problem kind None; expected one of"):
            trom.load_artifact(path)

    def test_parts_of_two_kinds_refused(self, tmp_path):
        from tromkit import store
        (tt, *_), (ho, *_) = (build_smooth(fmt=fmt, eps=1e-6) for fmt in ("tt", "hosvd"))
        trom.save_artifact(tmp_path / "tt.trbl", tt)
        trom.save_artifact(tmp_path / "ho.trbl", ho)
        meta, blobs = store.load_bundle(tmp_path / "tt.trbl")
        ho_meta, ho_blobs = store.load_bundle(tmp_path / "ho.trbl")
        # the HOSVD term part, with its selection, beside the TT state part
        blobs = {k: v for k, v in blobs.items() if k[:2] == "u_"} | {
            k: v for k, v in ho_blobs.items() if k[:2] == "f_"}
        path = tmp_path / "mixed.trbl"
        store.save_bundle(path, meta | {"f_part": ho_meta["f_part"],
                                        "selection": ho_meta["selection"]}, blobs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has a tt state part "
                                             "but a hosvd term part; rebuild"):
            trom.load_artifact(path)

    def test_unknown_part_kind_refused(self, tmp_path):
        from tromkit import store
        art, *_ = build_smooth(fmt="tt", eps=1e-6)
        path = tmp_path / "a.trbl"
        trom.save_artifact(path, art)
        meta, blobs = store.load_bundle(path)
        meta["f_part"]["kind"] = "ht"
        store.save_bundle(path, meta, blobs)
        with pytest.raises(ValueError, match="unknown part kind 'ht'"):
            trom.load_artifact(path)


class TestCompressionFactors:
    def test_cf_at_least_reported_for_lossless_small_case(self):
        art, u, *_ = build_smooth(eps=0.3)
        cf = art.compression_factors()
        assert cf["cf_u"] >= 1.0

    def test_cp_combined_factor(self):
        art, u, f, _ = build_smooth(fmt="cp", cp_rank=8)
        cf = art.compression_factors()
        r = 8
        k_total = sum(ax.nodes.size for ax in art.grid.axes)
        per_part = r * (r + 1) + r * k_total
        assert cf["cf_combined"] == pytest.approx(2 * u.size / (2 * per_part))
