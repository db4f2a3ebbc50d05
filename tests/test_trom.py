import tracemalloc

import numpy as np
import pytest

from tromkit import decomp, fom, trom
from tromkit.grids import GridAxis, ParameterGrid
from tromkit.stepping import AffineOperator

from conftest import smooth_tensor


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
        with pytest.raises(ValueError, match="share a shape"):
            trom.build_offline(t, t[:, :, :, :5], grid, fmt="tt", eps=0.1)
        with pytest.raises(ValueError, match="eps"):
            trom.build_offline(t, t, grid, fmt="tt")
        with pytest.raises(ValueError, match="cp_rank"):
            trom.build_offline(t, t, grid, fmt="cp")


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
        art, u, f, grid = build_smooth(fmt=fmt, **kw)
        alpha = np.array([0.83, 0.21])
        w = art.weights(alpha)
        if fmt == "tt":
            dense = decomp.reconstruct(decomp.tt_svd(u, kw["eps"]))
        elif fmt == "hosvd":
            dense = decomp.reconstruct(decomp.hosvd(u, kw["eps"]))
        else:
            dense = decomp.reconstruct(decomp.cp_als(u, kw["cp_rank"], seed=0,
                                                     max_sweeps=500, tol=1e-14))
        oracle = trom.interpolate_dense(dense, w)
        implicit = art.u_part.dense_local(w)
        assert np.linalg.norm(implicit - oracle) <= 1e-10 * np.linalg.norm(oracle)

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


class TestBuildReducedSystem:
    def test_ls_with_full_dims_matches_universal_path(self, small_burgers):
        # square full-rank fit degenerates to the plain inverse composition
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=0.0,
                                 a_op=fom.burgers_affine(cfg))
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
        oracle = u_loc.T @ (y @ np.linalg.solve((y)[art.selection.indices, :],
                                                f[art.selection.indices]))
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
        p = art.selection.matrix(u.shape[0])
        b = (p.T @ art.f_part.basis) @ local.f_coords
        oracle = u_loc.T @ art.f_part.basis @ local.f_coords @ np.linalg.pinv(b) @ (p.T @ vec)
        assert np.linalg.norm(got - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1.0)
        assert np.allclose(y_loc.T @ y_loc, np.eye(n_f), atol=1e-12)

    def test_deim_mode_selects_square_invertible_block(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-6,
                                 a_op=fom.burgers_affine(cfg))
        local = trom.build_reduced_system(
            art, trom.local_bases(art, [0.1, 0.5], 6, 8), mode="deim")
        assert local.used_rows.size == 8
        assert np.isfinite(local.cstar)

    def test_cstar_shared_across_queries_in_ls_mode(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-6,
                                 a_op=fom.burgers_affine(cfg))
        rng = np.random.default_rng(7)
        stars = set()
        for alpha in grid.sample(5, rng):
            local = trom.build_reduced_system(
                art, trom.local_bases(art, alpha, 6, 8), mode="ls")
            stars.add(local.cstar)
        assert stars == {art.cstar_ls}

    def test_projected_operator_matches_dense(self, small_burgers):
        cfg, grid, snaps = small_burgers
        op = fom.burgers_affine(cfg)
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
                                 eps=0.0, a_op=fom.burgers_affine(cfg))
        bounds = art.local_dim_bounds()
        term = fom.burgers_nonlinearity(cfg)
        for mi in [(0, 0), (1, 2), (2, 3)]:
            alpha = grid.node(mi)
            local = trom.build_reduced_system(
                art, trom.local_bases(art, alpha, bounds[0], bounds[1]), mode="ls")
            u0 = fom.burgers_initial_state(cfg, alpha[1])
            _, states = trom.trom_solve(art, local, term, u0, cfg.dt, cfg.n_steps)
            slab_u = snaps.u_tensor[(slice(None),) + mi]
            assert np.linalg.norm(states - slab_u) <= 1e-6 * np.linalg.norm(slab_u)

    def test_replay_both_hyper_reduction_modes_agree(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-5, a_op=fom.burgers_affine(cfg))
        alpha = np.array([0.05, 0.45])
        term = fom.burgers_nonlinearity(cfg)
        u0 = fom.burgers_initial_state(cfg, alpha[1])
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
                                 eps=1e-9, a_op=fom.ac_affine(cfg))
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

    def test_artifact_without_operator_rejected(self):
        art, *_ = build_smooth()
        with pytest.raises(ValueError, match="no reduced operator"):
            trom.build_reduced_system(art, trom.local_bases(art, [0.8, 0.0], 3, 3))

    def test_requires_completed_local_rom(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-4)
        local = trom.local_bases(art, [0.1, 0.5], 4, 4)
        with pytest.raises(ValueError, match="build_reduced_system"):
            trom.trom_solve(art, local, fom.burgers_nonlinearity(cfg),
                            np.zeros(cfg.m), cfg.dt, 5)


class TestOnlineComplexity:
    def test_online_memory_bounded_by_ranks(self, desk_burgers):
        cfg, grid, snaps = desk_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-3, a_op=fom.burgers_affine(cfg))
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

    def test_loaded_artifact_answers_queries_identically(self, tmp_path, small_burgers):
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-5, a_op=fom.burgers_affine(cfg),
                                 problem=fom.config_to_dict(cfg))
        path = tmp_path / "art.trbl"
        trom.save_artifact(path, art)
        loaded = trom.load_artifact(path)
        alpha = np.array([0.05, 0.5])
        term = fom.burgers_nonlinearity(cfg)
        u0 = fom.burgers_initial_state(cfg, alpha[1])
        outs = []
        for a in (art, loaded):
            local = trom.build_reduced_system(a, trom.local_bases(a, alpha, 8, 12))
            outs.append(trom.trom_solve(a, local, term, u0, cfg.dt, cfg.n_steps)[1])
        assert np.array_equal(outs[0], outs[1])

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

    def test_operator_without_problem_refused(self, tmp_path, small_burgers):
        # the coefficient function cannot be stored; load rebuilds it from problem
        cfg, grid, snaps = small_burgers
        art = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt",
                                 eps=1e-3, a_op=fom.burgers_affine(cfg))
        path = tmp_path / "a.trbl"
        with pytest.raises(ValueError, match="no problem"):
            trom.save_artifact(path, art)
        assert not path.exists()

    def test_online_payload_count_matches_formula(self, tmp_path):
        from tromkit import store
        for fmt, kw in (
            ("tt", {"eps": 1e-6}),
            ("hosvd", {"eps": 1e-6}),
            ("cp", {"cp_rank": 8}),   # below min(M, N): square QR factors
        ):
            art, u, *_ = build_smooth(fmt=fmt, **kw)
            path = tmp_path / f"{fmt}.trbl"
            trom.save_artifact(path, art)
            meta, blobs = store.load_bundle(path)
            for tag, part in (("u", art.u_part), ("f", art.f_part)):
                counted = sum(blobs[name].size for name in meta["online_blobs"][tag])
                assert counted == part.online_entries
            cf = art.compression_factors()
            assert cf["cf_u"] == u.size / art.u_part.online_entries


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
