import numpy as np
import pytest
import scipy.sparse as sp

from tromkit import fom, store
from tromkit.stepping import AdvectiveTerm, PointwiseTerm, affine_sum, integrate_full


class TestBurgersOperators:
    def test_gradient_of_constant_vanishes_on_interior_rows(self):
        _, grad = fom.burgers_operators(20, 0.1)
        out = grad @ np.full(20, 3.0)
        assert np.allclose(out[1:], 0.0, atol=1e-13)
        assert out[0] != 0.0  # boundary row sees the Dirichlet zero

    def test_diffusion_matches_second_derivative_of_sine(self):
        m = 400
        nu = 0.07
        a_mat, _ = fom.burgers_operators(m, nu)
        cfg = fom.BurgersConfig(m=m)
        x = cfg.nodes
        u = np.sin(np.pi * x)
        target = -nu * np.pi**2 * np.sin(np.pi * x)
        err = np.max(np.abs(a_mat @ u - target))
        assert err < 5 * nu * np.pi**4 * cfg.h**2  # second-order stencil

    def test_diffusion_symmetric_negative(self):
        a_mat, _ = fom.burgers_operators(12, 0.3)
        dense = a_mat.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) < 0)


class TestBurgersFom:
    def test_large_viscosity_dissipates(self):
        cfg = fom.BurgersConfig(m=80, n_steps=60)
        states, _ = fom.burgers_fom(cfg, (0.5, 0.5))
        peaks = np.max(np.abs(states), axis=0)
        assert np.all(np.diff(peaks[2:]) <= 1e-12)

    def test_zero_initial_state_stays_zero(self):
        cfg = fom.BurgersConfig(m=30, n_steps=20)
        states, f_vals = fom.burgers_fom(cfg, (0.1, cfg.h / 2))  # front before first node
        assert np.array_equal(states, np.zeros_like(states))
        assert np.array_equal(f_vals, np.zeros_like(f_vals))

    def test_refinement_self_consistency(self):
        alpha = (0.05, 0.45)
        diffs = []
        for m, n in ((49, 50), (99, 100), (199, 200)):
            cfg = fom.BurgersConfig(m=m, n_steps=n)
            diffs.append(fom.burgers_fom(cfg, alpha)[0][:, -1])
        # node sets nest: coarse node i sits at fine index 2i+1
        d12 = np.linalg.norm(diffs[0] - diffs[1][1::2]) / np.linalg.norm(diffs[1][1::2])
        d23 = np.linalg.norm(diffs[1] - diffs[2][1::2]) / np.linalg.norm(diffs[2][1::2])
        assert d12 < 0.1
        assert d23 < d12

    def test_matches_generic_sparse_stepper(self):
        cfg = fom.BurgersConfig(m=25, n_steps=15)
        alpha = (0.08, 0.6)
        a_mat, _ = fom.burgers_operators(cfg.m, alpha[0])
        term = fom.burgers_nonlinearity(cfg)
        u0 = fom.burgers_initial_state(cfg, alpha[1])
        ref_states, ref_f = integrate_full(a_mat, term, u0, cfg.dt, cfg.n_steps)
        states, f_vals = fom.burgers_fom(cfg, alpha)
        assert np.linalg.norm(states - ref_states) < 1e-11 * np.linalg.norm(ref_states)
        assert np.linalg.norm(f_vals - ref_f) < 1e-10 * np.linalg.norm(ref_f)

    def test_non_finite_step_is_named(self, monkeypatch):
        cfg = fom.BurgersConfig(m=20, n_steps=10)
        banded = fom.scipy.linalg.solve_banded
        calls = []

        def poisoned(*args, **kwargs):
            # the k-th banded solve returns the state at t = k dt
            calls.append(None)
            out = banded(*args, **kwargs)
            if len(calls) == 4:
                out[3] = np.nan
            return out

        monkeypatch.setattr(fom.scipy.linalg, "solve_banded", poisoned)
        with pytest.raises(FloatingPointError,
                           match=r"transport run at step 4 of 10, alpha=\[0\.1, 0\.5\]"):
            fom.burgers_fom(cfg, (0.1, 0.5))

    def test_bdf2_contractive_without_forcing(self):
        # G-stability energy for the two-step scheme, forced term disabled
        cfg = fom.BurgersConfig(m=30, n_steps=40)
        a_mat, _ = fom.burgers_operators(cfg.m, 0.2)
        term = PointwiseTerm(fn=lambda u: np.zeros_like(u))
        u0 = np.sin(np.pi * cfg.nodes) + 0.3
        states, _ = integrate_full(a_mat, term, u0, cfg.dt, cfg.n_steps)
        seq = [u0] + [states[:, j] for j in range(states.shape[1])]
        energy = [np.dot(c, c) + np.dot(2 * c - p, 2 * c - p)
                  for p, c in zip(seq, seq[1:])]
        assert np.all(np.diff(energy) <= 1e-12)


class TestAllenCahn:
    def test_neumann_laplacian_annihilates_constants(self):
        lap = fom.neumann_laplacian(7)
        assert np.allclose(lap @ np.ones(49), 0.0, atol=1e-12)

    def test_laplacian_symmetric_negative_semidefinite(self):
        dense = fom.neumann_laplacian(5).toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) < 1e-10)

    def test_pure_phases_are_steady(self):
        # beta_s must dominate half the potential curvature (|F''| <= 2 on
        # the wells) for the explicit treatment to be stable at this step
        cfg = fom.AllenCahnConfig(m=12, n_steps=10, beta_s=2.0)
        for value in (0.0, 1.0):
            states, _ = fom.allen_cahn_fom(cfg, (0.02, 0.0, 0.5),
                                           u0=np.full(cfg.n_dofs, value))
            col = np.hstack([np.full((cfg.n_dofs, 1), value), states])
            assert np.max(np.abs(np.diff(col, axis=1))) < 1e-12

    def test_trajectory_bounded(self, tiny_ac):
        _, _, snaps = tiny_ac
        assert snaps.u_tensor.min() > -0.2
        assert snaps.u_tensor.max() < 1.2

    def test_non_finite_step_is_named(self):
        cfg = fom.AllenCahnConfig(m=6, n_steps=5)
        u0 = np.full(cfg.n_dofs, 0.5)
        u0[7] = np.nan
        with pytest.raises(FloatingPointError,
                           match=r"phase-field run at step 1 of 5, alpha="):
            fom.allen_cahn_fom(cfg, (0.02, 0.1, 0.5), u0=u0)

    def test_potential_derivative_roots(self):
        for u in (0.0, 0.5, 1.0):
            assert fom.potential_derivative(np.array([u]), 0.0)[0] == pytest.approx(0.0)

    def test_golden_regression(self):
        cfg = fom.AllenCahnConfig(m=16, n_steps=20, seed=42)
        states, f_vals = fom.allen_cahn_fom(cfg, (0.02, 0.15, 0.51))
        final = states[:, -1]
        assert final.mean() == pytest.approx(0.455105763045975, abs=1e-10)
        assert np.linalg.norm(final) == pytest.approx(9.91246620486959, abs=1e-8)
        for idx, val in [(0, 0.916566058640864), (37, 0.109069632881906),
                         (100, 0.00566701645301826), (200, 0.0551474398087021),
                         (255, 0.00574992193388853)]:
            assert final[idx] == pytest.approx(val, abs=1e-10)
        assert np.linalg.norm(f_vals[:, -1]) == pytest.approx(1.56848231929357, abs=1e-8)


class TestInitialStates:
    def test_probability_one_gives_ones_and_stays(self):
        cfg = fom.AllenCahnConfig(m=10, n_steps=5, seed=3)
        state = fom.ac_initial_state(cfg, 1.0)
        assert np.allclose(state, 1.0, atol=1e-10)

    def test_deterministic_for_fixed_seed(self):
        cfg = fom.AllenCahnConfig(m=14, n_steps=5, seed=9)
        a = fom.ac_initial_state(cfg, 0.51)
        fom.ac_initial_state.cache_clear()
        b = fom.ac_initial_state(cfg, 0.51)
        assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_mean_close_to_probability_before_relaxation(self):
        cfg = fom.AllenCahnConfig(m=40, n_steps=5, seed=11, pre_steps=0)
        state = fom.ac_initial_state(cfg, 0.5)
        m = cfg.n_dofs
        sigma = np.sqrt(0.25 / m)
        assert abs(np.mean(state) - 0.5) < 3 * sigma

    def test_states_table(self):
        cfg = fom.AllenCahnConfig(m=10, n_steps=5, seed=5)
        for p in (0.5, 0.51, 0.52):
            assert fom.ac_initial_state(cfg, p).shape == (cfg.n_dofs,)
        # threshold coupling: raising the probability only flips cells upward
        raw = fom.AllenCahnConfig(m=10, n_steps=5, seed=5, pre_steps=0)
        lo = fom.ac_initial_state(raw, 0.5)
        hi = fom.ac_initial_state(raw, 0.52)
        assert np.all(hi >= lo)


class TestSampling:
    def test_single_point_grid(self):
        cfg = fom.BurgersConfig(m=20, n_steps=10)
        grid = fom.burgers_grid(cfg, (1, 1))
        snaps = fom.sample_snapshots(cfg, grid)
        assert snaps.u_tensor.shape == (20, 1, 1, 10)

    def test_slab_equals_standalone_run_bitwise(self, small_burgers):
        cfg, grid, snaps = small_burgers
        mi = (2, 1)
        u_ref, f_ref = fom.burgers_fom(cfg, grid.node(mi))
        sl = (slice(None),) + mi
        slab_u, slab_f = snaps.u_tensor[sl], snaps.f_tensor[sl]
        assert np.array_equal(slab_u, u_ref)
        assert np.array_equal(slab_f, f_ref)

    def test_desk_shape(self):
        cfg = fom.BurgersConfig(m=100, n_steps=100)
        grid = fom.burgers_grid(cfg, (8, 16))
        assert grid.shape == (8, 16)
        # shape check only; the full sampling lives in the session fixture

    def test_snapshot_round_trip(self, tmp_path, small_burgers):
        cfg, grid, snaps = small_burgers
        path = tmp_path / "snaps.trbl"
        fom.save_snapshots(path, snaps)
        loaded = fom.load_snapshots(path)
        assert np.array_equal(loaded.u_tensor, snaps.u_tensor)
        assert np.array_equal(loaded.f_tensor, snaps.f_tensor)
        assert loaded.config == cfg
        assert loaded.grid.to_dict() == grid.to_dict()
        path2 = tmp_path / "snaps2.trbl"
        fom.save_snapshots(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_bundle_with_initial_state_blob_loads(self, tmp_path, small_burgers):
        # older bundles also stored every node's initial state; it is ignored
        cfg, grid, snaps = small_burgers
        path = tmp_path / "old.trbl"
        meta = {"schema": "tromkit-snapshots-1", "problem": fom.config_to_dict(cfg),
                "grid": grid.to_dict(), "times": snaps.times.tolist()}
        inits = np.stack([fom.initial_state_for(cfg, a) for _, a in grid.points()], axis=1)
        store.save_bundle(path, meta, {"u_tensor": snaps.u_tensor, "f_tensor": snaps.f_tensor,
                                       "initial_states": inits.reshape((cfg.m,) + grid.shape)})
        loaded = fom.load_snapshots(path)
        assert np.array_equal(loaded.u_tensor, snaps.u_tensor)
        assert np.array_equal(loaded.f_tensor, snaps.f_tensor)
        assert loaded.config == cfg

    def test_failure_identifies_grid_point(self):
        cfg = fom.AllenCahnConfig(m=6, n_steps=4)
        grid = fom.ac_grid(cfg, (1, 1, 1))

        real_run = fom.run_fom

        def boom(cfg_, alpha):
            raise FloatingPointError("synthetic")

        fom_run = fom.run_fom
        try:
            fom.run_fom = boom
            with pytest.raises(RuntimeError, match="alpha="):
                fom.sample_snapshots(cfg, grid)
        finally:
            fom.run_fom = fom_run
        assert fom.run_fom is real_run


class TestAffineOperators:
    def test_burgers_affine_assembles_viscosity_scaling(self):
        cfg = fom.BurgersConfig(m=15)
        op = fom.burgers_affine(cfg)
        direct, _ = fom.burgers_operators(cfg.m, 0.37)
        assert np.allclose(op.assemble([0.37, 0.5]).toarray(), direct.toarray())

    def test_ac_affine_scales_with_width_squared(self):
        cfg = fom.AllenCahnConfig(m=6)
        op = fom.ac_affine(cfg)
        direct = fom.allen_cahn_operators(cfg.m, 0.02)
        assert np.allclose(op.assemble([0.02, 0.1, 0.5]).toarray(), direct.toarray())

    def test_reduced_terms_match_projection(self):
        cfg = fom.BurgersConfig(m=15)
        op = fom.burgers_affine(cfg)
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((15, 4)))[0]
        red = op.reduce(basis)
        assembled = affine_sum(op.coeff, red, [0.2, 0.5])
        oracle = basis.T @ (op.assemble([0.2, 0.5]) @ basis)
        assert np.allclose(assembled, oracle, atol=1e-13)


class TestConfigSerialization:
    def test_round_trip_both_problems(self):
        for cfg in (fom.BurgersConfig(m=33, n_steps=17),
                    fom.AllenCahnConfig(m=9, n_steps=5, seed=2)):
            assert fom.config_from_dict(fom.config_to_dict(cfg)) == cfg


class TestAdvectiveTermShape:
    def test_full_equals_mixed_diagonal(self):
        cfg = fom.BurgersConfig(m=10)
        term = fom.burgers_nonlinearity(cfg)
        u = np.random.default_rng(1).standard_normal(10)
        assert np.allclose(term.full(u), term.mixed(u, u))
        assert isinstance(term.grad, sp.csr_matrix)
