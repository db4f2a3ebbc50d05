import numpy as np
import pytest
import scipy.sparse as sp

from tromkit import deim, fom, pod
from tromkit.stepping import AffineOperator, PointwiseTerm
from tromkit.tensors import unfold


class TestPodBasis:
    def test_identical_snapshots_give_single_direction(self):
        v = np.array([1.0, 2.0, -1.0])
        tensor = np.repeat(v[:, None], 8, axis=1).reshape(3, 2, 4)
        rom = pod.pod_offline(tensor, tensor, 1, 1)
        direction = rom.u_basis[:, 0]
        assert np.allclose(np.abs(direction), np.abs(v) / np.linalg.norm(v), atol=1e-12)

    def test_tail_energy_identity(self, small_burgers):
        _, _, snaps = small_burgers
        rom = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 12, 12)
        mat = unfold(snaps.u_tensor, 0)
        proj = rom.u_basis @ (rom.u_basis.T @ mat)
        residual = np.sum((mat - proj) ** 2)
        tail = np.sum(rom.u_sing_vals[12:] ** 2)
        assert residual == pytest.approx(tail, rel=1e-8)

    def test_gram_path_matches_direct_svd(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((30, 8))  # tall unfolding (cols < rows)
        tall = mat.reshape(30, 2, 4)
        u_gram, s_gram = pod.pod_basis(tall)
        u_ref, s_ref, _ = np.linalg.svd(mat, full_matrices=False)
        assert np.max(np.abs(s_gram - s_ref)) < 1e-10 * s_ref[0]
        overlap = np.abs(np.sum(u_gram * u_ref, axis=0))
        assert np.allclose(overlap, 1.0, atol=1e-10)

    def test_rank_deficiency_detected(self):
        v = np.array([1.0, 2.0, -1.0])
        tensor = np.repeat(v[:, None], 8, axis=1).reshape(3, 2, 4)
        with pytest.raises(ValueError, match="rank-deficient"):
            pod.pod_offline(tensor, tensor, 2, 1)

    def test_selection_comes_from_term_basis(self, small_burgers):
        _, _, snaps = small_burgers
        rom = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 6, 9)
        oracle = deim.deim_select(rom.f_basis)
        assert np.array_equal(rom.selection.indices, oracle.indices)


class TestPodSolve:
    def test_norm_decays_without_forcing(self):
        # diffusion only: the reduced trajectory must dissipate
        m = 24
        a_full = fom.burgers_operators(m, 0.3)[0]
        rng = np.random.default_rng(1)
        traj = np.empty((m, 10))
        state = np.sin(np.pi * fom.BurgersConfig(m=m).nodes)
        for j in range(10):
            traj[:, j] = state
            state = state * 0.9 + 0.01 * rng.standard_normal(m)
        tensor = traj.reshape(m, 1, 10)
        op = AffineOperator(terms=(a_full,), coeff=lambda a: np.ones(1))
        rom = pod.pod_offline(tensor, tensor, 5, 5, a_op=op)
        term = PointwiseTerm(fn=lambda u: np.zeros_like(u))
        betas, _ = pod.pod_solve(rom, [1.0], term, traj[:, 0], 0.01, 40)
        norms = np.linalg.norm(betas, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_full_basis_reproduces_fom(self, small_burgers):
        cfg, grid, snaps = small_burgers
        rom = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, cfg.m, cfg.m,
                              a_op=fom.burgers_affine(cfg))
        alpha = np.array([0.07, 0.55])
        u_ref, _ = fom.burgers_fom(cfg, alpha)
        term = fom.burgers_nonlinearity(cfg)
        u0 = fom.burgers_initial_state(cfg, alpha[1])
        _, states = pod.pod_solve(rom, alpha, term, u0, cfg.dt, cfg.n_steps)
        assert np.linalg.norm(states - u_ref) <= 1e-8 * np.linalg.norm(u_ref)

    @pytest.mark.parametrize("alpha", [(0.013, 0.17, 0.507), "node"],
                             ids=["off_grid", "grid_node"])
    def test_full_basis_reproduces_pointwise_fom(self, alpha):
        # pins the stabilization, the exact start-up term and the
        # selected-row extrapolation of the reduced path against the FOM
        cfg = fom.AllenCahnConfig(m=8, n_steps=16, pre_steps=5, seed=42)
        grid = fom.ac_grid(cfg, (3, 2, 2))
        snaps = fom.sample_snapshots(cfg, grid)
        rom = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, cfg.n_dofs, cfg.n_dofs,
                              a_op=fom.ac_affine(cfg))
        alpha = grid.node((1, 0, 1)) if alpha == "node" else np.array(alpha)
        u_ref, _ = fom.allen_cahn_fom(cfg, alpha)
        _, states = pod.pod_solve(rom, alpha, fom.nonlinearity_for(cfg, alpha),
                                  fom.initial_state_for(cfg, alpha), cfg.dt, cfg.n_steps,
                                  stab=cfg.stabilization(cfg.dt))
        assert np.linalg.norm(states - u_ref) <= 1e-10 * np.linalg.norm(u_ref)

    def test_galerkin_consistency_on_invariant_subspace(self):
        # diagonal operator and entrywise-linear term keep the dynamics in
        # the span of the active coordinates; the ROM must then be exact
        m, keep = 12, 3
        diag_a = -np.linspace(1.0, 2.0, m)
        a_full = sp.diags(diag_a).tocsr()
        b = np.linspace(0.2, 0.5, m)
        u0 = np.zeros(m)
        u0[:keep] = [1.0, -0.5, 0.25]

        from tromkit.stepping import integrate_full
        states, f_vals = integrate_full(a_full, PointwiseTerm(fn=lambda u: b * u),
                                        u0, 0.05, 30)
        tensor_u = states.reshape(m, 1, 30)
        tensor_f = f_vals.reshape(m, 1, 30)
        op = AffineOperator(terms=(a_full,), coeff=lambda a: np.ones(1))
        rom = pod.pod_offline(tensor_u, tensor_f, keep, keep, a_op=op)

        # selected rows lie inside the active block, so entry evaluation with
        # a truncated vector is well-defined
        sel_term = PointwiseTerm(fn=lambda u: b[rom.selection.indices] * u
                                 if u.size == keep else b * u)
        _, lifted = pod.pod_solve(rom, [1.0], sel_term, u0, 0.05, 30)
        assert np.linalg.norm(lifted - states) <= 1e-9 * np.linalg.norm(states)

    def test_hyper_reduction_matches_oblique_projector(self, small_burgers):
        # the composed map equals projecting deim_apply of the lifted term
        cfg, grid, snaps = small_burgers
        rom = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 8, 10,
                              a_op=fom.burgers_affine(cfg))
        rng = np.random.default_rng(2)
        f = rng.standard_normal(cfg.m)
        composed = rom.f_map @ f[rom.selection.indices]
        oracle = rom.u_basis.T @ deim.deim_apply(rom.f_basis, rom.selection, f)
        assert np.linalg.norm(composed - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_moderate_basis_out_of_sample_inaccurate(self, desk_burgers):
        # the cumulative basis misses out-of-sample fronts at modest dims
        cfg, grid, snaps = desk_burgers
        rom = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 10, 20,
                              a_op=fom.burgers_affine(cfg))
        alpha = np.array([0.013, 0.633])
        u_ref, _ = fom.burgers_fom(cfg, alpha)
        term = fom.burgers_nonlinearity(cfg)
        u0 = fom.burgers_initial_state(cfg, alpha[1])
        _, states = pod.pod_solve(rom, alpha, term, u0, cfg.dt, cfg.n_steps)
        err = np.linalg.norm(states - u_ref) / np.linalg.norm(u_ref)
        assert err > 0.02
