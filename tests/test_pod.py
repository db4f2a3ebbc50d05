import numpy as np
import pytest
import scipy.sparse as sp

import tromkit
from tromkit import decomp, deim, fom, pod, stepping, trom
from tromkit.stepping import AffineOperator, PointwiseTerm
from tromkit.tensors import unfold

from conftest import deim_apply
from oracles import integrate_full


def completed_local(art, alpha, mode="deim"):
    """The local ROM ``pod_solve`` integrates at ``alpha``."""
    local = trom.local_bases(art, alpha, *art.local_dim_bounds())
    return trom.build_reduced_system(art, local, mode=mode)


def query_inputs(cfg, alpha):
    return (fom.nonlinearity_for(cfg, alpha), fom.initial_state_for(cfg, alpha),
            cfg.stabilization(cfg.dt))


def test_package_exports_resolve():
    missing = [name for name in tromkit.__all__ if not hasattr(tromkit, name)]
    assert missing == []


class TestPodBasis:
    def test_identical_snapshots_give_single_direction(self):
        v = np.array([1.0, 2.0, -1.0])
        tensor = np.repeat(v[:, None], 8, axis=1).reshape(3, 2, 4)
        art = pod.pod_offline(tensor, tensor, 1, 1)
        direction = art.u_part.basis[:, 0]
        assert np.allclose(np.abs(direction), np.abs(v) / np.linalg.norm(v), atol=1e-12)

    def test_tail_energy_identity(self, small_burgers):
        _, _, snaps = small_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 12, 12)
        mat = unfold(snaps.u_tensor, 0)
        proj = art.u_part.basis @ (art.u_part.basis.T @ mat)
        residual = np.sum((mat - proj) ** 2)
        tail = np.sum(pod.pod_basis(snaps.u_tensor)[1][12:] ** 2)
        assert residual == pytest.approx(tail, rel=1e-8)

    def test_matches_direct_svd(self):
        # a tall unfolding (cols < rows), one QR block, and a wide
        # Fortran-ordered one over several blocks with a graded spectrum
        rng = np.random.default_rng(0)
        wide = np.linalg.qr(rng.standard_normal((150, 12)))[0] * 0.5 ** np.arange(12)
        wide = np.linalg.qr(rng.standard_normal((12, 12)))[0] @ wide.T
        for mat, shape, tol in ((rng.standard_normal((30, 8)), (30, 2, 4), 1e-10),
                                (wide, (12, 5, 30), 1e-12)):
            u_pod, s_pod = pod.pod_basis(np.reshape(mat, shape, order="F"))
            u_ref, s_ref, _ = np.linalg.svd(mat, full_matrices=False)
            assert np.max(np.abs(s_pod - s_ref)) < tol * s_ref[0]
            overlap = np.abs(np.sum(u_pod * u_ref, axis=0))
            assert np.allclose(overlap, 1.0, atol=tol)

    def test_rank_deficiency_detected(self):
        v = np.array([1.0, 2.0, -1.0])
        tensor = np.repeat(v[:, None], 8, axis=1).reshape(3, 2, 4)
        with pytest.raises(ValueError, match="rank-deficient"):
            pod.pod_offline(tensor, tensor, 2, 1)

    @pytest.mark.parametrize("n_u,n_f", [(-3, 5), (5, 0)])
    def test_basis_size_below_one_rejected(self, small_burgers, n_u, n_f):
        _, _, snaps = small_burgers
        with pytest.raises(ValueError, match="at least 1"):
            pod.pod_offline(snaps.u_tensor, snaps.f_tensor, n_u, n_f)

    def test_artifact_has_no_grid_and_is_not_saved(self, small_burgers, tmp_path):
        _, _, snaps = small_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 6, 9)
        assert art.fmt == "pod" and art.grid is None
        assert art.local_dim_bounds() == (6, 9)
        # each POD basis is a tensor train without a parametric core
        for part, tensor, n in ((art.u_part, snaps.u_tensor, 6),
                                (art.f_part, snaps.f_tensor, 9)):
            assert isinstance(part, decomp.TTPart)
            assert part.cores == () and part.ranks == (n,)
            assert np.array_equal(part.scaled_core_matrix([]),
                                  np.diag(pod.pod_basis(tensor)[1][:n]))
        with pytest.raises(ValueError, match="in-memory baselines"):
            trom.save_artifact(tmp_path / "pod.trbl", art)
        assert not (tmp_path / "pod.trbl").exists()

    def test_compression_factors_refused(self, small_burgers):
        _, _, snaps = small_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 6, 9)
        with pytest.raises(ValueError, match="POD baseline holds no compressed tensor"):
            art.compression_factors()

    def test_selection_comes_from_term_basis(self, small_burgers):
        _, _, snaps = small_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 6, 9)
        oracle = deim.deim_select(art.f_part.basis)
        assert np.array_equal(art.selection, oracle)


class TestPodSolve:
    def test_norm_decays_without_forcing(self):
        # diffusion only: the reduced trajectory must dissipate
        m = 24
        a_full = fom.BurgersConfig(m=m).affine().assemble([0.3, 0.5])
        rng = np.random.default_rng(1)
        traj = np.empty((m, 10))
        state = np.sin(np.pi * fom.BurgersConfig(m=m).nodes)
        for j in range(10):
            traj[:, j] = state
            state = state * 0.9 + 0.01 * rng.standard_normal(m)
        tensor = traj.reshape(m, 1, 10)
        op = AffineOperator(terms=(a_full,), coeff=lambda a: np.ones(1))
        art = pod.pod_offline(tensor, tensor, 5, 5, a_op=op)
        term = PointwiseTerm(fn=lambda u: np.zeros_like(u))
        betas, _ = pod.pod_solve(art, [1.0], term, traj[:, 0], 0.01, 40)
        norms = np.linalg.norm(betas, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_full_basis_reproduces_fom(self, small_burgers):
        cfg, grid, snaps = small_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, cfg.m, cfg.m,
                              a_op=cfg.affine())
        alpha = np.array([0.07, 0.55])
        u_ref, _ = fom.run_fom(cfg, alpha)
        term = cfg.nonlinearity()
        u0 = cfg.initial_state(alpha)
        _, states = pod.pod_solve(art, alpha, term, u0, cfg.dt, cfg.n_steps)
        assert np.linalg.norm(states - u_ref) <= 1e-8 * np.linalg.norm(u_ref)

    @pytest.mark.parametrize("alpha", [(0.013, 0.17, 0.507), "node"],
                             ids=["off_grid", "grid_node"])
    def test_full_basis_reproduces_pointwise_fom(self, alpha):
        # pins the stabilization, the exact start-up term and the
        # selected-row extrapolation of the reduced path against the FOM
        cfg = fom.AllenCahnConfig(m=8, n_steps=16, pre_steps=5, seed=42)
        grid = cfg.grid((3, 2, 2))
        snaps = fom.sample_snapshots(cfg, grid)
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, cfg.n_dofs, cfg.n_dofs,
                              a_op=cfg.affine())
        alpha = grid.node((1, 0, 1)) if alpha == "node" else np.array(alpha)
        u_ref, _ = fom.run_fom(cfg, alpha)
        _, states = pod.pod_solve(art, alpha, fom.nonlinearity_for(cfg, alpha),
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

        states, f_vals = integrate_full(a_full, PointwiseTerm(fn=lambda u: b * u),
                                        u0, 0.05, 30)
        tensor_u = states.reshape(m, 1, 30)
        tensor_f = f_vals.reshape(m, 1, 30)
        op = AffineOperator(terms=(a_full,), coeff=lambda a: np.ones(1))
        art = pod.pod_offline(tensor_u, tensor_f, keep, keep, a_op=op)

        # selected rows lie inside the active block, so entry evaluation with
        # a truncated vector is well-defined
        sel_term = PointwiseTerm(fn=lambda u: b[art.selection] * u
                                 if u.size == keep else b * u)
        _, lifted = pod.pod_solve(art, [1.0], sel_term, u0, 0.05, 30)
        assert np.linalg.norm(lifted - states) <= 1e-9 * np.linalg.norm(states)

    def test_hyper_reduction_matches_oblique_projector(self, small_burgers):
        # the composed map equals projecting deim_apply of the lifted term
        cfg, grid, snaps = small_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 8, 10,
                              a_op=cfg.affine())
        local = completed_local(art, [0.05, 0.45])
        rng = np.random.default_rng(2)
        f = rng.standard_normal(cfg.m)
        composed = local.f_map @ f[local.used_rows]
        oracle = art.u_part.basis.T @ deim_apply(art.f_part.basis, art.selection, f)
        assert np.linalg.norm(composed - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_moderate_basis_out_of_sample_inaccurate(self, desk_burgers):
        # the cumulative basis misses out-of-sample fronts at modest dims
        cfg, grid, snaps = desk_burgers
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 10, 20,
                              a_op=cfg.affine())
        alpha = np.array([0.013, 0.633])
        u_ref, _ = fom.run_fom(cfg, alpha)
        term = cfg.nonlinearity()
        u0 = cfg.initial_state(alpha)
        _, states = pod.pod_solve(art, alpha, term, u0, cfg.dt, cfg.n_steps)
        err = np.linalg.norm(states - u_ref) / np.linalg.norm(u_ref)
        assert err > 0.02

    @pytest.mark.parametrize("n_u,n_f", [(5, 10), (10, 20)])
    @pytest.mark.parametrize("problem", ["small_burgers", "tiny_ac"])
    def test_matches_composed_baseline(self, request, problem, n_u, n_f):
        # the shared online stage on a POD artifact is POD-DEIM exactly: the
        # SVD of the diagonal core is the identity, and the first n LU pivots
        # of the preselected rows are those rows in order
        cfg, grid, snaps = request.getfixturevalue(problem)
        a_op = fom.affine_operator_for(cfg)
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, n_u, n_f, a_op=a_op)
        u_basis = pod.pod_basis(snaps.u_tensor)[0][:, :n_u]
        f_basis = pod.pod_basis(snaps.f_tensor)[0][:, :n_f]
        sel = deim.deim_select(f_basis)
        f_map = (u_basis.T @ f_basis) @ np.linalg.inv(f_basis[sel, :])
        a_red = a_op.reduce(u_basis)
        for alpha in grid.sample(2, np.random.default_rng(7)):
            term, u0, stab = query_inputs(cfg, alpha)
            sys, beta0 = stepping.reduced_system(u_basis, sel, a_red.assemble(alpha),
                                                 f_map, term, u0, stab)
            betas_ref = stepping.integrate_reduced(sys, beta0, cfg.dt, cfg.n_steps)
            betas, states = pod.pod_solve(art, alpha, term, u0, cfg.dt, cfg.n_steps,
                                          stab=stab)
            assert np.array_equal(betas, betas_ref)
            assert np.array_equal(states, u_basis @ betas_ref)

    @pytest.mark.parametrize("problem", ["small_burgers", "tiny_ac"])
    def test_ls_mode_matches_deim(self, request, problem):
        # the offline selection has as many rows as the term basis has
        # columns, so the least-squares fit is the interpolation
        cfg, grid, snaps = request.getfixturevalue(problem)
        art = pod.pod_offline(snaps.u_tensor, snaps.f_tensor, 8, 12,
                              a_op=fom.affine_operator_for(cfg))
        alpha = grid.sample(1, np.random.default_rng(3))[0]
        deim_local = completed_local(art, alpha, "deim")
        ls_local = completed_local(art, alpha, "ls")
        assert np.array_equal(ls_local.used_rows, deim_local.used_rows)
        err = np.linalg.norm(ls_local.f_map - deim_local.f_map)
        assert err <= 1e-12 * np.linalg.norm(deim_local.f_map)
        term, u0, stab = query_inputs(cfg, alpha)
        betas = [trom.trom_solve(art, loc, term, u0, cfg.dt, cfg.n_steps, stab)[0]
                 for loc in (deim_local, ls_local)]
        assert np.linalg.norm(betas[1] - betas[0]) <= 1e-12 * np.linalg.norm(betas[0])
