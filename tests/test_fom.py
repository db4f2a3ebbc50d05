import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tromkit import fom, stepping, store
from tromkit.grids import GridAxis, ParameterGrid
from tromkit.stepping import PointwiseTerm

from oracles import integrate_full, potential_derivative


def burgers_diffusion(m, nu):
    """The transport problem's assembled diffusion matrix at viscosity ``nu``."""
    return fom.BurgersConfig(m=m).affine().assemble([nu, 0.5])


def matches_generic_stepper(cfg, alpha, u0, got, width=None):
    """Whether ``got``, the phase-field FOM's (states, terms) at ``alpha`` from
    ``u0``, agree to 1e-11 of their largest entry with the generic sparse
    stepper on the assembled operator the offline stage projects, at
    ``width`` (``alpha[0]`` when None).  The FOM's fast-diagonalisation solve
    rounds apart from ``splu``, by 1e-13 to 1e-12 over a few steps."""
    at = np.array(alpha, dtype=np.float64)
    at[0] = alpha[0] if width is None else width
    ref = integrate_full(cfg.affine().assemble(at), fom.nonlinearity_for(cfg, alpha), u0,
                         cfg.dt, cfg.n_steps, stab=cfg.stabilization(cfg.dt))
    return all(np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(b)) for a, b in zip(got, ref))


class TestBurgersOperators:
    def test_gradient_of_constant_vanishes_on_interior_rows(self):
        grad = fom.BurgersConfig(m=20).nonlinearity().grad
        out = grad @ np.full(20, 3.0)
        assert np.allclose(out[1:], 0.0, atol=1e-13)
        assert out[0] != 0.0  # boundary row sees the Dirichlet zero

    def test_diffusion_matches_second_derivative_of_sine(self):
        m = 400
        nu = 0.07
        a_mat = burgers_diffusion(m, nu)
        cfg = fom.BurgersConfig(m=m)
        x = cfg.nodes
        u = np.sin(np.pi * x)
        target = -nu * np.pi**2 * np.sin(np.pi * x)
        err = np.max(np.abs(a_mat @ u - target))
        assert err < 5 * nu * np.pi**4 * cfg.h**2  # second-order stencil

    def test_diffusion_symmetric_negative(self):
        a_mat = burgers_diffusion(12, 0.3)
        dense = a_mat.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) < 0)


class TestBurgersFom:
    def test_large_viscosity_dissipates(self):
        cfg = fom.BurgersConfig(m=80, n_steps=60)
        states, _ = fom.run_fom(cfg, (0.5, 0.5))
        peaks = np.max(np.abs(states), axis=0)
        assert np.all(np.diff(peaks[2:]) <= 1e-12)

    def test_zero_initial_state_stays_zero(self):
        cfg = fom.BurgersConfig(m=30, n_steps=20)
        states, f_vals = fom.run_fom(cfg, (0.1, cfg.h / 2))  # front before first node
        assert np.array_equal(states, np.zeros_like(states))
        assert np.array_equal(f_vals, np.zeros_like(f_vals))

    def test_refinement_self_consistency(self):
        alpha = (0.05, 0.45)
        diffs = []
        for m, n in ((49, 50), (99, 100), (199, 200)):
            cfg = fom.BurgersConfig(m=m, n_steps=n)
            diffs.append(fom.run_fom(cfg, alpha)[0][:, -1])
        # node sets nest: coarse node i sits at fine index 2i+1
        d12 = np.linalg.norm(diffs[0] - diffs[1][1::2]) / np.linalg.norm(diffs[1][1::2])
        d23 = np.linalg.norm(diffs[1] - diffs[2][1::2]) / np.linalg.norm(diffs[2][1::2])
        assert d12 < 0.1
        assert d23 < d12

    def test_matches_generic_sparse_stepper(self):
        # the oracle: the BDF2 loop with a fresh sparse solve of the assembled
        # step matrix c I - A + diag(w) G at every step
        cfg = fom.BurgersConfig(m=25, n_steps=15)
        alpha = (0.08, 0.6)
        a_mat = sp.csr_matrix(cfg.affine().assemble(alpha))
        grad = cfg.nonlinearity().grad
        u0 = cfg.initial_state(alpha)
        eye = sp.identity(cfg.m, format="csr")
        ref_f = np.empty((cfg.m, cfg.n_steps))
        f_cols = iter(ref_f.T)

        def solve(c, w, rhs):
            coeff = u0 if w is None else w
            u_next = spla.spsolve((c * eye - a_mat + sp.diags(coeff) @ grad).tocsc(), rhs)
            if w is not None:
                next(f_cols)[:] = -w * (grad @ u_next)
            return u_next

        ref_states = stepping._bdf2(solve, u0, cfg.dt, cfg.n_steps)
        states, f_vals = fom.run_fom(cfg, alpha)
        assert np.linalg.norm(states - ref_states) < 1e-11 * np.linalg.norm(ref_states)
        assert np.linalg.norm(f_vals - ref_f) < 1e-10 * np.linalg.norm(ref_f)

    def test_generic_stepper_takes_pointwise_terms_only(self):
        # transport runs march through run_fom's tridiagonal block solve
        cfg = fom.BurgersConfig(m=10, n_steps=3)
        with pytest.raises(TypeError, match="unsupported nonlinearity"):
            integrate_full(burgers_diffusion(cfg.m, 0.1), cfg.nonlinearity(),
                           np.zeros(cfg.m), cfg.dt, cfg.n_steps)

    def test_non_finite_step_is_named(self, monkeypatch):
        cfg = fom.BurgersConfig(m=20, n_steps=10)
        real = fom.dgtsv
        calls = []

        def poisoned(*args, **kwargs):
            # the k-th tridiagonal solve returns the state at t = k dt
            calls.append(None)
            out = real(*args, **kwargs)
            if len(calls) == 4:
                out[3][3] = np.nan
            return out

        monkeypatch.setattr(fom, "dgtsv", poisoned)
        with pytest.raises(FloatingPointError,
                           match=r"transport run at step 4 of 10, alpha=\[0\.1, 0\.5\]"):
            fom.run_fom(cfg, (0.1, 0.5))

    def test_block_march_equals_banded_solve_bit_for_bit(self, monkeypatch):
        # one 8-run slab through dgtsv, then through scipy's validated banded
        # solve of the same three bands put in its place; run 3 starts from
        # -3 times its step, so that pivoting rewrites the bands dgtsv gets
        cfg = fom.BurgersConfig(m=40, n_steps=40)
        alphas = np.stack(np.meshgrid([0.05], cfg.grid((6, 8)).axes[1].nodes,
                                      indexing="ij"), axis=-1)[0]
        real = fom.BurgersConfig.initial_state
        monkeypatch.setattr(fom.BurgersConfig, "initial_state", lambda cfg_, a: np.where(
            np.arange(8)[:, None] == 3, -3.0, 1.0) * real(cfg_, a))
        got = np.empty((2, 8, cfg.m, cfg.n_steps))
        cfg.march(alphas, *got)

        def banded(dl, d, du, b, **kwargs):
            ab = np.zeros((3, d.size))
            ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
            return None, None, None, scipy.linalg.solve_banded((1, 1), ab, b), 0

        monkeypatch.setattr(fom, "dgtsv", banded)
        ref = np.empty_like(got)
        cfg.march(alphas, *ref)
        assert np.all(np.isfinite(ref)) and np.any(ref[1] != 0.0)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])

    def test_singular_step_raises_and_is_named(self, monkeypatch):
        # m=3, dt=0.25 and nu=0.0625 make every band entry exact: the start's
        # diagonal is c + 2 nu / h^2 = 6, and a constant state of -1.5 cancels
        # it, which leaves the step matrix [[0, -1, 0], [5, 0, -1], [0, 5, 0]]
        # with two parallel columns, so dgtsv meets an exact zero pivot
        cfg = fom.BurgersConfig(m=3, n_steps=4)
        grid = ParameterGrid((GridAxis(np.array([0.0625, 0.125])),
                              GridAxis(np.array([0.3, 0.6]))))
        real = fom.BurgersConfig.initial_state

        def poisoned(cfg_, alpha):
            front = np.asarray(alpha)[..., 1:2]
            return np.where(front == 0.6, -1.5, real(cfg_, alpha))

        monkeypatch.setattr(fom.BurgersConfig, "initial_state", poisoned)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"singular transport step matrix \(dgtsv info=3\)"):
            fom.run_fom(cfg, (0.0625, 0.6))
        with pytest.raises(RuntimeError) as info:
            fom.sample_snapshots(cfg, grid)
        assert str(info.value) == "full-order run failed at alpha=[0.0625, 0.6]"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert "dgtsv info=3" in str(info.value.__cause__)

    def test_bdf2_contractive_without_forcing(self):
        # G-stability energy for the two-step scheme, forced term disabled
        cfg = fom.BurgersConfig(m=30, n_steps=40)
        a_mat = burgers_diffusion(cfg.m, 0.2)
        term = PointwiseTerm(fn=lambda u: np.zeros_like(u))
        u0 = np.sin(np.pi * cfg.nodes) + 0.3
        states, _ = integrate_full(a_mat, term, u0, cfg.dt, cfg.n_steps)
        seq = [u0] + [states[:, j] for j in range(states.shape[1])]
        energy = [np.dot(c, c) + np.dot(2 * c - p, 2 * c - p)
                  for p, c in zip(seq, seq[1:])]
        assert np.all(np.diff(energy) <= 1e-12)


class TestAllenCahn:
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_neumann_laplacian_annihilates_constants(self, m):
        lap = fom.neumann_laplacian(m)
        assert np.allclose(lap @ np.ones(m * m), 0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    def test_fast_solve_inverts_the_shifted_operator(self, m):
        # the sparse c I - g L applied to the fast-diagonalisation solution
        # gives back the right-hand side, for a block of three runs
        rhs = np.random.default_rng(m).standard_normal((3, m * m))
        for c, g in ((1.0, 1e-4), (7.5, 2.25e-4), (15.0, 6.25e-4), (150.0, 1e-2)):
            x = fom.shifted_neumann_solver(m, g)(c, rhs)
            op = c * sp.identity(m * m) - g * fom.neumann_laplacian(m)
            assert np.max(np.abs(op @ x.T - rhs.T)) <= 1e-13 * np.max(np.abs(rhs)), (c, g)

    def test_laplacian_symmetric_negative_semidefinite(self):
        dense = fom.neumann_laplacian(5).toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) < 1e-10)

    def test_pure_phases_are_steady(self):
        # beta_s must dominate half the potential curvature (|F''| <= 2 on
        # the wells) for the explicit treatment to be stable at this step
        cfg = fom.AllenCahnConfig(m=12, n_steps=10, beta_s=2.0)
        alpha = (0.02, 0.0, 0.5)
        a_mat = cfg.affine().assemble(alpha)
        for value in (0.0, 1.0):
            states, _ = integrate_full(a_mat, fom.nonlinearity_for(cfg, alpha),
                                       np.full(cfg.n_dofs, value), cfg.dt, cfg.n_steps,
                                       stab=cfg.stabilization(cfg.dt))
            col = np.hstack([np.full((cfg.n_dofs, 1), value), states])
            assert np.max(np.abs(np.diff(col, axis=1))) < 1e-12

    def test_trajectory_bounded(self, tiny_ac):
        _, _, snaps = tiny_ac
        assert snaps.u_tensor.min() > -0.2
        assert snaps.u_tensor.max() < 1.2

    def test_non_finite_step_is_named(self, monkeypatch):
        cfg = fom.AllenCahnConfig(m=6, n_steps=5)
        real = fom.ac_initial_state

        def poisoned(cfg_, p_high):
            state = real(cfg_, p_high).copy()
            state[7] = np.nan
            return state

        monkeypatch.setattr(fom, "ac_initial_state", poisoned)
        with pytest.raises(FloatingPointError,
                           match=r"phase-field run at step 1 of 5, alpha="):
            fom.run_fom(cfg, (0.02, 0.1, 0.5))

    def test_steps_with_the_projected_operator(self):
        # the FOM steps with the assembled AffineOperator the offline stage
        # projects, here at a width between the training nodes
        cfg = fom.AllenCahnConfig(m=8, n_steps=6, pre_steps=3, seed=4)
        alpha = np.array([0.0137, 0.2, 0.51])
        assert not np.isclose(cfg.grid().axes[0].nodes, alpha[0]).any()
        u0, got = fom.initial_state_for(cfg, alpha), fom.run_fom(cfg, alpha)
        assert matches_generic_stepper(cfg, alpha, u0, got)
        # and the comparison tells a width 1e-6 (relative) away
        assert not matches_generic_stepper(cfg, alpha, u0, got, width=alpha[0] * (1 + 1e-6))

    def test_potential_derivative_roots(self):
        # the cubic's Horner passes hit its roots exactly
        got = potential_derivative(np.array([0.0, 0.5, 1.0]), 0.0)
        assert np.array_equal(got, np.zeros(3))

    @pytest.mark.parametrize("asym", [0.0, 0.3, 1.0])
    def test_potential_derivative_matches_factored_form(self, asym):
        def factored(u, a):
            return 2.0 * u * (1.0 - u) * (1.0 - 2.0 * u) + (a / 10.0) * (4.0 * u**3 - 0.5)
        u = np.linspace(-0.5, 1.5, 801)
        # and a block of rows with one asymmetry each, as the block march passes it
        block, col = np.vstack([u, u[::-1], u]), np.array([[asym], [asym / 2], [0.0]])
        for x, a in ((u, asym), (block, col)):
            err = np.abs(potential_derivative(x, a) - factored(x, a))
            assert np.all(err <= 1e-14 * (1.0 + np.abs(x) ** 3))

    def test_potential_derivative_only_reads_its_input(self):
        u = np.linspace(-0.5, 1.5, 9)
        u.flags.writeable = False
        before = u.copy()
        potential_derivative(u, 0.3)
        assert np.array_equal(u, before)

    def test_term_is_the_negated_potential_derivative(self):
        # the term folds the sign into the cubic's coefficients, bit for bit
        cfg = fom.AllenCahnConfig(m=4)
        u = np.linspace(-0.5, 1.5, 401)
        alphas = np.array([[0.02, 0.3, 0.51], [0.02, 1.0, 0.5]])
        assert np.array_equal(cfg.nonlinearity(alphas[0]).fn(u),
                              -potential_derivative(u, 0.3))
        block = np.vstack([u, u[::-1]])
        assert np.array_equal(cfg.nonlinearity(alphas).fn(block),
                              -potential_derivative(block, alphas[:, 1:2]))

    def test_golden_regression(self):
        cfg = fom.AllenCahnConfig(m=16, n_steps=20, seed=42)
        states, f_vals = fom.run_fom(cfg, (0.02, 0.15, 0.51))
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


class TestInitialStateClasses:
    """The initial state depends on the probability only through the mask
    ``field < p``; each mask is relaxed once, at one probability."""

    def test_class_state_bitwise_equals_direct_relaxation(self):
        cfg = fom.AllenCahnConfig(m=10, n_steps=5, seed=5)
        field = np.sort(fom._ac_uniform_field(cfg))
        probs = {
            "inside": 0.5 * (field[40] + field[41]),
            "on_field_value": float(field[40]),
            "below_min": 0.5 * field[0],
            "above_max": 0.5 * (field[-1] + 1.0),
            "one": 1.0,
        }
        for name, p in probs.items():
            alpha = [0.015, 0.1, p]
            fom.ac_initial_state.cache_clear()
            got = fom.initial_state_for(cfg, alpha)
            got_fom = fom.run_fom(cfg, alpha)
            fom.ac_initial_state.cache_clear()
            direct = fom.ac_initial_state(cfg, p)
            assert np.array_equal(got, direct), name
            assert matches_generic_stepper(cfg, alpha, np.array(direct), got_fom), name

    def test_two_probabilities_of_one_class_relax_once(self):
        cfg = fom.AllenCahnConfig(m=10, n_steps=5, seed=6)
        field = np.sort(fom._ac_uniform_field(cfg))
        lo, hi = field[40], field[41]
        fom.ac_initial_state.cache_clear()
        a = fom.initial_state_for(cfg, [0.015, 0.1, lo + 0.25 * (hi - lo)])
        info = fom.ac_initial_state.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        b = fom.initial_state_for(cfg, [0.015, 0.1, lo + 0.75 * (hi - lo)])
        info = fom.ac_initial_state.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert np.array_equal(a, b)


class TestSampling:
    def test_single_point_grid(self):
        cfg = fom.BurgersConfig(m=20, n_steps=10)
        grid = cfg.grid((1, 1))
        snaps = fom.sample_snapshots(cfg, grid)
        assert snaps.u_tensor.shape == (20, 1, 1, 10)

    @staticmethod
    def assert_slabs_match_runs(cfg, grid, snaps):
        for mi, alpha in grid.points():
            sl = (slice(None),) + mi
            for slab, ref in zip((snaps.u_tensor[sl], snaps.f_tensor[sl]), fom.run_fom(cfg, alpha)):
                assert np.array_equal(slab, ref), mi

    def test_slab_equals_standalone_run_bitwise(self, small_burgers):
        # the runs of a first-axis node march as one block, whose stacked
        # tridiagonal system has exactly zero coupling entries, so the one
        # dgtsv gives every run the numbers of its own solve
        cfg, grid, snaps = small_burgers
        edge = cfg.grid((1, 4))
        for grid, snaps in ((grid, snaps), (edge, fom.sample_snapshots(cfg, edge))):
            self.assert_slabs_match_runs(cfg, grid, snaps)

    def test_phase_field_slab_matches_standalone_run(self, tiny_ac):
        # the runs of a width march as one block, but the fast solve takes
        # each run's m x m products on their own, so every run gets the
        # numbers of its own solve, at even and odd m and for every shape
        cfg, grid, snaps = tiny_ac
        self.assert_slabs_match_runs(cfg, grid, snaps)
        for m in (7, 8, 16):
            cfg = fom.AllenCahnConfig(m=m, n_steps=24, seed=42)
            for shape in ((1, 2, 2), (2, 1, 1), (2, 3, 1)):
                grid = cfg.grid(shape)
                self.assert_slabs_match_runs(cfg, grid, fom.sample_snapshots(cfg, grid))

    @pytest.mark.parametrize("cfg,shape", [
        (fom.BurgersConfig(m=200, n_steps=50), (2, 8)),
        (fom.AllenCahnConfig(m=12, n_steps=40), (2, 3, 3))], ids=["transport", "phase"])
    def test_slabs_are_written_in_place(self, cfg, shape):
        # a block that stepped into its own runs x M x N array and was then
        # copied into the tensors would add a whole slab to the peak
        grid = fom.default_grid(cfg, shape)
        fom.sample_snapshots(cfg, grid)     # fills the initial-state cache
        tracemalloc.start()
        try:
            snaps = fom.sample_snapshots(cfg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - snaps.u_tensor.nbytes - snaps.f_tensor.nbytes
        assert extra < snaps.u_tensor[:, 0].nbytes / 2

    def test_desk_shape(self):
        cfg = fom.BurgersConfig(m=100, n_steps=100)
        grid = cfg.grid((8, 16))
        assert grid.shape == (8, 16)
        # shape check only; the full sampling lives in the session fixture

    def test_snapshot_round_trip(self, tmp_path, small_burgers):
        cfg, grid, snaps = small_burgers
        path = tmp_path / "snaps.trbl"
        fom.save_snapshots(path, snaps)
        loaded = fom.load_snapshots(path)
        assert np.array_equal(loaded.u_tensor, snaps.u_tensor)
        assert np.array_equal(loaded.f_tensor, snaps.f_tensor)
        # both sampled and loaded tensors are held in canonical order
        for t in (snaps.u_tensor, snaps.f_tensor, loaded.u_tensor, loaded.f_tensor):
            assert t.flags.f_contiguous
        assert loaded.config == cfg
        assert loaded.grid.to_dict() == grid.to_dict()
        path2 = tmp_path / "snaps2.trbl"
        fom.save_snapshots(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_holds_one_blob_of_file_bytes_beyond_the_tensors(self, tmp_path,
                                                                   small_burgers):
        # each blob is read as file bytes and converted once; a further
        # reordering copy would add a third tensor-sized array to the peak
        _, _, snaps = small_burgers
        path = tmp_path / "snaps.trbl"
        fom.save_snapshots(path, snaps)
        tracemalloc.start()
        try:
            loaded = fom.load_snapshots(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = loaded.u_tensor.nbytes
        assert peak - 2 * size < 1.5 * size

    def test_bundle_with_initial_state_blob_loads(self, tmp_path, small_burgers):
        # older bundles also stored every node's initial state and the list of
        # snapshot times; both are ignored
        cfg, grid, snaps = small_burgers
        path = tmp_path / "old.trbl"
        times = cfg.dt * np.arange(1, cfg.n_steps + 1)
        meta = {"schema": "tromkit-snapshots-1", "problem": fom.config_to_dict(cfg),
                "grid": grid.to_dict(), "times": times.tolist()}
        inits = np.stack([fom.initial_state_for(cfg, a) for _, a in grid.points()], axis=1)
        store.save_bundle(path, meta, {"u_tensor": snaps.u_tensor, "f_tensor": snaps.f_tensor,
                                       "initial_states": inits.reshape((cfg.m,) + grid.shape)})
        loaded = fom.load_snapshots(path)
        assert np.array_equal(loaded.u_tensor, snaps.u_tensor)
        assert np.array_equal(loaded.f_tensor, snaps.f_tensor)
        assert loaded.config == cfg

    def test_failure_identifies_grid_point(self, monkeypatch):
        # a NaN initial state at the second node of each slab; in the stacked
        # transport solve it spreads to every run of the slab, so the slab's
        # nodes are run again one at a time to name the one at fault
        cfg = fom.BurgersConfig(m=20, n_steps=6)
        grid = cfg.grid((2, 3))
        bad_front = grid.axes[1].nodes[1]
        real_burgers = fom.BurgersConfig.initial_state

        def poisoned_burgers(cfg_, alpha):
            front = np.asarray(alpha)[..., 1:2]
            return np.where(front == bad_front, np.nan, real_burgers(cfg_, alpha))

        ac_cfg = fom.AllenCahnConfig(m=6, n_steps=4)
        ac_grid = ac_cfg.grid((2, 2, 2))
        bad_p = fom._ac_class_probability(ac_cfg, ac_grid.axes[2].nodes[1])
        real_ac = fom.ac_initial_state

        def poisoned_ac(cfg_, p_high):
            state = real_ac(cfg_, p_high)
            return np.full_like(state, np.nan) if p_high == bad_p else state

        for cfg, grid, owner, name, poisoned in (
                (cfg, grid, fom.BurgersConfig, "initial_state", poisoned_burgers),
                (ac_cfg, ac_grid, fom, "ac_initial_state", poisoned_ac)):
            named = grid.node((0,) * (grid.ndim - 1) + (1,))
            neighbour = grid.node((0,) * grid.ndim)
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, poisoned)
                with pytest.raises(RuntimeError) as info:
                    fom.sample_snapshots(cfg, grid)
            message = str(info.value)
            assert message == f"full-order run failed at alpha={named.tolist()}"
            assert str(neighbour.tolist()) not in message
            assert isinstance(info.value.__cause__, FloatingPointError)
            assert "at step 1 of" in str(info.value.__cause__)

    @pytest.mark.parametrize("fault", ["raises", "non_finite"])
    def test_slab_failure_that_no_node_repeats_is_named(self, monkeypatch, fault):
        # the tridiagonal solve fails only for stacked blocks, so every node of
        # the first slab runs on its own and the slab's own error is the cause
        cfg = fom.BurgersConfig(m=20, n_steps=6)
        grid = cfg.grid((2, 3))
        real = fom.dgtsv
        slab_error = np.linalg.LinAlgError("stacked solve failed")

        def poisoned(dl, d, du, b, **kwargs):
            if b.size == cfg.m:
                return real(dl, d, du, b, **kwargs)
            if fault == "raises":
                raise slab_error
            return dl, d, du, np.full_like(b, np.nan), 0

        monkeypatch.setattr(fom, "dgtsv", poisoned)
        with pytest.raises(RuntimeError) as info:
            fom.sample_snapshots(cfg, grid)
        first_slab = [grid.node((0, j)).tolist() for j in range(3)]
        assert str(info.value) == (f"full-order runs failed together at alphas={first_slab}, "
                                   "but each ran on its own")
        if fault == "raises":
            assert info.value.__cause__ is slab_error
        else:
            assert isinstance(info.value.__cause__, FloatingPointError)
            assert str(info.value.__cause__) == ("non-finite state in the slab at "
                                                 f"alpha[0]={grid.axes[0].nodes[0]}")


class TestAffineOperators:
    def test_burgers_affine_assembles_viscosity_scaling(self):
        cfg = fom.BurgersConfig(m=15)
        op = cfg.affine()
        d2 = -2.0 * np.eye(15) + np.eye(15, k=1) + np.eye(15, k=-1)
        direct = 0.37 * d2 / cfg.h**2
        assert np.allclose(op.assemble([0.37, 0.5]).toarray(), direct)

    def test_ac_affine_scales_with_width_squared(self):
        cfg = fom.AllenCahnConfig(m=6)
        op = cfg.affine()
        direct = 0.02**2 * fom.neumann_laplacian(cfg.m).toarray()
        assert np.allclose(op.assemble([0.02, 0.1, 0.5]).toarray(), direct)

    def test_ac_affine_built_once_per_config_and_read_only(self):
        op = fom.AllenCahnConfig(m=6).affine()
        assert fom.AllenCahnConfig(m=6).affine() is op
        assert fom.AllenCahnConfig(m=7).affine() is not op
        with pytest.raises(ValueError, match="read-only"):
            op.terms[0].data[0] = 0.0

    def test_reduced_terms_match_projection(self):
        cfg = fom.BurgersConfig(m=15)
        op = cfg.affine()
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((15, 4)))[0]
        red = op.reduce(basis)
        assert red.coeff is op.coeff
        assembled = red.assemble([0.2, 0.5])
        oracle = basis.T @ (op.assemble([0.2, 0.5]) @ basis)
        assert np.allclose(assembled, oracle, atol=1e-13)


# The field order of each registered problem's dict, which is the order of its
# bundle and artifact metadata: a class constant turned into a field by
# mistake would show here.
DICT_KEYS = {
    "burgers": ["m", "n_steps", "t_final", "nu_range", "front_range", "kind"],
    "allen_cahn": ["m", "n_steps", "t_final", "beta_s", "width_range", "asym_range",
                   "bernoulli_range", "seed", "pre_steps", "pre_time", "kind"],
}


class TestConfigSerialization:
    def test_round_trip_both_problems(self):
        assert sorted(fom.PROBLEMS) == sorted(DICT_KEYS)
        for kind, cls in fom.PROBLEMS.items():
            for cfg in (cls(), cls(m=cls.least_m + 2, n_steps=5)):
                d = fom.config_to_dict(cfg)
                assert list(d) == DICT_KEYS[kind]
                assert fom.config_from_dict(d) == cfg

    @pytest.mark.parametrize("kind", sorted(DICT_KEYS))
    def test_grids_span_the_parameters_the_problem_reads(self, kind):
        # the default and paper-scale grids have one axis per entry of the
        # parameter vector, whose last entry the initial state or the term reads
        cfg = fom.PROBLEMS[kind](m=4, n_steps=3)
        grid = cfg.grid()
        assert len(cfg.grid(cfg.paper_shape).axes) == grid.ndim
        alpha = grid.node((0,) * grid.ndim)
        assert cfg.initial_state(alpha).shape == (cfg.n_dofs,)
        cfg.nonlinearity(alpha)
        with pytest.raises((IndexError, ValueError)):
            cfg.initial_state(alpha[:-1])
            cfg.nonlinearity(alpha[:-1])

    @pytest.mark.parametrize("kind,field,value,least", [
        ("burgers", "n_steps", 0, 1), ("allen_cahn", "n_steps", 0, 1),
        ("burgers", "m", 2, 3), ("allen_cahn", "m", 0, 1),
        ("allen_cahn", "pre_steps", -1, 0), ("allen_cahn", "seed", -1, 0)])
    def test_sizes_below_the_least_refused(self, kind, field, value, least):
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, "
                                             f"got {value}$"):
            fom.config_from_dict({"kind": kind, field: value})

    @pytest.mark.parametrize("d,named", [
        ({"kind": "burgers", "seed": 3}, "seed is"),
        ({"kind": "allen_cahn", "nu": 0.1, "m": 4, "sead": 2}, "nu, sead are")],
        ids=["seed_on_transport", "typos"])
    def test_unknown_fields_refused(self, d, named):
        with pytest.raises(ValueError, match=f"^{named} not among the fields of the "
                                             f"{d['kind']} problem: m, n_steps, "):
            fom.config_from_dict(d)

    @pytest.mark.parametrize("d,message", [
        ({"kind": "burgers", "nu_range": [0.5]}, "nu_range must be two finite numbers "
                                                 "lo < hi, got (0.5,)"),
        ({"kind": "allen_cahn", "width_range": [0.01]}, "width_range must be two finite "
                                                        "numbers lo < hi, got (0.01,)"),
        ({"kind": "burgers", "front_range": [0.8, 0.2]}, "front_range must be two finite "
                                                         "numbers lo < hi, got (0.8, 0.2)"),
        ({"kind": "allen_cahn", "asym_range": [0.0, float("inf")]},
         "asym_range must be two finite numbers lo < hi, got (0.0, inf)"),
        ({"kind": "burgers", "t_final": -1}, "t_final must be a finite number above 0, got -1"),
        ({"kind": "allen_cahn", "t_final": 0}, "t_final must be a finite number above 0, got 0"),
        ({"kind": "burgers", "t_final": "1"},
         "t_final must be a finite number above 0, got '1'"),
        ({"kind": "allen_cahn", "pre_time": float("nan")},
         "pre_time must be a finite number above 0, got nan"),
        ({"kind": "allen_cahn", "beta_s": "x"}, "beta_s must be None or a finite number, "
                                                "got 'x'"),
        ({"kind": "allen_cahn", "beta_s": True}, "beta_s must be None or a finite number, "
                                                 "got True"),
        ({"kind": "allen_cahn", "pre_steps": 1.5}, "pre_steps must be an integer, got 1.5"),
    ], ids=["short_nu_range", "short_width_range", "reversed_range", "infinite_range",
            "negative_t_final", "zero_t_final", "string_t_final", "nan_pre_time",
            "string_beta_s", "bool_beta_s", "float_pre_steps"])
    def test_malformed_fields_refused(self, d, message):
        # the message starts with the field name, which the CLI maps to its flag
        with pytest.raises(ValueError) as info:
            fom.config_from_dict(d)
        assert str(info.value) == message

    def test_accepted_values_serialize_as_given(self):
        # validation refuses and never converts: an integer time span, a
        # negative shift and no relaxation round-trip as given
        d = {"kind": "allen_cahn", "t_final": 2, "beta_s": -0.5, "pre_steps": 0,
             "asym_range": [0, 1]}
        out = fom.config_to_dict(fom.config_from_dict(d))
        assert (out["t_final"], out["beta_s"], out["pre_steps"]) == (2, -0.5, 0)
        assert out["asym_range"] == (0, 1) and isinstance(out["t_final"], int)

    def test_least_sizes_accepted(self):
        assert fom.run_fom(fom.BurgersConfig(m=3, n_steps=1), (0.1, 0.5))[0].shape == (3, 1)
        cfg = fom.AllenCahnConfig(m=1, n_steps=1, pre_steps=1)
        assert fom.run_fom(cfg, (0.02, 0.1, 0.51))[0].shape == (1, 1)


class TestDefaultGrid:
    @pytest.mark.parametrize("cfg,shape,count", [
        (fom.BurgersConfig(m=10), (2, 2, 2), 2), (fom.AllenCahnConfig(m=4), (4, 3), 3)])
    def test_shape_of_wrong_length_refused(self, cfg, shape, count):
        with pytest.raises(ValueError, match=f"has {len(shape)} entries; the {cfg.kind} "
                                             f"problem has {count} parameters"):
            fom.default_grid(cfg, shape)

    def test_default_shapes(self):
        assert fom.default_grid(fom.BurgersConfig(m=10)).shape == (8, 16)
        assert fom.default_grid(fom.AllenCahnConfig(m=4)).shape == (4, 3, 3)


class TestAdvectiveTermShape:
    def test_term_is_minus_state_times_upwind_difference(self):
        # f(u) = -u * (G u) with G the upwind difference, Dirichlet zero inflow
        cfg = fom.BurgersConfig(m=10)
        term = cfg.nonlinearity()
        u = np.random.default_rng(1).standard_normal(10)
        gu = np.concatenate(([u[0]], np.diff(u))) / cfg.h
        assert np.allclose(-u * (term.grad @ u), -u * gu)
        assert isinstance(term.grad, sp.csr_matrix)

    def test_built_once_per_config_and_read_only(self):
        cfg = fom.BurgersConfig(m=12)
        term = fom.nonlinearity_for(cfg, [0.1, 0.3])
        assert fom.nonlinearity_for(cfg, [0.2, 0.6]) is term
        assert fom.BurgersConfig(m=12).nonlinearity() is term
        assert fom.BurgersConfig(m=13).nonlinearity() is not term
        upwind = (np.eye(12) - np.eye(12, k=-1)) / cfg.h
        assert np.array_equal(term.grad.toarray(), upwind)
        with pytest.raises(ValueError, match="read-only"):
            term.grad.data[0] = 0.0
