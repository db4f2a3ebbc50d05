import collections
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tromkit import cli, decomp, fom, pod, trom


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert run("sample", "--problem", "burgers", "--m", "50", "--steps", "40",
               "--grid", "3x4", "--out", root / "snaps") == 0
    snap = root / "snaps" / "snapshots.trbl"
    assert run("offline", "--snapshots", snap, "--format", "tt", "--eps", "1e-3",
               "--out", root / "art.trbl", "--report", root / "offline.csv") == 0
    return root, snap


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0].startswith("# schema=")
    return rows[1], rows[2:]


class TestSample:
    def test_outputs_exist_with_correct_shapes(self, workdir):
        root, snap = workdir
        snaps = fom.load_snapshots(snap)
        assert snaps.u_tensor.shape == (50, 3, 4, 40)
        manifest = json.loads((root / "snaps" / "manifest.json").read_text())
        assert str(snap) in manifest["outputs"]

    def test_rerun_is_byte_identical(self, tmp_path, workdir):
        root, snap = workdir
        assert run("sample", "--problem", "burgers", "--m", "50", "--steps", "40",
                   "--grid", "3x4", "--out", tmp_path / "again") == 0
        assert (tmp_path / "again" / "snapshots.trbl").read_bytes() == snap.read_bytes()

    def test_config_echo_in_manifest(self, tmp_path):
        assert run("sample", "--problem", "allen-cahn", "--m", "8", "--steps", "5",
                   "--grid", "2x2x2", "--seed", "7", "--out", tmp_path / "ac") == 0
        manifest = json.loads((tmp_path / "ac" / "manifest.json").read_text())
        assert manifest["config"]["kind"] == "allen_cahn"
        assert manifest["config"]["seed"] == 7

    def test_manifest_records_blas_threads_as_given(self, tmp_path, monkeypatch):
        # byte identity of the outputs holds per BLAS thread count only
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", " 2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run("sample", "--problem", "burgers", "--m", "10", "--steps", "4",
                   "--grid", "2x2", "--out", tmp_path / "s") == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                            "OMP_NUM_THREADS": " 2",
                                            "MKL_NUM_THREADS": None}

    def test_seed_refused_on_transport(self, tmp_path):
        # the transport config has no seed field, and the refusal names the flag
        with pytest.raises(SystemExit, match="^--seed 9: seed is not among the fields "
                                             "of the burgers problem: "):
            run("sample", "--problem", "burgers", "--m", "20", "--steps", "5",
                "--grid", "2x2", "--seed", "9", "--out", tmp_path / "b")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("problem,flags,named", [
        ("burgers", ["--steps", "0"], "--steps 0: n_steps must be at least 1"),
        ("allen-cahn", ["--m", "0"], "--m 0: m must be at least 1"),
        ("burgers", ["--m", "2"], "--m 2: m must be at least 3"),
    ], ids=["steps_zero", "ac_m_zero", "transport_m_two"])
    def test_sizes_below_the_least_refused(self, tmp_path, problem, flags, named):
        with pytest.raises(SystemExit, match=named):
            run("sample", "--problem", problem, *flags, "--out", tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_config_file_size_refused(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": {"kind": "burgers", "n_steps": 0}}))
        with pytest.raises(SystemExit, match="problem config: n_steps must be at least 1"):
            run("sample", "--config", cfg_path, "--out", tmp_path / "bad")

    @pytest.mark.parametrize("command", ["sample", "study"])
    @pytest.mark.parametrize("content", ["[1]", "3", '"burgers"', "null"],
                             ids=["array", "number", "string", "null"])
    def test_config_file_that_is_not_an_object_refused(self, tmp_path, command, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        message = f"config file {cfg_path} must hold a JSON object of settings, not {content}"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            run(command, "--config", cfg_path, "--out", tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", ["sample", "study"])
    @pytest.mark.parametrize("problem,message", [
        ([1], "{} config: problem must be None or a JSON object, got (1,)"),
        ("burgers", "{} config: problem must be None or a JSON object, got 'burgers'"),
        # a null problem is an absent one
        (None, "no problem selected; pass --problem or a config file"),
    ], ids=["array", "string", "null"])
    def test_problem_that_is_not_an_object_refused(self, tmp_path, command, problem, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": problem}))
        message = message.format(command)
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            run(command, "--config", cfg_path, "--out", tmp_path / "bad")

    def test_config_file_that_is_not_json_refused(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"problem": {"kind":\n')
        with pytest.raises(SystemExit, match=f"^--config {re.escape(str(cfg_path))}: "
                                             "Expecting value: line 2 column 1"):
            run("sample", "--config", cfg_path, "--out", tmp_path / "bad")

    @pytest.mark.parametrize("problem,named", [
        ({"kind": "foo"}, "problem config: unknown problem kind 'foo'; "
                          "expected one of burgers, allen_cahn"),
        ({"kind": "allen_cahn", "m": 8.5}, "problem config: m must be an integer, got 8.5"),
        ({"kind": "burgers", "n_steps": True},
         "problem config: n_steps must be an integer, got True"),
        ({"kind": "burgers", "seed": 3},
         "problem config: seed is not among the fields of the burgers problem: "),
        ({"kind": "burgers", "nu": 0.1, "m": 20},
         "problem config: nu is not among the fields of the burgers problem: "),
        ({"kind": "burgers", "nu_range": [0.5]},
         r"problem config: nu_range must be two finite numbers lo < hi, got \(0\.5,\)"),
        ({"kind": "allen_cahn", "width_range": [0.01]},
         r"problem config: width_range must be two finite numbers lo < hi, got \(0\.01,\)"),
        ({"kind": "burgers", "t_final": -1},
         "problem config: t_final must be a finite number above 0, got -1"),
        ({"kind": "allen_cahn", "t_final": 0},
         "problem config: t_final must be a finite number above 0, got 0"),
        ({"kind": "burgers", "t_final": "1"},
         "problem config: t_final must be a finite number above 0, got '1'"),
        ({"kind": "allen_cahn", "beta_s": "x"},
         "problem config: beta_s must be None or a finite number, got 'x'"),
        ({"kind": "allen_cahn", "pre_steps": -1},
         "problem config: pre_steps must be at least 0, got -1"),
    ], ids=["unknown_kind", "float_m", "bool_steps", "seed_on_transport", "typo",
            "short_nu_range", "short_width_range", "negative_t_final", "zero_t_final",
            "string_t_final", "string_beta_s", "negative_pre_steps"])
    def test_config_file_problem_refused(self, tmp_path, problem, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": problem, "grid": [2, 2, 2]}))
        with pytest.raises(SystemExit, match=named):
            run("sample", "--config", cfg_path, "--out", tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv,file_cfg,sizes,shape", [
        (["--problem", "burgers"], None, (400, 200), (16, 32)),
        (["--problem", "allen-cahn"], None, (150, 200), (8, 3, 3)),
        (["--problem", "burgers", "--m", "50", "--steps", "7", "--grid", "2x3"], None,
         (50, 7), (2, 3)),
        ([], {"problem": {"kind": "allen_cahn", "m": 9}, "grid": [2, 2, 2]},
         (9, 200), (2, 2, 2)),
    ], ids=["transport", "phase_field", "flags_win", "config_file_wins"])
    def test_paper_scale_presets(self, tmp_path, monkeypatch, argv, file_cfg, sizes, shape):
        # the sizes and grid --paper-scale resolves to, without sampling: one
        # phase-field tensor at paper scale is about 2.6 GB
        seen = []

        def record(cfg, grid):
            seen.append((cfg, grid))
            raise RuntimeError("sampling skipped")

        monkeypatch.setattr(fom, "sample_snapshots", record)
        if file_cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(file_cfg))
            argv = argv + ["--config", tmp_path / "cfg.json"]
        with pytest.raises(RuntimeError, match="sampling skipped"):
            run("sample", *argv, "--paper-scale", "--out", tmp_path / "out")
        [(cfg, grid)] = seen
        assert (cfg.m, cfg.n_steps) == sizes
        assert grid.shape == shape

    @pytest.mark.parametrize("problem,grid,named", [
        ("burgers", "2x2x2", r"--grid: grid shape \[2, 2, 2\] has 3 entries; "
                             r"the burgers problem has 2 parameters"),
        ("allen-cahn", "4x3", r"--grid: grid shape \[4, 3\] has 2 entries; "
                              r"the allen_cahn problem has 3 parameters"),
        ("burgers", "3xq", r"--grid '3xq' is not a shape"),
        # a shape from a config file, which need not be a list of integers
        ("burgers", {"grid": "3x4"}, r"sample config: grid must be None or a non-empty list "
                                     r"of integers, got '3x4'"),
        ("burgers", {"grid": [3.5, 4]}, r"sample config: grid must be None or a non-empty "
                                        r"list of integers, got \(3.5, 4\)"),
        ("burgers", {"refine_grids": [3, 4]},
         r"config refine_grids: grid shape 3 is not a list of integers"),
    ], ids=["three_for_two", "two_for_three", "not_integer", "config_string",
            "config_float", "refine_entry_not_a_list"])
    def test_bad_grid_refused(self, tmp_path, problem, grid, named):
        out = tmp_path / "bad"
        if isinstance(grid, str):
            argv = ["sample", "--problem", problem, "--m", "8", "--steps", "5", "--grid", grid]
        else:
            # refine_grids shapes are refused before the study samples its bundle
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"problem": {"kind": problem, "m": 8, "n_steps": 5},
                                            "grid": [2, 2], "query_count": 1} | grid))
            argv = (["study", "--kind", "refine"] if "refine_grids" in grid
                    else ["sample"]) + ["--config", cfg_path]
        with pytest.raises(SystemExit, match=named):
            run(*argv, "--out", out)
        assert not out.exists()


class TestOffline:
    def test_report_row(self, workdir):
        root, _ = workdir
        header, rows = read_csv(root / "offline.csv")
        row = dict(zip(header, rows[0]))
        assert row["format"] == "tt"
        assert float(row["cf_u"]) >= 1.0
        assert float(row["err_u"]) <= 1e-3
        assert row["cp_sweeps"] == row["cp_converged"] == ""

    def test_cp_report_row_carries_the_fit(self, workdir, tmp_path):
        _, snap = workdir
        art_path, report = tmp_path / "cp.trbl", tmp_path / "cp.csv"
        assert run("offline", "--snapshots", snap, "--format", "cp", "--cp-rank", "3",
                   "--out", art_path, "--report", report) == 0
        fit = trom.load_artifact(art_path).cp_fit
        header, rows = read_csv(report)
        row = dict(zip(header, rows[0]))
        assert row["cp_sweeps"] == f"{fit['u']['sweeps']}-{fit['f']['sweeps']}"
        assert row["cp_converged"] == (f"{int(fit['u']['converged'])}-"
                                       f"{int(fit['f']['converged'])}")

    def test_artifact_loadable(self, workdir):
        root, _ = workdir
        art = trom.load_artifact(root / "art.trbl")
        assert art.fmt == "tt"
        assert art.problem["kind"] == "burgers"

    @pytest.mark.parametrize("fmt", ["tt", "hosvd"])
    def test_error_above_eps_fails_without_artifact(self, workdir, tmp_path, monkeypatch,
                                                     capsys, fmt):
        _, snap = workdir
        monkeypatch.setattr(decomp, "relative_error", lambda part, tensor: 2e-3)
        assert run("offline", "--snapshots", snap, "--format", fmt, "--eps", "1e-3",
                   "--out", tmp_path / "art.trbl") == 1
        err = capsys.readouterr().err
        assert "tensor u error 2.000000e-03 exceeds eps 0.001" in err
        assert "tensor f error 2.000000e-03 exceeds eps 0.001" in err
        assert not (tmp_path / "art.trbl").exists()

    def test_lossless_build_passes_the_check(self, workdir, tmp_path):
        # at eps = 0 the measured error is rounding alone
        _, snap = workdir
        assert run("offline", "--snapshots", snap, "--format", "tt", "--eps", "0",
                   "--out", tmp_path / "art.trbl") == 0
        assert (tmp_path / "art.trbl").exists()

    def test_cp_requires_rank(self, workdir):
        root, snap = workdir
        with pytest.raises(SystemExit, match="^--format cp needs --cp-rank$"):
            run("offline", "--snapshots", snap, "--format", "cp",
                "--out", root / "cp.trbl")

    @pytest.mark.parametrize("flags,named", [
        (["--format", "tt"], "--format tt needs --eps"),
        (["--format", "hosvd"], "--format hosvd needs --eps"),
        (["--eps", "1.5"], "--eps 1.5: eps must be below 1, got 1.5"),
        (["--eps=-0.1"], "--eps -0.1: eps must be at least 0, got -0.1"),
        (["--eps", "nan"], "--eps nan: eps must be None or a finite number, got nan"),
        (["--format", "cp", "--cp-rank", "0"], "--cp-rank 0: cp_rank must be at least 1, got 0"),
        (["--eps", "1e-3", "--interp-order", "0"],
         "--interp-order 0: interp_order must be at least 1, got 0"),
    ], ids=["tt_without_eps", "hosvd_without_eps", "eps_above_one", "negative_eps", "nan_eps",
            "cp_rank_zero", "interp_order_zero"])
    def test_bad_flags_refused_before_loading(self, tmp_path, monkeypatch, flags, named):
        # the bundle path does not exist: a refusal must come before it is read
        monkeypatch.setattr(fom, "load_snapshots", lambda *args: pytest.fail("bundle loaded"))
        with pytest.raises(SystemExit, match=f"^{re.escape(named)}$"):
            run("offline", "--snapshots", tmp_path / "none.trbl", *flags,
                "--out", tmp_path / "art.trbl")
        assert not (tmp_path / "art.trbl").exists()


class TestQuery:
    def test_in_sample_replay_through_cli(self, workdir, tmp_path):
        root, snap = workdir
        snaps = fom.load_snapshots(snap)
        alpha = snaps.grid.node((1, 2))
        metrics_csv = tmp_path / "q.csv"
        art = root / "art_exact.trbl"
        assert run("offline", "--snapshots", snap, "--format", "tt", "--eps", "0",
                   "--skip-errors", "--out", art) == 0
        assert run("query", "--artifact", art,
                   "--alpha", ",".join(map(str, alpha)),
                   "--mode", "ls", "--metrics", metrics_csv,
                   "--out", tmp_path / "traj.npz") == 0
        header, rows = read_csv(metrics_csv)
        row = dict(zip(header, rows[0]))
        assert float(row["err_l2l2"]) <= 1e-6
        data = np.load(tmp_path / "traj.npz")
        assert data["states"].shape == (50, 40)

    def test_outside_box_rejected(self, workdir):
        root, _ = workdir
        with pytest.raises(SystemExit):
            run("query", "--artifact", root / "art.trbl", "--alpha", "0.9,0.5")

    @pytest.mark.parametrize("alpha", ["0.05", "0.05,0.5,7"])
    def test_wrong_parameter_count_rejected(self, workdir, alpha):
        root, _ = workdir
        with pytest.raises(SystemExit, match=r"expected 2 entries in \[.*\] x \["):
            run("query", "--artifact", root / "art.trbl", "--alpha", alpha,
                "--no-reference")

    @pytest.mark.parametrize("alpha", ["x,0.5", "0.05,", "0.05;0.5"])
    def test_non_numeric_entry_rejected(self, workdir, alpha):
        root, _ = workdir
        with pytest.raises(SystemExit, match=r"alpha '.*' is not a point .* "
                                             r"expected 2 entries in \[.*\] x \["):
            run("query", "--artifact", root / "art.trbl", "--alpha", alpha,
                "--no-reference")

    def test_timing_fields_recorded(self, workdir, tmp_path):
        root, _ = workdir
        m = tmp_path / "m.csv"
        assert run("query", "--artifact", root / "art.trbl", "--alpha", "0.05,0.5",
                   "--n-phi", "6", "--n-psi", "8", "--metrics", m) == 0
        header, rows = read_csv(m)
        row = dict(zip(header, rows[0]))
        assert float(row["t_basis"]) >= 0.0
        assert float(row["t_integrate"]) >= 0.0
        assert row["mode"] == "ls"

    def test_non_finite_trajectory_fails_without_output(self, workdir, tmp_path,
                                                        monkeypatch, capsys):
        root, _ = workdir
        solve = cli._solve_query

        def blow_up(*args):
            cfg, local, betas, states, t_basis, t_int = solve(*args)
            betas = betas.copy()
            betas[0, 6] = np.nan
            return cfg, local, betas, states, t_basis, t_int
        monkeypatch.setattr(cli, "_solve_query", blow_up)
        monkeypatch.setattr(fom, "run_fom", lambda *args: pytest.fail("reference ran"))
        out, m = tmp_path / "q.npz", tmp_path / "m.csv"
        assert run("query", "--artifact", root / "art.trbl", "--alpha", "0.05,0.5",
                   "--mode", "deim", "--out", out, "--metrics", m) == 1
        err = capsys.readouterr().err
        assert "from step 7 of 40 (t=" in err
        assert "alpha 0.05;0.5, mode deim" in err
        assert not out.exists() and not m.exists()

    def test_finite_trajectory_exits_zero(self, workdir, tmp_path):
        root, _ = workdir
        out = tmp_path / "q.npz"
        assert run("query", "--artifact", root / "art.trbl", "--alpha", "0.05,0.5",
                   "--mode", "ls", "--no-reference", "--out", out) == 0
        assert np.all(np.isfinite(np.load(out)["betas"]))

    def test_window_without_two_snapshot_times_refused_before_any_run(self, workdir,
                                                                       monkeypatch):
        # t_final 1 over 40 steps: a window from t = 1 holds the last time only
        root, _ = workdir
        monkeypatch.setattr(cli, "_solve_query", lambda *args: pytest.fail("query ran"))
        monkeypatch.setattr(fom, "run_fom", lambda *args: pytest.fail("reference ran"))
        with pytest.raises(SystemExit, match=r"^query: t_window 1 leaves 1 of the 40 "
                                             r"snapshot times \(t = 0\.025 \.\. 1\); "):
            run("query", "--artifact", root / "art.trbl", "--alpha", "0.05,0.5",
                "--t-window", "1")

    def test_window_unchecked_without_a_reference(self, workdir):
        root, _ = workdir
        assert run("query", "--artifact", root / "art.trbl", "--alpha", "0.05,0.5",
                   "--t-window", "1", "--no-reference") == 0

    @pytest.mark.parametrize("flags", [("--n-phi", "0"), ("--n-psi=-2",)])
    def test_nonpositive_dims_rejected(self, workdir, monkeypatch, flags):
        # 0 is a dimension, not "unset": only a missing flag takes the bound;
        # the refusal names the flag, before any solve or reference run
        root, _ = workdir
        monkeypatch.setattr(trom, "local_bases", lambda *args: pytest.fail("solved"))
        monkeypatch.setattr(fom, "run_fom", lambda *args: pytest.fail("reference ran"))
        flag, n = flags[0].split("=") if len(flags) == 1 else flags
        bound = trom.load_artifact(root / "art.trbl").local_dim_bounds()[flag == "--n-psi"]
        with pytest.raises(SystemExit, match=f"^{flag}: local dimension {n} must be at least "
                                             f"1 and at most {bound}, the artifact's bound$"):
            run("query", "--artifact", root / "art.trbl", "--alpha", "0.05,0.5", *flags)

    def test_dim_above_the_bound_rejected(self, workdir, monkeypatch):
        root, _ = workdir
        monkeypatch.setattr(trom, "local_bases", lambda *args: pytest.fail("solved"))
        n_u = trom.load_artifact(root / "art.trbl").local_dim_bounds()[0]
        with pytest.raises(SystemExit, match=f"^--n-phi: local dimension {n_u + 1} must be "):
            run("query", "--artifact", root / "art.trbl", "--alpha", "0.05,0.5",
                "--n-phi", n_u + 1, "--no-reference")


class TestStudy:
    @pytest.fixture(scope="class")
    def study_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("study")
        config = {
            "problem": {"kind": "burgers", "m": 40, "n_steps": 30},
            "grid": [3, 4],
            "format": "tt",
            "eps": 1e-3,
            "eps_list": [0.1, 0.01],
            "n_u": 6, "n_f": 10,
            "query_count": 4,
            "refine_grids": [[2, 3], [3, 4]],
            "svdecay_count": 3,
            "seed": 7,
        }
        cfg_path = out / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run("study", "--config", cfg_path, "--out", out / "res") == 0
        return out / "res"

    def test_all_tables_emitted(self, study_out):
        for name in ("ranks_vs_eps.csv", "error_vs_grid.csv",
                     "sing_val_decay.csv", "effective_rank.csv", "manifest.json"):
            assert (study_out / name).exists()

    def test_refinement_errors_decrease(self, study_out):
        header, rows = read_csv(study_out / "error_vs_grid.csv")
        idx = header.index("avg_err_h1")
        errs = [float(r[idx]) for r in rows]
        assert errs[1] < errs[0]

    def test_single_point_grid_study_runs(self, tmp_path):
        config = {
            "problem": {"kind": "burgers", "m": 30, "n_steps": 20},
            "grid": [1, 1],
            "eps_list": [0.1],
            "refine_grids": [[1, 1]],
            "query_count": 2,
            "n_u": 2, "n_f": 2,
            "svdecay_count": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run("study", "--config", cfg_path, "--out", tmp_path / "res") == 0
        header, rows = read_csv(tmp_path / "res" / "ranks_vs_eps.csv")
        assert len(rows) == 1

    def test_effective_rank_table_contains_both_tensors(self, study_out):
        header, rows = read_csv(study_out / "effective_rank.csv")
        tensors = {r[0] for r in rows}
        assert tensors == {"u", "f"}

    def test_cp_format_runs_every_study(self, tmp_path):
        config = {
            "problem": {"kind": "burgers", "m": 40, "n_steps": 30},
            "grid": [3, 4],
            "format": "cp",
            "cp_rank": 4,
            "cp_rank_list": [4, 6],
            "n_u": 4, "n_f": 4,
            "query_count": 2,
            "refine_grids": [[2, 3], [3, 4]],
            "svdecay_count": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "res"
        assert run("study", "--config", cfg_path, "--out", out) == 0
        header, rows = read_csv(out / "ranks_vs_eps.csv")
        assert [r[header.index("cp_rank")] for r in rows] == ["4", "6"]
        # effrank uses the same CP levels: all state rows, then all term rows
        header, rows = read_csv(out / "effective_rank.csv")
        assert [(r[0], r[2]) for r in rows] == [("u", "4"), ("u", "6"),
                                                ("f", "4"), ("f", "6")]

    def test_cp_rank_list_alone_serves_refine_and_svdecay(self, tmp_path):
        # without cp_rank the one-artifact studies build at the largest level
        config = {
            "problem": {"kind": "burgers", "m": 40, "n_steps": 30},
            "grid": [3, 4],
            "format": "cp",
            "cp_rank_list": [4, 6],
            "n_u": 4, "n_f": 4,
            "query_count": 2,
            "refine_grids": [[2, 3], [3, 4]],
            "svdecay_count": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "res"
        assert run("study", "--config", cfg_path, "--out", out,
                   "--kind", "refine", "--kind", "svdecay") == 0
        header, rows = read_csv(out / "error_vs_grid.csv")
        assert len(rows) == 2
        assert all(np.isfinite(float(r[3])) for r in rows)
        header, rows = read_csv(out / "sing_val_decay.csv")
        assert len(header) == 2 + 2 and rows
        settings = cli.StudySettings.from_dict(config, "keys of a study config")
        assert cli._study_levels(settings, 1e-3) == [("cp", None, 6)]

    @pytest.mark.parametrize("config,eps,levels", [
        # ranks and effrank: one level per listed eps, or per listed CP rank
        ({}, None, [("tt", 0.1, None), ("tt", 0.03, None), ("tt", 0.01, None)]),
        ({"format": "hosvd", "eps_list": [0.2]}, None, [("hosvd", 0.2, None)]),
        ({"format": "cp", "cp_rank": 3, "cp_rank_list": [4, 6]}, None,
         [("cp", None, 4), ("cp", None, 6)]),
        ({"format": "cp"}, None, [("cp", None, 20), ("cp", None, 50)]),
        # refine and svdecay: one level, at their own eps default
        ({}, 1e-3, [("tt", 1e-3, None)]),
        ({}, 1e-4, [("tt", 1e-4, None)]),
        ({"eps": 0.05, "eps_list": [0.1]}, 1e-4, [("tt", 0.05, None)]),
        # an explicit cp_rank wins over cp_rank_list
        ({"format": "cp", "cp_rank": 3, "cp_rank_list": [4, 6]}, 1e-3, [("cp", None, 3)]),
        ({"format": "cp"}, 1e-4, [("cp", None, 50)]),
    ], ids=["tt_default_list", "hosvd_list", "cp_list", "cp_default_list",
            "refine_default_eps", "svdecay_default_eps", "config_eps_wins",
            "cp_rank_wins", "cp_default_rank"])
    def test_study_levels(self, config, eps, levels):
        settings = cli.StudySettings.from_dict(config, "keys of a study config")
        assert cli._study_levels(settings, eps) == levels

    def test_phase_field_runs_every_study(self, tmp_path):
        config = {
            "problem": {"kind": "allen_cahn", "m": 8, "n_steps": 12, "pre_steps": 3,
                        "seed": 42},
            "grid": [2, 2, 2],
            "refine_grids": [[2, 2, 2], [3, 2, 2]],
            "query_count": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "res"
        assert run("study", "--config", cfg_path, "--out", out) == 0
        for name in ("ranks_vs_eps.csv", "error_vs_grid.csv",
                     "sing_val_decay.csv", "effective_rank.csv"):
            assert (out / name).exists()
        # the phase field tabulates the space-time l2 error, as query reports
        header, rows = read_csv(out / "error_vs_grid.csv")
        assert header[3:5] == ["avg_err_l2l2", "max_err_l2l2"]
        assert len(rows) == 2
        assert all(np.isfinite(float(r[3])) for r in rows)

    def test_cp_opts_reach_every_build(self, tmp_path, monkeypatch):
        config = {
            "problem": {"kind": "burgers", "m": 30, "n_steps": 20},
            "grid": [3, 4],
            "format": "cp",
            "cp_rank_list": [3],
            "cp_opts": {"max_sweeps": 2},
            "n_u": 3, "n_f": 3,
            "query_count": 1,
            "refine_grids": [[2, 3]],
            "svdecay_count": 1,
        }
        seen = []
        build = trom.build_offline

        def record(*args, **kwargs):
            seen.append(kwargs["cp_opts"])
            return build(*args, **kwargs)
        monkeypatch.setattr(trom, "build_offline", record)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run("study", "--config", cfg_path, "--out", tmp_path / "res") == 0
        # one build of the one level on the study's bundle, which ranks,
        # svdecay and effrank share, and one on the refine grid's own bundle
        assert seen == [config["cp_opts"]] * 2

    @pytest.mark.parametrize("config,kinds,builds", [
        # ranks and effrank build the listed levels, svdecay one at 1e-4
        ({}, ["ranks", "svdecay", "effrank"], [0.1, 0.03, 0.01, 1e-4]),
        ({"eps_list": [0.1, 0.01, 1e-4]}, ["ranks", "svdecay", "effrank"], [0.1, 0.01, 1e-4]),
        ({"eps_list": [0.1, 0.01]}, ["effrank", "svdecay", "ranks"], [0.1, 0.01, 1e-4]),
        ({"format": "cp", "cp_rank_list": [2, 3]}, ["svdecay", "ranks", "effrank"], [3, 2]),
    ], ids=["default_list", "svdecay_level_listed", "effrank_first", "cp"])
    def test_each_level_built_once(self, tmp_path, monkeypatch, config, kinds, builds):
        seen = []
        build = trom.build_offline

        def record(*args, **kwargs):
            seen.append(kwargs["cp_rank"] if kwargs["fmt"] == "cp" else kwargs["eps"])
            return build(*args, **kwargs)
        monkeypatch.setattr(trom, "build_offline", record)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": {"kind": "burgers", "m": 20, "n_steps": 12},
                                        "grid": [3, 4], "svdecay_count": 2} | config))
        kind_flags = [flag for kind in kinds for flag in ("--kind", kind)]
        assert run("study", "--config", cfg_path, *kind_flags, "--out", tmp_path / "res") == 0
        assert seen == builds

    def test_each_measurement_taken_once(self, tmp_path, monkeypatch):
        # ranks and effrank share each level's compression errors, and
        # svdecay and effrank the term tensor's singular values
        calls = collections.Counter()
        for module, name in ((decomp, "relative_error"), (pod, "pod_basis")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": {"kind": "burgers", "m": 20, "n_steps": 12},
                                        "grid": [3, 4], "eps_list": [0.1, 0.01, 1e-4],
                                        "svdecay_count": 2}))
        assert run("study", "--config", cfg_path, "--kind", "ranks", "--kind", "effrank",
                   "--kind", "svdecay", "--out", tmp_path / "res") == 0
        assert calls == {"relative_error": 6, "pod_basis": 2}

    @pytest.mark.parametrize("command,extra,named", [
        ("study", {"eps_lst": [0.5]}, "study config: eps_lst is not among the keys of a "
                                      "study config: problem, grid, out_dir, format, eps, "),
        ("study", {"n_U": 4, "count": 2}, "study config: count, n_U are not among the keys "),
        # sample reads the same schema, so a typo does not sample the default grid
        ("sample", {"gird": [2, 2]}, "sample config: gird is not among the keys of a "
                                     "study config: "),
    ], ids=["one", "two", "sample_typo"])
    def test_unknown_key_refused_before_sampling(self, tmp_path, monkeypatch, command, extra,
                                                 named):
        monkeypatch.setattr(fom, "sample_snapshots",
                            lambda *args: pytest.fail("sampled before the key check"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"problem": {"kind": "burgers", "m": 20, "n_steps": 12}, "grid": [3, 4]} | extra))
        with pytest.raises(SystemExit, match=named):
            run(command, "--config", cfg_path, "--out", tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("extra,named", [
        ({"eps_list": 0.1}, "eps_list must be a non-empty list of finite numbers, got 0.1"),
        ({"refine_grids": "2x3"}, "refine_grids must be a non-empty list, got '2x3'"),
        ({"query_count": "3"}, "query_count must be an integer, got '3'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"n_u": 4.0}, "n_u must be an integer, got 4.0"),
        ({"t_window": "0.5"}, "t_window must be a finite number, got '0.5'"),
        ({"mode": None}, "mode must be a string, got None"),
        # keys whose default is None, and values of the right type out of range
        ({"eps": "0.1"}, "eps must be None or a finite number, got '0.1'"),
        ({"eps": 1}, "eps must be below 1, got 1"),
        ({"eps_list": [0.1, -0.01]}, "eps_list entries must be at least 0, got (0.1, -0.01)"),
        ({"eps_list": []}, "eps_list must be a non-empty list of finite numbers, got ()"),
        ({"format": "ht"}, "format must be among tt, hosvd, cp, got 'ht'"),
        ({"mode": "gappy"}, "mode must be among ls, deim, got 'gappy'"),
        ({"cp_rank": "3"}, "cp_rank must be None or an integer, got '3'"),
        ({"cp_rank": 0}, "cp_rank must be at least 1, got 0"),
        ({"cp_rank_list": [4, 0]}, "cp_rank_list entries must be at least 1, got (4, 0)"),
        ({"cp_opts": {"sweeps": 3}},
         "cp_opts sweeps is not among the keywords of cp_als: max_sweeps, tol, seed"),
        ({"cp_opts": [3]}, "cp_opts must be None or a JSON object, got (3,)"),
        # each cp_opts value as cp_als annotates its keyword
        ({"cp_opts": {"max_sweeps": "3"}}, "cp_opts max_sweeps must be an integer, got '3'"),
        ({"cp_opts": {"max_sweeps": 0}}, "cp_opts max_sweeps must be at least 1, got 0"),
        ({"cp_opts": {"tol": 0}}, "cp_opts tol must be a finite number above 0, got 0"),
        ({"cp_opts": {"tol": [1e-6]}},
         "cp_opts tol must be a finite number above 0, got (1e-06,)"),
        ({"cp_opts": {"seed": -1}}, "cp_opts seed must be at least 0, got -1"),
        ({"query_count": 0}, "query_count must be at least 1, got 0"),
        ({"svdecay_count": 0}, "svdecay_count must be at least 1, got 0"),
        ({"interp_order": 0}, "interp_order must be at least 1, got 0"),
        ({"n_u": 0}, "n_u must be at least 1, got 0"),
        ({"n_f": -2}, "n_f must be at least 1, got -2"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"grid": [3.5, 4]}, "grid must be None or a non-empty list of integers, got (3.5, 4)"),
    ], ids=["list", "list_string", "int_string", "int_bool", "int_float", "float_string",
            "string_null", "eps_string", "eps_one", "eps_list_negative", "eps_list_empty",
            "format_unknown", "mode_unknown", "cp_rank_string", "cp_rank_zero",
            "cp_rank_list_zero", "cp_opts_unknown_key", "cp_opts_list",
            "cp_opts_max_sweeps_string", "cp_opts_max_sweeps_zero", "cp_opts_tol_zero",
            "cp_opts_tol_list", "cp_opts_seed_negative", "query_count_zero",
            "svdecay_count_zero", "interp_order_zero", "n_u_zero", "n_f_negative",
            "seed_negative", "grid_float"])
    def test_value_of_wrong_type_refused_before_sampling(self, tmp_path, monkeypatch,
                                                         extra, named):
        monkeypatch.setattr(fom, "sample_snapshots",
                            lambda *args: pytest.fail("sampled before the type check"))
        monkeypatch.setattr(fom, "run_fom", lambda *args: pytest.fail("reference ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"problem": {"kind": "burgers", "m": 20, "n_steps": 12}, "grid": [3, 4]} | extra))
        with pytest.raises(SystemExit, match=f"^study config: {re.escape(named)}$"):
            run("study", "--config", cfg_path, "--out", tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("window,count", [(1, 1), (1.5, 0)])
    def test_window_without_two_snapshot_times_refused_before_sampling(
            self, tmp_path, monkeypatch, window, count):
        monkeypatch.setattr(fom, "sample_snapshots",
                            lambda *args: pytest.fail("sampled before the window check"))
        monkeypatch.setattr(fom, "run_fom", lambda *args: pytest.fail("reference ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"problem": {"kind": "burgers", "m": 20, "n_steps": 12},
                                        "grid": [3, 4], "t_window": window}))
        with pytest.raises(SystemExit, match=f"^study config: t_window {window} leaves "
                                             f"{count} of the 12 snapshot times"):
            run("study", "--config", cfg_path, "--kind", "refine", "--out", tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_window_refused_on_a_bundle_before_any_run(self, study_out, tmp_path,
                                                       monkeypatch):
        # the study's bundle has 30 steps to t_final 1
        monkeypatch.setattr(fom, "run_fom", lambda *args: pytest.fail("reference ran"))
        config = json.loads((study_out.parent / "cfg.json").read_text()) | {"t_window": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match="^study config: t_window 1 leaves 1 of the 30 "):
            run("study", "--config", cfg_path, "--snapshots", study_out / "snapshots.trbl",
                "--out", tmp_path / "res")
        assert not (tmp_path / "res").exists()

    def test_snapshots_with_matching_config_reproduce_the_study(self, study_out):
        # the sampled study's config and bundle; only t_offline may differ
        again = study_out.parent / "again"
        assert run("study", "--config", study_out.parent / "cfg.json",
                   "--snapshots", study_out / "snapshots.trbl", "--out", again) == 0
        for name in ("ranks_vs_eps.csv", "error_vs_grid.csv",
                     "sing_val_decay.csv", "effective_rank.csv"):
            header, rows = read_csv(study_out / name)
            header_again, rows_again = read_csv(again / name)
            assert header_again == header
            keep = [i for i, h in enumerate(header) if h != "t_offline"]
            assert ([[r[i] for i in keep] for r in rows_again]
                    == [[r[i] for i in keep] for r in rows])

    @pytest.mark.parametrize("config,flags,named", [
        ({"problem": {"kind": "allen_cahn", "m": 40, "n_steps": 30}}, [],
         r"problem \{.*'kind': 'allen_cahn'.*\} in the config, \{.*'kind': 'burgers'"),
        ({"problem": {"kind": "burgers", "m": 20, "n_steps": 30}}, [],
         r"problem \{'m': 20\} in the config, \{'m': 40\} in the snapshot bundle"),
        # an omitted field takes its default, m = 100
        ({"problem": {"kind": "burgers", "n_steps": 30}}, [],
         r"problem \{'m': 100\} in the config, \{'m': 40\} in the snapshot bundle"),
        ({"grid": [2, 3]}, [], r"grid \[2, 3\] in the config, \[3, 4\] in the snapshot"),
        ({}, ["--problem", "allen-cahn"], r"problem \{.*'kind': 'allen_cahn'"),
    ], ids=["kind", "m", "default_m", "grid", "problem_flag"])
    def test_snapshots_with_disagreeing_config_refused(self, study_out, tmp_path, config,
                                                        flags, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match="study config does not describe snapshot "
                                             f"bundle .*: {named}"):
            run("study", "--config", cfg_path, "--snapshots", study_out / "snapshots.trbl",
                "--out", tmp_path / "res", *flags)
        assert not (tmp_path / "res" / "ranks_vs_eps.csv").exists()

    def test_diverged_refine_grid_flagged(self, tmp_path, capsys):
        # at 2x2x2 the reduced phase field of this config blows up; the row
        # and the exit status stay, one stderr line names the grid
        config = {"problem": {"kind": "allen_cahn", "m": 6, "n_steps": 12},
                  "grid": [2, 2, 2], "eps_list": [0.1],
                  "refine_grids": [[2, 2, 2], [3, 2, 2]], "query_count": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "res"
        assert run("study", "--config", cfg_path, "--kind", "refine", "--out", out) == 0
        header, rows = read_csv(out / "error_vs_grid.csv")
        max_err = {r[0]: float(r[4]) for r in rows}
        assert max_err["2x2x2"] > 1 >= max_err["3x2x2"]
        flagged = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("study refine:")]
        assert flagged == [f"study refine: grid 2x2x2 diverged, max error "
                           f"{max_err['2x2x2']:.6e} above the 1 of the zero trajectory"]


class TestVerify:
    def test_no_violations_and_exit_code(self, workdir, tmp_path):
        root, snap = workdir
        out = tmp_path / "verify.csv"
        assert run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                   "--random", "3", "--n-list", "4,8", "--out", out) == 0
        header, rows = read_csv(out)
        status = header.index("status")
        assert all(r[status] == "ok" for r in rows)

    def test_in_sample_lossless_lhs_vanishes(self, workdir, tmp_path):
        root, snap = workdir
        snaps = fom.load_snapshots(snap)
        alpha = snaps.grid.node((0, 1))
        art = tmp_path / "art_exact.trbl"
        assert run("offline", "--snapshots", snap, "--format", "tt", "--eps", "0",
                   "--skip-errors", "--out", art) == 0
        # Below the local rank the lossless in-sample lhs_term is the local
        # SVD tail beyond n, not zero; it vanishes only at full local rank.
        loaded = trom.load_artifact(art)
        n_full = loaded.local_dim_bounds()[1]
        out = tmp_path / "v.csv"
        assert run("verify", "--artifact", art, "--snapshots", snap,
                   "--alphas", ",".join(map(str, alpha)),
                   "--n-list", f"14,{n_full}", "--out", out) == 0
        header, rows = read_csv(out)
        lhs = {int(r[header.index("n")]): float(r[header.index("lhs_term")]) for r in rows}
        m, n_t = snaps.u_tensor.shape[0], snaps.config.n_steps
        # With every row selected the ls fit is the orthogonal projection
        # onto the leading n term vectors, so lhs_term is the tail itself.
        assert loaded.selection.indices.size == m
        tail = float(rows[0][header.index("tail_term")])
        assert lhs[14] == pytest.approx(tail**2 / (n_t * m), rel=1e-6)
        scale = np.mean(snaps.f_tensor**2)
        assert lhs[n_full] <= 1e-10 * scale

    @pytest.mark.parametrize("eps,n_list", [("1e-3", (14, 20)), ("0", (14, 40))])
    def test_n_list_rows_match_separate_runs(self, workdir, tmp_path, eps, n_list):
        # At eps 1e-3 the state bound is 13, so both n clamp the state
        # dimension; at eps 0 neither does.
        root, snap = workdir
        art = tmp_path / "art.trbl"
        assert run("offline", "--snapshots", snap, "--format", "tt", "--eps", eps,
                   "--skip-errors", "--out", art) == 0
        common = ("verify", "--artifact", art, "--snapshots", snap,
                  "--alphas", "0.05,0.5;0.02,0.3")
        assert run(*common, "--n-list", ",".join(map(str, n_list)),
                   "--out", tmp_path / "both.csv") == 0
        _, together = read_csv(tmp_path / "both.csv")
        separate = {}
        for n in n_list:
            assert run(*common, "--n-list", n, "--out", tmp_path / f"{n}.csv") == 0
            for row in read_csv(tmp_path / f"{n}.csv")[1]:
                separate[(row[0], row[1])] = row
        assert len(together) == len(separate) == 2 * len(n_list)
        assert all(row == separate[(row[0], row[1])] for row in together)

    def test_n_above_term_bound_rejected(self, workdir, tmp_path, monkeypatch):
        root, snap = workdir
        monkeypatch.setattr(fom, "load_snapshots", lambda *args: pytest.fail("bundle loaded"))
        n_f = trom.load_artifact(root / "art.trbl").local_dim_bounds()[1]
        with pytest.raises(SystemExit, match=f"^--n-list: local dimension {n_f + 1} must be at "
                                             f"least 1 and at most {n_f}, the artifact's "):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--alphas", "0.05,0.5", "--n-list", f"4,{n_f + 1}",
                "--out", tmp_path / "v.csv")
        assert not (tmp_path / "v.csv").exists()

    def test_n_below_one_rejected(self, workdir, tmp_path):
        root, snap = workdir
        with pytest.raises(SystemExit, match="at least 1"):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--alphas", "0.05,0.5", "--n-list=-1,5", "--out", tmp_path / "v.csv")

    def test_n_list_entry_not_integer_rejected(self, workdir, tmp_path):
        root, snap = workdir
        with pytest.raises(SystemExit, match="--n-list entries must be integers, got 2,x"):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--alphas", "0.05,0.5", "--n-list", "2,x", "--out", tmp_path / "v.csv")
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_parameter_left_to_check_rejected(self, workdir, tmp_path, monkeypatch, count):
        # --random is the schema's query_count, refused before the bundle is read
        root, snap = workdir
        monkeypatch.setattr(fom, "load_snapshots", lambda *args: pytest.fail("bundle loaded"))
        with pytest.raises(SystemExit, match=f"^--random {count}: query_count must be at "
                                             f"least 1, got {count}$"):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--random", count, "--n-list", "4", "--out", tmp_path / "v.csv")
        assert not (tmp_path / "v.csv").exists()

    def test_negative_seed_rejected(self, workdir, tmp_path, monkeypatch):
        root, snap = workdir
        monkeypatch.setattr(fom, "load_snapshots", lambda *args: pytest.fail("bundle loaded"))
        with pytest.raises(SystemExit, match="^--seed -1: seed must be at least 0, got -1$"):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--seed=-1", "--n-list", "4", "--out", tmp_path / "v.csv")

    def test_seed_and_random_unread_with_alphas(self, workdir, tmp_path):
        root, snap = workdir
        assert run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                   "--alphas", "0.05,0.5", "--random", "0", "--seed=-1", "--n-list", "4",
                   "--out", tmp_path / "v.csv") == 0

    @pytest.mark.parametrize("problem,m,grid,side", [
        ("burgers", "50", "2x3", "grid"), ("allen-cahn", "8", "2x2x2", "problem")])
    def test_foreign_snapshots_refused_before_any_query(self, workdir, tmp_path, monkeypatch,
                                                        problem, m, grid, side):
        root, _ = workdir
        assert run("sample", "--problem", problem, "--m", m, "--steps", "40",
                   "--grid", grid, "--out", tmp_path / "other") == 0

        def no_query(*args):
            raise AssertionError("a mispaired bundle must be refused before any query")
        monkeypatch.setattr(cli, "_verify_rows", no_query)
        with pytest.raises(SystemExit, match=f"does not belong to artifact .*: {side} "
                                             ".* in the artifact, .* in the snapshot bundle"):
            run("verify", "--artifact", root / "art.trbl",
                "--snapshots", tmp_path / "other" / "snapshots.trbl",
                "--random", "2", "--n-list", "4", "--out", tmp_path / "v.csv")
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("alphas", ["0.05", "0.05,0.5;0.05,0.5,7", "0.9,0.5",
                                        "x,0.5"])
    def test_alphas_outside_the_box_rejected(self, workdir, tmp_path, alphas):
        root, snap = workdir
        with pytest.raises(SystemExit, match="expected 2 entries"):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--alphas", alphas, "--n-list", "4", "--out", tmp_path / "v.csv")
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("mode", ["ls", "deim"])
    @pytest.mark.parametrize("fmt,kw", [("tt", ("--eps", "1e-3")),
                                        ("hosvd", ("--eps", "1e-3")),
                                        ("cp", ("--cp-rank", "10"))])
    def test_no_violations_over_seeded_random_queries(self, workdir, tmp_path,
                                                       fmt, kw, mode):
        root, snap = workdir
        art = tmp_path / f"{fmt}.trbl"
        assert run("offline", "--snapshots", snap, "--format", fmt, *kw,
                   "--skip-errors", "--out", art) == 0
        for seed in range(3):
            out = tmp_path / f"v{seed}.csv"
            assert run("verify", "--artifact", art, "--snapshots", snap,
                       "--seed", seed, "--random", "4", "--n-list", "2,4,8",
                       "--mode", mode, "--out", out) == 0
            header, rows = read_csv(out)
            assert len(rows) == 12
            assert all(r[header.index("status")] == "ok" for r in rows)

    def test_lhs_grows_as_dims_shrink(self, workdir, tmp_path):
        root, snap = workdir
        out = tmp_path / "v2.csv"
        assert run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                   "--alphas", "0.05,0.5", "--n-list", "12,8,4,2", "--out", out) == 0
        header, rows = read_csv(out)
        idx = header.index("lhs_term")
        vals = [float(r[idx]) for r in rows]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(vals, vals[1:]))


class TestInputFiles:
    @pytest.mark.parametrize("command,flag", [
        ("sample", "--config"), ("offline", "--snapshots"), ("query", "--artifact"),
        ("study", "--config"), ("study", "--snapshots"), ("verify", "--artifact"),
        ("verify", "--snapshots")])
    @pytest.mark.parametrize("kind", ["missing", "foreign"])
    def test_unreadable_input_refused_in_one_line(self, workdir, tmp_path, command, flag,
                                                  kind):
        # a missing file, or one of another kind (an artifact as a config or
        # a bundle, a bundle as an artifact), is refused naming flag and path
        root, snap = workdir
        art = root / "art.trbl"
        given = {"--config": None, "--snapshots": snap, "--artifact": art}
        given[flag] = (tmp_path / "none" if kind == "missing"
                       else snap if flag == "--artifact" else art)
        argv = {"sample": [], "study": [],
                "offline": ["--format", "tt", "--eps", "0.1"],
                "query": ["--alpha", "0.05,0.5", "--no-reference"],
                "verify": ["--alphas", "0.05,0.5", "--n-list", "2"]}[command]
        needs = {"sample": ["--config"], "study": [flag], "offline": ["--snapshots"],
                 "query": ["--artifact"], "verify": ["--artifact", "--snapshots"]}[command]
        argv += [x for name in needs for x in (name, given[name])]
        with pytest.raises(SystemExit) as refusal:
            run(command, *argv, "--out", tmp_path / "bad")
        message = str(refusal.value)
        assert message.startswith(f"{flag} {given[flag]}: ") and "\n" not in message
        assert not (tmp_path / "bad").exists()


class TestOutputFiles:
    @pytest.mark.parametrize("command,flag", [
        ("offline", "--report"), ("query", "--metrics"), ("query", "--out"),
        ("verify", "--out")])
    def test_output_directory_made_before_any_load(self, workdir, tmp_path, monkeypatch,
                                                   command, flag):
        root, snap = workdir
        argv = {"offline": ["--snapshots", snap, "--format", "tt", "--eps", "1e-3",
                            "--out", tmp_path / "art.trbl"],
                "query": ["--artifact", root / "art.trbl", "--alpha", "0.05,0.5",
                          "--no-reference"],
                "verify": ["--artifact", root / "art.trbl", "--snapshots", snap,
                           "--alphas", "0.05,0.5", "--n-list", "2"]}[command]
        name = "traj.npz" if (command, flag) == ("query", "--out") else "out.csv"
        # a path below a regular file is refused in one line before anything is read
        (tmp_path / "file").write_text("")
        blocked = tmp_path / "file" / name
        with monkeypatch.context() as patch:
            for module, loader in ((fom, "load_snapshots"), (trom, "load_artifact")):
                patch.setattr(module, loader, lambda *args: pytest.fail("input loaded"))
            with pytest.raises(SystemExit) as refusal:
                run(command, *argv, flag, blocked)
        message = str(refusal.value)
        assert message.startswith(f"{flag} {blocked}: ") and "\n" not in message
        # and a directory that is not there yet is made
        out = tmp_path / "new" / "deeper" / name
        assert run(command, *argv, flag, out) == 0
        assert out.stat().st_size > 0


class TestArtifactContents:
    @pytest.mark.parametrize("command", ["query", "verify"])
    @pytest.mark.parametrize("with_problem,missing", [
        (True, "reduced operator"), (False, "problem description")])
    def test_artifact_without_what_solves_need_refused(self, workdir, tmp_path, monkeypatch,
                                                       command, with_problem, missing):
        # the library saves artifacts without an operator or a problem description
        _, snap = workdir
        snaps = fom.load_snapshots(snap)
        path = tmp_path / "bare.trbl"
        trom.save_artifact(path, trom.build_offline(
            snaps.u_tensor, snaps.f_tensor, snaps.grid, fmt="tt", eps=1e-3,
            problem=fom.config_to_dict(snaps.config) if with_problem else None))
        for module, name in ((fom, "run_fom"), (trom, "local_bases")):
            monkeypatch.setattr(module, name, lambda *args: pytest.fail("solve ran"))
        argv = {"query": ["--alpha", "0.05,0.5"],
                "verify": ["--snapshots", snap, "--alphas", "0.05,0.5", "--n-list", "2",
                           "--out", tmp_path / "v.csv"]}[command]
        with pytest.raises(SystemExit, match=f"^--artifact {re.escape(str(path))}: the "
                                             f"artifact has no {missing}; rebuild it"):
            run(command, "--artifact", path, *argv)

    def test_artifact_without_problem_kind_refused(self, workdir, tmp_path):
        # a bundle edited to keep its reduced operator but lose the problem's
        # kind ends in one line, not a traceback
        from tromkit import store
        root, _ = workdir
        meta, blobs = store.load_bundle(root / "art.trbl")
        path = tmp_path / "nokind.trbl"
        problem = {key: value for key, value in meta["problem"].items() if key != "kind"}
        store.save_bundle(path, meta | {"problem": problem}, blobs)
        with pytest.raises(SystemExit, match=f"^--artifact {re.escape(str(path))}: "
                                             f"{re.escape(str(path))} has a reduced operator "
                                             "but no problem kind") as exc:
            run("query", "--artifact", path, "--alpha", "0.05,0.5", "--no-reference")
        assert "\n" not in str(exc.value)

    def test_verify_size_limit_checked_before_the_bundle_is_read(self, workdir, tmp_path,
                                                                monkeypatch):
        root, snap = workdir
        entries = int(np.prod(trom.load_artifact(root / "art.trbl").full_shape))
        monkeypatch.setattr(cli, "_VERIFY_MAX_ENTRIES", entries - 1)
        monkeypatch.setattr(fom, "load_snapshots", lambda *args: pytest.fail("bundle loaded"))
        with pytest.raises(SystemExit, match=f"^--snapshots {re.escape(str(snap))}: its "
                                             f"tensors hold {entries} entries, above the "
                                             f"{entries - 1} of dense verification$"):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--alphas", "0.05,0.5", "--n-list", "2", "--out", tmp_path / "v.csv")
