import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tromkit import cli, fom, trom


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


class TestOffline:
    def test_report_row(self, workdir):
        root, _ = workdir
        header, rows = read_csv(root / "offline.csv")
        row = dict(zip(header, rows[0]))
        assert row["format"] == "tt"
        assert float(row["cf_u"]) >= 1.0
        assert float(row["err_u"]) <= 1e-3

    def test_artifact_loadable(self, workdir):
        root, _ = workdir
        art = trom.load_artifact(root / "art.trbl")
        assert art.fmt == "tt"
        assert art.problem["kind"] == "burgers"

    def test_cp_requires_rank(self, workdir):
        root, snap = workdir
        with pytest.raises(ValueError):
            run("offline", "--snapshots", snap, "--format", "cp",
                "--out", root / "cp.trbl")


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

    def test_n_above_term_bound_rejected(self, workdir, tmp_path):
        root, snap = workdir
        n_f = trom.load_artifact(root / "art.trbl").local_dim_bounds()[1]
        with pytest.raises(ValueError, match="admissible"):
            run("verify", "--artifact", root / "art.trbl", "--snapshots", snap,
                "--alphas", "0.05,0.5", "--n-list", f"4,{n_f + 1}",
                "--out", tmp_path / "v.csv")

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
