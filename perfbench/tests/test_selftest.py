"""Toy-size self-test of the benchmark: output schema and correctness
checks that fire on corrupted results.  No timing is checked.

    python3 -m pytest perfbench/tests
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tromkit import trom  # noqa: E402

from perfbench import spec  # noqa: E402
from perfbench.workload import (  # noqa: E402
    DEIM_EVERY, MIN_QUERIES, Build, check_artifact, run)


def toy(name, trace=False, seed=5):
    return run(spec.TOY[name], seed, 0.05, trace, ROOT)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(spec.TOY))
def test_toy_run_schema(name, trace):
    result = toy(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics", "report"}
    assert result["correct"] is True, result["report"]["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = spec.LAYER_UNITS if trace else spec.E2E_UNITS
    assert set(result["metrics"]) == set(expected)
    for key, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == expected[key]
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    report = result["report"]
    assert all(e["samples"] >= 1 for e in report["end_to_end"].values())
    assert set(report["end_to_end_unscaled"]) == set(spec.E2E_UNITS)
    assert report["host_speed"]["reference_ms_p50"] > 0
    if trace:
        assert report["spans"]["trom.local_bases"]["calls"] >= 1
        if spec.TOY[name].deim_queries:
            assert report["known_defects"]["deim_queries"] >= MIN_QUERIES // DEIM_EVERY
            assert result["metrics"]["deim.deim_select.online_ms_p50"]["value"] > 0
        assert all({"calls", "total_s", "self_s", "errors"} == set(v)
                   for v in report["spans"].values())
    json.dumps(result)


def test_traced_run_restores_layers():
    before = (trom.local_bases, trom.TTPart.scaled_core_matrix, trom.tt_svd)
    toy("transport-query", trace=True)
    assert (trom.local_bases, trom.TTPart.scaled_core_matrix, trom.tt_svd) == before


def test_nonfinite_trajectory_counts_as_failure(monkeypatch):
    solve = trom.trom_solve

    def corrupted(*args, **kwargs):
        betas, states = solve(*args, **kwargs)
        states = states.copy()
        states[0, -1] = np.nan
        return betas, states

    monkeypatch.setattr(trom, "trom_solve", corrupted)
    result = toy("transport-cp")
    assert result["correct"] is False
    assert result["failed"] >= MIN_QUERIES
    assert any("non-finite" in e for e in result["report"]["errors"])


def test_round_trip_mismatch_counts_as_failure(monkeypatch):
    load = trom.load_artifact

    def corrupted(path):
        art = load(path)
        return dataclasses.replace(art, uty=art.uty * (1.0 + 1e-9))

    monkeypatch.setattr(trom, "load_artifact", corrupted)
    result = toy("transport-query")
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "round trip" in result["report"]["errors"][0]


def test_compression_and_cp_fit_checks():
    from tromkit import fom

    s = spec.TOY["transport-cp"]
    grid = fom.default_grid(s.problem, s.grid_shape)
    snaps = fom.sample_snapshots(s.problem, grid)
    tt = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="tt", eps=1e-3)
    err, problem = check_artifact(tt, Build("tt", eps=1e-3), snaps)
    assert problem is None and 0.0 < err <= 1e-3
    # The same artifact against a tighter eps than it was built for.
    _, problem = check_artifact(tt, Build("tt", eps=err / 10), snaps)
    assert problem is not None and "exceeds eps" in problem
    cp = trom.build_offline(snaps.u_tensor, snaps.f_tensor, grid, fmt="cp", cp_rank=3)
    assert check_artifact(cp, Build("cp", cp_rank=3), snaps)[1] is None
    _, problem = check_artifact(dataclasses.replace(cp, cp_fit=None),
                                Build("cp", cp_rank=3), snaps)
    assert problem is not None and "cp_fit" in problem


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport-cp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_nonfinite_deim_trajectory_is_counted_as_known_defect(monkeypatch):
    solve = trom.trom_solve

    def corrupted(art, local, *args, **kwargs):
        betas, states = solve(art, local, *args, **kwargs)
        if local.mode == "deim":
            states = states.copy()
            states[0, -1] = np.inf
        return betas, states

    monkeypatch.setattr(trom, "trom_solve", corrupted)
    result = toy("phasefield-offline", trace=True)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["deim.nonfinite_share"]["value"] == 1.0
    defects = result["report"]["known_defects"]
    assert len(defects["deim_nonfinite_parameters"]) == defects["deim_queries"] > 0
