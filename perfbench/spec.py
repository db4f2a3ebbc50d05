"""Workloads and metrics of the tromkit benchmark.

``BENCHMARK.json`` at the repository root names the workloads and their
reasons, and the metrics with their units and bounds.  This module adds what
that file has no key for: the sizes and phases of each workload, and for
each per-layer metric the end-to-end metric it should move and on which
workload.  Every traced result repeats that mapping in its report line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from tromkit.fom import AllenCahnConfig, BurgersConfig

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@dataclass(frozen=True)
class Build:
    fmt: str                 # "tt" | "hosvd" | "cp"
    eps: float | None = None
    cp_rank: int | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes and phases of one workload.

    Set-up samples the snapshots and, when ``setup_build`` is given, builds
    that artifact, saves it and queries the reloaded copy.  Otherwise the
    timed phase runs ``build_rounds`` rounds of ``timed_builds``, each
    followed by an equal share of the queries, which go to the latest
    artifact of the first format.  Queries use the ``ls`` mode; with
    ``deim_queries`` a fixed share of them uses the online ``deim`` mode.
    """

    name: str
    problem: BurgersConfig | AllenCahnConfig
    grid_shape: tuple[int, ...]
    setup_build: Build | None = None
    timed_builds: tuple[Build, ...] = ()
    build_rounds: int = 0
    pod_baseline: bool = False
    deim_queries: bool = False


WORKLOADS = {
    "transport-query": WorkloadSpec(
        name="transport-query",
        problem=BurgersConfig(m=400, n_steps=200),
        grid_shape=(6, 8),
        setup_build=Build("tt", eps=1e-4),
        pod_baseline=True,
    ),
    "phasefield-offline": WorkloadSpec(
        name="phasefield-offline",
        problem=AllenCahnConfig(m=20, n_steps=100),
        grid_shape=(4, 3, 3),
        timed_builds=(Build("tt", eps=1e-4), Build("hosvd", eps=1e-4)),
        build_rounds=3,
        deim_queries=True,
    ),
    "transport-cp": WorkloadSpec(
        name="transport-cp",
        problem=BurgersConfig(m=40, n_steps=40),
        grid_shape=(6, 8),
        timed_builds=(Build("cp", cp_rank=20),),
        build_rounds=5,
    ),
}

# Same phases at a size that runs in about a second; used by the self-test.
TOY = {
    "transport-query": replace(
        WORKLOADS["transport-query"], problem=BurgersConfig(m=30, n_steps=20),
        grid_shape=(3, 4)),
    "phasefield-offline": replace(
        WORKLOADS["phasefield-offline"],
        problem=AllenCahnConfig(m=8, n_steps=16, pre_steps=5), grid_shape=(3, 2, 2)),
    "transport-cp": replace(
        WORKLOADS["transport-cp"], problem=BurgersConfig(m=20, n_steps=15),
        grid_shape=(3, 4), timed_builds=(Build("cp", cp_rank=4),)),
}

_Q = "transport-query"
_P = "phasefield-offline"
_C = "transport-cp"
_Q_SETUP = f"setup_s and offline_s (its set-up build) on {_Q}"
_P_DEIM = f"{_P} (one query in four in deim mode); unchanged on the transport workloads"

# Per-layer metric -> (end-to-end metrics it should move, workloads where it
# moves and, after a semicolon, where it should not).
LAYER_MAPPING = {
    "decomp.tt_svd.s": ("offline_s, peak_rss_mb", f"{_P}; {_Q_SETUP}"),
    "decomp.hosvd.s": ("offline_s, peak_rss_mb", _P),
    "decomp.cp_als.s": ("offline_s", f"{_C}; none elsewhere"),
    "decomp.cp_als.sweeps": ("offline_s", _C),
    "decomp.cp_als.ms_per_sweep": ("offline_s", _C),
    "decomp.cp_als.converged": ("compress_err", _C),
    "deim.deim_select.offline_s": ("offline_s", f"{_P}; {_Q_SETUP}"),
    "deim.deim_select.rows": ("offline_s", _P),
    "deim.deim_select.online_ms_p50": ("query_ms_p50, rom_err_p50", _P_DEIM),
    "deim.cstar_ls": ("rom_err_p50", "all"),
    "deim.cstar_p50": ("rom_err_p50", f"{_P_DEIM}; equals cstar_ls there"),
    "deim.used_rows_frac": ("query_ms_p50", f"{_P_DEIM}; 1 there"),
    "deim.nonfinite_share": ("query_ms_p50", f"{_P}; 0 on the transport workloads"),
    "grids.interp_weights.us_p50": ("query_ms_p50", "all query phases"),
    "trom.build_offline.self_s": ("offline_s", f"{_P}, {_C}"),
    "trom.build_offline.tt_s": ("offline_s", f"{_P}; {_Q_SETUP}"),
    "trom.build_offline.hosvd_s": ("offline_s", _P),
    "trom.build_offline.cp_s": ("offline_s", _C),
    "trom.local_bases.ms_p50": ("query_ms_p50, query_ms_p95, queries_per_s", f"{_Q}, {_C}"),
    "trom.local_bases.self_ms_p50": ("query_ms_p50, query_ms_p95, queries_per_s",
                                     f"{_Q}, {_C}"),
    "trom.core_matrix.ms_p50": ("query_ms_p50, query_ms_p95, queries_per_s", f"{_Q}, {_C}"),
    "trom.build_reduced_system.ms_p50": ("query_ms_p50, queries_per_s", _Q),
    "trom.trom_solve.self_ms_p50": ("query_ms_p50, queries_per_s", _Q),
    "trom.local_dim_bound_u": ("setup_s", _Q),
    "trom.local_dim_bound_f": ("setup_s", _Q),
    "trom.online_entries": ("setup_s", _Q),
    "trom.save_artifact.ms": ("setup_s", _Q),
    "trom.load_artifact.ms": ("setup_s", _Q),
    "trom.artifact_bytes": ("setup_s", _Q),
    "stepping.integrate_reduced.ms_p50": ("query_ms_p50, queries_per_s",
                                          f"{_Q} (advective), {_P} (pointwise)"),
    "stepping.integrate_reduced.us_per_step": ("query_ms_p50, queries_per_s",
                                               f"{_Q} (advective), {_P} (pointwise)"),
    "stepping.integrate_full.calls": ("query_ms_p50 (pre-relaxation)",
                                      f"{_P}; none on transport"),
    "stepping.integrate_full.s": ("setup_s", f"{_P}; none on transport"),
    "stepping.AffineOperator.reduce.s": ("offline_s, setup_s", "all"),
    "fom.sample_snapshots.s": ("setup_s", "all"),
    "fom.run_fom.ms_p50": ("setup_s", "all"),
    "fom.initial_state_for.ms_p50": ("query_ms_p50", f"{_P} only"),
    "fom.ac_initial_state.cache_hits": ("query_ms_p50", f"{_P} only"),
    "fom.ac_initial_state.cache_misses": ("query_ms_p50", f"{_P} only"),
    "pod.pod_offline.s": ("none (baseline)", _Q),
    "pod.pod_solve.ms_p50": ("none (baseline)", _Q),
    "pod.err_p50": ("none (baseline)", _Q),
    "trace.overhead.setup_s": ("setup_s (traced run)", "all"),
    "trace.overhead.offline_s": ("offline_s (traced run)", "all"),
    "trace.overhead.query_ms_p50": ("query_ms_p50 (traced run)", "all"),
    "trace.overhead.query_ms_p95": ("query_ms_p95 (traced run)", "all"),
    "trace.overhead.queries_per_s": ("queries_per_s (traced run)", "all"),
}

NOTES = (
    "Query parameters come from ParameterGrid.sample with the run seed; they are "
    "continuous and never repeat, so fom.ac_initial_state records 0 cache hits "
    "inside the query loop. A caching change must report the share of repeated "
    "inputs it relies on.",
    "rom_err_*, fom.run_fom.ms_p50 and pod.* use a fixed check set of parameters "
    "that does not depend on the seed, so accuracy compares exactly across commits.",
    "Per-layer metrics not exercised by a workload read 0.",
    "End-to-end times are CPU times of the benchmark process. Query times "
    "(query_ms_*, queries_per_s) are also scaled to a nominal host speed: CPU time x "
    "nominal / CPU time of a fixed reference kernel timed right after each query. "
    "The report gives the unscaled values (end_to_end_unscaled) and the reference "
    "time (host_speed). Span times of the per-layer metrics are wall times; "
    "fom.run_fom.ms_p50 and pod.* are CPU times.",
    "Known defect: in deim mode the phase field gives a non-finite trajectory for "
    "about 1% of parameters. Such deim-mode queries are counted in "
    "deim.nonfinite_share and listed under known_defects, not as failed operations; "
    "a non-finite trajectory in ls mode fails the query.",
    "trace.overhead.* is traced minus untraced; a traced run alternates traced and "
    "untraced set-ups, build rounds and queries.",
)

if [w["name"] for w in BENCHMARK["workloads"]] != list(WORKLOADS):
    raise RuntimeError("BENCHMARK.json workloads differ from perfbench.spec.WORKLOADS")
if set(LAYER_UNITS) != set(LAYER_MAPPING):
    raise RuntimeError("BENCHMARK.json per-layer metrics differ from LAYER_MAPPING")
