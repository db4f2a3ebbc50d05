"""One benchmark run: set-up, timed phase, correctness checks and metrics.

Every call into tromkit goes through module attributes (``trom.local_bases``
and so on) so that a traced run sees it.  In a traced run the set-ups, build
rounds and queries alternate between traced (even) and untraced (odd); the
untraced ones give the end-to-end values the tracing overhead is taken
against.

Times in the metrics are CPU times of this process.  The work is
single-threaded compute (BLAS is pinned to one thread), so its CPU time is
its wall time less the stalls when the host runs something else: on a
2-vCPU virtual machine, stalls of up to 25 ms put the wall-time p95 of
queries at up to three times its usual value in some runs.

Query times are also scaled to a fixed host speed.  The host runs this
process up to about 1.7 times slower for stretches of seconds to minutes,
by the same factor in CPU time as in wall time, so one run often sits in one
speed and ten runs spread by more than any useful bound.  A fixed reference
kernel is therefore timed right after every query, and the query's time is
reported as it would read on a host where that kernel takes
``REF_NOMINAL_S``: CPU time x REF_NOMINAL_S / reference time.  The host's
speed flickers from one query to the next too, and the two times correlate
(0.64 for transport-cp queries, 0.87 for phase-field ones, in log terms).
Set-ups and builds, which the kernel cannot sample while they run, are not
scaled: they gain less from a faster host than the kernel does, and in five
runs of each workload, scaling them by a kernel timed at each end of their
phase (one with a dense SVD added) doubled the spread of the transport
set-up and build.  The report keeps the unscaled query times beside the
scaled ones.
"""
from __future__ import annotations

import resource
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tromkit import fom, metrics, pod, trom
from tromkit.stepping import AdvectiveTerm

from .spec import E2E_UNITS, LAYER_UNITS, Build, WorkloadSpec
from .trace import LayerPatches, Tracer

cpu_clock = time.process_time

CHECK_SEED = 20230216     # fixed check set: accuracy compares across commits
CHECK_QUERIES = 24
MAX_ERRORS_KEPT = 10
# Set-up runs at least this many times, and for at least this share of the
# measured seconds; setup_s is the median.
SETUP_REPS = 3
SETUP_SHARE = 1 / 6
# Queries per run, at the least: ten samples beyond p95 over the run.
MIN_QUERIES = 200
# With ``deim_queries``, queries 2k and 2k+1 use deim mode when k is a
# multiple of this; pairs keep traced and untraced queries alike.
DEIM_EVERY = 4
# The reference kernel's CPU time on the nominal host.
REF_NOMINAL_S = 1.5e-3
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((120, 120))
_REF_SYSTEM = _REF_RNG.standard_normal((20, 20)) + 20 * np.eye(20)


def reference_s() -> float:
    """CPU time of one run of a fixed kernel with the mix of work of a
    query, in about equal parts: an interpreter loop, solves of a small
    system and products of mid-sized matrices.  Over ten minutes of host
    speed changes, query latency divided by this time varied by 2-3% (20 s
    windows) where the latency alone varied by 14%."""
    t0 = cpu_clock()
    s = 0
    for k in range(5000):
        s += k * k
    x = _REF_SYSTEM[0]
    for _ in range(20):
        x = np.linalg.solve(_REF_SYSTEM, x)
        x = x / np.linalg.norm(x)
    b = _REF_MATRIX
    for _ in range(3):
        b = _REF_MATRIX @ b
        b /= np.abs(b).max()
    return cpu_clock() - t0


@dataclass
class Attempt:
    """One timed query attempt of the closed loop."""
    traced: bool
    ok: bool
    loop: float              # drawing the parameter, the query and its checks
    latency: float | None    # the query alone; None if it raised
    ref: float               # reference time right after


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(what)

    @contextmanager
    def op(self, what: str):
        """Count one operation; an exception inside counts it as failed."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.fail(f"{what}: {traceback.format_exc(limit=3).strip()}")


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def compression_errors(art: trom.OfflineArtifact,
                       snaps: fom.SnapshotSet) -> tuple[float, float]:
    """Relative Frobenius reconstruction errors of the state and term parts,
    assembled with ``dense_local`` at every grid node."""
    eyes = [np.eye(k) for k in snaps.grid.shape]
    out = []
    for part, full in ((art.u_part, snaps.u_tensor), (art.f_part, snaps.f_tensor)):
        sq = 0.0
        for mi, _ in snaps.grid.points():
            w = [eye[:, j] for eye, j in zip(eyes, mi)]
            sq += float(np.sum((part.dense_local(w) - full[(slice(None),) + mi])**2))
        out.append(np.sqrt(sq) / np.linalg.norm(full))
    return out[0], out[1]


def check_artifact(art: trom.OfflineArtifact, build: Build,
                   snaps: fom.SnapshotSet) -> tuple[float, str | None]:
    """Compression error of one built artifact and the check it fails, if any.

    TT and HOSVD guarantee a relative error of at most eps per tensor; CP
    guarantees nothing but must report its fit."""
    if build.fmt == "cp":
        fit = art.cp_fit or {}
        errs = [fit.get(k, {}).get("rel_error") for k in ("u", "f")]
        if any(e is None or not np.isfinite(e) for e in errs):
            return float("nan"), f"cp build reports no finite cp_fit: {art.cp_fit}"
        return float(max(errs)), None
    err = max(compression_errors(art, snaps))
    if not err <= build.eps:
        return err, f"{build.fmt} compression error {err:.3e} exceeds eps {build.eps}"
    return err, None


def query_inputs(cfg, alpha):
    """Nonlinearity, initial state and stabilization shift at one parameter."""
    term = fom.nonlinearity_for(cfg, alpha)
    u0 = fom.initial_state_for(cfg, alpha)
    stab = 0.0 if isinstance(term, AdvectiveTerm) else cfg.stabilization(cfg.dt)
    return term, u0, stab


def answer(art: trom.OfflineArtifact, cfg, alpha, dims: tuple[int, int], mode: str):
    """One online query, lift included."""
    term, u0, stab = query_inputs(cfg, alpha)
    local = trom.build_reduced_system(art, trom.local_bases(art, alpha, *dims), mode=mode)
    betas, states = trom.trom_solve(art, local, term, u0, cfg.dt, cfg.n_steps, stab=stab)
    return local, betas, states


class Run:
    def __init__(self, spec: WorkloadSpec, seed: int, seconds: float, trace: bool,
                 workdir: Path):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.patches = LayerPatches(self.tracer) if trace else None
        self.workdir = workdir
        self.ledger = Ledger()
        self.cfg = spec.problem
        self.grid = fom.default_grid(self.cfg, spec.grid_shape)
        self.a_op = fom.affine_operator_for(self.cfg)
        # CPU seconds keyed by whether they were traced.
        self.setup_s: dict[bool, list[float]] = {False: [], True: []}
        self.offline_s: dict[bool, list[float]] = {False: [], True: []}
        self.attempts: list[Attempt] = []
        self.builds: list[tuple[Build, trom.OfflineArtifact]] = []
        self.art: trom.OfflineArtifact | None = None     # the artifact queried
        # Per online mode: the DEIM gain and share of offline rows used.
        self.cstars: dict[str, list[float]] = {"ls": [], "deim": []}
        self.used_frac: dict[str, list[float]] = {"ls": [], "deim": []}
        self.deim_nonfinite: list[list[float]] = []     # parameters
        self.values: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._tracing = False

    # -- tracing helpers ------------------------------------------------------

    @contextmanager
    def unit(self, name: str, i: int):
        """Trace the i-th repetition of a unit of work when tracing and i is even."""
        if self.tracer is None or i % 2:
            yield False
            return
        with self.patches, self.tracer.span(name):
            self._tracing = True
            try:
                yield True
            finally:
                self._tracing = False

    def span(self, name: str):
        return self.tracer.span(name) if self._tracing else nullcontext()

    def build(self, snaps: fom.SnapshotSet, b: Build) -> trom.OfflineArtifact:
        with self.span(f"bench.build.{b.fmt}"):
            art = trom.build_offline(
                snaps.u_tensor, snaps.f_tensor, snaps.grid, fmt=b.fmt, eps=b.eps,
                cp_rank=b.cp_rank, a_op=self.a_op, problem=fom.config_to_dict(self.cfg))
        self.builds.append((b, art))
        return art

    # -- phases ---------------------------------------------------------------

    def setup(self) -> None:
        """Sample (and for the query workload build, save and reload) several
        times; an exception here ends the run."""
        spec = self.spec
        t_end = time.perf_counter() + SETUP_SHARE * self.seconds
        i = 0
        while i < SETUP_REPS or time.perf_counter() < t_end:
            with self.unit("bench.setup", i) as traced:
                t0 = cpu_clock()
                snaps = fom.sample_snapshots(self.cfg, self.grid)
                if spec.setup_build is not None:
                    self.ledger.attempted += 1
                    tb = cpu_clock()
                    art = self.build(snaps, spec.setup_build)
                    build_s = cpu_clock() - tb
                    path = self.workdir / "artifact.trbl"
                    trom.save_artifact(path, art)
                    loaded = trom.load_artifact(path)
                self.setup_s[traced].append(cpu_clock() - t0)
            if spec.setup_build is not None:
                self.offline_s[traced].append(build_s)
            i += 1
        self.snaps = snaps
        if spec.setup_build is not None:
            self.in_memory, self.art = art, loaded
            self.counts["artifact_bytes"] = path.stat().st_size

    def timed(self) -> None:
        """Build rounds, each followed by a stretch of queries, so that builds
        and queries both sample the whole window of ``seconds``."""
        spec = self.spec
        t_start = time.perf_counter()
        rounds = spec.build_rounds
        if self.tracer is not None and spec.timed_builds:
            rounds = max(rounds, 2)     # one traced and one untraced round
        segments = max(rounds, 1)
        rng = np.random.default_rng(self.seed)
        info = fom.ac_initial_state.cache_info()
        i = 0
        for seg in range(segments):
            if seg < rounds:
                self.build_round(seg)
            if self.art is None:
                raise RuntimeError("no artifact to query: every build failed")
            self.dims = self.art.local_dim_bounds()
            deadline = t_start + self.seconds * (seg + 1) / segments
            at_least = -(-MIN_QUERIES * (seg + 1) // segments)
            while i < at_least or time.perf_counter() < deadline:
                t0 = cpu_clock()
                ok, traced, latency = self.query(i, self.grid.sample(1, rng)[0])
                loop = cpu_clock() - t0
                self.attempts.append(Attempt(traced, ok, loop, latency, reference_s()))
                i += 1
        self.query_ref = _median([a.ref for a in self.attempts])
        after = fom.ac_initial_state.cache_info()
        self.counts["cache_hits"] = after.hits - info.hits
        self.counts["cache_misses"] = after.misses - info.misses

    def build_round(self, i: int) -> None:
        spec = self.spec
        with self.unit("bench.offline", i) as traced:
            t0 = cpu_clock()
            for b in spec.timed_builds:
                with self.ledger.op(f"build {b.fmt}"):
                    art = self.build(self.snaps, b)
                    if b == spec.timed_builds[0]:
                        self.art = art
            self.offline_s[traced].append(cpu_clock() - t0)

    def query(self, i: int, alpha: np.ndarray) -> tuple[bool, bool, float | None]:
        """The i-th timed query: whether it passed, whether it was traced, and
        its latency (None if it raised or failed a check).

        A non-finite trajectory fails an ls-mode query.  In deim mode it is
        the known defect that deim.nonfinite_share counts."""
        failed = self.ledger.failed
        latency = None
        deim = self.spec.deim_queries and (i // 2) % DEIM_EVERY == 0
        mode = "deim" if deim else "ls"
        with self.ledger.op(f"query {alpha.tolist()}"), \
                self.unit("bench.query", i) as traced:
            t0 = cpu_clock()
            with np.errstate(over="ignore", invalid="ignore"):
                local, _, states = answer(self.art, self.cfg, alpha, self.dims, mode)
            elapsed = cpu_clock() - t0
            finite = bool(np.all(np.isfinite(states)))
            if not (finite or deim):
                raise FloatingPointError("non-finite ROM trajectory")
            latency = elapsed
            self.cstars[mode].append(local.cstar)
            self.used_frac[mode].append(local.used_rows.size / len(self.art.selection))
            if not finite:
                self.deim_nonfinite.append(alpha.tolist())
        return self.ledger.failed == failed, traced, latency

    def check(self) -> None:
        """Untimed: accuracy on the fixed check set, the POD-DEIM baseline,
        compression errors of every build and the artifact round trip."""
        spec, cfg, led = self.spec, self.cfg, self.ledger
        alphas = self.grid.sample(CHECK_QUERIES, np.random.default_rng(CHECK_SEED))
        rom = None
        if spec.pod_baseline:
            t0 = cpu_clock()
            rom = pod.pod_offline(self.snaps.u_tensor, self.snaps.f_tensor, *self.dims,
                                  a_op=self.a_op)
            self.values["pod_offline_s"] = cpu_clock() - t0
        errs, fom_s, pod_errs, pod_s = [], [], [], []
        for alpha in alphas:
            ref = None
            with led.op(f"check query {alpha.tolist()}"):
                _, _, states = answer(self.art, cfg, alpha, self.dims, "ls")
                if not np.all(np.isfinite(states)):
                    raise FloatingPointError("non-finite ROM trajectory")
                t0 = cpu_clock()
                ref = fom.run_fom(cfg, alpha)[0]
                fom_s.append(cpu_clock() - t0)
                errs.append(metrics.rel_l2l2(states, ref))
            if rom is not None and ref is not None:
                with led.op(f"pod query {alpha.tolist()}"):
                    term, u0, stab = query_inputs(cfg, alpha)
                    t0 = cpu_clock()
                    _, pstates = pod.pod_solve(rom, alpha, term, u0, cfg.dt, cfg.n_steps,
                                               stab=stab)
                    pod_s.append(cpu_clock() - t0)
                    if not np.all(np.isfinite(pstates)):
                        raise FloatingPointError("non-finite POD trajectory")
                    pod_errs.append(metrics.rel_l2l2(pstates, ref))
        self.errs, self.fom_s, self.pod_errs, self.pod_s = errs, fom_s, pod_errs, pod_s

        comp = []
        for b, art in self.builds:
            err, problem = check_artifact(art, b, self.snaps)
            comp.append(err)
            if problem is not None:
                led.fail(problem)
        self.values["compress_err"] = max(comp) if np.all(np.isfinite(comp)) else float("nan")

        if spec.setup_build is not None:
            with led.op("artifact round trip"):
                a = self.grid.sample(1, np.random.default_rng(CHECK_SEED + 1))[0]
                b_mem = answer(self.in_memory, cfg, a, self.dims, "ls")[1]
                b_disk = answer(self.art, cfg, a, self.dims, "ls")[1]
                if not np.array_equal(b_mem, b_disk):
                    raise AssertionError("reloaded artifact answers with different betas")

    # -- results --------------------------------------------------------------

    def end_to_end(self, traced: bool, scaled: bool = True) -> dict[str, tuple[float, int]]:
        """(value, sample count) per end-to-end metric from one kind of
        sample; query times at the nominal host speed unless ``scaled`` is
        False."""
        def sec(t: float, ref: float) -> float:
            return t * REF_NOMINAL_S / ref if scaled else t

        setup = self.setup_s[traced]
        offline = self.offline_s[traced]
        q_ms = 1e3 * np.array([sec(a.latency, a.ref) for a in self.attempts
                               if a.traced == traced and a.latency is not None])
        if self.tracer is None:
            loop_s = sum(sec(a.loop, a.ref) for a in self.attempts)
            qps = sum(a.ok for a in self.attempts) / loop_s
        else:
            # Traced and untraced queries interleave in one loop; each kind
            # gets its throughput from its own latencies.
            qps = len(q_ms) / (1e-3 * q_ms.sum()) if len(q_ms) else float("nan")
        return {
            "setup_s": (_median(setup), len(setup)),
            "offline_s": (_median(offline), len(offline)),
            "query_ms_p50": (_p(q_ms, 50), len(q_ms)),
            "query_ms_p95": (_p(q_ms, 95), len(q_ms)),
            "queries_per_s": (qps, len(q_ms)),
            "rom_err_p50": (_median(self.errs), len(self.errs)),
            "rom_err_max": (max(self.errs) if self.errs else float("nan"), len(self.errs)),
            "compress_err": (self.values["compress_err"], len(self.builds)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    def per_layer(self, e2e_untraced: dict, e2e_traced: dict) -> dict[str, float]:
        tr = self.tracer

        def durs(name, under=None):
            return [s.duration for s in tr.select(name, under)]

        def per(name, unit_name):
            """Seconds in ``name`` per ``unit_name`` span, counting only calls below one."""
            n = tr.count(unit_name)
            return sum(durs(name, unit_name)) / n if n else 0.0

        def p50_ms(name, under="bench.query", self_time=False):
            spans = tr.select(name, under)
            vals = [s.self_time if self_time else s.duration for s in spans]
            return 1e3 * _median(vals) if vals else 0.0

        art = self.art
        online = "deim" if self.cstars["deim"] else "ls"
        cp_arts = [a for b, a in self.builds if b.fmt == "cp"]
        sweeps = _median([a.cp_fit["u"]["sweeps"] + a.cp_fit["f"]["sweeps"]
                          for a in cp_arts]) if cp_arts else 0.0
        converged = _median([int(a.cp_fit["u"]["converged"]) + int(a.cp_fit["f"]["converged"])
                             for a in cp_arts]) if cp_arts else 0.0
        cp_s = per("decomp.cp_als", "bench.build.cp")
        builds = tr.select("trom.build_offline")
        n_queries = tr.count("bench.query")

        def med_ms(name):
            d = durs(name)
            return 1e3 * _median(d) if d else 0.0

        out = {
            "decomp.tt_svd.s": per("decomp.tt_svd", "bench.build.tt"),
            "decomp.hosvd.s": per("decomp.hosvd", "bench.build.hosvd"),
            "decomp.cp_als.s": cp_s,
            "decomp.cp_als.sweeps": sweeps,
            "decomp.cp_als.ms_per_sweep": 1e3 * cp_s / sweeps if sweeps else 0.0,
            "decomp.cp_als.converged": converged,
            "deim.deim_select.offline_s": per("deim.deim_select", "trom.build_offline"),
            "deim.deim_select.rows": len(art.selection),
            "deim.deim_select.online_ms_p50": p50_ms("deim.deim_select",
                                                     "trom.build_reduced_system"),
            "deim.cstar_ls": art.cstar_ls,
            "deim.cstar_p50": _median(self.cstars[online]),
            "deim.used_rows_frac": _median(self.used_frac[online]),
            "deim.nonfinite_share": len(self.deim_nonfinite) / max(len(self.cstars["deim"]), 1),
            "grids.interp_weights.us_p50": 1e3 * p50_ms("grids.interp_weights"),
            "trom.build_offline.self_s": (
                _median([s.self_time for s in builds]) if builds else 0.0),
            "trom.build_offline.tt_s": per("trom.build_offline", "bench.build.tt"),
            "trom.build_offline.hosvd_s": per("trom.build_offline", "bench.build.hosvd"),
            "trom.build_offline.cp_s": per("trom.build_offline", "bench.build.cp"),
            "trom.local_bases.ms_p50": p50_ms("trom.local_bases"),
            "trom.local_bases.self_ms_p50": p50_ms("trom.local_bases", self_time=True),
            "trom.core_matrix.ms_p50": p50_ms("trom.core_matrix"),
            "trom.build_reduced_system.ms_p50": p50_ms("trom.build_reduced_system"),
            "trom.trom_solve.self_ms_p50": p50_ms("trom.trom_solve", self_time=True),
            "trom.local_dim_bound_u": self.dims[0],
            "trom.local_dim_bound_f": self.dims[1],
            "trom.online_entries": art.u_part.online_entries + art.f_part.online_entries,
            "trom.save_artifact.ms": med_ms("trom.save_artifact"),
            "trom.load_artifact.ms": med_ms("trom.load_artifact"),
            "trom.artifact_bytes": self.counts.get("artifact_bytes", 0),
            "stepping.integrate_reduced.ms_p50": p50_ms("stepping.integrate_reduced"),
            "stepping.integrate_reduced.us_per_step": (
                1e3 * p50_ms("stepping.integrate_reduced") / self.cfg.n_steps),
            "stepping.integrate_full.calls": (
                len(tr.select("stepping.integrate_full", "bench.query")) / n_queries
                if n_queries else 0.0),
            "stepping.integrate_full.s": per("stepping.integrate_full", "bench.setup"),
            "stepping.AffineOperator.reduce.s": per("stepping.AffineOperator.reduce",
                                                    "trom.build_offline"),
            "fom.sample_snapshots.s": per("fom.sample_snapshots", "bench.setup"),
            "fom.run_fom.ms_p50": 1e3 * _median(self.fom_s),
            "fom.initial_state_for.ms_p50": p50_ms("fom.initial_state_for"),
            "fom.ac_initial_state.cache_hits": self.counts["cache_hits"],
            "fom.ac_initial_state.cache_misses": self.counts["cache_misses"],
            "pod.pod_offline.s": self.values.get("pod_offline_s", 0.0),
            "pod.pod_solve.ms_p50": 1e3 * _median(self.pod_s) if self.pod_s else 0.0,
            "pod.err_p50": _median(self.pod_errs) if self.pod_errs else 0.0,
        }
        for name in ("setup_s", "offline_s", "query_ms_p50", "query_ms_p95"):
            out[f"trace.overhead.{name}"] = e2e_traced[name][0] - e2e_untraced[name][0]
        out["trace.overhead.queries_per_s"] = (e2e_untraced["queries_per_s"][0]
                                               - e2e_traced["queries_per_s"][0])
        return out


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the result with a ``report`` beside the
    four keys of the result line."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        r = Run(spec, seed, seconds, trace, Path(tmp))
        r.setup()
        r.timed()
    r.check()

    untraced = r.end_to_end(False)
    unscaled = r.end_to_end(False, scaled=False)
    report: dict = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "closed_loop_clients": 1,
        "queries_completed": sum(a.ok for a in r.attempts),
        "host_speed": {
            "reference_ms_p50": 1e3 * r.query_ref,
            "nominal_reference_ms": 1e3 * REF_NOMINAL_S,
            "note": "times are CPU times; query times are scaled by nominal / reference "
                    "time right after each query, end_to_end_unscaled has them unscaled"},
        "end_to_end": {name: {"value": untraced[name][0], "unit": unit,
                              "samples": untraced[name][1]}
                       for name, unit in E2E_UNITS.items()},
        "end_to_end_unscaled": {k: v for k, (v, _) in unscaled.items()},
        "fom_ms_p50": 1e3 * _median(r.fom_s),
        "rom_fom_speedup": {
            "value": 1e3 * _median(r.fom_s) / unscaled["query_ms_p50"][0],
            "base": "fom_ms_p50 / query_ms_p50 in unscaled CPU time, derived, "
                    "does not gate"},
        "errors": r.ledger.errors,
        "known_defects": {"deim_nonfinite_parameters": r.deim_nonfinite,
                          "deim_queries": len(r.cstars["deim"])},
    }
    if trace:
        traced = r.end_to_end(True)
        report["end_to_end_traced"] = {k: {"value": v, "samples": n}
                                       for k, (v, n) in traced.items()}
        values = r.per_layer(untraced, traced)
        units = LAYER_UNITS
        report["spans"] = r.tracer.summary()
        report["span_count"] = len(r.tracer.spans)
    else:
        values = {k: v for k, (v, _) in untraced.items()}
        units = E2E_UNITS
    finite = all(np.isfinite(values[k]) for k in units)
    return {
        "correct": r.ledger.failed == 0 and finite,
        "attempted": r.ledger.attempted,
        "failed": r.ledger.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        "report": report,
    }
