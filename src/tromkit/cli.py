"""The command line: snapshot generation, offline compression, online
queries, reproduction studies, and empirical verification of the error
bounds.  Everything lands as CSV tables plus a JSON manifest that links
inputs to outputs by content hash.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
import types
from numbers import Real
from pathlib import Path

import numpy as np

from . import decomp, fom, pod, trom
from .grids import ParameterGrid

CSV_SCHEMA = "tromkit-csv-1"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the registered problems by the name ``--problem`` takes
_PROBLEMS = {cls.cli_name: cls for cls in fom.PROBLEMS.values()}


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "schema": CSV_SCHEMA,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        # artifacts are byte-identical at one BLAS thread count only; null if unset
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# schema={CSV_SCHEMA}"])
        writer.writerow(header)
        writer.writerows(rows)


def _parse_alpha(text: str, grid: ParameterGrid) -> np.ndarray:
    """A comma-separated parameter vector, one entry per grid axis inside its box."""
    try:
        alpha = np.array([float(x) for x in text.split(",")])
    except ValueError:
        alpha = None
    if alpha is None or not grid.contains(alpha):
        box = " x ".join(f"[{ax.lo:.6g}, {ax.hi:.6g}]" for ax in grid.axes)
        shown = repr(text) if alpha is None else alpha.tolist()
        raise SystemExit(f"alpha {shown} is not a point of the parameter "
                         f"box: expected {grid.ndim} entries in {box}")
    return alpha


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.lower().split("x"))
    except ValueError:
        raise SystemExit(f"--grid {text!r} is not a shape: expected integers "
                         f"joined by 'x', e.g. 8x16") from None


def _alpha_str(alpha) -> str:
    return ";".join(f"{a:.10g}" for a in np.atleast_1d(alpha))


def _refusing(source: str, make, *args, flags: dict | None = None, **kwargs):
    """Call ``make``, and end its ``ValueError`` or ``OSError`` in a one-line ``SystemExit``
    led by the flag (``flags``: field -> flag) whose field starts the message, else by
    ``source``.  Never wrap a solve: ``np.linalg.LinAlgError`` is a ``ValueError``."""
    try:
        return make(*args, **kwargs)
    except (OSError, ValueError) as exc:
        where = next((flag for field, flag in (flags or {}).items()
                      if str(exc).startswith(f"{field} ")), source)
        raise SystemExit(f"{where}: {exc}") from None


def _output(flag: str, path, directory: bool = False) -> Path:
    """``path``, once the directory it is written into (``path`` itself when
    ``directory``) exists; one that cannot be made is refused, led by ``flag``."""
    path = Path(path)
    _refusing(f"{flag} {path}", (path if directory else path.parent).mkdir,
              parents=True, exist_ok=True)
    return path


def _query_artifact(path) -> trom.OfflineArtifact:
    """The ``--artifact`` of ``query`` and ``verify``, refused unless it holds the
    problem description that their solves and its reduced operator come from."""
    art = _refusing(f"--artifact {path}", trom.load_artifact, path)
    if art.problem is None:
        raise SystemExit(f"--artifact {path}: the artifact has no problem description; "
                         "rebuild it with `tromkit offline`")
    return art


def _load_config(args) -> tuple[dict, StudySettings]:
    """The ``--config`` file's settings as given and as the ``StudySettings`` they make."""
    cfg = {}
    if args.config:
        cfg = _refusing(f"--config {args.config}",
                        lambda: json.loads(Path(args.config).read_text()))
        if not isinstance(cfg, dict):
            raise SystemExit(f"config file {args.config} must hold a JSON object of "
                             f"settings, not {json.dumps(cfg)[:40]}")
    return cfg, _refusing(f"{args.command} config", StudySettings.from_dict, cfg,
                          "keys of a study config")


def _flagged(args, source: str, make, spec: dict, **dests):
    """``make(spec)`` once the flags ``dests`` (field -> flag dest) that are set are
    written into ``spec``; a refusal is led by the flag whose field it names."""
    dests = {key: dest for key, dest in dests.items() if getattr(args, dest, None) is not None}
    spec.update((key, getattr(args, dest)) for key, dest in dests.items())
    return _refusing(source, make, spec, flags={
        key: f"--{dest.replace('_', '-')} {spec[key]}" for key, dest in dests.items()})


def _local_dim(flag: str, n: int | None, bound: int) -> int:
    """``n``, ``bound`` (the artifact's) when None; refused outside 1..``bound``."""
    if n is not None and not 1 <= n <= bound:
        raise SystemExit(f"{flag}: local dimension {n} must be at least 1 and at most "
                         f"{bound}, the artifact's bound")
    return bound if n is None else n


def _problem_config(args, settings: StudySettings) -> fom.ProblemConfig:
    spec = dict(settings.problem or {})
    if getattr(args, "problem", None):
        spec["kind"] = _PROBLEMS[args.problem].kind
    if "kind" not in spec:
        raise SystemExit("no problem selected; pass --problem or a config file")
    return _flagged(args, "problem config", fom.config_from_dict, spec,
                    m="m", n_steps="steps", seed="seed")


def _refuse_mismatch(pairs, what: str, side: str) -> None:
    """Refuse the first (name, ours, theirs) of ``pairs`` whose values differ,
    ours being the ``side``'s and theirs the snapshot bundle's.  Both go
    through JSON, as an artifact's do, and a mismatch of two dicts names only
    the keys that differ."""
    for name, ours, theirs in pairs:
        ours, theirs = (json.loads(json.dumps(v)) for v in (ours, theirs))
        if isinstance(ours, dict):
            keys = sorted(k for k in ours.keys() | theirs.keys()
                          if ours.get(k) != theirs.get(k))
            ours, theirs = ({k: v.get(k) for k in keys} for v in (ours, theirs))
        if ours != theirs:
            raise SystemExit(f"{what}: {name} {ours} in the {side}, "
                             f"{theirs} in the snapshot bundle")


def _solve_query(art: trom.OfflineArtifact, alpha, n_u: int, n_f: int, mode: str):
    cfg = fom.config_from_dict(art.problem)
    term = cfg.nonlinearity(alpha)
    u0 = cfg.initial_state(alpha)
    stab = cfg.stabilization(cfg.dt)
    t0 = time.perf_counter()
    local = trom.build_reduced_system(art, trom.local_bases(art, alpha, n_u, n_f), mode=mode)
    t_basis = time.perf_counter() - t0
    t0 = time.perf_counter()
    betas, states = trom.trom_solve(art, local, term, u0, cfg.dt, cfg.n_steps, stab=stab)
    t_int = time.perf_counter() - t0
    return cfg, local, betas, states, t_basis, t_int


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    _, settings = _load_config(args)
    cfg = _problem_config(args, settings)
    shape = _parse_shape(args.grid) if args.grid else settings.grid
    grid = _refusing("--grid" if args.grid else "config grid", cfg.grid, shape)
    out_dir = _output("--out", args.out, directory=True)
    t0 = time.perf_counter()
    snaps = fom.sample_snapshots(cfg, grid)
    elapsed = time.perf_counter() - t0
    snap_path = out_dir / "snapshots.trbl"
    fom.save_snapshots(snap_path, snaps)
    _write_manifest(out_dir, "sample", fom.config_to_dict(cfg) | {"grid": grid.to_dict()},
                    [], [snap_path])
    print(f"sampled {int(np.prod(grid.shape))} grid points "
          f"-> tensors {snaps.u_tensor.shape} in {elapsed:.1f}s: {snap_path}")
    return 0


# ---------------------------------------------------------------------------
# offline
# ---------------------------------------------------------------------------

def _offline_report_row(art: trom.OfflineArtifact, err_u, err_f, elapsed) -> list:
    cf = art.compression_factors()
    # CP sweeps and convergence (1 or 0) of u and f, joined like the ranks
    cp_cols = ["" if art.cp_fit is None else
               "-".join(str(int(art.cp_fit[t][key])) for t in ("u", "f"))
               for key in ("sweeps", "converged")]
    return [art.fmt, art.eps, art.cp_rank, "-".join(map(str, art.u_part.ranks)),
            "-".join(map(str, art.f_part.ranks)),
            f"{cf['cf_u']:.1f}", f"{cf['cf_f']:.1f}",
            f"{cf['cf_combined']:.1f}" if "cf_combined" in cf else "",
            f"{err_u:.6e}", f"{err_f:.6e}", *cp_cols, f"{elapsed:.3f}"]


_OFFLINE_HEADER = ["format", "eps", "cp_rank", "ranks_u", "ranks_f",
                   "cf_u", "cf_f", "cf_combined", "err_u", "err_f",
                   "cp_sweeps", "cp_converged", "t_offline"]


def _build_artifact(snaps: fom.SnapshotSet, settings: StudySettings,
                    level: tuple) -> tuple[trom.OfflineArtifact, float]:
    """Build one artifact at a (format, eps, cp_rank) level with the settings'
    ``interp_order``; also returns the seconds it took."""
    fmt, eps, cp_rank = level
    t0 = time.perf_counter()
    art = trom.build_offline(
        snaps.u_tensor, snaps.f_tensor, snaps.grid, fmt=fmt, eps=eps, cp_rank=cp_rank,
        interp_order=settings.interp_order, problem=fom.config_to_dict(snaps.config))
    return art, time.perf_counter() - t0


def _compression_errors(art: trom.OfflineArtifact, snaps: fom.SnapshotSet):
    return (decomp.relative_error(art.u_part, snaps.u_tensor),
            decomp.relative_error(art.f_part, snaps.f_tensor))


# The measured error carries the rounding of the reconstruction (about 1e-14
# at eps = 0); the eps check of ``offline`` allows this much above eps.
_ROUNDING_SLACK = 1e-12


def cmd_offline(args) -> int:
    # the build flags, refused as a study config's keys are, before any load
    settings = _flagged(args, "offline", lambda spec: StudySettings(**spec), {},
                        **{key: key for key in ("format", "eps", "cp_rank", "interp_order")})
    need = "cp_rank" if settings.format == "cp" else "eps"
    if getattr(settings, need) is None:
        raise SystemExit(f"--format {settings.format} needs --{need.replace('_', '-')}")
    out = _output("--out", args.out)
    report = args.report and _output("--report", args.report)
    snaps = _refusing(f"--snapshots {args.snapshots}", fom.load_snapshots, args.snapshots)
    art, elapsed = _build_artifact(snaps, settings, (args.format, args.eps, args.cp_rank))
    err_u, err_f = _compression_errors(art, snaps)
    over = [f"tensor {name} error {err:.6e} exceeds eps {art.eps:g}"
            for name, err in (("u", err_u), ("f", err_f))
            if art.eps is not None and err > art.eps + _ROUNDING_SLACK]
    if over:
        print(f"offline: {'; '.join(over)}; no artifact written", file=sys.stderr)
        return 1
    trom.save_artifact(out, art)
    row = _offline_report_row(art, err_u, err_f, elapsed)
    if report:
        _write_csv(report, _OFFLINE_HEADER, [row])
    print("  ".join(f"{h}={v}" for h, v in zip(_OFFLINE_HEADER, row) if v != ""))
    print(f"artifact: {out}")
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def cmd_query(args) -> int:
    metrics = args.metrics and _output("--metrics", args.metrics)
    out = args.out and _output("--out", args.out)
    art = _query_artifact(args.artifact)
    alpha = _parse_alpha(args.alpha, art.grid)
    error_metrics = None if args.no_reference else _refusing(
        "query", fom.config_from_dict(art.problem).error_metrics, args.t_window)
    n_u, n_f = (_local_dim(flag, n, bound) for flag, n, bound in zip(
        ("--n-phi", "--n-psi"), (args.n_phi, args.n_psi), art.local_dim_bounds()))
    cfg, local, betas, states, t_basis, t_int = _solve_query(art, alpha, n_u, n_f, args.mode)
    bad = ~np.all(np.isfinite(betas), axis=0)
    if bad.any():
        step = int(np.argmax(bad)) + 1
        print(f"query: non-finite reduced trajectory from step {step} of {cfg.n_steps} "
              f"(t={step * cfg.dt:.6g}) at alpha {_alpha_str(alpha)}, mode {args.mode}; "
              f"nothing written", file=sys.stderr)
        return 1

    err_l2l2 = err_h1 = ""
    t_fom = ""
    if not args.no_reference:
        t0 = time.perf_counter()
        u_ref, _ = fom.run_fom(cfg, alpha)
        t_fom = f"{time.perf_counter() - t0:.3f}"
        errs = {k: fn(states, u_ref) for k, fn in error_metrics.items()}
        err_l2l2 = f"{errs['l2l2']:.6e}"
        err_h1 = f"{errs['h1']:.6e}" if "h1" in errs else ""

    header = ["alpha", "format", "eps", "cp_rank", "n_u", "n_f", "mode", "cstar",
              "err_l2l2", "err_l2h1", "t_basis", "t_integrate", "t_fom"]
    row = [_alpha_str(alpha), art.fmt, art.eps, art.cp_rank, n_u, n_f, args.mode,
           f"{local.cstar:.6e}", err_l2l2, err_h1, f"{t_basis:.4f}", f"{t_int:.4f}", t_fom]
    if metrics:
        _write_csv(metrics, header, [row])
    if out:
        np.savez(out, betas=betas, states=states, alpha=alpha,
                 times=cfg.dt * np.arange(1, cfg.n_steps + 1))
    print("  ".join(f"{h}={v}" for h, v in zip(header, row) if v != ""))
    return 0


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StudySettings(fom.Settings):
    """Every key of a config file with its default, checked as a problem config is;
    ``sample`` reads ``problem`` and ``grid``, ``offline`` and ``verify`` the fields their
    flags set, and a flag wins over the file.  A None ``eps`` is 1e-3 for refine and 1e-4
    for svdecay, a None ``cp_rank`` the largest listed.  The paper's sizes are the
    committed ``configs/*_paper.json``."""

    problem: dict | None = None
    grid: tuple[int, ...] | None = None
    out_dir: str = "study_out"
    format: str = "tt"
    eps: float | None = None
    eps_list: tuple[float, ...] = (0.1, 0.03, 0.01)
    cp_rank: int | None = None
    cp_rank_list: tuple[int, ...] = (20, 50)
    interp_order: int = 2
    seed: int = 2024
    query_count: int = 100
    t_window: Real = 0.5        # any finite number, where a float field is above 0
    refine_grids: tuple = ((2, 4), (4, 8), (8, 16))
    n_u: int = 10
    n_f: int = 20
    mode: str = "ls"
    svdecay_count: int = 10

    least = dict.fromkeys(["cp_rank", "cp_rank_list", "interp_order", "query_count", "n_u",
                           "n_f", "svdecay_count"], 1) | {"eps": 0, "eps_list": 0}
    below = {"eps": 1, "eps_list": 1}
    choices = {"format": ("tt", "hosvd", "cp"), "mode": ("ls", "deim")}


def _study_levels(settings: StudySettings, eps=None) -> list[tuple]:
    """The (format, eps, cp_rank) of each artifact a study builds: one per entry
    of ``eps_list`` (of ``cp_rank_list`` for CP), or, given a table's default
    ``eps``, one at ``eps`` (for CP at ``cp_rank``, else the largest listed)."""
    fmt = settings.format
    if fmt == "cp":
        one = settings.cp_rank or max(settings.cp_rank_list)
        return [(fmt, None, rank) for rank in (settings.cp_rank_list if eps is None else [one])]
    one = eps if settings.eps is None else settings.eps
    return [(fmt, level, None) for level in (settings.eps_list if eps is None else [one])]


def _check_alphas(grid: ParameterGrid, count: int, seed: int) -> np.ndarray:
    return grid.sample(count, np.random.default_rng(seed))


def _study_ranks(snaps, settings, shared):
    """Ranks, compression factors, and achieved errors versus accuracy."""
    rows = []
    for level in _study_levels(settings):
        art, elapsed = shared.build(level)
        rows.append(_offline_report_row(art, *shared.errors(level), elapsed))
    return "ranks_vs_eps.csv", _OFFLINE_HEADER, rows


def _study_refine(snaps, settings, shared):
    """Averaged/max query error versus grid refinement: the late-window
    gradient-energy quotient for transport, the space-time l2 error for the
    phase field.  A grid whose max error is above 1, which the zero trajectory
    scores in both metrics, is flagged on stderr."""
    cfg = snaps.config
    alphas = _check_alphas(snaps.grid, settings.query_count, settings.seed)
    metric, error = list(cfg.error_metrics(settings.t_window).items())[-1]
    refs = [fom.run_fom(cfg, al)[0] for al in alphas]
    [level] = _study_levels(settings, 1e-3)
    rows = []
    for shape in settings.refine_grids:
        sub = fom.sample_snapshots(cfg, cfg.grid(shape))
        art, _ = _build_artifact(sub, settings, level)
        n_u, n_f = map(min, (settings.n_u, settings.n_f), art.local_dim_bounds())
        errs = np.array([error(_solve_query(art, al, n_u, n_f, settings.mode)[3], ref)
                         for al, ref in zip(alphas, refs)])
        label = "x".join(map(str, shape))
        if not errs.max() <= 1:
            print(f"study refine: grid {label} diverged, max error {errs.max():.6e} "
                  f"above the 1 of the zero trajectory", file=sys.stderr)
        rows.append([label, n_u, n_f, f"{errs.mean():.6e}", f"{errs.max():.6e}", len(alphas)])
    return ("error_vs_grid.csv", ["grid", "n_u", "n_f", f"avg_err_{metric}",
                                  f"max_err_{metric}", "n_queries"], rows)


def _study_svdecay(snaps, settings, shared):
    """Scaled singular values: all-snapshot unfolding versus local matrices."""
    [level] = _study_levels(settings, 1e-4)
    art, _ = shared.build(level)
    f_svals = shared.svals("f")
    alphas = _check_alphas(snaps.grid, settings.svdecay_count, settings.seed)
    locs = [trom.local_bases(art, al, 1, 1) for al in alphas]
    depth = min([f_svals.size] + [loc.f_sing_vals.size for loc in locs])
    rows = []
    for i in range(depth):
        row = [i + 1, f"{f_svals[i] / f_svals[0]:.6e}"]
        row += [f"{loc.f_sing_vals[i] / loc.f_sing_vals[0]:.6e}" for loc in locs]
        rows.append(row)
    header = ["n", "pod"] + [f"alpha_{_alpha_str(al)}" for al in alphas]
    return "sing_val_decay.csv", header, rows


def _study_effrank(snaps, settings, shared):
    """Compressed-format error versus truncated-SVD error at equal effective rank."""
    tensors = {"u": snaps.u_tensor, "f": snaps.f_tensor}
    rows = {tag: [] for tag in tensors}
    for level in _study_levels(settings):
        art, _ = shared.build(level)
        errs = dict(zip(tensors, shared.errors(level)))
        for tag, part in (("u", art.u_part), ("f", art.f_part)):
            eff, svals = part.ranks[-1], shared.svals(tag)
            tail = max(float(np.sum(svals**2)) - float(np.sum(svals[:eff]**2)), 0.0)
            err_svd = np.sqrt(tail) / np.linalg.norm(tensors[tag])
            rows[tag].append([tag, art.eps, eff, f"{errs[tag]:.6e}", f"{err_svd:.6e}"])
    return ("effective_rank.csv", ["tensor", "eps", "effective_rank", "err_lrtd",
                                   "err_trunc_svd"], rows["u"] + rows["f"])


_STUDIES = {"ranks": _study_ranks, "refine": _study_refine,
            "svdecay": _study_svdecay, "effrank": _study_effrank}


def cmd_study(args) -> int:
    file_cfg, settings = _load_config(args)
    if args.snapshots:
        snaps = _refusing(f"--snapshots {args.snapshots}", fom.load_snapshots, args.snapshots)
        snap_path = Path(args.snapshots)
        # a problem or grid that the config or --problem names must be the bundle's
        pairs = []
        if args.problem or settings.problem is not None:
            pairs.append(("problem", fom.config_to_dict(_problem_config(args, settings)),
                          fom.config_to_dict(snaps.config)))
        if settings.grid is not None:
            pairs.append(("grid", settings.grid, list(snaps.grid.shape)))
        _refuse_mismatch(pairs, f"study config does not describe snapshot bundle "
                                f"{snap_path}", "config")
        cfg = snaps.config
    else:
        cfg = _problem_config(args, settings)
        grid = _refusing("config grid", cfg.grid, settings.grid)
    kinds = args.kind or list(_STUDIES)
    if "refine" in kinds:
        # the refine study's window and grids, refused before any full-order run
        _refusing("study config", cfg.error_metrics, settings.t_window)
        for shape in settings.refine_grids:
            _refusing("config refine_grids", cfg.grid, shape)
    out_dir = _output("--out" if args.out else "config out_dir", args.out or settings.out_dir,
                      directory=True)
    if not args.snapshots:
        snaps = fom.sample_snapshots(cfg, grid)
        snap_path = out_dir / "snapshots.trbl"
        fom.save_snapshots(snap_path, snaps)
    # taken once on the study's bundle: each (format, eps, cp_rank) level's
    # artifact and compression errors, and each tensor's singular values
    build = functools.cache(functools.partial(_build_artifact, snaps, settings))
    shared = types.SimpleNamespace(
        build=build,
        errors=functools.cache(lambda level: _compression_errors(build(level)[0], snaps)),
        svals=functools.cache(lambda tag: pod.pod_basis(getattr(snaps, f"{tag}_tensor"))[1]))
    outputs = []
    for kind in kinds:
        t0 = time.perf_counter()
        name, header, rows = _STUDIES[kind](snaps, settings, shared)
        outputs.append(out_dir / name)
        _write_csv(outputs[-1], header, rows)
        print(f"study {kind}: {time.perf_counter() - t0:.1f}s -> {outputs[-1]}")
    _write_manifest(out_dir, "study", file_cfg | {"kinds": kinds}, [snap_path], outputs)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_rows(art, snaps, alphas, n_list, mode):
    """One row per (alpha, n): both error estimates against a fresh FOM run.

    ``n`` sets both local dimensions; the state dimension is clamped to the
    artifact's admissible bound, the term dimension is not.  ``lhs_term`` is
    the mean squared hyper-reduction residual of the fresh term snapshots,
    fitted on the rows the reduced system uses.  At a training node with
    eps=0 (every offline row selected, ``ls`` mode) it equals the local
    singular-value tail beyond n, sum_{i>n} sigma_i^2 / (N M), which vanishes
    only at full local rank.
    """
    cfg = snaps.config
    m = snaps.u_tensor.shape[0]
    n_t = cfg.n_steps
    cap_u = art.local_dim_bounds()[0]
    rows = []
    violations = 0
    for alpha in alphas:
        u_ref, f_ref = fom.run_fom(cfg, alpha)
        w = art.weights(alpha)
        u_interp = trom.interpolate_dense(snaps.u_tensor, w)
        f_interp = trom.interpolate_dense(snaps.f_tensor, w)
        u_tilde = art.u_part.dense_local(w)
        f_tilde = art.f_part.dense_local(w)
        r_u = float(np.linalg.norm(u_ref - u_interp))
        r_f = float(np.linalg.norm(f_ref - f_interp))
        e_u = float(np.linalg.norm(u_interp - u_tilde))
        e_f = float(np.linalg.norm(f_interp - f_tilde))
        # One pair of core SVDs per alpha; each n slices the leading columns.
        full = trom.local_bases(art, alpha, min(max(n_list), cap_u), max(n_list))
        for n in n_list:
            local = trom.build_reduced_system(art, dataclasses.replace(
                full, u_coords=full.u_coords[:, :min(n, cap_u)],
                f_coords=full.f_coords[:, :n]), mode=mode)
            # Reduced-basis representation error of the fresh states.
            u_loc = art.u_part.basis @ local.u_coords
            lhs_u = float(np.sum((u_ref - u_loc @ (u_loc.T @ u_ref))**2)) / (n_t * m)
            tail_u = float(np.sum(local.u_sing_vals[min(n, local.u_sing_vals.size):]**2))
            bound_u = (r_u + e_u + np.sqrt(tail_u))**2 / (n_t * m)
            # Hyper-reduction error of the fresh term snapshots.
            y_loc = art.f_part.basis @ local.f_coords
            rows_sel = local.used_rows
            coef, *_ = np.linalg.lstsq(y_loc[rows_sel, :], f_ref[rows_sel, :], rcond=None)
            lhs_f = float(np.sum((f_ref - y_loc @ coef)**2)) / (n_t * m)
            tail_f = float(np.sum(local.f_sing_vals[n:]**2))
            bound_f = local.cstar**2 * (r_f + e_f + np.sqrt(tail_f))**2 / (n_t * m)
            ok = lhs_u <= bound_u * (1 + 1e-9) and lhs_f <= bound_f * (1 + 1e-9)
            violations += not ok
            core = local.cstar**2 * (e_f**2 + tail_f) / (n_t * m)
            rows.append([
                _alpha_str(alpha), n, mode, f"{local.cstar:.6e}",
                f"{lhs_u:.6e}", f"{bound_u:.6e}",
                f"{lhs_f:.6e}", f"{bound_f:.6e}",
                f"{e_f:.6e}", f"{np.sqrt(tail_f):.6e}", f"{r_f:.6e}",
                f"{lhs_f / core:.6e}" if core > 0 else "inf",
                "ok" if ok else "VIOLATION",
            ])
    return rows, violations


_VERIFY_HEADER = ["alpha", "n", "mode", "cstar", "lhs_state", "bound_state",
                  "lhs_term", "bound_term", "eps_term", "tail_term",
                  "interp_remainder", "ratio_vs_core", "status"]


def _check_pairing(art: trom.OfflineArtifact, snaps: fom.SnapshotSet,
                   art_path, snap_path) -> None:
    """Refuse a snapshot bundle that is not the artifact's training set:
    its problem, grid and tensor shape must match the artifact's."""
    pairs = [("problem", art.problem, fom.config_to_dict(snaps.config)),
             ("grid", art.grid.to_dict(), snaps.grid.to_dict()),
             ("full_shape", list(art.full_shape), list(snaps.u_tensor.shape))]
    _refuse_mismatch(pairs, f"snapshot bundle {snap_path} does not belong to artifact "
                            f"{art_path}", "artifact")


# the most entries of one snapshot tensor that dense verification reads
_VERIFY_MAX_ENTRIES = 2 * 10**7


def cmd_verify(args) -> int:
    out = _output("--out", args.out or "verify.csv")
    art = _query_artifact(args.artifact)
    if args.alphas:
        alphas = [_parse_alpha(a, art.grid) for a in args.alphas.split(";")]
    else:
        settings = _flagged(args, "verify", lambda spec: StudySettings(**spec), {},
                            query_count="random", seed="seed")
        alphas = _check_alphas(art.grid, settings.query_count, settings.seed)
    n_list = _refusing(f"--n-list entries must be integers, got {args.n_list}",
                       lambda: [int(x) for x in args.n_list.split(",")])
    n_list = [_local_dim("--n-list", n, art.local_dim_bounds()[1]) for n in n_list]
    # the bundle's size, which the pairing check holds to the artifact's, before it is read
    if (entries := int(np.prod(art.full_shape))) > _VERIFY_MAX_ENTRIES:
        raise SystemExit(f"--snapshots {args.snapshots}: its tensors hold {entries} entries, "
                         f"above the {_VERIFY_MAX_ENTRIES} of dense verification")
    snaps = _refusing(f"--snapshots {args.snapshots}", fom.load_snapshots, args.snapshots)
    _check_pairing(art, snaps, args.artifact, args.snapshots)
    rows, violations = _verify_rows(art, snaps, alphas, n_list, args.mode)
    _write_csv(out, _VERIFY_HEADER, rows)
    print(f"{len(rows)} checks, {violations} violations -> {out}")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tromkit",
        description="parametric tensor model order reduction (CSV out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate snapshot tensors")
    p.add_argument("--problem", choices=list(_PROBLEMS))
    p.add_argument("--config", help="JSON config file, e.g. configs/burgers_paper.json "
                                     "for the paper's sizes; the flags below win over it")
    p.add_argument("--grid", help="grid shape, e.g. 8x16")
    p.add_argument("--m", type=int, help="spatial resolution")
    p.add_argument("--steps", type=int, help="time steps")
    p.add_argument("--seed", type=int, help="initial-state seed (phase-field)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("offline", help="compress snapshots into an artifact; a TT or "
                                       "HOSVD error above eps exits 1 and writes none")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--format", choices=StudySettings.choices["format"], default="tt")
    p.add_argument("--eps", type=float)
    p.add_argument("--cp-rank", type=int)
    p.add_argument("--interp-order", type=int, default=2)
    p.add_argument("--report", help="CSV report path")
    p.add_argument("--out", required=True, help="artifact path")
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("query", help="online solve at one parameter point")
    p.add_argument("--artifact", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated parameter vector")
    p.add_argument("--n-phi", type=int, help="projection space dimension")
    p.add_argument("--n-psi", type=int, help="interpolation space dimension")
    p.add_argument("--mode", choices=StudySettings.choices["mode"], default="ls")
    p.add_argument("--t-window", type=float, default=0.5)
    p.add_argument("--no-reference", action="store_true",
                   help="skip the full-order reference run")
    p.add_argument("--metrics", help="CSV metrics path")
    p.add_argument("--out", help="trajectory .npz path")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("study", help="reproduction studies (CSV tables)")
    p.add_argument("--config", help="JSON study config")
    p.add_argument("--problem", choices=list(_PROBLEMS))
    p.add_argument("--snapshots", help="reuse an existing snapshot bundle; a problem "
                                        "or grid that the config or --problem gives "
                                        "must be the bundle's")
    p.add_argument("--kind", action="append", choices=list(_STUDIES),
                   help="study to run (repeatable; default all)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("verify", help="empirical error-estimate verification")
    p.add_argument("--artifact", required=True)
    p.add_argument("--snapshots", required=True)
    p.add_argument("--alphas", help="semicolon-separated parameter vectors")
    p.add_argument("--random", type=int, default=5, help="random query count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-list", default="5,10",
                   help="local dimensions to test; each n sets both, the state "
                        "one clamped to the artifact's bound. lhs_term is the "
                        "mean squared hyper-reduction residual of fresh term "
                        "snapshots; at a training node with eps=0 it equals "
                        "the local tail beyond n")
    p.add_argument("--mode", choices=StudySettings.choices["mode"], default="ls")
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
