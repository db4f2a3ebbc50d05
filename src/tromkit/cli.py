"""Benchmark command line: snapshot generation, offline compression, online
queries, reproduction studies, and empirical verification of the error
bounds.  Everything lands as CSV tables plus a JSON manifest that links
inputs to outputs by content hash.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fom, metrics, pod, trom
from .grids import ParameterGrid
from .stepping import AdvectiveTerm

CSV_SCHEMA = "tromkit-csv-1"


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
                    inputs: list[Path], outputs: list[Path]) -> Path:
    manifest = {
        "schema": CSV_SCHEMA,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# schema={CSV_SCHEMA}"])
        writer.writerow(header)
        writer.writerows(rows)


def _parse_alpha(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.lower().split("x"))


def _alpha_str(alpha) -> str:
    return ";".join(f"{a:.10g}" for a in np.atleast_1d(alpha))


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg = json.loads(Path(args.config).read_text())
    return cfg


def _problem_config(args, file_cfg: dict) -> fom.ProblemConfig:
    spec = dict(file_cfg.get("problem", {}))
    if getattr(args, "problem", None):
        spec["kind"] = {"burgers": "burgers", "allen-cahn": "allen_cahn"}[args.problem]
    if "kind" not in spec:
        raise SystemExit("no problem selected; pass --problem or a config file")
    if getattr(args, "m", None):
        spec["m"] = args.m
    if getattr(args, "steps", None):
        spec["n_steps"] = args.steps
    if getattr(args, "seed", None) is not None and spec["kind"] == "allen_cahn":
        spec["seed"] = args.seed
    if spec["kind"] == "burgers" and getattr(args, "paper_scale", False):
        spec.setdefault("m", 400)
        spec.setdefault("n_steps", 200)
    if spec["kind"] == "allen_cahn" and getattr(args, "paper_scale", False):
        # Full tensors at this scale occupy roughly 2.6 GB in memory.
        spec.setdefault("m", 150)
        spec.setdefault("n_steps", 200)
    return fom.config_from_dict(spec)


def _solve_query(art: trom.OfflineArtifact, alpha, n_u: int, n_f: int, mode: str):
    cfg = fom.config_from_dict(art.problem)
    term = fom.nonlinearity_for(cfg, alpha)
    u0 = fom.initial_state_for(cfg, alpha)
    stab = 0.0 if isinstance(term, AdvectiveTerm) else cfg.stabilization(cfg.dt)
    t0 = time.perf_counter()
    local = trom.build_reduced_system(art, trom.local_bases(art, alpha, n_u, n_f), mode=mode)
    t_basis = time.perf_counter() - t0
    t0 = time.perf_counter()
    betas, states = trom.trom_solve(art, local, term, u0, cfg.dt, cfg.n_steps, stab=stab)
    t_int = time.perf_counter() - t0
    return cfg, local, betas, states, t_basis, t_int


def _error_metrics(cfg: fom.ProblemConfig, t_window: float) -> dict:
    """Error functions ``(states, reference) -> float`` by name: the
    space-time l2 error and, for transport, the late-window gradient-energy
    quotient.  The last one is the problem's headline metric, which the
    refine study tabulates."""
    out = {"l2l2": metrics.rel_l2l2}
    if isinstance(cfg, fom.BurgersConfig):
        times = cfg.dt * np.arange(1, cfg.n_steps + 1)
        out["h1"] = lambda states, ref: metrics.rel_l2h1_quotient(
            states, ref, cfg.h, times, t_window)
    return out


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    file_cfg = _load_config(args)
    cfg = _problem_config(args, file_cfg)
    shape = _parse_shape(args.grid) if args.grid else file_cfg.get("grid")
    if args.paper_scale and shape is None:
        shape = (16, 32) if isinstance(cfg, fom.BurgersConfig) else (8, 3, 3)
    grid = fom.default_grid(cfg, shape)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    return [art.fmt, art.eps, art.cp_rank, "-".join(map(str, art.u_part.ranks)),
            "-".join(map(str, art.f_part.ranks)),
            f"{cf['cf_u']:.1f}", f"{cf['cf_f']:.1f}",
            f"{cf['cf_combined']:.1f}" if "cf_combined" in cf else "",
            "" if err_u is None else f"{err_u:.6e}",
            "" if err_f is None else f"{err_f:.6e}", f"{elapsed:.3f}"]


_OFFLINE_HEADER = ["format", "eps", "cp_rank", "ranks_u", "ranks_f",
                   "cf_u", "cf_f", "cf_combined", "err_u", "err_f", "t_offline"]


def _build_artifact(snaps: fom.SnapshotSet, fmt: str, eps, cp_rank, interp_order,
                    cp_opts=None) -> tuple[trom.OfflineArtifact, float]:
    t0 = time.perf_counter()
    art = trom.build_offline(
        snaps.u_tensor, snaps.f_tensor, snaps.grid, fmt=fmt, eps=eps, cp_rank=cp_rank,
        interp_order=interp_order, a_op=fom.affine_operator_for(snaps.config),
        problem=fom.config_to_dict(snaps.config), cp_opts=cp_opts)
    return art, time.perf_counter() - t0


def _part_error(part, tensor: np.ndarray, grid: ParameterGrid) -> float:
    """Relative Frobenius error of a compressed part against its snapshot
    tensor, reconstructed one grid node at a time with identity weights."""
    eyes = [np.eye(k) for k in grid.shape]
    sq = 0.0
    for mi, _ in grid.points():
        w = [eye[:, j] for eye, j in zip(eyes, mi)]
        sq += float(np.sum((part.dense_local(w) - tensor[(slice(None),) + mi])**2))
    return np.sqrt(sq) / np.linalg.norm(tensor)


def _compression_errors(art: trom.OfflineArtifact, snaps: fom.SnapshotSet):
    return (_part_error(art.u_part, snaps.u_tensor, snaps.grid),
            _part_error(art.f_part, snaps.f_tensor, snaps.grid))


def cmd_offline(args) -> int:
    snaps = fom.load_snapshots(args.snapshots)
    art, elapsed = _build_artifact(snaps, args.format, args.eps, args.cp_rank,
                                   args.interp_order)
    err_u = err_f = None
    if not args.skip_errors:
        err_u, err_f = _compression_errors(art, snaps)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trom.save_artifact(out, art)
    row = _offline_report_row(art, err_u, err_f, elapsed)
    if args.report:
        _write_csv(Path(args.report), _OFFLINE_HEADER, [row])
    print("  ".join(f"{h}={v}" for h, v in zip(_OFFLINE_HEADER, row) if v != ""))
    print(f"artifact: {out}")
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def cmd_query(args) -> int:
    art = trom.load_artifact(args.artifact)
    alpha = _parse_alpha(args.alpha)
    if not art.grid.contains(alpha):
        raise SystemExit(f"alpha {alpha.tolist()} is outside the parameter box")
    bounds = art.local_dim_bounds()
    n_u = args.n_phi or bounds[0]
    n_f = args.n_psi or bounds[1]
    cfg, local, betas, states, t_basis, t_int = _solve_query(art, alpha, n_u, n_f, args.mode)

    err_l2l2 = err_h1 = ""
    t_fom = ""
    if not args.no_reference:
        t0 = time.perf_counter()
        u_ref, _ = fom.run_fom(cfg, alpha)
        t_fom = f"{time.perf_counter() - t0:.3f}"
        errs = {k: fn(states, u_ref) for k, fn in _error_metrics(cfg, args.t_window).items()}
        err_l2l2 = f"{errs['l2l2']:.6e}"
        err_h1 = f"{errs['h1']:.6e}" if "h1" in errs else ""

    header = ["alpha", "format", "eps", "cp_rank", "n_u", "n_f", "mode", "cstar",
              "err_l2l2", "err_l2h1", "t_basis", "t_integrate", "t_fom"]
    row = [_alpha_str(alpha), art.fmt, art.eps, art.cp_rank, n_u, n_f, args.mode,
           f"{local.cstar:.6e}", err_l2l2, err_h1, f"{t_basis:.4f}", f"{t_int:.4f}", t_fom]
    if args.metrics:
        _write_csv(Path(args.metrics), header, [row])
    if args.out:
        np.savez(args.out, betas=betas, states=states, alpha=alpha,
                 times=cfg.dt * np.arange(1, cfg.n_steps + 1))
    print("  ".join(f"{h}={v}" for h, v in zip(header, row) if v != ""))
    return 0


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def _study_ranks(snaps, cfgd, out_dir, rows_out):
    """Ranks, compression factors, and achieved errors versus accuracy."""
    fmt = cfgd.get("format", "tt")
    if fmt == "cp":
        levels = [(None, rank) for rank in cfgd.get("cp_rank_list", [20, 50])]
    else:
        levels = [(eps, None) for eps in cfgd.get("eps_list", [0.1, 0.03, 0.01])]
    rows = []
    for eps, rank in levels:
        art, elapsed = _build_artifact(snaps, fmt, eps, rank, cfgd.get("interp_order", 2),
                                       cfgd.get("cp_opts"))
        err_u, err_f = _compression_errors(art, snaps)
        rows.append(_offline_report_row(art, err_u, err_f, elapsed))
    path = out_dir / "ranks_vs_eps.csv"
    _write_csv(path, _OFFLINE_HEADER, rows)
    rows_out.append(path)


def _study_refine(snaps, cfgd, out_dir, rows_out):
    """Averaged/max query error versus grid refinement: the late-window
    gradient-energy quotient for transport, the space-time l2 error for the
    phase field."""
    cfg = snaps.config
    rng = np.random.default_rng(cfgd.get("seed", 2024))
    count = cfgd.get("query_count", 100)
    alphas = snaps.grid.sample(count, rng)
    metric, error = list(_error_metrics(cfg, cfgd.get("t_window", 0.5)).items())[-1]
    refs = [fom.run_fom(cfg, al)[0] for al in alphas]
    rows = []
    for shape in cfgd.get("refine_grids", [[2, 4], [4, 8], [8, 16]]):
        grid = fom.default_grid(cfg, shape)
        sub = fom.sample_snapshots(cfg, grid)
        art, _ = _build_artifact(sub, cfgd.get("format", "tt"), cfgd.get("eps", 1e-3),
                                 cfgd.get("cp_rank"), cfgd.get("interp_order", 2))
        bounds = art.local_dim_bounds()
        n_u = min(cfgd.get("n_u", 10), bounds[0])
        n_f = min(cfgd.get("n_f", 20), bounds[1])
        errs = np.array([error(_solve_query(art, al, n_u, n_f, cfgd.get("mode", "ls"))[3], ref)
                         for al, ref in zip(alphas, refs)])
        rows.append(["x".join(map(str, shape)), n_u, n_f,
                     f"{errs.mean():.6e}", f"{errs.max():.6e}", count])
    path = out_dir / "error_vs_grid.csv"
    _write_csv(path, ["grid", "n_u", "n_f", f"avg_err_{metric}", f"max_err_{metric}",
                      "n_queries"], rows)
    rows_out.append(path)


def _study_svdecay(snaps, cfgd, out_dir, rows_out):
    """Scaled singular values: all-snapshot unfolding versus local matrices."""
    art, _ = _build_artifact(snaps, cfgd.get("format", "tt"), cfgd.get("eps", 1e-4),
                             cfgd.get("cp_rank"), cfgd.get("interp_order", 2))
    _, f_svals = pod.pod_basis(snaps.f_tensor)
    rng = np.random.default_rng(cfgd.get("seed", 2024))
    alphas = snaps.grid.sample(cfgd.get("svdecay_count", 10), rng)
    locs = [trom.local_bases(art, al, 1, 1) for al in alphas]
    depth = min([f_svals.size] + [loc.f_sing_vals.size for loc in locs])
    rows = []
    for i in range(depth):
        row = [i + 1, f"{f_svals[i] / f_svals[0]:.6e}"]
        row += [f"{loc.f_sing_vals[i] / loc.f_sing_vals[0]:.6e}" for loc in locs]
        rows.append(row)
    header = ["n", "pod"] + [f"alpha_{_alpha_str(al)}" for al in alphas]
    path = out_dir / "sing_val_decay.csv"
    _write_csv(path, header, rows)
    rows_out.append(path)


def _study_effrank(snaps, cfgd, out_dir, rows_out):
    """Compressed-format error versus truncated-SVD error at equal effective rank."""
    rows = []
    for tag, tensor in (("u", snaps.u_tensor), ("f", snaps.f_tensor)):
        _, svals = pod.pod_basis(tensor)
        total = float(np.sum(svals**2))
        norm = np.linalg.norm(tensor)
        for eps in cfgd.get("eps_list", [0.1, 0.03, 0.01]):
            art, _ = _build_artifact(snaps, cfgd.get("format", "tt"), eps, None,
                                     cfgd.get("interp_order", 2))
            part = art.u_part if tag == "u" else art.f_part
            eff = part.ranks[-1]
            err_lrtd = _part_error(part, tensor, snaps.grid)
            tail = max(total - float(np.sum(svals[:eff]**2)), 0.0)
            err_svd = np.sqrt(tail) / norm
            rows.append([tag, eps, eff, f"{err_lrtd:.6e}", f"{err_svd:.6e}"])
    path = out_dir / "effective_rank.csv"
    _write_csv(path, ["tensor", "eps", "effective_rank", "err_lrtd", "err_trunc_svd"], rows)
    rows_out.append(path)


_STUDIES = {"ranks": _study_ranks, "refine": _study_refine,
            "svdecay": _study_svdecay, "effrank": _study_effrank}


def cmd_study(args) -> int:
    cfgd = _load_config(args)
    out_dir = Path(args.out or cfgd.get("out_dir", "study_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.snapshots:
        snaps = fom.load_snapshots(args.snapshots)
        snap_path = Path(args.snapshots)
    else:
        cfg = _problem_config(args, cfgd)
        grid = fom.default_grid(cfg, cfgd.get("grid"))
        snaps = fom.sample_snapshots(cfg, grid)
        snap_path = out_dir / "snapshots.trbl"
        fom.save_snapshots(snap_path, snaps)
    kinds = args.kind or list(_STUDIES)
    outputs = []
    for kind in kinds:
        t0 = time.perf_counter()
        _STUDIES[kind](snaps, cfgd, out_dir, outputs)
        print(f"study {kind}: {time.perf_counter() - t0:.1f}s -> {outputs[-1]}")
    _write_manifest(out_dir, "study", cfgd | {"kinds": kinds}, [snap_path], outputs)
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


def cmd_verify(args) -> int:
    art = trom.load_artifact(args.artifact)
    snaps = fom.load_snapshots(args.snapshots)
    if int(np.prod(snaps.u_tensor.shape)) > 2 * 10**7:
        raise SystemExit("instance too large for dense verification")
    rng = np.random.default_rng(args.seed)
    if args.alphas:
        alphas = [_parse_alpha(a) for a in args.alphas.split(";")]
    else:
        alphas = list(snaps.grid.sample(args.random, rng))
    n_list = [int(x) for x in args.n_list.split(",")]
    rows, violations = _verify_rows(art, snaps, alphas, n_list, args.mode)
    out = Path(args.out or "verify.csv")
    _write_csv(out, _VERIFY_HEADER, rows)
    print(f"{len(rows)} checks, {violations} violations -> {out}")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tromkit",
        description="model reduction benchmark harness (CSV out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate snapshot tensors")
    p.add_argument("--problem", choices=["burgers", "allen-cahn"])
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--grid", help="grid shape, e.g. 8x16")
    p.add_argument("--m", type=int, help="spatial resolution")
    p.add_argument("--steps", type=int, help="time steps")
    p.add_argument("--seed", type=int, help="initial-state seed (phase-field)")
    p.add_argument("--paper-scale", action="store_true",
                   help="published-experiment resolution (large)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("offline", help="compress snapshots into an artifact")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--format", choices=["tt", "hosvd", "cp"], default="tt")
    p.add_argument("--eps", type=float)
    p.add_argument("--cp-rank", type=int)
    p.add_argument("--interp-order", type=int, default=2)
    p.add_argument("--skip-errors", action="store_true",
                   help="skip the achieved-accuracy reconstruction check")
    p.add_argument("--report", help="CSV report path")
    p.add_argument("--out", required=True, help="artifact path")
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("query", help="online solve at one parameter point")
    p.add_argument("--artifact", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated parameter vector")
    p.add_argument("--n-phi", type=int, help="projection space dimension")
    p.add_argument("--n-psi", type=int, help="interpolation space dimension")
    p.add_argument("--mode", choices=["ls", "deim"], default="ls")
    p.add_argument("--t-window", type=float, default=0.5)
    p.add_argument("--no-reference", action="store_true",
                   help="skip the full-order reference run")
    p.add_argument("--metrics", help="CSV metrics path")
    p.add_argument("--out", help="trajectory .npz path")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("study", help="reproduction studies (CSV tables)")
    p.add_argument("--config", help="JSON study config")
    p.add_argument("--problem", choices=["burgers", "allen-cahn"])
    p.add_argument("--snapshots", help="reuse an existing snapshot bundle")
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
    p.add_argument("--mode", choices=["ls", "deim"], default="ls")
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
