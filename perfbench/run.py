"""tromkit benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload, each in its own process.

Run from the repository root; the package is imported from ``src/`` of the
same tree.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).  The line
before it is the full report: environment, sample counts, unscaled query
times beside the host-speed-scaled ones, the derived ROM/FOM speed-up and,
when traced, the span summary and the layer mapping.
A table of the metrics goes to standard error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# One BLAS thread, within the nproc cap.  The online stage works on
# rank-sized matrices, where a second BLAS thread made phase-field queries
# about 20% slower and their p95 noisier on a 2-core machine.
BLAS_THREADS = 1


def limit_blas_threads() -> int:
    """Pin BLAS/OpenMP threads; must run before numpy loads.  Returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def _openblas_threads(module) -> dict:
    """Vendor, version and thread count in effect of the OpenBLAS bundled with
    a numpy or scipy wheel, read through its own API."""
    import ctypes

    pkg = Path(module.__file__).parent
    for lib_path in sorted(pkg.parent.glob(f"{pkg.name}.libs/*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_config.restype = ctypes.c_char_p
                return {"library": lib_path.name,
                        "config": get_config().decode(errors="replace").strip(),
                        "threads": int(get_threads())}
    return {"library": None, "config": None, "threads": None}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tromkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "numpy_runtime": _openblas_threads(numpy),
                 "scipy_runtime": _openblas_threads(scipy)},
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated, a run still removes its work directory and kills its children.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    nproc = limit_blas_threads()
    if not (ROOT / "src" / "tromkit" / "__init__.py").is_file():
        print(f"error: tromkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import tromkit
    if Path(tromkit.__file__).resolve().parent != ROOT / "src" / "tromkit":
        print(f"error: imported tromkit from {tromkit.__file__}, not this tree",
              file=sys.stderr)
        return 2

    from perfbench import spec as specs
    from perfbench.workload import run

    if args.workload == "all":
        # One process per workload, one after the other.
        failed = 0
        for name in specs.WORKLOADS:
            print(f"== {name}", file=sys.stderr, flush=True)
            failed += subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode != 0
        return 1 if failed else 0
    if args.workload not in specs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(specs.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(specs.WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), ROOT)
    report = result.pop("report")
    report["environment"] = environment(nproc)
    if args.trace:
        report["layer_mapping"] = {name: {"moves": moves, "on": on}
                                   for name, (moves, on) in specs.LAYER_MAPPING.items()}
        report["notes"] = specs.NOTES
    samples = report["end_to_end"]
    for name, m in result["metrics"].items():
        n = samples[name]["samples"] if name in samples else ""
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:6s} {n}", file=sys.stderr)
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
