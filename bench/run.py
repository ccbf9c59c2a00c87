"""Benchmark harness for stablegfn (numpy only; see BENCHMARK.json).

One workload, one process:

    python3 bench/run.py --workload tree-tab-cert --seed 0 --seconds 25 --trace 0

prints every metric by name and unit, writes a run record under
``bench/out/``, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics from an untraced run; ``--trace 1`` gives the per-layer
metrics from a traced run, the tracing overhead among them, and writes the
spans next to the record.

Every workload, each in its own process, untraced and then traced:

    python3 bench/run.py --all [--seed 0] [--seconds 25]

The harness runs the package from ``src/`` of the checkout it lives in and
exits with status 2 when that is missing.  BLAS is held to one thread before
numpy is imported.  Each workload runs in one Python thread of one process
with no queues, so there is no wait-time metric.

Every time the harness reports is host-normalised (``hostclock``): wall time
corrected by the speed of a fixed reference loop sampled every 25 ms during
the run, so that a neighbour slowing the shared host does not read as a
slower package.  The run record keeps the wall times next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Hold BLAS to one thread; must run before numpy loads.

    The workload is one Python thread.  A second BLAS thread would wait on a
    core that the host shares with other tenants, and its matrix products
    would then time the host's scheduler rather than the package.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def use_checkout_package() -> Optional[str]:
    """Import stablegfn from this checkout's src/; returns an error message or None."""
    src = ROOT / "src"
    if not (src / "stablegfn" / "__init__.py").is_file():
        return f"no stablegfn package under {src}"
    sys.path.insert(0, str(src))
    import stablegfn

    if Path(stablegfn.__file__).resolve().parent != (src / "stablegfn").resolve():
        return f"stablegfn was imported from {stablegfn.__file__}, not from {src}"
    return None


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def host_record(blas_threads: int) -> Dict[str, object]:
    import numpy

    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        # context only: never a gated metric
        "src_lines": _src_lines(),
    }


def _units(trace: bool) -> Dict[str, str]:
    import tracing
    import workloads

    if trace:
        return {name: unit for name, unit, _ in tracing.LAYERS}
    return dict(workloads.END_TO_END)


def run_one(args: argparse.Namespace, blas_threads: int) -> int:
    import numpy as np

    import tracing
    import workloads

    w = workloads.get(args.workload, tiny=args.tiny)
    metrics, checks, details, tracers = workloads.run(
        w, args.seed, args.seconds, bool(args.trace), args.train_seeds
    )
    units = _units(bool(args.trace))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracers:
        spans_path = out_dir / f"{stem}-spans.npz"
        arrays = [tracing.span_arrays(t) for t in tracers]
        np.savez(spans_path, **{f"unit{i}_{k}": v for i, a in enumerate(arrays)
                                for k, v in a.items()})
        details["spans"] = str(spans_path)

    fail_frac = checks.total_failed / max(checks.total_attempted, 1)
    moves = {name: f"  -> {target}" for name, _, target in tracing.LAYERS} if args.trace else {}
    for name, unit in units.items():
        print(f"{w.name:16s} {name:40s} {metrics[name]:>14.6g} {unit:6s}{moves.get(name, '')}")
    print(f"{w.name:16s} {'fail_frac':40s} {fail_frac:>14.6g} ratio "
          f"({checks.total_failed}/{checks.total_attempted} checks)")
    if not args.trace:
        print(f"{w.name:16s} rounds timed: {details['rounds_timed']}, "
              f"set-ups timed: {details['setups_timed']}, units: {details['units']}")
    for message in checks.messages:
        print(f"{w.name:16s} FAILED {message}")

    record = {
        **host_record(blas_threads),
        "workload": w.name,
        "tiny": args.tiny,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "details": details,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "fail_frac": fail_frac,
        "checks": {k: {"attempted": n, "failed": checks.failed.get(k, 0)}
                   for k, n in sorted(checks.attempted.items())},
        "failures": checks.messages,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    print(json.dumps({
        "correct": checks.total_failed == 0,
        "attempted": checks.total_attempted,
        "failed": checks.total_failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args: argparse.Namespace, blas_threads: int) -> int:
    """Each workload in its own process, untraced then traced; one summary."""
    import workloads

    results: Dict[str, Dict[str, object]] = {}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", args.out]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])

    print()
    print(f"{'metric':44s}" + "".join(f"{n:>18s}" for n in workloads.WORKLOADS))
    for trace, units in ((0, _units(False)), (1, _units(True))):
        for metric, unit in units.items():
            cells = []
            for name in workloads.WORKLOADS:
                res = results.get(f"{name}/trace{trace}")
                cells.append(f"{res['metrics'][metric]['value']:>18.6g}" if res else f"{'-':>18s}")
            print(f"{metric + ' [' + unit + ']':44s}" + "".join(cells))
        cells = []
        for name in workloads.WORKLOADS:
            res = results.get(f"{name}/trace{trace}")
            cells.append(f"{res['failed'] / res['attempted']:>18.6g}" if res else f"{'-':>18s}")
        print(f"{'fail_frac [ratio]':44s}" + "".join(cells))

    record = {**host_record(blas_threads), "seed": args.seed, "seconds": args.seconds,
              "train_seeds": list(workloads.TRAIN_SEEDS),
              "results": results}
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                                encoding="utf-8")
    return status


def _seed_list(text: str) -> List[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--train-seeds", type=_seed_list, default=None,
                   help="comma-separated training seeds (default: the workload's own list)")
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--out", default=str(BENCH_DIR / "out"), help="directory for run records")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    blas_threads = cap_blas_threads()
    error = use_checkout_package()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    if args.all:
        return run_all(args, blas_threads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run_one(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
