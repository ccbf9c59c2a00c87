"""Fingerprints of the benchmark's training segments: the lines two commits
print agree when a change keeps every bit the benchmark computes.

For each training segment (one per objective) of each workload in
``bench/workloads.py``, at training seed 0, it prints one line: the
workload, the objective, the round count and a sha256 over the segment's
metrics rows, its parameters, the post-training certificate (every field
but ``wall_clock_s``), the exact TV and the evaluation's terminal states.
It runs the bench's own ``_setup``, ``_certificate`` and ``_evaluate`` on
the package in its own checkout's ``src/``, with the certificate and
evaluation streams at seed 0 and BLAS held to one thread as the bench holds
it.  Run it by hand at two commits and compare the output::

    PYTHONPATH=src python tests/bench_fingerprint.py [--tiny] [workload ...]
    PYTHONPATH=src python tests/bench_fingerprint.py --kernels

``--tiny`` runs the workloads at their smoke-test sizes; naming workloads
runs only those.  ``--kernels`` runs the ``--tiny`` lines in one subprocess
under the default OpenBLAS core and one under each other kernel this host can
run, and prints each line that moved from the table pinned in
``tests/test_bench_fingerprint.py`` (:func:`blas_kernels.moved_lines`), or
``no line moved``.  Pytest does not collect this file.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import run  # noqa: E402  (the harness's thread cap must precede numpy)

run.cap_blas_threads()
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def segment_lines(w: workloads.Workload):
    """One fingerprint line per training segment of workload ``w``."""
    for objective in w.objectives:
        train = dict(w.train) if objective is None else {**w.train, "objective": objective}
        raw = {"seed": SEED, "env": w.env, "model": w.model, "train": train}
        env, model, trainer = workloads._setup(raw, tracing.NullTracer())
        state = trainer.run()
        report = workloads._certificate(trainer, SEED)
        tv, terminals = workloads._evaluate(model, env, SEED, w.eval_samples)
        cert = None if report is None else {k: v for k, v in report.to_dict().items()
                                            if k != "wall_clock_s"}
        digest = hashlib.sha256(model.params.values.tobytes())
        digest.update(json.dumps([trainer.rows, cert, tv, terminals]).encode())
        yield f"{w.name} {objective or '-'} rounds {state.round} {digest.hexdigest()}"


def kernel_moves():
    """The pinned --tiny lines that moved under the default core or another kernel."""
    import blas_kernels
    from test_bench_fingerprint import MLP, TABULAR, tiny_lines

    here = blas_kernels.core()
    kernels = [k for k in blas_kernels.KERNEL_FLAGS
               if (here is None or k != here[0]) and blas_kernels.can_run(k)]
    runs = dict(tiny_lines(kernel) for kernel in [None, *kernels])
    pinned = {core: [TABULAR, *MLP.get(core, [])] for core in runs}
    return blas_kernels.moved_lines(pinned, runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="the smoke-test sizes")
    parser.add_argument("--kernels", action="store_true",
                        help="the --tiny lines under each OpenBLAS kernel, against the pinned ones")
    parser.add_argument("workload", nargs="*", help="workloads to run (default: all)")
    args = parser.parse_args(argv)
    if args.kernels:
        if args.tiny or args.workload:
            parser.error("--kernels runs the --tiny lines of every workload")
        print("\n".join(kernel_moves()) or "no line moved")
        return 0
    for name in args.workload:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    for name in args.workload or workloads.WORKLOADS:
        for line in segment_lines(workloads.get(name, args.tiny)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
