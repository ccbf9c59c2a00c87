"""``tests/bench_fingerprint.py`` prints the same lines on two runs, and the
pinned ``--tiny`` lines under every OpenBLAS kernel this host can run.

A change that moves a pinned line updates it here, in the same commit, and
says which line moved and why; ``bench_fingerprint.py --kernels`` prints the
lines that moved under each kernel.  The tabular line is the same under every
kernel; the MLP lines are pinned per OpenBLAS core and config string
(:mod:`blas_kernels`), since kernels round a net's products in their own ways.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import blas_kernels

SCRIPT = Path(__file__).resolve().parent / "bench_fingerprint.py"
# the seven --tiny lines, then the core that computed them as one JSON line;
# bench_fingerprint caps BLAS threads as it loads, so it loads before numpy
TINY = (f"import sys; sys.path.insert(0, {str(SCRIPT.parent)!r}); import bench_fingerprint, json; "
        "bench_fingerprint.main(['--tiny']); import blas_kernels; print(json.dumps(blas_kernels.core()))")

TABULAR = "tree-tab-cert - rounds 88 381646e67088babb6a5fdd6e81cce9179dd0736484fcb6682cc02e7e14a961a2"
_BUILD = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY {} MAX_THREADS=64"
# (core, config) -> the six MLP lines, in print order
MLP = {
    ("SkylakeX", _BUILD.format("SkylakeX")): [
        "grid-mlp-stable - rounds 12 01ee87dbe7ee75136a9719fcfd086b504d7772c858c4748feeb81f07aebad36c",
        "grid-mlp-flow db rounds 3 a53c4dd6c271afee7aaecb39d69c335468e9317626d4d3b505dfb6dd0fcc8f66",
        "grid-mlp-flow fm rounds 3 c396590cd1a5950917198ad9dc4cf339312e422a734ae22d0184347a5e210472",
        "grid-mlp-flow subtb rounds 3 8fcc5147ff3aaa0d2da7f204b3ebc7839e3211a5c62ba56542d965c35242d04d",
        "grid-mlp-flow wdb rounds 3 a694ccacb5e0b1def53920d03b000589d72ea653082f9029c376bed66cf4e224",
        "grid16-eval - rounds 12 88aaef8f73b94a06f3ff72ecae7ea2308e592345c7e8d2195efa5d468bc296ae",
    ],
    ("Haswell", _BUILD.format("Haswell")): [
        "grid-mlp-stable - rounds 12 1313dc0d3df2ef9e9128bedab264913c8e1845fabe48cdf6183e90361e2fed04",
        "grid-mlp-flow db rounds 3 a53c4dd6c271afee7aaecb39d69c335468e9317626d4d3b505dfb6dd0fcc8f66",
        "grid-mlp-flow fm rounds 3 c396590cd1a5950917198ad9dc4cf339312e422a734ae22d0184347a5e210472",
        "grid-mlp-flow subtb rounds 3 8527fcf8ba898560f9f4a4c69d7a29c76eab7f4585f98961b02ce4764081ce5b",
        "grid-mlp-flow wdb rounds 3 21ba1406e3f27db584a74b7ca882a65f631b6d966d296c1e7d0547ba14961e3f",
        "grid16-eval - rounds 12 319a4279a37eb4049d73f24155126c89eba85c9ac12854dc11cb22fb51e56786",
    ],
    ("Sandybridge", _BUILD.format("Sandybridge")): [
        "grid-mlp-stable - rounds 12 2f2196f44262d5168a2347e99716d1fd48c3838d667684c1fd29e019b399fcb6",
        "grid-mlp-flow db rounds 3 ccf46dacfd1cb2bfb6ff239545ec92efd141a8e713ef0a5418d314ebe02154d0",
        "grid-mlp-flow fm rounds 3 b51919bffa484c247afb984063946ab89b7d6b86a51594857ef447a6c3772985",
        "grid-mlp-flow subtb rounds 3 286d8a36ee3f66d87572abae47b71d6366d691a3556e2a2e9dc0a8765da27f57",
        "grid-mlp-flow wdb rounds 3 81dc9fec926d6c2751fc1adb62d21d6db3d0ea743878dfaa4959d546aab0f7cf",
        "grid16-eval - rounds 12 88b515a728c122ab99a734b7cc7f03a9fd0e60cd4b1eff2ec0577229869afe29",
    ],
}


def test_fingerprint_repeats_on_a_tiny_workload():
    runs = [subprocess.run([sys.executable, str(SCRIPT), "--tiny", "grid-mlp-flow"],
                           capture_output=True, text=True, timeout=120, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    # one line per objective: workload, objective, rounds, a sha256
    lines = [line.split() for line in runs[0].splitlines()]
    assert [line[:3] for line in lines] == [["grid-mlp-flow", o, "rounds"]
                                           for o in ("db", "fm", "subtb", "wdb")]
    assert all(len(line) == 5 and len(line[4]) == 64 for line in lines)


def tiny_lines(kernel=None):
    """((core, config), the --tiny lines) of one subprocess, under ``kernel`` if named."""
    *lines, ran = blas_kernels.run_python(["-c", TINY], kernel).stdout.splitlines()
    return tuple(json.loads(ran) or ("no core", "")), lines


def _check_tiny_lines(kernel=None):
    """Run the --tiny fingerprints (under ``kernel``, if named) and check the
    tabular line, then the MLP lines pinned for the core that ran them."""
    core, lines = tiny_lines(kernel)
    if kernel is not None:
        assert core[0] == kernel
    assert [line for line in lines if line.startswith("tree-tab-cert ")] == [TABULAR]
    if core not in MLP:
        pytest.skip(f"no MLP lines pinned for OpenBLAS core {core[0]} ({core[1]})")
    assert [line for line in lines if not line.startswith("tree-tab-cert ")] == MLP[core]


def test_tiny_fingerprints_are_the_pinned_lines():
    _check_tiny_lines()


@pytest.mark.parametrize("kernel", sorted({name for name, _ in MLP}))
def test_tiny_fingerprints_are_the_pinned_lines_under_each_kernel(kernel):
    here = blas_kernels.core()
    if here is not None and here[0] == kernel:
        pytest.skip(f"{kernel} is this process's core, which the run without a kernel checks")
    if not blas_kernels.can_run(kernel):
        pytest.skip(f"this library or CPU cannot run the {kernel} kernel")
    _check_tiny_lines(kernel)


def test_moved_lines_name_each_moved_line_by_core():
    a, b = "a" * 64, "b" * 64
    x, y = ("X", "X config"), ("Y", "Y config")
    pinned = {x: [f"w - rounds 3 {a}", f"v db rounds 3 {a}"], y: [f"w - rounds 3 {a}"]}
    assert blas_kernels.moved_lines(pinned, {x: pinned[x], y: pinned[y]}) == []
    runs = {x: [f"w - rounds 3 {a}", f"v db rounds 4 {b}"],
            y: [f"w - rounds 3 {b}", f"v fm rounds 3 {a}"],
            ("Z", "Z config"): [f"w - rounds 3 {a}"]}
    assert blas_kernels.moved_lines(pinned, runs) == [
        f"X v db: {a} -> {b}", f"Y w -: {a} -> {b}", f"Y v fm: - -> {a}", f"Z w -: - -> {a}"]
    assert blas_kernels.moved_lines(pinned, {x: [f"w - rounds 3 {a}"]}) == [f"X v db: {a} -> -"]
