"""Which OpenBLAS kernel numpy runs, and a runner that picks another for one subprocess.

numpy's wheels bundle scipy-openblas.  Built with DYNAMIC_ARCH, it picks a
core (a kernel) for the CPU when it loads, and ``OPENBLAS_CORETYPE`` in a
process's environment picks another.  Kernels round matrix products in
their own ways, so a net's bits hold per kernel: tests that pin them key
them by :func:`core` and run the other kernels through :func:`run_python`.
Nothing here changes the machine; the variable is set for the child only.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

# the CPU flags (as /proc/cpuinfo names them) each kernel's instructions need
KERNEL_FLAGS = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
}


def core():
    """(core name, config string) of numpy's bundled OpenBLAS in this
    process, or None where numpy bundles none that reports them."""
    import numpy  # here, so that a caller may cap BLAS threads before numpy loads

    site = Path(numpy.__file__).resolve().parent
    for lib in sorted([*site.parent.glob("numpy.libs/*scipy_openblas*"),
                       *site.glob(".dylibs/*scipy_openblas*")]):
        dll = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            name, config = (getattr(dll, f"scipy_openblas_get_{what}{suffix}", None)
                            for what in ("corename", "config"))
            if name is not None and config is not None:
                for fn in (name, config):
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                return name().decode(), config().decode()
    return None


def cpu_flags() -> set:
    """This CPU's feature flags, empty where ``/proc/cpuinfo`` is not there."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


def can_run(kernel: str) -> bool:
    """Whether a subprocess can run ``kernel``: the library picks its kernel
    at load time (DYNAMIC_ARCH) and this CPU has the kernel's instructions."""
    here = core()
    return here is not None and " DYNAMIC_ARCH " in here[1] and KERNEL_FLAGS[kernel] <= cpu_flags()


def run_python(args, kernel=None, timeout=120) -> subprocess.CompletedProcess:
    """``python args`` in a subprocess, its stdout captured, under
    ``kernel`` when one is named (``OPENBLAS_CORETYPE``, for that child alone)."""
    env = None if kernel is None else {**os.environ, "OPENBLAS_CORETYPE": kernel}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, check=True, env=env)


def moved_lines(pinned, runs):
    """``<core> <workload> <objective>: <old> -> <new>`` for each fingerprint
    line that moved.  ``runs`` and ``pinned`` map a (core, config) pair to the
    lines a run printed under that core and to the lines pinned for it.  A line
    is ``<workload> <objective> rounds <n> <sha256>``, matched by workload and
    objective; a hash is ``-`` where one side has no such line."""
    moved = []
    for core, lines in runs.items():
        old, new = ({tuple(line.split()[:2]): line.split()[-1] for line in side}
                    for side in (pinned.get(core, []), lines))
        for key in dict.fromkeys([*new, *old]):
            if old.get(key) != new.get(key):
                moved.append(f"{core[0]} {' '.join(key)}: {old.get(key, '-')} -> "
                              f"{new.get(key, '-')}")
    return moved
