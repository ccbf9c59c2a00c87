"""``tests/bench_fingerprint.py`` prints the same lines on two runs."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_fingerprint.py"


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
