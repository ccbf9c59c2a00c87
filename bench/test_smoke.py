"""Smoke test: every workload at tiny size, untraced and traced.

Each run must exit 0, pass its output checks, and emit every metric that
BENCHMARK.json names, with its unit; the traced run must also report the
check that its exact counts repeat between traced units.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# output checks every workload must have run, beyond the per-round ones
COMMON_CHECKS = {"round.finite", "params.finite", "certificate.valid", "evaluate.valid",
                 "dp.sums_to_one", "balanced.tv_zero", "rounds.repeat"}


def _run(workload: str, trace: int, out: Path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((out / f"{workload}-seed0-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics(workload, tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, record = _run(workload, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared
        checks = set(record["checks"])
        assert COMMON_CHECKS <= checks
        if workload == "tree-tab-cert":
            assert {"cert.within_max_rounds", "cert.holds"} <= checks
        if trace:
            assert "trace.counts_repeat" in checks
            assert result["metrics"]["trace.spans"]["value"] > 0
        else:
            assert all(m["value"] > 0 for m in result["metrics"].values())

