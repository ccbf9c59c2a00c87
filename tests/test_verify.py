import re

import pytest

from stablegfn import verify

# Each suite's ``stablegfn verify`` line without its timing, under the name the
# line prints: a change that moves any number a suite reports fails here.
LINES = {
    "reference_flow_cap": "[PASS] reference_flow_cap: 10000 randomized draws, 0 violations",
    "one_more_mode_losses": "[PASS] one_more_mode_losses: promoted-leaf losses equal "
                            "(ln 0.001)^2 = 47.7171; 0 violations",
    "closed_form_tv": "[PASS] closed_form_tv: 24 (branching, depth, epsilon) cells, 0 mismatches",
    "loss_to_tv_soundness": "[PASS] loss_to_tv_soundness: 200 random tabular policies, "
                            "0 violations",
    "pac_coverage": "[PASS] pac_coverage: 0/1000 coverage violations (allowed 122), "
                    "185 non-vacuous bounds; 0 structural failures",
    "incremental_sandwich": "[PASS] incremental_sandwich: 100 randomized reward increments, "
                            "largest tb/db/fm/subtb term each against the supremum, 0 failures",
    "mc_estimator": "[PASS] mc_estimator: exact flow ratio 1.012062, estimate 1.007663 "
                    "(se 0.012), relative error 0.0043",
    "gradients": "[PASS] gradients: 10 instances, worst relative error 1.70e-05",
    "optimizer_grid": "[PASS] optimizer_grid: 20 record sets vs 200-point scans, 0 regressions",
}


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_theorem_suite_passes(name):
    result = verify.run_suite(name)
    assert result.passed, result.line()
    assert re.sub(r" \(\d+\.\d\ds\)$", "", result.line()) == LINES[name]


def test_each_suite_is_keyed_by_the_name_it_prints():
    assert list(verify.SUITES) == list(LINES)
