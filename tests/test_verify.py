import pytest

from stablegfn import verify


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_theorem_suite_passes(name):
    result = verify.SUITES[name]()
    assert result.passed, result.line()
