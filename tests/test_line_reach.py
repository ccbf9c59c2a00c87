"""``tests/line_reach.py`` sees the package lines a call runs and the ones it does not."""

import inspect

import line_reach
from stablegfn import envs


def _line_of(function, text):
    """The file line of ``function``'s first source line holding ``text``."""
    lines, start = inspect.getsourcelines(function)
    return start + next(i for i, line in enumerate(lines) if text in line)


def test_the_tracer_sees_a_reached_and_an_unreached_statement():
    with line_reach.Reach() as reach:
        envs.check_state_cap(5)  # under the cap: the test runs, the raise does not
    test = _line_of(envs.check_state_cap, "if num_states > STATE_CAP")
    raise_ = _line_of(envs.check_state_cap, "raise EnumerationCapError")
    assert (envs.__file__, test) in reach.lines and (envs.__file__, raise_) not in reach.lines
    missed = {line for path, line, _ in line_reach.unreached(reach.lines) if path.name == "envs.py"}
    assert test not in missed and raise_ in missed
    # the docstring is no statement, and other functions' lines are all unreached
    assert _line_of(envs.check_state_cap, '"""') not in missed
    assert _line_of(envs.sorted_unique, "x = np.sort(x)") in missed
