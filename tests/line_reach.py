"""The package statements that the product's own traffic never runs.

It runs that traffic under a line tracer limited to the package's frames:

* each workload of ``bench/workloads.py`` at its full size, one run as
  ``bench/run.py`` runs it (its units and the graph checks): the ``--tiny``
  sizes would miss what only large graphs run, such as a walk with fewer
  paths than choice states, which reads no policy table;
* ``stablegfn verify``, every suite (:func:`stablegfn.verify.run_suites`
  with no names);
* ``stablegfn train``, ``certify`` and ``evaluate`` on a small MLP hypergrid
  config, in a temporary directory.

Then it prints ``module:line: source`` for each statement of a package
function that no run reached, docstrings aside, or ``every statement ran``.
Module and class bodies run at import, so only function bodies are read.  A
statement that no traffic reaches is a candidate for deletion, or a branch
only error input takes.  Run it by hand; it takes about 25 s on one core::

    PYTHONPATH=src python tests/line_reach.py

Pytest does not collect this file; ``tests/test_line_reach.py`` checks the
tracer on one small call.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stablegfn"
# a small stabilized MLP run that certifies, evaluates and enumerates
CONFIG = {
    "seed": 0,
    "env": {"kind": "hypergrid", "dimension": 2, "side": 4},
    "model": {"kind": "mlp", "hidden": [16, 16]},
    "train": {"stabilize": True, "batch_size": 8, "patience": 3, "max_rounds": 12,
              "cert_m": 64, "cert_n": 64},
    "eval": {"samples": 64},
}


class Reach:
    """A context that records the (file, line) pairs run in the package's
    frames: ``sys.settrace`` returns a line tracer only for frames whose code
    lives under :data:`PACKAGE`.  The trace function in place before it is
    back on exit."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.lines = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __enter__(self):
        self._before = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._before)


def _inner_statements(node):
    """The statements inside ``node``, at any depth, but not inside a nested
    ``def`` or ``class``: those are statements of their own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from _inner_statements(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _inner_statements(child)


def _own_lines(stmt):
    """The lines that run ``stmt`` itself: all of a simple statement's, a
    compound statement's header from its first decorator to its body."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    inner = [c.lineno for c in ast.iter_child_nodes(stmt)
             if isinstance(c, (ast.stmt, ast.excepthandler, ast.match_case))]
    return range(first, max(min(inner), stmt.lineno + 1) if inner else stmt.end_lineno + 1)


def statements(path: Path):
    """(line, own lines) of every statement in the functions of the module
    at ``path``, docstrings aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for f in ast.walk(tree):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = f.body[0] if ast.get_docstring(f, clean=False) is not None else None
            out += [(s.lineno, _own_lines(s)) for s in _inner_statements(f) if s is not doc]
    return sorted(out)


def unreached(lines):
    """(module path, line, source) of each statement of a package module
    none of whose own lines is among ``lines``, (file, line) pairs."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = {line for file, line in lines if file == str(path)}
        out += [(path, line, source[line - 1].strip()) for line, own in statements(path)
                if ran.isdisjoint(own)]
    return out


def traffic(workdir: Path) -> None:
    """The bench's workloads, ``stablegfn verify``, and ``train``,
    ``certify`` and ``evaluate`` on :data:`CONFIG` under ``workdir``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run  # the harness's thread cap must precede numpy

    run.cap_blas_threads()
    import workloads

    from stablegfn import cli

    for name in workloads.WORKLOADS:
        workloads.run(workloads.get(name), 0, 0.0, False)
    config = workdir / "config.json"
    config.write_text(json.dumps(dict(CONFIG, output_dir=str(workdir / "run"))))
    common = ["--checkpoint", str(workdir / "run" / "checkpoint.json"), "--config", str(config)]
    for argv in (["verify"], ["train", str(config)],
                 ["certify", *common, "--output", str(workdir / "certificate.json")],
                 ["evaluate", *common, "--output", str(workdir / "eval.json")]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"stablegfn {argv[0]} exited {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir, Reach() as reach:
        traffic(Path(workdir))
    missed = unreached(reach.lines)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT / 'src')}:{line}: {text}")
    if not missed:
        print("every statement ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
