"""Static scans of the source tree.

* No module under src/ or tests/ imports a name at module level that it never
  reads.  ``__init__.py`` files are skipped: their imports are the package's
  re-exports.
* Every module-level definition of the package (a ``def``, a ``class`` or an
  assigned name, tuple targets included) is read somewhere in src/, tests/ or
  bench/ outside its own definition.  A read is a loaded name or an attribute
  of that name.  Dunder names and ``__init__.py`` are skipped.
"""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = sorted(p for p in (ROOT / "src" / "stablegfn").glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str):
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def reads(trees):
    """Name -> the nodes of ``trees`` that read it: loaded names and attributes."""
    out = collections.defaultdict(list)
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out[n.id].append(n)
            elif isinstance(n, ast.Attribute):
                out[n.attr].append(n)
    return out


def dead_definitions(tree, read):
    """Module-level names ``tree`` defines that no node in ``read`` reads
    outside the statement defining them; dunder names are skipped."""
    dead = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        own = {id(n) for n in ast.walk(node)}
        dead += [name for name in names if not (name.startswith("__") and name.endswith("__"))
                 and all(id(r) in own for r in read.get(name, ()))]
    return dead


def test_unused_import_scan_sees_every_binding_form():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "import numpy as np\nfrom math import pi, tau as turn\nfrom typing import List\n"
              "def f(x: List) -> float:\n    pi = 3\n    return np.sum(x)\n")
    assert unused_imports(source) == ["os", "os", "pi", "turn"]


def test_dead_definition_scan_sees_every_definition_form():
    source = ("__all__ = ['f']\nA, (B, C) = 1, (2, 3)\nD: int = 4\nE = 5\n"
              "def f(n):\n    return f(n - 1) + A\n"
              "class G:\n    H = 1\n    def g(self):\n        return G.H\n"
              "def h():\n    return ns.C, E\n")
    tree = ast.parse(source)
    # f and G read only themselves; h is read nowhere; B and D nowhere either
    assert dead_definitions(tree, reads([tree])) == ["B", "D", "f", "G", "h"]
    other = ast.parse("f(1)\nx = G()\nh.cache = D + B\n")
    assert dead_definitions(tree, reads([tree, other])) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_read(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.relative_to(ROOT)} never reads {', '.join(unused)}"


@pytest.fixture(scope="module")
def parsed():
    """(path -> tree, name -> reading nodes) over src/, tests/ and bench/."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in READERS}
    return trees, reads(trees.values())


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_definition_is_read(parsed, path):
    trees, read = parsed
    dead = dead_definitions(trees[path], read)
    assert not dead, f"{path.relative_to(ROOT)} defines {', '.join(dead)}, which nothing reads"
