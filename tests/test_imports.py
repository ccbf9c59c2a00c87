"""No module under src/ or tests/ imports a name at module level that it never reads.

``__init__.py`` files are skipped: their imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")


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


def test_unused_import_scan_sees_every_binding_form():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "import numpy as np\nfrom math import pi, tau as turn\nfrom typing import List\n"
              "def f(x: List) -> float:\n    pi = 3\n    return np.sum(x)\n")
    assert unused_imports(source) == ["os", "os", "pi", "turn"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_read(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.relative_to(ROOT)} never reads {', '.join(unused)}"
