"""Static scans of the source tree.

* No module under src/ or tests/ imports a name at module level that it never
  reads.  ``__init__.py`` files are skipped: their imports are the package's
  re-exports.
* Every module-level definition of the package (a ``def``, a ``class`` or an
  assigned name, tuple targets included) is read somewhere in src/, tests/ or
  bench/ outside its own definition.  A read is a loaded name or an attribute
  of that name.  Dunder names and ``__init__.py`` are skipped.
* So is every method of a package class (properties, class and static
  methods included), outside its own body: a read of an attribute of that
  name anywhere counts, since a scan cannot tell which class an object has.
* The product itself, src/ and bench/ without tests/, reads every public
  module-level ``def`` and ``class`` of the package, and every attribute a
  package class assigns, dataclasses aside: a class-level name or a
  ``self.name`` target.  An attribute counts as read only where an
  attribute of that name is loaded, outside the statement assigning it; a
  loaded plain name (a parameter, say) does not count.
* Only ``stablegfn.output`` writes files: no other package module calls
  ``json.dump`` or opens a file with a mode that holds w, a, x or +.
* Every ``:func:``, ``:data:``, ``:class:``, ``:meth:``, ``:attr:`` or
  ``:mod:`` role in a package docstring names a package module or something
  one defines.
* Every parameter with a default, of a package function or method, is passed
  by some call in src/ or bench/: by keyword, or by position to a call of
  that name (past ``self`` or ``cls`` for a method).  A call of a class, or
  ``cls(...)`` inside it, passes to its ``__init__``; a starred argument
  passes every later positional parameter, and ``**`` every parameter.  A
  scan cannot tell which function of a name a call reaches, so any of that
  name counts.  ``NEVER_PASSED`` lists the one exception.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = sorted(p for p in (ROOT / "src" / "stablegfn").glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
# (function, parameter) pairs whose default no call in src/ or bench/ passes:
# the command line's arguments, which only the console script's caller gives.
NEVER_PASSED = {("main", "argv")}


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


def unread(defined, read):
    """The names of ``defined``, (name, defining node) pairs, that no node in
    ``read`` reads outside their defining node; dunder names are skipped."""
    dead = []
    for name, node in defined:
        own = {id(n) for n in ast.walk(node)}
        if not (name.startswith("__") and name.endswith("__")) and all(
                id(r) in own for r in read.get(name, ())):
            dead.append(name)
    return dead


def definitions(body):
    """(name, defining node) of every ``def``, ``class`` and assigned name,
    tuple targets included, among the statements ``body``."""
    defined = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return defined


def dead_definitions(tree, read):
    """Module-level names ``tree`` defines that no node in ``read`` reads
    outside the statement defining them; dunder names are skipped."""
    return unread(definitions(tree.body), read)


def dead_methods(tree, read):
    """Methods of ``tree``'s module-level classes that no node in ``read``
    reads outside their own body; dunder methods are skipped."""
    return unread([(m.name, m) for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body
                   if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))], read)


def loads(trees):
    """(name -> loading nodes, attribute name -> loading nodes) over ``trees``:
    loaded names and attributes, then loaded attributes alone."""
    everything, attributes = collections.defaultdict(list), collections.defaultdict(list)
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                everything[n.id].append(n)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                everything[n.attr].append(n)
                attributes[n.attr].append(n)
    return everything, attributes


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def assigned_attributes(tree):
    """(name, assigning statement) of every attribute that a module-level
    class of ``tree``, dataclasses aside, assigns: its class-level names and
    its ``self.name`` targets, tuple targets included."""
    out = []
    for c in tree.body:
        if not isinstance(c, ast.ClassDef) or "dataclass" in map(_decorator_name, c.decorator_list):
            continue
        out += [(name, node) for name, node in definitions(c.body)
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(c):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [(n.attr, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return out


def unread_by(tree, read):
    """Public module-level ``def``/``class`` names and class attributes of
    ``tree`` that ``read``, a :func:`loads` pair, does not read."""
    everything, attributes = read
    public = [(name, node) for name, node in definitions(tree.body) if not name.startswith("_")
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return unread(public, everything) + unread(assigned_attributes(tree), attributes)


def file_writes(tree):
    """Line numbers of the calls in ``tree`` that write a file: ``json.dump``,
    or an ``open`` whose mode holds w, a, x or +, or is not a literal.  The
    mode is the ``mode`` keyword, else the second argument of ``open``,
    ``io.open`` or ``os.fdopen`` and the first of another ``.open`` (a path's)."""
    lines = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        on = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) else None
        if name == "dump" and on == "json":
            lines.append(n.lineno)
        elif name in ("open", "fdopen"):
            at = 1 if isinstance(f, ast.Name) or on in ("io", "os") else 0
            mode = next((k.value for k in n.keywords if k.arg == "mode"),
                        n.args[at] if len(n.args) > at else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not set("wax+") & set(str(mode.value))):
                lines.append(n.lineno)
    return lines


ROLE = re.compile(r":(func|data|class|meth|attr|mod):`~?([^`]*?)(?:\(\))?`")


def defined_names(tree):
    """What a module defines: its module-level names, and ``Class.name`` for
    every method, class-level name and ``self.name`` attribute of its classes."""
    names = {name for name, _ in definitions(tree.body)}
    for c in tree.body:
        if isinstance(c, ast.ClassDef):
            names |= {f"{c.name}.{name}" for name, _ in definitions(c.body)}
            names |= {f"{c.name}.{n.attr}" for n in ast.walk(c) if isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                      and n.value.id == "self"}
    return names


def unresolved_roles(trees):
    """(module, role target) of every docstring role in ``trees``, dotted
    module name -> tree, that names nothing they define.  A target resolves
    as a module, as a name qualified by its module (``stablegfn.losses.f``)
    or by the module's last part (``losses.f``), as a name of the module
    holding the docstring (``f``, ``C.m``), or as a member of one of its
    classes (``m``)."""
    defined = {module: defined_names(tree) for module, tree in trees.items()}

    def resolves(target, module):
        if target in defined:
            return True
        for other, names in defined.items():
            for prefix in (other, other.rsplit(".", 1)[-1]):
                if target.startswith(prefix + ".") and target[len(prefix) + 1:] in names:
                    return True
        own = defined[module]
        return target in own or any(name.endswith("." + target) for name in own)

    return [(module, target) for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            for _, target in ROLE.findall(ast.get_docstring(node, clean=False) or "")
            if not resolves(target, module)]


def passed_arguments(trees):
    """Called name -> what calls of it pass: keyword names, positional
    indices, ``("*", i)`` for a starred argument at position i and ``"**"``.
    A call ``cls(...)`` inside a class counts as a call of that class."""
    out = collections.defaultdict(set)
    for tree in trees:
        owner = {id(n): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for n in ast.walk(c)}  # the innermost class wins: ast.walk goes outside in
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "cls":
                name = owner.get(id(n), name)
            for i, a in enumerate(n.args):
                out[name].add(("*", i) if isinstance(a, ast.Starred) else i)
            out[name].update("**" if k.arg is None else k.arg for k in n.keywords)
    return out


def defaulted_parameters(tree):
    """(called name, parameter, position or None) of every parameter with a
    default of the module's functions and its classes' methods, at any depth.
    A method's positions skip ``self``/``cls``, and an ``__init__`` is called
    by its class's name; a keyword-only parameter has no position."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for f in scope.body:
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(scope, ast.ClassDef) and "staticmethod" not in map(
                _decorator_name, f.decorator_list)
            name = scope.name if method and f.name == "__init__" else f.name
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            out += [(name, positional[i].arg, i - method) for i in range(first, len(positional))]
            out += [(name, a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                    if d is not None]
    return out


def never_passed(tree, passed):
    """(called name, parameter) of the defaulted parameters of ``tree`` that no
    call in ``passed``, a :func:`passed_arguments` table, passes."""
    def given(got, arg, at):
        return arg in got or "**" in got or at is not None and (
            at in got or any(g[1] <= at for g in got if isinstance(g, tuple)))
    return [(name, arg) for name, arg, at in defaulted_parameters(tree)
            if not given(passed.get(name, ()), arg, at)]


def test_parameter_scan_sees_every_call_form():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "def g(x=0, y=0):\n    pass\n"
              "class A:\n    def __init__(self, p=1, q=2):\n        pass\n"
              "    @classmethod\n    def make(cls, r=0):\n        return cls(5)\n"
              "    def m(self, s=0, t=0):\n        def inner(u=0):\n            pass\n"
              "    @staticmethod\n    def st(v=0, w=0):\n        pass\n"
              "f(0, 1, d=2)\ng(*xs)\nA.make()\nobj.m(s=1)\nobj.m(**kw)\nA.st(1)\n")
    tree = ast.parse(source)
    # c and e nowhere; g's star passes x and y; cls(5) passes p, not q; no call
    # passes r; obj.m(**kw) passes s and t; inner is never called; st(1) passes v
    assert never_passed(tree, passed_arguments([tree])) == [
        ("f", "c"), ("f", "e"), ("A", "q"), ("make", "r"), ("st", "w"), ("inner", "u")]
    other = ast.parse("f(0, c=1, e=2)\nA(q=1)\nA.make(r=1)\ninner(0)\nA.st(0, 1)\n")
    assert never_passed(tree, passed_arguments([tree, other])) == []


def test_every_defaulted_parameter_is_passed(parsed):
    trees, _ = parsed
    passed = passed_arguments(t for p, t in trees.items() if p.relative_to(ROOT).parts[0] != "tests")
    found = [(path.name, name, arg) for path in PACKAGE
             for name, arg in never_passed(trees[path], passed)]
    bad = [f"{module}: {name}({arg}=...)" for module, name, arg in found
           if (name, arg) not in NEVER_PASSED]
    assert not bad, ("parameters whose default no call in src/ or bench/ passes, so a "
                     "constant: " + ", ".join(bad))
    assert NEVER_PASSED <= {(name, arg) for _, name, arg in found}  # each still exempts


def test_role_scan_sees_every_target_form():
    a = ast.parse('''"""Roles :func:`f`, :data:`X`, :class:`C`, :meth:`C.m`, :meth:`m`,
    :attr:`C.y`, :mod:`pkg.b`, :func:`~pkg.b.g`, :func:`b.g()`, :func:`gone`,
    :meth:`C.gone`, :mod:`pkg.c` and :data:`b.X`."""
X = 1
def f():
    pass
class C:
    def m(self):
        """:attr:`y` is set here, :func:`nowhere` is not."""
        self.y = 1
''')
    b = ast.parse("def g():\n    pass\n")
    # b.X: X is a's, not b's; nowhere is defined nowhere
    assert unresolved_roles({"pkg.a": a, "pkg.b": b}) == [
        ("pkg.a", "gone"), ("pkg.a", "C.gone"), ("pkg.a", "pkg.c"), ("pkg.a", "b.X"),
        ("pkg.a", "nowhere")]


def test_every_docstring_role_names_a_package_definition(parsed):
    trees, _ = parsed
    bad = unresolved_roles({f"stablegfn.{p.stem}": trees[p] for p in PACKAGE})
    assert not bad, "docstring roles name nothing the package defines: " + ", ".join(
        f"{module}: {target}" for module, target in bad)


def test_file_write_scan_sees_every_write_form():
    source = ("import io, json, os\n"
              "open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\nPath(p).open()\n"
              "json.dumps(d)\nio.open(p, mode='r')\n"
              "open(p, 'w')\nopen(p, mode='ab')\nio.open(p, 'r+')\nos.fdopen(fd, 'x')\n"
              "Path(p).open('w')\nopen(p, m)\njson.dump(d, fh)\n"
              "def f(path):\n    with open(path, 'a', newline='') as fh:\n        pass\n")
    # lines 2-7 read or only encode; every line from 8 writes
    assert file_writes(ast.parse(source)) == [8, 9, 10, 11, 12, 13, 14, 16]


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


def test_product_read_scan_sees_every_form():
    source = ("import dataclasses\n"
              "def f():\n    return 1\n"
              "def _g():\n    pass\n"
              "class A:\n    k = 1\n    def __init__(self, x, y):\n"
              "        self.x, (self.y, self.z) = x, (y, y)\n"
              "        self.w = self.z + 1\n        self.v += 1\n"
              "@dataclasses.dataclass(frozen=True)\nclass D:\n    n: int = 0\n"
              "    def g(self):\n        self.m = 1\n")
    tree = ast.parse(source)
    # _g is private and D a dataclass; x and y are loaded only as plain names,
    # v is only assigned, z is read where w is assigned
    assert unread_by(tree, loads([tree])) == ["f", "A", "D", "k", "x", "y", "w", "v"]
    other = ast.parse("f()\nA.k\na.x.y\nD()\nb.w\nc.v\n")
    assert unread_by(tree, loads([tree, other])) == []


def test_dead_method_scan_sees_every_method_form():
    source = ("class A:\n    def __init__(self):\n        self.x = self.f()\n"
              "    def f(self):\n        return self.f\n"
              "    @property\n    def p(self):\n        return 1\n"
              "    @classmethod\n    def c(cls):\n        return cls.s()\n"
              "    @staticmethod\n    def s():\n        return A\n"
              "    def g(self):\n        return self.g()\n"
              "    async def h(self):\n        pass\n"
              "def q():\n    def inner():\n        pass\n    return inner\n")
    tree = ast.parse(source)
    # f is read in __init__; s in c; g only in its own body; p, c and h nowhere;
    # q's nested def is not a method
    assert dead_methods(tree, reads([tree])) == ["p", "c", "g", "h"]
    other = ast.parse("A().p\nA.c()\na.g()\na.h\n")
    assert dead_methods(tree, reads([tree, other])) == []


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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_method_is_read(parsed, path):
    trees, read = parsed
    dead = dead_methods(trees[path], read)
    assert not dead, f"{path.relative_to(ROOT)} defines methods {', '.join(dead)}, which nothing reads"


@pytest.fixture(scope="module")
def product_loads(parsed):
    """:func:`loads` over src/ and bench/: the product without its tests."""
    trees, _ = parsed
    return loads(t for p, t in trees.items() if p.relative_to(ROOT).parts[0] != "tests")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_product_reads_every_public_name_and_attribute(parsed, product_loads, path):
    trees, _ = parsed
    dead = unread_by(trees[path], product_loads)
    assert not dead, (f"{path.relative_to(ROOT)} defines {', '.join(dead)}, which nothing "
                      "in src/ or bench/ reads")


def test_only_the_output_module_writes_files(parsed):
    trees, _ = parsed
    writer = ROOT / "src" / "stablegfn" / "output.py"
    assert file_writes(trees[writer])  # the scan sees the writer's own writes
    for path in PACKAGE:
        writes = file_writes(trees[path]) if path != writer else []
        assert not writes, (f"{path.relative_to(ROOT)} writes a file at line(s) {writes}: "
                            "write through stablegfn.output")
