"""Every name a `bhverify` module or a test module imports is referenced in
that module, and every top-level function, class, UPPER_CASE constant and
method of a top-level class is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

import bhverify

MODULES = sorted(Path(bhverify.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))

# definitions kept for the tests alone: the acceptance mutation checks build
# on perturb_identity, printed_variant reproduces the display errata,
# subs_param is the reference route for specializing a parameter (the tests
# substitute b and alpha with it, and the benchmark's tracer wraps it), and
# sample_jet draws one jet from its seed (the benchmark's tracer wraps it, and
# the tests replay failing jets with it), and radial's solve_ivp wrapper is
# called by no code at all: the benchmark's tracer wraps it by name, which is
# the only reason it stays (ROADMAP items 1 and 6)
UNREFERENCED_ALLOWED = ["coeffs.py:ParamScalar.subs_param", "jetoracle.py:sample_jet",
                        "radial.py:solve_ivp", "registry.py:perturb_identity",
                        "registry.py:printed_variant"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def _top_level_names(node) -> list[tuple[str, ast.AST]]:
    """(qualified name, defining node) for what a top-level statement
    defines: a function or class, the methods of a class other than dunder
    methods, or the UPPER_CASE names an assignment binds."""
    if isinstance(node, ast.ClassDef):
        return [(node.name, node)] + [
            (f"{node.name}.{m.name}", m) for m in node.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (m.name.startswith("__") and m.name.endswith("__"))]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(node.name, node)]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(name, node) for name in names if name.isupper()]


def _unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """'module:name' of every top-level function, class or UPPER_CASE
    constant, and 'module:Class.method' of every method of a top-level class
    other than a dunder, that no code in the sources names (as a bare name
    or an attribute) outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((module, node.lineno))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            for name, defn in _top_level_names(node):
                if not any(m != module or not defn.lineno <= line <= defn.end_lineno
                           for m, line in refs.get(name.rpartition(".")[2], [])):
                    out.append(f"{module}:{name}")
    return sorted(out)


def test_scan_flags_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, List\nx: List = 1\n") \
        == ["Any (line 2)", "os (line 1)"]


def test_scan_flags_an_unreferenced_definition():
    sources = {
        "a.py": "def f():\n    return f()\n\n\ndef g():\n    pass\n\n\n"
                "class C:\n    pass\n\n\nclass D:\n    pass\n\n\nh = g\n"
                "X, _ = Y = 1, 2\nZ: int = X\n",
        "b.py": "from . import a\n\n\ndef k():\n    return a.D()\n\n\nW = a.Z\n",
    }
    assert _unreferenced_definitions(sources) \
        == ["a.py:C", "a.py:Y", "a.py:f", "b.py:W", "b.py:k"]


def test_scan_flags_an_unreferenced_method():
    """Methods count by their attribute name; dunder methods are exempt, and
    a method that only calls itself is still unreferenced."""
    sources = {
        "a.py": "class C:\n    def __init__(self):\n        self.g()\n\n"
                "    def g(self):\n        pass\n\n"
                "    def h(self):\n        return self.h()\n\n"
                "    @property\n    def p(self):\n        return 1\n\n\n"
                "def f(c):\n    def inner():\n        pass\n    return c.p\n",
        "b.py": "from .a import C, f\n\n\nX = f(C())\n",
    }
    assert _unreferenced_definitions(sources) == ["a.py:C.h", "b.py:X"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def _names(source: str) -> set[str]:
    """Every name the source reads, binds or imports: bare names, attribute
    names and the imported names of an import (before any ``as``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_scan_names_imports_attributes_and_bare_names():
    assert _names("from .report import jsonable as j\n") == {"jsonable"}
    assert {"report", "jsonable", "x"} <= _names("y = report.jsonable(x)\n")


def test_only_the_report_module_names_jsonable():
    """``report.build_report`` is the one JSON boundary: no other package
    module names ``jsonable``, so the section runners hand it records."""
    assert [p.name for p in MODULES if "jsonable" in _names(p.read_text())] == ["report.py"]


def test_only_the_report_module_imports_json():
    """Records reach a report as data through ``build_report``: no other
    package module imports ``json``, so none serializes a record itself."""
    importers = []
    for p in MODULES:
        for node in ast.walk(ast.parse(p.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "json"):
                importers.append(p.name)
    assert importers == ["report.py"]


def test_no_class_serializes_itself():
    methods = [f"{p.name}:{node.name}" for p in MODULES
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(m, ast.FunctionDef) and m.name == "to_json"
                       for m in node.body)]
    assert methods == []


def test_every_definition_is_referenced_in_the_package():
    sources = {p.name: p.read_text() for p in MODULES}
    assert _unreferenced_definitions(sources) == UNREFERENCED_ALLOWED


# the constructions that map a collected expression's coefficients or keys
# one to one, so its keys stay canonical and distinct and its coefficients
# nonzero; every other expression is summed by TExpr.from_terms
TEXPR_BUILDERS = ["TExpr.__neg__", "TExpr.from_terms", "TExpr.scale", "upow"]


def _texpr_builders(source: str) -> list[str]:
    """Qualified names of the functions that build a ``TExpr`` from a terms
    argument: ``TExpr(valence, terms)``, or ``cls(...)`` in a method of
    ``TExpr``."""
    found = []

    def visit(node, scope, in_texpr):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id == "TExpr" or in_texpr and node.func.id == "cls") \
                and (len(node.args) > 1 or any(k.arg == "terms" for k in node.keywords)):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name],
                      in_texpr or isinstance(child, ast.ClassDef) and child.name == "TExpr")
            else:
                visit(child, scope, in_texpr)

    visit(ast.parse(source), [], False)
    return sorted(set(found))


def test_scan_finds_each_texpr_builder():
    source = ("class TExpr:\n    @classmethod\n    def f(cls, t):\n        return cls(0, t)\n\n"
              "    def g(self):\n        return TExpr(self.valence)\n\n\n"
              "def h(e):\n    return TExpr(e.valence, terms={})\n\n\n"
              "def k(cls):\n    return cls(0, {})\n")
    assert _texpr_builders(source) == ["TExpr.f", "h"]


def test_only_from_terms_sums_expression_coefficients():
    """``+``, ``expr`` and a replaced coefficient are collected by
    ``TExpr.from_terms``: no other package code hands TExpr a terms map."""
    found = sorted(name for p in MODULES for name in _texpr_builders(p.read_text()))
    assert found == TEXPR_BUILDERS
