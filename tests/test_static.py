"""Static checks over the source: `src` holds only code that the program runs.

Code that only tests read (an oracle, a reference objective) belongs in
`tests`; `tests/reach.py` shows that every line of `src` runs under the
tests, and this check that every definition in `src` is named by `src` or
by the benchmark, not only by the tests.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "taskinfer").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "benchmarks").glob("*.py"))


def _definitions(tree: ast.Module):
    """Every function and class, and every public method, of a module: the
    (name, first line, last line) of each; dunders are left out."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if id(node) in methods and name.startswith("_"):
            continue
        yield name, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and string that could name a
    definition: a string counts when it is exactly the name, as the
    benchmark's tracer patches functions by their names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def unreferenced() -> list:
    """`path:line name` of each definition in `src` that nothing in `src` or
    `benchmarks` names outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    refs: dict = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    out = []
    for path in SOURCES:
        for name, first, last in _definitions(trees[path]):
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ())):
                out.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return out


def test_every_definition_in_src_is_read_outside_the_tests():
    assert unreferenced() == []


def test_the_check_sees_a_definition_only_its_own_body_names(tmp_path, monkeypatch):
    module = tmp_path / "m.py"
    module.write_text(
        "def used(n):\n    return recursive(n)\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Kept:\n    def public(self):\n        return self._private()\n\n"
        "    def _private(self):\n        return Kept\n\n"
        "    def __repr__(self):\n        return 'Kept'\n\n"
        "    def orphan(self):\n        return 0\n\n"
        "def lonely(n):\n    return lonely(n)\n\n"
        "print(used(1), getattr(Kept(), 'public'))\n", encoding="utf-8")
    here = sys.modules[__name__]
    for name, value in (("SOURCES", [module]), ("READERS", [module]), ("ROOT", tmp_path)):
        monkeypatch.setattr(here, name, value)
    assert unreferenced() == ["m.py:20 lonely", "m.py:17 orphan"]
