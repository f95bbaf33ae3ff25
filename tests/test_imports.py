"""No module of the package, its tests or perfbench/ imports a name it
never uses, the package exports only names it has, and no private
module-level function or constant of the package is left without a reader.

There is no linter in the toolchain, so this stands in for its unused-import
rule: a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere else in the module, or be listed in its ``__all__``.  An
``__all__`` entry left behind after its import is deleted passes that rule,
so the export check resolves every entry.
"""

import ast
from pathlib import Path

import pytest

import polyconvex

PACKAGE = sorted(Path(polyconvex.__file__).parent.glob("*.py"))
TESTS = Path(__file__).parent
SOURCES = (PACKAGE + sorted(TESTS.glob("*.py"))
           + sorted((TESTS.parent / "perfbench").glob("*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys\nfrom .errors import A, B as C\n"
              "__all__ = ['A']\nprint(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "C")]


def test_every_exported_name_resolves_once():
    exported = polyconvex.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(polyconvex, name)] == []
    namespace = {}
    exec("from polyconvex import *", namespace)
    assert set(exported) <= set(namespace)


def _private_names_bound_by(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        names = {node.id for node in ast.walk(stmt)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store)}
    else:
        return set()
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def dead_private_names(sources) -> list:
    """Private module-level functions and constants that no code of the
    sources reads outside the statement that defines them."""
    defined = set()
    used = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = _private_names_bound_by(stmt)
            defined |= own
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    used.add(name)
    return sorted(defined - used)


def test_no_dead_private_names_in_the_package():
    assert dead_private_names(p.read_text(encoding="utf-8")
                              for p in PACKAGE) == []


def test_the_check_sees_a_dead_private_name():
    source = ("_LIMIT = 3\n_SPARE = 4\n"
              "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
              "def _used():\n    pass\n"
              "def public():\n    return _used()\n")
    assert dead_private_names([source]) == ["_SPARE", "_walk"]
