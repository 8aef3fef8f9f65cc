"""No dead imports in the package: every name a module of src/weylmod
imports is used in that module or listed in its __all__.  And no import
outside the standard library: the runtime has no dependencies.

A name whose import line carries "# noqa: F401" is exempt; the one such
name is explicit_module's nullspace, bound there so that tools which wrap
functions per module can find it.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weylmod"
MODULES = sorted(SRC.glob("*.py"))
EXEMPT = {("explicit_module", "nullspace")}


def _imports(tree):
    """(bound name, line) for every name the module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _noqa(path):
    """(module, name) of each import line marked # noqa: F401."""
    source = path.read_text()
    lines = source.splitlines()
    return {(path.stem, name) for name, line in _imports(ast.parse(source))
            if "# noqa: F401" in lines[line - 1]}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = used | _exported(tree) | {name for _, name in _noqa(path)}
    dead = sorted({name for name, _ in _imports(tree)} - keep)
    assert not dead, "%s imports %s but never uses them" % (path.name, dead)


def test_only_the_wrapped_rebinding_is_exempt():
    assert set().union(*map(_noqa, MODULES)) == EXEMPT


def _absolute_imports(tree):
    """Top-level package of every absolute import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_absolute_import_is_in_the_standard_library(path):
    # sys.stdlib_module_names exists from Python 3.10, the supported floor
    outside = sorted(set(_absolute_imports(ast.parse(path.read_text())))
                     - sys.stdlib_module_names)
    assert not outside, "%s imports %s from outside the standard library" % (
        path.name, outside)
