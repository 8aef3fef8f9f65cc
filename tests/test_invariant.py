"""Tests for the invariant checks that replace bare asserts."""

import ast
import os
import subprocess
import sys

import pytest

import weylmod
from weylmod.invariant import InvariantError, check

_PROBE = """
from weylmod.invariant import InvariantError, check
check(True, "never raised")
try:
    check(1 == 2, "broken at degree %d", 3)
except InvariantError as exc:
    print(exc)
"""


def test_check_raises_with_the_formatted_message():
    check(True, "never raised %d")
    with pytest.raises(InvariantError, match="^broken at degree 3$"):
        check(False, "broken at degree %d", 3)
    with pytest.raises(AssertionError, match="^plain 100%$"):
        check(0, "plain 100%")


@pytest.mark.parametrize("flags", [[], ["-O"], ["-OO"]])
def test_check_survives_optimisation(flags):
    src = os.path.dirname(os.path.dirname(weylmod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "broken at degree 3\n"


def test_package_has_no_assert_statement():
    # asserts vanish under python -O; invariants go through check()
    src = os.path.dirname(weylmod.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, node.lineno)
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
