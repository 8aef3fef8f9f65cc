"""Tests for the invariant checks that replace bare asserts."""

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
