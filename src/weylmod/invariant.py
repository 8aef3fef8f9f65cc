"""Checks of the mathematical invariants the computations rely on.

Unlike ``assert``, check() also runs under ``python -O``.  The command line
reports an InvariantError as a one-line error with exit code 1.
"""


class InvariantError(AssertionError):
    """A mathematical invariant failed: a defect, never a usage error."""


def check(cond, msg: str, *args) -> None:
    """Raise InvariantError(msg % args) unless cond holds."""
    if not cond:
        raise InvariantError(msg % args if args else msg)
