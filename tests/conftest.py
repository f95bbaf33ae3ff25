"""Helpers that more than one test module needs, imported by name."""

import contextlib
from fractions import Fraction
from unittest import mock


def sign(value) -> int:
    """The exact sign of a rational: -1, 0 or +1."""
    return (value > 0) - (value < 0)


@contextlib.contextmanager
def fraction_arithmetic():
    """Record each Fraction sum, difference or product made in the block:
    none once every coordinate the code works on is a scaled int."""
    calls = []
    with contextlib.ExitStack() as stack:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__"):
            def counting(a, b, op=getattr(Fraction, name), name=name):
                calls.append(name)
                return op(a, b)

            stack.enter_context(mock.patch.object(Fraction, name, counting))
        yield calls
