"""Exact plane geometry primitives.

Coordinates are exact rationals: plain ``int`` or ``fractions.Fraction``.
Python's numeric tower keeps the two interchangeable (``Fraction(3, 1) == 3``
and they hash alike), so integer inputs stay on the fast integer path while
everything else runs in exact rational arithmetic.  No floating point is used
anywhere in this package: every verdict is a pure sign decision, and a single
rounding error near a collinear configuration could flip it.

``integer_scaled`` multiplies every x by one positive integer and every y by
another, so rational points become int points with the same orientation
signs: the oracles and the generator take their determinants on those.  The
linear deciders scale lazily, as they stream (see ``fast_test``), and do not
use it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]


class Point(NamedTuple):
    x: Scalar
    y: Scalar


_delta_evaluations = 0


def delta(a, b, c) -> Scalar:
    """Orientation determinant of the point triple (a, b, c).

    Equals the 3x3 determinant with rows (1, a.x, a.y), (1, b.x, b.y),
    (1, c.x, c.y), which is twice the signed area of the triangle: positive
    for a left turn, zero iff the points are collinear, negative for a right
    turn.  Computed via the translated 2x2 cross product, two multiplications
    instead of six.
    """
    global _delta_evaluations
    _delta_evaluations += 1
    ax, ay = a
    bx, by = b
    cx, cy = c
    return (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)


def delta_evaluations() -> int:
    """Monotone count of delta() calls since import.

    Instrumentation for work-bound assertions and benchmarks; read it before
    and after a call and take the difference.
    """
    return _delta_evaluations


def add_delta_evaluations(count: int) -> None:
    """Add ``count`` determinants evaluated inline, outside delta()."""
    global _delta_evaluations
    _delta_evaluations += count


def require_exact(vertices) -> set:
    """Raise TypeError unless every coordinate is an int or a Fraction.

    Subclasses of either pass, bool among them; any other type is refused.
    Returns the set of coordinate types.  ``integer_scaled``, and through it
    each oracle, calls this on its whole input; the linear deciders check
    coordinates as they read them, calling this on any that is neither an
    int nor a Fraction, and on the points left after a fail-fast stop.
    Floats would decide signs with rounded arithmetic, and so would Decimal,
    which rounds each product to its context precision; numpy integers wrap
    at 64 bits.  Convert such values exactly with int() or
    fractions.Fraction first.  The type scan runs in C.
    """
    kinds = set(map(type, itertools.chain.from_iterable(vertices)))
    for kind in kinds:
        if not issubclass(kind, (int, Fraction)):
            raise TypeError(f"coordinates must be exact rationals (int or "
                            f"Fraction), got {kind.__name__}")
    return kinds


def integer_scaled(points: Sequence[Point]) -> list:
    """The points with every x multiplied by Dx and every y by Dy, as ints.

    Dx is the lcm of the x denominators and Dy that of the y denominators.
    The map diag(Dx, Dy) has determinant Dx*Dy > 0: it multiplies every
    orientation determinant by Dx*Dy, so it keeps the sign of each, the ratio
    of any two, equality of points and lexicographic order.  Int products are
    far cheaper than Fraction ones, which reduce by a gcd at every operation.

    The guard of the linear deciders applies: when either lcm would have more
    than twice the bits of its axis's longest numerator and longest
    denominator (pairwise-coprime denominators, say), the ints would be
    longer than the fractions they replace, and the points come back
    unscaled.  It is all or nothing, since a mix of int and Fraction operands
    costs more than either.  Points whose coordinates are all ints come back
    as they are: the type scan of ``require_exact``, which checks the input,
    finds them.
    """
    if require_exact(points) <= {int}:
        return list(points)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    dx, dy = _common_denominator(xs), _common_denominator(ys)
    if dx is None or dy is None:
        return list(points)
    return [Point(x.numerator * (dx // x.denominator),
                  y.numerator * (dy // y.denominator))
            for x, y in zip(xs, ys)]


def _common_denominator(values: list):
    """The lcm of the denominators of ``values``, or None past the guard."""
    denominators = {v.denominator for v in values}
    bound = 2 * (max(v.numerator.bit_length() for v in values)
                 + max(d.bit_length() for d in denominators))
    common = 1
    for d in denominators:
        common = math.lcm(common, d)
        if common.bit_length() > bound:
            return None
    return common


def sign_of(value: Scalar) -> int:
    """Exact sign of a rational: -1, 0 or +1.  No tolerance exists or is needed."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0

