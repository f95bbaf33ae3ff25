"""Exact plane geometry primitives.

Coordinates are exact rationals: plain ``int`` or ``fractions.Fraction``.
Python's numeric tower keeps the two interchangeable (``Fraction(3, 1) == 3``
and they hash alike), so integer inputs stay on the fast integer path while
everything else runs in exact rational arithmetic.  No floating point is used
anywhere in this package: every verdict is a pure sign decision, and a single
rounding error near a collinear configuration could flip it.

``_Scale`` holds the one rule, and its guard, by which every decider in the
package, and the generator, turns a rational axis into ints:
``integer_scaled`` applies it to a whole point list at once for the oracles
and the collinearity predicates; ``fast_test`` applies it as it streams,
and the generator as it grows a polygon one vertex at a time.
``_any_collinear`` is the one sweep that asks only whether a determinant
is 0, by its residue first: ``is_strict``'s triple check, which the hull
oracle runs, ``is_quasi_strict``'s edge check and the generator's test of
each candidate vertex.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

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
    each oracle and collinearity predicate, calls this on its whole input,
    as do the hull helpers; the linear deciders check coordinates as they
    read them, calling this on any that is neither an int nor a Fraction,
    and on the points left after a fail-fast stop.
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


class _Scale:
    """The running common denominator d of one axis: the one rule by which
    every decider turns rational coordinates into ints.

    Multiplying every x by one integer d > 0 and every y by another
    multiplies each orientation determinant by their product, so it keeps
    every sign and verdict, the ratio of any two determinants, equality of
    points and lexicographic order; and int products are far cheaper than
    Fraction ones, which reduce by a gcd at every operation.  d starts at 1
    and grows by denominator / gcd(d, denominator) whenever a denominator
    does not divide it.  The guard refuses a growing d with more than twice
    the bits of the longest denominator and numerator that made it grow
    (pairwise-coprime denominators, say), since the scaled values would be
    longer than the fractions they replace; the axis passes unscaled from
    then on.
    """

    __slots__ = ("d", "bound")

    def __init__(self):
        self.d = 1
        # Twice the bits of the longest denominator and numerator that made d
        # grow; None once the guard has refused.
        self.bound = 0

    def scale(self, value):
        """(value * d, g): the values scaled before must be multiplied by g
        to stay in step with d, which is 1 unless d grew or was refused."""
        if type(value) is int:
            return value * self.d, 1
        if type(value) is not Fraction:
            require_exact(((value,),))
        if self.bound is None:
            return value, 1
        numerator, denominator = value.as_integer_ratio()
        d = self.d
        if d % denominator:
            g = denominator // math.gcd(d, denominator)
            self.bound = max(self.bound, 2 * (numerator.bit_length()
                                              + denominator.bit_length()))
            if (d * g).bit_length() > self.bound:
                return value, self.refuse()
            self.d = d = d * g
        else:
            g = 1
        return numerator * (d // denominator), g

    def refuse(self) -> Fraction:
        """Stop scaling: d would make the numbers longer than the fractions
        they replace.  Returns 1/d, which turns the values scaled before
        back into the unscaled, exact ones."""
        factor = Fraction(1, self.d)
        self.d, self.bound = 1, None
        return factor


def integer_scaled(points: Iterable[Point]) -> list:
    """The points as (x, y) pairs, each axis scaled to ints by a ``_Scale``,
    or left unscaled where its guard refuses.  The input is read once, into
    a list, so any iterable will do.  Points whose coordinates are all ints
    come back as they are: the type scan of ``require_exact``, which checks
    the input, finds them."""
    points = list(points)
    if require_exact(points) <= {int}:
        return points
    return _scale_all(points, _Scale(), _Scale())


def _scale_all(points, sx: _Scale, sy: _Scale) -> list:
    """Let sx grow over every x and sy over every y, then scale each point
    by both, now settled."""
    for x, y in points:
        sx.scale(x)
        sy.scale(y)
    return [(sx.scale(x)[0], sy.scale(y)[0]) for x, y in points]


# A Mersenne prime, 2^61 - 1: an int's residue modulo it has at most 61 bits.
MODULUS = (1 << 61) - 1


def _any_collinear(points: Sequence, pivots: Iterable) -> bool:
    """Is one of the listed orientation determinants of the points 0?

    ``pivots`` yields pairs (i, rows), each row a triple (j, start, stop):
    the tests delta(V[i], V[j], V[k]) for start <= k < stop, in that order.
    With every vertex taken relative to V[i], a row's determinants are
    cross products with V[j]'s, two products each, in one comprehension.
    Each is taken modulo MODULUS first: a nonzero residue proves a
    determinant nonzero, so the exact one is taken only where the residue
    is 0 (Brönnimann, Emiris, Pan and Pion, "Sign determination in residue
    number systems", Theoret. Comput. Sci. 210, 1999).  When every
    coordinate is an int, the points are reduced first, and a determinant
    of the reduced points is congruent to the exact one whatever their
    length.  Otherwise they are kept as they are, since a reduced int
    beside a Fraction would not keep that congruence; the determinant is
    then the exact one, and an exact 0 is 0 modulo MODULUS too.  The sweep
    stops at the first exact 0, and each test visited counts as one
    determinant evaluated.  The points are not checked; each of the three
    callers passes ints where it can.  ``oracles.is_strict`` (all triples)
    and ``oracles.is_quasi_strict`` (each edge against every other vertex)
    pass their input read through ``integer_scaled``, which checks it, and
    ``generator._keeps_quasi_strict`` (one candidate vertex) passes the
    build's integer copy.
    """
    global _delta_evaluations
    reduced = points
    if set(map(type, itertools.chain.from_iterable(points))) <= {int}:
        reduced = [(x % MODULUS, y % MODULUS) for x, y in points]
    tests = 0
    for i, rows in pivots:
        xi, yi = reduced[i]
        relative = [(x - xi, y - yi) for x, y in reduced]
        for j, start, stop in rows:
            dx, dy = relative[j]
            row = [(dx * y - dy * x) % MODULUS
                   for x, y in relative[start:stop]]
            if 0 not in row:
                tests += len(row)
                continue
            for k, residue in enumerate(row, start):
                if residue:
                    tests += 1
                # delta() counts the exact test itself.
                elif delta(points[i], points[j], points[k]) == 0:
                    _delta_evaluations += tests
                    return True
    _delta_evaluations += tests
    return False

