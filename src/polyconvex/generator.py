"""Constructive polygon factories.

The core move appends one vertex to a quasi-strict polygon.  Work in the
frame that sends the first vertex to (0,0), the second to (1,0) and the last
to (0,1); with (x, y) the image of the second-to-last vertex, the new vertex
is drawn from one of four parabolic arcs, parameterized by a small eps > 0:

    ALL_HOLD  (-eps*x,      eps + eps^2)
    NEG_C3    (-eps*x,     -eps - eps^2)
    NEG_C2    ( eps*x,      eps + eps^2)
    NEG_C1    ((1+eps)*x,  (1+eps)*|y| + eps^2)

Every point of the ALL_HOLD arc satisfies all three new sign conditions at
the fresh index; each other arc violates exactly the condition it names and
satisfies the other two.  For the first three arcs eps must stay below
1/(10*(1+|y|)); the NEG_C1 arc works for every eps > 0.  A line through two
existing vertices meets an arc at most twice, so among any k*(k-1)+1 distinct
arc points at least one keeps the extended polygon quasi-strict; the search
below always terminates within that budget.

Iterating ALL_HOLD grows strictly convex polygons of any size.  Splicing in
one violating step yields, for every condition of the linear test, a
quasi-strict polygon failing that condition alone: the witnesses showing that
none of the 3(n-3) checks can be dropped.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import (ExhaustedEpsilonBudget, InvalidConditionId,
                     NotQuasiStrictInput)
from .fast_test import ConditionId, condition_value
from .geometry import AffineMap, Point, delta
from .predicates import is_quasi_strict


class Arc(Enum):
    ALL_HOLD = "all-hold"
    NEG_C1 = "neg-c1"
    NEG_C2 = "neg-c2"
    NEG_C3 = "neg-c3"


DEFAULT_SEED_TRIANGLE = (Point(0, 0), Point(1, 0), Point(0, 1))

_VARIANT_FOR_OMEGA = {1: Arc.NEG_C1, 2: Arc.NEG_C2, 3: Arc.NEG_C3}


def _arc_point(variant: Arc, eps: Fraction, x, y) -> Point:
    if variant is Arc.ALL_HOLD:
        return Point(-eps * x, eps + eps * eps)
    if variant is Arc.NEG_C3:
        return Point(-eps * x, -eps - eps * eps)
    if variant is Arc.NEG_C2:
        return Point(eps * x, eps + eps * eps)
    return Point((1 + eps) * x, (1 + eps) * abs(y) + eps * eps)


def _epsilons(variant: Arc, y):
    """Distinct admissible arc parameters, largest first.

    Values are 1/(t*2^j) with t the smallest integer exceeding the inverse
    bound, so their bit size grows by one per attempt instead of compounding
    (a ratio sequence like bound/(j+2) squares the numerator and denominator
    of the bound at every extension step, which becomes unusable beyond a
    handful of vertices).
    """
    if variant is Arc.NEG_C1:
        bound = Fraction(1)
    else:
        bound = Fraction(1, 10) / (1 + abs(y))
    t = bound.denominator // bound.numerator + 1
    j = 0
    while True:
        yield Fraction(1, t << j)
        j += 1


def _keeps_quasi_strict(polygon: Sequence[Point], vertex: Point) -> bool:
    """Would appending ``vertex`` keep a quasi-strict polygon quasi-strict?

    Only the checks involving the new vertex are needed: the old open edges
    against it, and the two new edges against every old vertex.  O(k).
    """
    k = len(polygon)
    last = polygon[k - 1]
    first = polygon[0]
    for i in range(k - 1):
        if delta(polygon[i], polygon[i + 1], vertex) == 0:
            return False
    for j in range(k - 1):
        if delta(last, vertex, polygon[j]) == 0:
            return False
    for j in range(1, k):
        if delta(vertex, first, polygon[j]) == 0:
            return False
    return True


def extend(polygon: Sequence[Point], variant: Arc) -> tuple:
    """Append one vertex on the chosen arc, keeping the result quasi-strict.

    The input vertices are preserved verbatim as a prefix.  Raises
    NotQuasiStrictInput unless the input is a quasi-strict polygon with
    k >= 3 vertices.
    """
    if len(polygon) < 3 or not is_quasi_strict(polygon):
        raise NotQuasiStrictInput(
            f"extension needs a quasi-strict polygon with >= 3 vertices")
    return _arc_step(tuple(polygon), variant)


def _arc_step(polygon: tuple, variant: Arc) -> tuple:
    """extend for a polygon already known to be quasi-strict, k >= 3.

    The frame map sends (0,0), (1,0), (0,1) to V0, V1, V[k-1]; the frame
    coordinates (x, y) of V[k-2] follow from Cramer's rule.  Quasi-strictness
    makes delta(V0, V1, V[k-1]) nonzero, and _keeps_quasi_strict carries the
    invariant over to the extended polygon.
    """
    k = len(polygon)
    v0, v1, before_last, last = polygon[0], polygon[1], polygon[-2], polygon[-1]
    det = delta(v0, v1, last)
    x = Fraction(delta(v0, before_last, last), det)
    y = Fraction(delta(v0, v1, before_last), det)
    (x0, y0), (x1, y1), (xl, yl) = v0, v1, last
    frame = AffineMap(x1 - x0, xl - x0, y1 - y0, yl - y0, x0, y0)
    budget = k * (k - 1) + 1
    eps_source = _epsilons(variant, y)
    for _ in range(budget):
        vertex = frame.apply(_arc_point(variant, next(eps_source), x, y))
        if _keeps_quasi_strict(polygon, vertex):
            return polygon + (vertex,)
    raise ExhaustedEpsilonBudget(
        f"no admissible arc point within {budget} attempts (k={k})")


def _require_strict_seed(seed_triangle: Sequence[Point]) -> tuple:
    if len(seed_triangle) != 3:
        raise NotQuasiStrictInput(
            f"seed must be a triangle, got {len(seed_triangle)} vertices")
    if delta(*seed_triangle) == 0:
        raise NotQuasiStrictInput("seed triangle is collinear")
    return tuple(seed_triangle)


def make_strictly_convex(n: int, seed_triangle=DEFAULT_SEED_TRIANGLE) -> tuple:
    """Strictly convex n-gon grown from a strict seed triangle by ALL_HOLD
    extensions.  Deterministic; no randomness in the construction path.

    Exact coordinates of the arc construction need on the order of k^2 bits
    at step k (the admissible eps shrinks by a constant factor every step),
    so this is a desk-scale factory; use parabola_polygon for huge inputs.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    polygon = _require_strict_seed(seed_triangle)
    while len(polygon) < n:
        polygon = _arc_step(polygon, Arc.ALL_HOLD)
    return polygon


def make_minimality_witness(n: int, target,
                            seed_triangle=DEFAULT_SEED_TRIANGLE) -> tuple:
    """Quasi-strict n-gon violating exactly the target condition.

    ALL_HOLD extensions everywhere except one: when the polygon has
    target.i + 1 vertices, the next vertex is drawn from the arc violating
    the target's condition family, planting the single failure at index
    target.i.  Condition (omega, i) reads only V0, V1 and V[i-1..i+1], so
    later extensions, which only append vertices, leave it untouched, and
    each new index gets the all-hold treatment.  As a guard, the sign pattern
    of the finished polygon is verified once from raw determinant products.
    """
    omega, i = target
    if not isinstance(n, int) or n < 4 or omega not in (1, 2, 3) \
            or not 2 <= i <= n - 2:
        raise InvalidConditionId(
            f"target (omega={omega}, i={i}) invalid for n={n}")
    target = ConditionId(omega, i)
    polygon = _require_strict_seed(seed_triangle)
    negate_at = target.i + 1
    variant = _VARIANT_FOR_OMEGA[target.omega]
    while len(polygon) < n:
        step = variant if len(polygon) == negate_at else Arc.ALL_HOLD
        polygon = _arc_step(polygon, step)
    _verify_witness_pattern(polygon, target)
    return polygon


def _verify_witness_pattern(polygon: Sequence[Point], target: ConditionId):
    k = len(polygon)
    for i in range(2, k - 1):
        for omega in (1, 2, 3):
            value = condition_value(polygon, ConditionId(omega, i))
            expect_violated = (omega, i) == target
            if (value <= 0) != expect_violated:
                raise RuntimeError(
                    f"internal: condition ({omega}, {i}) "
                    f"{'held' if expect_violated else 'flipped'} "
                    f"at {k} vertices while building witness for {target}")


def random_polygon(n: int, grid: int, rng_seed: int) -> tuple:
    """n vertices with integer coordinates uniform on [0, grid]^2.

    Deterministic for a fixed seed: one Random stream, x then y per vertex.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    rng = random.Random(rng_seed)
    return tuple(Point(rng.randint(0, grid), rng.randint(0, grid))
                 for _ in range(n))


def parabola_polygon(n: int) -> tuple:
    """Strictly convex n-gon with small integer coordinates: (t, t^2) for
    t = 0 .. n-1.

    Any three distinct parabola points are non-collinear and the sequence
    walks the hull boundary (ascending lower chain plus the closing chord),
    so the polygon is strictly convex while coordinates stay at O(log n)
    bits.  This is the scalable counterpart of make_strictly_convex, meant
    for benchmarking at sizes where exact arc coordinates are unaffordable.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return tuple(Point(t, t * t) for t in range(n))
