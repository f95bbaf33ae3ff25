"""Constructive polygon factories.

The core move appends one vertex to a quasi-strict polygon.  Work in the
frame that sends the first vertex to (0,0), the second to (1,0) and the last
to (0,1); with (x, y) the image of the second-to-last vertex, the new vertex
is drawn from one of four parabolic arcs, parameterized by a small eps > 0
and named by the condition family omega it negates (0: none):

    omega 0  (-eps*x,      eps + eps^2)
    omega 1  ((1+eps)*x,  (1+eps)*|y| + eps^2)
    omega 2  ( eps*x,      eps + eps^2)
    omega 3  (-eps*x,     -eps - eps^2)

Every point of arc 0 satisfies all three new sign conditions at the fresh
index; every point of arc omega > 0 violates family omega alone.  Arcs 0, 2
and 3 need eps below 1/(10*(1+|y|)); arc 1 works for every eps > 0.  A line
through two existing vertices meets an arc at most twice, so among any
k*(k-1)+1 distinct arc points at least one keeps the extended polygon
quasi-strict; the search below always terminates within that budget.

Iterating arc 0 grows strictly convex polygons of any size.  Splicing in one
violating step yields, for every condition of the linear test, a quasi-strict
polygon failing that condition alone: the witnesses showing that none of the
3(n-3) checks can be dropped.  Each witness is checked once against the
linear test's own sign table, so the condition it fails is the one the test
reads.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .fast_test import InvalidConditionId, is_strictly_convex
from .geometry import Point, _any_collinear, _scale_all, _Scale, delta

DEFAULT_SEED_TRIANGLE = (Point(0, 0), Point(1, 0), Point(0, 1))


def _keeps_quasi_strict(polygon: Sequence[Point], vertex: Point) -> bool:
    """Would appending ``vertex`` keep a quasi-strict polygon quasi-strict?

    Only the checks involving the new vertex q are needed: the old open
    edges against it, and the two new edges against every old vertex:
    3(k-1) determinants, O(k).  The build loop passes its integer copy and
    the candidate scaled to match, whose determinants have the same signs.
    ``geometry._any_collinear`` takes them with q, at index k, as the
    pivot: each old open edge is a row of one, then the new edge from
    V[k-1] and the closing edge to V0 are each one row over the other k-1
    old vertices.
    """
    k = len(polygon)
    return not _any_collinear(
        [*polygon, vertex],
        [(k, [*((i, i + 1, i + 2) for i in range(k - 1)),
              (k - 1, 0, k - 1), (0, 1, k)])])


def _arc_steps(polygon: tuple, omegas) -> tuple:
    """Append one vertex from arc omega, for each omega in turn, to a
    quasi-strict polygon, k >= 3, keeping it quasi-strict.  The input
    vertices stay a verbatim prefix.  Returns the grown polygon and its
    integer copy: x scaled by one _Scale, y by another.

    The input is scaled once; each candidate vertex then goes through both
    scales, and when one grows by g the copy is multiplied by g, as _scan
    does with its window.  The frame map sends (0,0), (1,0), (0,1) to V0, V1,
    V[k-1]; by Cramer's rule on the copy, V[k-2] has the frame coordinates
    (nx/det, ny/det), ratios of determinants that no scale changes.
    Quasi-strictness makes det = delta(V0, V1, V[k-1]) nonzero, and
    _keeps_quasi_strict carries the invariant over to the extended polygon.
    At eps = 1/T, arc omega's point times T^2*det is a pair of ints, and so
    is its image under the map of the copy's corners, read anew at every
    attempt since a rejected one may grow a scale.  Dividing by T^2*det and
    by the axis's d gives each coordinate as one Fraction.  The input is not
    checked: scaling it raises TypeError on an inexact coordinate, and the
    factories pass DEFAULT_SEED_TRIANGLE.
    """
    sx, sy = _Scale(), _Scale()
    scaled = _scale_all(polygon, sx, sy)
    for omega in omegas:
        k = len(polygon)
        (v0, v1), (before_last, last) = scaled[:2], scaled[-2:]
        det = delta(v0, v1, last)
        nx = delta(v0, before_last, last)
        ny = delta(v0, v1, before_last)
        if det < 0:
            # The same ratios, over det > 0.
            det, nx, ny = -det, -nx, -ny
        # eps = 1/(t*2^j), t > 10*(1+|y|) (arc 1 takes any eps): its bits grow
        # by one per attempt instead of compounding, as bound/(j+2) would at
        # every step, which becomes unusable beyond a handful of vertices.
        t = 2 if omega == 1 else 10 * (det + abs(ny)) // det + 1
        budget = k * (k - 1) + 1
        for j in range(budget):
            T = t << j
            if omega == 1:
                fx, fy = (T + 1) * T * nx, (T + 1) * T * abs(ny) + det
            else:
                fx = nx * T if omega == 2 else -nx * T
                fy = -(T + 1) * det if omega == 3 else (T + 1) * det
            denominator = T * T * det
            (x0, y0), (x1, y1), (xl, yl) = scaled[0], scaled[1], scaled[-1]
            vertex = Point(
                Fraction((x1 - x0) * fx + (xl - x0) * fy + x0 * denominator,
                         denominator * sx.d),
                Fraction((y1 - y0) * fx + (yl - y0) * fy + y0 * denominator,
                         denominator * sy.d))
            (qx, gx), (qy, gy) = sx.scale(vertex.x), sy.scale(vertex.y)
            if gx != 1 or gy != 1:
                scaled = [(px * gx, py * gy) for px, py in scaled]
            if _keeps_quasi_strict(scaled, (qx, qy)):
                polygon += (vertex,)
                scaled.append((qx, qy))
                break
        else:
            # The budget guarantees an admissible point, so this is a
            # bug guard.
            raise RuntimeError(
                f"no admissible arc point within {budget} attempts (k={k})")
    return polygon, scaled


def make_strictly_convex(n: int) -> tuple:
    """Strictly convex n-gon grown from DEFAULT_SEED_TRIANGLE by arc 0
    steps.  Deterministic; no randomness in the construction path.

    Exact coordinates of the arc construction need on the order of k^2 bits
    at step k (the admissible eps shrinks by a constant factor every step),
    so this is a desk-scale factory; use parabola_polygon for huge inputs.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n must be an int >= 3, got {n!r}")
    return _arc_steps(DEFAULT_SEED_TRIANGLE, [0] * (n - 3))[0]


def make_minimality_witness(n: int, target) -> tuple:
    """Quasi-strict n-gon, grown from DEFAULT_SEED_TRIANGLE, violating
    exactly the target condition.

    Steps on arc 0 everywhere except one: when the polygon has target.i + 1
    vertices, the next vertex is drawn from arc target.omega, planting the
    single failure at index target.i.  Condition (omega, i) reads only V0,
    V1 and V[i-1..i+1], so later steps, which only append vertices, leave it
    untouched, and each new index gets an arc 0 vertex.  As a guard, one
    explain scan of the finished polygon must find the target, and only
    the target, violated.
    """
    omega, i = target
    if not isinstance(n, int) or n < 4 or omega not in (1, 2, 3) \
            or not 2 <= i <= n - 2:
        raise InvalidConditionId(
            f"target (omega={omega}, i={i}) invalid for n={n}")
    omegas = [omega if k == i + 1 else 0 for k in range(3, n)]
    polygon, scaled = _arc_steps(DEFAULT_SEED_TRIANGLE, omegas)
    _verify_witness_pattern(scaled, (omega, i))
    return polygon


def _verify_witness_pattern(scaled: list, target: tuple):
    # The polygon is the build's integer copy.  Each table sign is that of
    # one determinant, which scaling multiplies by Dx*Dy > 0.
    a, b, c = is_strictly_convex(scaled, explain=True).signs
    violated = [(omega, i) for i, (a_i, b_i, b_next, c_i, c_next)
                in enumerate(zip(a, b, b[1:], c, c[1:]), 2)
                for omega, value in enumerate(
                    (a_i * b_i, a_i * b_next, c_i * c_next), 1)
                if value <= 0]
    if violated != [target]:
        raise RuntimeError(
            f"internal: the witness for {target} violates {violated}")


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
