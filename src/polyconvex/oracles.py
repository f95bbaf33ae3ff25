"""Brute-force reference deciders for strict convexity.

Two independent routes: an all-edges sidedness sweep, O(n^2), and a
comparison with the boundary order of the convex hull (Andrew's monotone
chain, O(n log n)) followed by a no-three-collinear check that visits every
vertex triple, O(n^3).  They share nothing with the linear-time test beyond
the orientation determinant and the choice of scale (below), so three-way
agreement is meaningful evidence rather than an echo.  Like the linear-time
deciders, both oracles, the hull helpers and the predicates below raise
TypeError on a coordinate that is not an exact rational.

Both oracles, and the two collinearity predicates ``is_strict`` and
``is_quasi_strict``, decide in integers, on the input's
``geometry.integer_scaled`` points, which also checks the input and reads
it once, so any iterable will do.  That code, shared with the linear
deciders, only picks each axis's factor: any factor > 0 keeps every sign,
order and equality, and every point is scaled by the same settled one, so a
fault there cannot make an oracle agree with a wrong scan.  The window
update that could corrupt a scan is in ``fast_test._scan`` alone.

The two collinearity predicates hand their tests to
``geometry._any_collinear``, the sweep that the generator's check of each
candidate vertex shares: on ints it takes a determinant exactly only where
its residue modulo a prime is 0, so neither the O(n^3) triple check nor the
O(n^2) edge check slows with the bits of the coordinates.  The hull oracle
is built on ``is_strict``; ``is_quasi_strict`` checks the property that the
generator keeps at every step.  The sidedness oracle takes one row of
cross products per edge, in one comprehension, on the scaled points.  Two
things stay exact, each for its own reason: ``convex_hull`` returns the
input's own points, and ``fast_test.condition_value`` is the raw reference
for one condition.
Each helper checks its input at entry, so that it is safe to call on its
own: the hull oracle's points are checked again in ``convex_hull`` and,
when the order matches, in ``is_strict``, each an O(n) type scan in C
beside an O(n^3) sweep.
"""

from __future__ import annotations

from typing import Iterable

from .geometry import (Point, _any_collinear, add_delta_evaluations, delta,
                       integer_scaled, require_exact)


class TooFewVertices(ValueError):
    """The operation needs more vertices than the polygon has."""


def is_strict(vertices: Iterable[Point]) -> bool:
    """True iff no three vertices at distinct indices are collinear.

    Exhaustive over all index triples (i, j, k), i < j < k, in
    lexicographic order, by ``geometry._any_collinear``: vertex i is the
    pivot, with one row over every k for each j.  Vacuously true for
    n <= 2.
    """
    vertices = integer_scaled(vertices)
    n = len(vertices)
    rows = [(j, j + 1, n) for j in range(n - 1)]
    return not _any_collinear(vertices,
                              ((i, rows[i + 1:]) for i in range(n - 2)))


def is_quasi_strict(vertices: Iterable[Point]) -> bool:
    """True iff no edge's endpoints are collinear with any third vertex.

    Edges include the closing one (index n-1 wraps to 0); for n <= 2 there is
    no third vertex, so the check passes vacuously.  By
    ``geometry._any_collinear``, edge by edge with its start as the pivot:
    edge i has the rows (i+1, 0, i) and (i+1, i+2, n), the closing edge the
    row (0, 1, n-1), so the third vertices come in index order.
    """
    vertices = integer_scaled(vertices)
    n = len(vertices)
    edges = [(i, [(i + 1, 0, i), (i + 1, i + 2, n)]) for i in range(n - 1)]
    return n < 3 or not _any_collinear(vertices,
                                       edges + [(n - 1, [(0, 1, n - 1)])])


def strictly_convex_oracle(vertices: Iterable[Point]) -> bool:
    """All n edges, closing edge included, have every other vertex strictly
    to one side.  O(n^2).

    Edge i, from V[i] to V[i+1], takes one row of cross products with the
    n-2 vertices after it in cyclic order, and holds iff the row is all
    positive or all negative; a degenerate edge makes the row all 0.  Each
    row counts as n-2 determinants evaluated."""
    vertices = integer_scaled(vertices)
    n = len(vertices)
    if n < 3:
        raise TooFewVertices(f"oracle needs n >= 3, got {n}")
    cycle = vertices + vertices
    for i in range(n):
        (xs, ys), (xe, ye) = cycle[i], cycle[i + 1]
        dx, dy = xe - xs, ye - ys
        row = [dx * (y - ys) - dy * (x - xs) for x, y in cycle[i + 2:i + n]]
        add_delta_evaluations(n - 2)
        if not (min(row) > 0 or max(row) < 0):
            return False
    return True


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Corners of the convex hull in counterclockwise boundary order, starting
    at the lexicographically smallest point.

    Andrew's monotone chain over the sorted distinct points, exact arithmetic
    throughout.  A point that is not a tuple, a list say, is taken as one,
    so any iterable of pairs will do; a tuple, a Point among them, comes
    back as it is.  A point on a hull edge is popped like an inner one, so
    only corners (extreme points) are emitted; degenerate inputs (fewer than
    three distinct points, or all collinear) come back as their sorted
    extremes.
    """
    points = [p if isinstance(p, tuple) else tuple(p) for p in points]
    require_exact(points)
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    upper: list[Point] = []
    for chain, walk in ((lower, pts), (upper, reversed(pts))):
        for p in walk:
            while len(chain) >= 2 and delta(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def matches_hull_order(vertices: Iterable[Point]) -> bool:
    """Is the vertex sequence exactly the hull-corner cycle, up to rotation
    and reversal?

    False whenever some vertex repeats or is not a hull corner (the lengths
    differ), or the order disagrees.  Orientation does not matter.  The hull
    starts at its smallest corner, so the sequence is rotated to start there
    and compared with the hull walked both ways.  The input is read once,
    so any iterable of pairs will do.
    """
    vertices = [p if isinstance(p, tuple) else tuple(p) for p in vertices]
    n = len(vertices)
    if n < 3:
        raise TooFewVertices(f"hull order check needs n >= 3, got {n}")
    hull = convex_hull(vertices)
    if len(hull) != n:
        return False
    k = vertices.index(hull[0])
    seq = vertices[k:] + vertices[:k]
    return seq == hull or seq[:0:-1] == hull[1:]


def hull_oracle(vertices: Iterable[Point]) -> bool:
    """Strict convexity via the hull: the sequence walks the hull boundary,
    and no three vertices are collinear.  O(n^3) in the worst case: the
    collinearity check visits every vertex triple.  The cheaper order check
    runs first, and most non-convex inputs fail it, so they skip the triples.

    For strict polygons the order condition is equivalent to the edges
    covering the hull boundary exactly, since no vertex can then sit inside a
    hull edge.  Both checks run on the integer_scaled points; that scaling
    checks the input.
    """
    vertices = integer_scaled(vertices)
    return matches_hull_order(vertices) and is_strict(vertices)
