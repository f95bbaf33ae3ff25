"""Brute-force reference deciders for strict convexity.

Two independent routes: an all-edges sidedness sweep, O(n^2), and a
comparison with the boundary order of the convex hull (Andrew's monotone
chain, O(n log n)) followed by a no-three-collinear check that visits every
vertex triple, O(n^3).  They share nothing with the linear-time test beyond
the orientation determinant and the choice of scale (below), so three-way
agreement is meaningful evidence rather than an echo.  Like the linear-time deciders, both oracles and the
hull helpers raise TypeError on a coordinate that is not an exact rational.

Both oracles then decide in integers, on the input's
``geometry.integer_scaled`` points.  That code, shared with the linear
deciders, only picks each axis's factor: any factor > 0 keeps every sign,
order and equality, and every point is scaled by the same settled one, so a
fault there cannot make an oracle agree with a wrong scan.  The window
update that could corrupt a scan is in ``fast_test._scan`` alone.

The oracles are built on three definition-level predicates, ``is_strict``,
``is_quasi_strict`` and ``strictly_one_side``: each checks its defining
property directly, with clarity over speed.  They take checked coordinates;
each oracle checks its input once, in ``integer_scaled``.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import Point, delta, integer_scaled, require_exact, sign_of


class TooFewVertices(ValueError):
    """The operation needs more vertices than the polygon has."""


def is_strict(vertices: Sequence[Point]) -> bool:
    """True iff no three vertices at distinct indices are collinear.

    Exhaustive over all index triples; vacuously true for n <= 2.
    """
    n = len(vertices)
    for i in range(n - 2):
        vi = vertices[i]
        for j in range(i + 1, n - 1):
            vj = vertices[j]
            for k in range(j + 1, n):
                if delta(vi, vj, vertices[k]) == 0:
                    return False
    return True


def is_quasi_strict(vertices: Sequence[Point]) -> bool:
    """True iff no edge's endpoints are collinear with any third vertex.

    Edges include the closing one (index n-1 wraps to 0); for n <= 2 there is
    no third vertex, so the check passes vacuously.
    """
    n = len(vertices)
    for i in range(n):
        nxt = (i + 1) % n
        a = vertices[i]
        b = vertices[nxt]
        for j in range(n):
            if j == i or j == nxt:
                continue
            if delta(a, b, vertices[j]) == 0:
                return False
    return True


def strictly_one_side(targets: Sequence[Point], seg_start: Point,
                      seg_end: Point) -> bool:
    """Do all targets lie strictly on one common side of the segment's line?

    True iff the segment is non-degenerate and every orientation determinant
    delta(t, seg_start, seg_end) carries one shared nonzero sign; an empty
    target list holds vacuously.
    """
    if seg_start == seg_end:
        return False
    shared = 0
    for t in targets:
        s = sign_of(delta(t, seg_start, seg_end))
        if s == 0 or (shared != 0 and s != shared):
            return False
        shared = s
    return True


def strictly_convex_oracle(vertices: Sequence[Point]) -> bool:
    """All n edges, closing edge included, have every other vertex strictly
    to one side.  O(n^2)."""
    n = len(vertices)
    if n < 3:
        raise TooFewVertices(f"oracle needs n >= 3, got {n}")
    vertices = integer_scaled(vertices)
    for i in range(n):
        j = (i + 1) % n
        targets = [vertices[k] for k in range(n) if k != i and k != j]
        if not strictly_one_side(targets, vertices[i], vertices[j]):
            return False
    return True


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Corners of the convex hull in counterclockwise boundary order, starting
    at the lexicographically smallest point.

    Andrew's monotone chain over the sorted distinct points, exact arithmetic
    throughout.  A point on a hull edge is popped like an inner one, so only
    corners (extreme points) are emitted; degenerate inputs (fewer than three
    distinct points, or all collinear) come back as their sorted extremes.
    """
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


def matches_hull_order(vertices: Sequence[Point]) -> bool:
    """Is the vertex sequence exactly the hull-corner cycle, up to rotation
    and reversal?

    False whenever some vertex repeats or is not a hull corner (the lengths
    differ), or the order disagrees.  Orientation does not matter.  The hull
    starts at its smallest corner, so the sequence is rotated to start there
    and compared with the hull walked both ways.
    """
    n = len(vertices)
    if n < 3:
        raise TooFewVertices(f"hull order check needs n >= 3, got {n}")
    hull = convex_hull(vertices)
    if len(hull) != n:
        return False
    seq = list(vertices)
    k = seq.index(hull[0])
    seq = seq[k:] + seq[:k]
    return seq == hull or seq[:0:-1] == hull[1:]


def hull_oracle(vertices: Sequence[Point]) -> bool:
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
