"""Brute-force reference deciders for strict convexity.

Two independent routes: an all-edges sidedness sweep, O(n^2), and a
convex-hull boundary-order comparison, O(n^3), since its no-three-collinear
pre-check visits every vertex triple.  They share nothing with the
linear-time test beyond the orientation determinant, so three-way agreement
is meaningful evidence rather than an echo.  Like the linear-time deciders,
both oracles and the hull helpers raise TypeError on a coordinate that is
not an exact rational.
"""

from __future__ import annotations

from typing import Sequence

from .errors import TooFewVertices
from .geometry import Point, delta, require_exact
from .predicates import is_strict, strictly_one_side


def strictly_convex_oracle(vertices: Sequence[Point]) -> bool:
    """All n edges, closing edge included, have every other vertex strictly
    to one side.  O(n^2)."""
    n = len(vertices)
    if n < 3:
        raise TooFewVertices(f"oracle needs n >= 3, got {n}")
    require_exact(vertices)
    for i in range(n):
        j = (i + 1) % n
        targets = [vertices[k] for k in range(n) if k != i and k != j]
        if not strictly_one_side(targets, vertices[i], vertices[j]):
            return False
    return True


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Corners of the convex hull in counterclockwise boundary order.

    Gift wrapping over the distinct points, exact arithmetic throughout.
    Collinear candidates are resolved toward the farthest point, so only
    corners (extreme points) are emitted; degenerate inputs (fewer than three
    distinct points, or all collinear) come back as their sorted extremes.
    """
    require_exact(points)
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    start = pts[0]
    hull = [start]
    current = start
    while True:
        candidate = None
        for p in pts:
            if p == current:
                continue
            if candidate is None:
                candidate = p
                continue
            turn = delta(current, candidate, p)
            if turn < 0 or (turn == 0 and _farther(current, p, candidate)):
                candidate = p
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
        if len(hull) > len(pts):
            raise RuntimeError("gift wrapping failed to close the hull")
    return hull


def _farther(origin: Point, p: Point, q: Point) -> bool:
    ox, oy = origin
    px, py = p
    qx, qy = q
    return (px - ox) ** 2 + (py - oy) ** 2 > (qx - ox) ** 2 + (qy - oy) ** 2


def _canonical_cycle(seq: Sequence[Point]) -> tuple:
    k = seq.index(min(seq))
    return tuple(seq[k:]) + tuple(seq[:k])


def matches_hull_order(vertices: Sequence[Point]) -> bool:
    """Is the vertex sequence exactly the hull-corner cycle, up to rotation
    and reversal?

    False whenever some vertex repeats or is not a hull corner (the lengths
    differ), or the order disagrees.  Orientation does not matter.
    """
    n = len(vertices)
    if n < 3:
        raise TooFewVertices(f"hull order check needs n >= 3, got {n}")
    hull = convex_hull(vertices)
    if len(hull) != n:
        return False
    want = _canonical_cycle(hull)
    seq = list(vertices)
    if _canonical_cycle(seq) == want:
        return True
    seq.reverse()
    return _canonical_cycle(seq) == want


def hull_oracle(vertices: Sequence[Point]) -> bool:
    """Strict convexity via the hull: the sequence walks the hull boundary,
    and no three vertices are collinear.  O(n^3) in the worst case: the
    collinearity check visits every vertex triple.  The cheaper order check
    runs first, and most non-convex inputs fail it, so they skip the triples.

    For strict polygons the order condition is equivalent to the edges
    covering the hull boundary exactly, since no vertex can then sit inside a
    hull edge.  matches_hull_order validates the input for both checks.
    """
    return matches_hull_order(vertices) and is_strict(vertices)
