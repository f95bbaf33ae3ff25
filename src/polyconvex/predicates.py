"""Definition-level polygon predicates.

Brute-force reference vocabulary: each function checks its defining property
directly, with no shortcuts shared with the linear-time test beyond the
orientation determinant itself.  Oracle-tier code, so clarity beats speed.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import Point, delta, sign_of


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
