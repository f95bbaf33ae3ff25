"""Linear-time strict-convexity decision.

For an n-gon with n >= 4 the verdict is equivalent to 3(n-3) sign conditions
on orientation determinants.  With

    a_i = sign delta(V[i-1], V[i], V[i+1])     (the turn wedge at vertex i)
    b_i = sign delta(V[0], V[i-1], V[i])       (edge i as seen from V[0])
    c_i = sign delta(V[0], V[1], V[i])         (vertex i against the first edge)

the polygon is strictly convex iff, for every i in [2, n-2],

    (C1 i)  a_i * b_i   > 0
    (C2 i)  a_i * b_i+1 > 0
    (C3 i)  c_i * c_i+1 > 0.

An equivalent formulation checks that the single chain
a_2 = ... = a_{n-2} = b_2 = ... = b_{n-1} = c_2 = ... = c_{n-1} is constant
and nonzero (b_2 = c_2 holds identically).

One scan kernel, ``_scan``, computes every sign for both deciders; the full
sign table is ``is_strictly_convex(v, explain=True).signs``, three lists
that start at i = 2.  It slides a window over the coordinates translated to
V[0], so step i takes two new coordinate differences and three 2x2 cross
products, and never wraps an index with ``% n``.  It compares each sign once
with s = a_2 and keeps each family's first break as the condition the chain
decider reports for it: for a at step i, (1, i) if a_i = 0 or b_i = s, else
(2, i-1), dropped at the last step since a_{n-1} enters no condition; for b,
(1, 2) at step 2, else (2, i-1); for c, (3, i-1) from step 3 on.  The chain
decider reports a's break if any, else b's, else c's.  ``is_strictly_convex``
reports the least by (i, omega), the first violated condition in scan order:
every condition at an index below the first step that departs from s
multiplies two signs equal to s.  A step counts as three determinant
evaluations in ``geometry.delta_evaluations()``, so a full scan counts
exactly 3(n-3)+3.

Rational input is scanned in integers, under the scaling rule and guard of
``geometry._Scale``, one per axis.  The scales grow as the scan goes, so the
polygon is read once and no copy of it is made: when an axis's scale grows
by g, that half of the window, which holds every coordinate the scan still
needs, is multiplied by g; when the guard refuses, it is divided back into
exact fractions and the axis is scanned unscaled, at the cost of a few gcd
steps, not one per vertex.  An int coordinate costs only a type test while
no Fraction has been read.

``condition_value`` stays on raw ``delta`` products of the unscaled input,
as a check that shares neither the kernel nor its scaling.

Base cases: every polygon with n <= 2 is strictly convex, and a triangle is
strictly convex iff its three vertices are not collinear.

The deciders take any iterable of (x, y) pairs and read it once, so a file
can be decided as it is parsed (``polyfile.iter_polygon``).  A fail-fast
scan stops taking determinants one step past the first failure's index, but
still reads the input to its end, to count n and to raise on a bad point
past the failure.

Every decider raises TypeError on a coordinate that is not an exact rational
(a float, say): a rounded product near a collinear triple can flip a sign.
Coordinates are checked as they are read, in a Sequence as in a stream.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional

from .geometry import (Point, _Scale, _scale_all, add_delta_evaluations, delta,
                       require_exact)


class ConditionId(NamedTuple):
    """One of the 3(n-3) decision conditions: family omega at index i."""

    omega: int
    i: int


class InvalidConditionId(ValueError):
    """Condition identifier outside omega in {1,2,3}, i in [2, n-2]."""


class SignTable(NamedTuple):
    """Decision signs, three lists whose first entry is i = 2.

    For an n-gon a full scan fills a with a_2 .. a_{n-2} (n-3 entries) and
    b and c with b_2 .. b_{n-1} and c_2 .. c_{n-1} (n-2 entries each): all
    and only the signs the decision consumes.  A fail-fast scan leaves
    prefixes of these.
    """

    a: list
    b: list
    c: list


@dataclass
class ConvexityReport:
    """Verdict plus evidence.

    ``failed`` names the first violated condition in scan order (i ascending,
    omega 1, 2, 3 within each i).  It is None whenever the verdict is true,
    and also for a rejected triangle: no ConditionId exists at n = 3, where
    the verdict is plain non-collinearity.  ``signs`` is None for n < 4 or
    when sign collection was turned off; otherwise it holds what the scan
    computed (everything, unless a fail-fast run stopped early), as lists
    whose first entry is i = 2.
    """

    verdict: bool
    n: int
    failed: Optional[ConditionId] = None
    signs: Optional[SignTable] = None

    def to_json_dict(self) -> dict:
        failed = None if self.failed is None else {
            "omega": self.failed.omega, "i": self.failed.i,
        }
        signs = None if self.signs is None else self.signs._asdict()
        return {"verdict": self.verdict, "n": self.n,
                "failed": failed, "signs": signs}


def condition_value(vertices: Sequence[Point], cond: ConditionId):
    """The exact determinant product behind one condition.

    The condition holds iff the returned value is > 0.  Used to confirm a
    reported failure from raw determinants, independent of the scan.
    """
    n = len(vertices)
    omega, i = cond
    if omega not in (1, 2, 3) or not 2 <= i <= n - 2:
        raise InvalidConditionId(f"no condition ({omega}, {i}) for an {n}-gon")
    v0, v1 = vertices[0], vertices[1]
    prev, cur, nxt = vertices[i - 1], vertices[i], vertices[i + 1]
    require_exact((v0, v1, prev, cur, nxt))
    if omega == 1:
        return delta(prev, cur, nxt) * delta(v0, prev, cur)
    if omega == 2:
        return delta(prev, cur, nxt) * delta(v0, cur, nxt)
    return delta(v0, v1, cur) * delta(v0, v1, nxt)


def _base_case(vertices: list) -> ConvexityReport:
    require_exact(vertices)
    n = len(vertices)
    if n <= 2:
        return ConvexityReport(True, n)
    ok = delta(vertices[0], vertices[1], vertices[2]) != 0
    return ConvexityReport(ok, 3)


def is_strictly_convex(vertices: Iterable[Point], *, explain: bool = False,
                       collect_signs: bool = True) -> ConvexityReport:
    """Decide strict convexity in one pass with O(1) auxiliary state.

    A full run evaluates exactly 3(n-3)+3 determinants for n >= 4.  By
    default the scan stops one step past the index of the first violated
    condition; ``explain=True`` keeps going and fills the whole sign table.
    ``collect_signs=False`` skips the table entirely, leaving nothing but the
    constant-size report (the mode plain ``check`` uses).  ``vertices`` may
    be any iterable of (x, y) pairs, read once: past a failure it is still
    read to its end, to count n and check that every coordinate is exact,
    but no determinant is taken.
    """
    return _decide(vertices, explain, collect_signs, chain=False)


def is_strictly_convex_chain(vertices: Iterable[Point]) -> ConvexityReport:
    """Equality-chain variant of the decision; same verdict on every input.

    Runs the full scan and accepts iff the chain a_2 .. a_{n-2},
    b_2 .. b_{n-1}, c_2 .. c_{n-1} is constant and nonzero.  A broken chain
    is reported as a ConditionId that is genuinely violated (confirmable via
    condition_value): a's first break if there is one, else b's, else c's.
    """
    return _decide(vertices, True, True, chain=True)


def _decide(vertices, explain: bool, collect_signs: bool,
            chain: bool) -> ConvexityReport:
    points = iter(vertices)
    head = list(itertools.islice(points, 4))
    if len(head) <= 3:
        return _base_case(head)
    # V0 comes last again, unscaled, so it is scaled as the window is then.
    following = itertools.chain(head[3:], points, head[:1])
    steps, breaks, table = _scan(head[:3], following, explain, collect_signs)
    n = steps + 1 + _drain(following)
    if table is not None and len(table.a) == n - 2:
        # a_{n-1} wraps around to V0 and enters no condition.
        table.a.pop()
    failed = (next(filter(None, breaks), None) if chain else
              min(filter(None, breaks), key=itemgetter(1, 0), default=None))
    failed = ConditionId(*failed) if failed else None
    return ConvexityReport(failed is None, n, failed, table)


def _scan(head: list, following, explain: bool, collect_signs: bool):
    """The scan kernel behind every decision path.

    ``head`` holds V0, V1 and V2; ``following`` yields V3 .. V[n-1] and then
    V0 again.  Step i (2 <= i <= n-1) works on coordinates translated to V0:
    p = V[i-1], c = V[i], q = V[i+1] (V0 at the last step, i.e. the origin),
    with u = V1 - V0 and the edges e = c - p, f = q - c.  Then

        a_i = e x f     (= delta(V[i-1], V[i], V[i+1]))
        b_i = p x c     (= delta(V0, V[i-1], V[i]))
        c_i = u x c     (= delta(V0, V1, V[i]))

    and the window slides by c -> p, q -> c, f -> e, so each coordinate
    difference is taken once.  The determinants are evaluated inline rather
    than through geometry.delta; their count, three per step, is added to the
    delta_evaluations() counter once on exit.  Once a vertex with a
    non-int coordinate is read, every vertex goes through one _Scale per
    axis, and the window (V0, u, p, c, e) is multiplied by each factor they
    return.  Returns (i, breaks, table) for the last step i taken, with the
    first break of a, b and c as an (omega, i) tuple, or None for each
    family that holds.
    """
    scaled = any(type(v) is not int for point in head for v in point)
    sx, sy = _Scale(), _Scale()
    if scaled:
        head = _scale_all(head, sx, sy)
    (x0, y0), (ux, uy), (cx, cy) = head
    ux -= x0
    uy -= y0
    cx -= x0
    cy -= y0
    px, py = ux, uy
    ex, ey = cx - px, cy - py
    table = SignTable([], [], []) if collect_signs else None
    # s is a_2 from step 2 on; None before it, and None again once a
    # fail-fast scan must stop at the next step.
    s = break_a = break_b = break_c = step_a = None
    for i, (qx, qy) in enumerate(following, 2):
        if scaled or type(qx) is not int or type(qy) is not int:
            scaled = True
            qx, g = sx.scale(qx)
            if g != 1:
                x0 *= g
                ux *= g
                px *= g
                cx *= g
                ex *= g
            qy, g = sy.scale(qy)
            if g != 1:
                y0 *= g
                uy *= g
                py *= g
                cy *= g
                ey *= g
        qx -= x0
        qy -= y0
        fx, fy = qx - cx, qy - cy
        a = ex * fy - ey * fx
        b = px * cy - py * cx
        c = ux * cy - uy * cx
        a_i = 1 if a > 0 else -1 if a < 0 else 0
        b_i = 1 if b > 0 else -1 if b < 0 else 0
        c_i = 1 if c > 0 else -1 if c < 0 else 0
        if table is not None:
            table.a.append(a_i)
            table.b.append(b_i)
            table.c.append(c_i)
        if a_i != s or b_i != s or c_i != s:
            if s is None:
                if i > 2:
                    break
                s = a_i
            if break_a is None and (a_i != s or not s):
                # a_{i-1} = s: (C1 i) = a_i*b_i or (C2 i-1) = s*b_i fails.
                break_a = (1, i) if not a_i or b_i == s else (2, i - 1)
                step_a = i
            if break_b is None and b_i != s:
                break_b = (2, i - 1) if i > 2 else (1, 2)
            if break_c is None and c_i != s and i > 2:
                break_c = (3, i - 1)
            if not explain:
                # Stop one step past the failing index: now for (2, i-1) and
                # (3, i-1), at the next step for (1, i).
                if i > 2 and (b_i != s or c_i != s):
                    break
                if break_a or break_b:
                    s = None
        px, py, cx, cy, ex, ey = cx, cy, qx, qy, fx, fy
    else:  # a_{n-1} wraps around to V0 and enters no condition.
        if step_a == i:
            break_a = None
    add_delta_evaluations(3 * (i - 1))
    return i, (break_a, break_b, break_c), table


def _drain(points) -> int:
    """Read the points left after a fail-fast stop, so that a malformed or
    inexact one still raises, and return how many there were."""
    read = itertools.count()
    # zip draws each point before its number, so ``read`` counts the points.
    require_exact(map(itemgetter(0), zip(points, read)))
    return next(read)
