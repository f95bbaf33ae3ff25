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
and nonzero (b_2 = c_2 holds identically).  Both deciders live here; they are
tested to agree on every input.

One scan kernel, ``_scan``, computes every sign: the fail-fast and explain
runs of ``is_strictly_convex`` and the chain decider all read it; the full
sign table is ``is_strictly_convex(v, explain=True).signs``, three lists
that start at i = 2.  It slides a window over the coordinates translated to
V[0], so step i takes two new coordinate differences and three 2x2 cross
products (``a_i`` from the two edge vectors at V[i], ``b_i`` and ``c_i``
from the translated vertices), compares each product with zero inline, and
never wraps an index with ``% n``.  A step counts as three determinant
evaluations in ``geometry.delta_evaluations()``, so a full scan still counts
exactly 3(n-3)+3.

Rational input is scanned in integers.  Scaling x by one positive integer Dx
and y by another, Dy, is the linear map diag(Dx, Dy), of determinant
Dx*Dy > 0: it multiplies every orientation determinant by Dx*Dy and so keeps
every sign, hence every verdict and every ``failed`` id.  With Dx a multiple
of every x denominator, and Dy of every y denominator, each scaled
coordinate is an int, and int products are far cheaper than Fraction ones,
which reduce by a gcd at every operation.  Dx and Dy are found as the scan
goes, so the polygon is read once and no copy of it is made: both start at
1, and when a denominator d does not divide Dx, Dx and the x half of the
window, which holds every coordinate the scan still needs, are multiplied by
d / gcd(Dx, d).  The same goes for y.  A guard keeps the numbers short: when
a growing Dx would have more than twice the bits of the longest denominator
and numerator that made it grow (pairwise-coprime denominators, say), the
scaled values would be longer than the fractions they replace, so the x
window is divided back into exact fractions and x is scanned unscaled from
then on; such input costs a few gcd steps, not one per vertex.  An int
coordinate costs only a type test while no Fraction has been read.

``condition_value`` stays on raw ``delta`` products of the unscaled input,
as a check that shares neither the kernel nor its scaling.

Base cases: every polygon with n <= 2 is strictly convex, and a triangle is
strictly convex iff its three vertices are not collinear.

The deciders take any iterable of (x, y) pairs and read it once, so a file
can be decided as it is parsed (``polyfile.iter_polygon``).  A fail-fast
scan stops taking determinants at the first failure but still reads the
input to its end, to count n and to raise on a bad point past the failure.

Every decider raises TypeError on a coordinate that is not an exact rational
(a float, say): a rounded product near a collinear triple can flip a sign.
Coordinates are checked as they are read, in a Sequence as in a stream.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional

from .geometry import Point, add_delta_evaluations, delta, require_exact


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

    The scan computes three determinant signs per step and checks each index's
    three conditions in order once its forward signs are available, so a full
    run evaluates exactly 3(n-3)+3 determinants for n >= 4.  By default the
    scan stops at the first violated condition; ``explain=True`` keeps going
    and fills the whole sign table.  ``collect_signs=False`` skips the table
    entirely, leaving nothing but the constant-size report (the mode plain
    ``check`` uses).  ``vertices`` may be any iterable of (x, y) pairs, read
    once: past a failure it is still read to its end, to count n and check
    that every coordinate is exact, but no determinant is taken.
    """
    points = iter(vertices)
    head = list(itertools.islice(points, 4))
    if len(head) <= 3:
        return _base_case(head)
    # V0 comes last again, unscaled, so it is scaled as the window is then.
    following = itertools.chain(head[3:], points, head[:1])
    steps, failed, table = _scan(head[:3], following, explain, collect_signs)
    n = steps + 1 + _drain(following)
    if table is not None and len(table.a) == n - 2:
        # a_{n-1} wraps around to V0 and enters no condition.
        table.a.pop()
    return ConvexityReport(failed is None, n, failed, table)


class _Scale:
    """The running common denominator d of one axis (see the module
    docstring): ``scale(value)`` gives value * d, an int, until the guard
    refuses d; from then on values pass unscaled."""

    __slots__ = ("d", "bound")

    def __init__(self):
        self.d = 1
        # Twice the bits of the longest denominator and numerator that made d
        # grow; None once the guard has refused.
        self.bound = 0

    def scale(self, value):
        """(value * d, g): the window read so far must be multiplied by g to
        stay in step with d, which is 1 unless d grew or was refused."""
        if type(value) is int:
            return value * self.d, 1
        if type(value) is not Fraction:
            require_exact(((value,),))
        if self.bound is None:
            return value, 1
        numerator, denominator = value.numerator, value.denominator
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
        they replace.  Returns 1/d, which turns the window back into the
        unscaled, exact values."""
        factor = Fraction(1, self.d)
        self.d, self.bound = 1, None
        return factor


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
    return.  Returns (i, failed, table) for the last step i taken.
    """
    scaled = any(type(v) is not int for point in head for v in point)
    sx, sy = _Scale(), _Scale()
    if scaled:
        # Let d grow over the first three vertices, then scale them by it.
        for x, y in head:
            sx.scale(x)
            sy.scale(y)
        head = [(sx.scale(x)[0], sy.scale(y)[0]) for x, y in head]
    (x0, y0), (ux, uy), (cx, cy) = head
    ux -= x0
    uy -= y0
    cx -= x0
    cy -= y0
    px, py = ux, uy
    ex, ey = cx - px, cy - py
    table = SignTable([], [], []) if collect_signs else None
    failed = None
    prev_a = prev_b = prev_c = 0
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
        if i > 2 and failed is None:
            j = i - 1
            if prev_a * prev_b <= 0:
                failed = ConditionId(1, j)
            elif prev_a * b_i <= 0:
                failed = ConditionId(2, j)
            elif prev_c * c_i <= 0:
                failed = ConditionId(3, j)
            if failed is not None and not explain:
                break
        prev_a, prev_b, prev_c = a_i, b_i, c_i
        px, py, cx, cy, ex, ey = cx, cy, qx, qy, fx, fy
    add_delta_evaluations(3 * (i - 1))
    return i, failed, table


def _drain(points) -> int:
    """Read the points left after a fail-fast stop, so that a malformed or
    inexact one still raises, and return how many there were."""
    read = itertools.count()
    # zip draws each point before its number, so ``read`` counts the points.
    require_exact(map(itemgetter(0), zip(points, read)))
    return next(read)


def is_strictly_convex_chain(vertices: Iterable[Point]) -> ConvexityReport:
    """Equality-chain variant of the decision; same verdict on every input.

    Computes the full sign table and accepts iff the chain a_2 .. a_{n-2},
    b_2 .. b_{n-1}, c_2 .. c_{n-1} is constant and nonzero.  A broken chain
    is reported as a ConditionId that is genuinely violated (confirmable via
    condition_value).  With s = a_2, three loops compare each family with s;
    two cases need no code:

    - c_2 is never compared: c_2 and b_2 are the same determinant,
      delta(V0, V1, V2), and b_2 = s was checked first.
    - A break b_i != s with i > 2 always violates C2 at i-1, never C1 at
      i-1: every a_j and every earlier b_j equals s by then, so
      a_{i-1} * b_{i-1} = s^2 > 0.
    """
    report = is_strictly_convex(vertices, explain=True)
    if report.signs is None:
        return report
    failed = _first_break(report.signs)
    return ConvexityReport(failed is None, report.n, failed, report.signs)


def _first_break(table: SignTable) -> Optional[ConditionId]:
    a, b, c = table
    s = a[0]
    for i, (a_i, b_i) in enumerate(zip(a, b), 2):
        if a_i == 0:
            return ConditionId(1, i)
        if a_i != s:
            # a_{i-1} = s != a_i: (C2 i-1) = s*b_i or (C1 i) = a_i*b_i fails.
            return ConditionId(2, i - 1) if s * b_i <= 0 else ConditionId(1, i)
    for i, b_i in enumerate(b, 2):
        if b_i != s:
            return ConditionId(1, 2) if i == 2 else ConditionId(2, i - 1)
    for i, c_i in enumerate(itertools.islice(c, 1, None), 3):
        if c_i != s:
            return ConditionId(3, i - 1)
    return None
