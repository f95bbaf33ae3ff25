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
exactly 3(n-3)+3.  ``condition_value`` stays on raw ``delta`` products, as a
check that does not share the kernel.

Base cases: every polygon with n <= 2 is strictly convex, and a triangle is
strictly convex iff its three vertices are not collinear.

Every decider raises TypeError on a coordinate that is not an exact rational
(a float, say): a rounded product near a collinear triple can flip a sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import InvalidConditionId
from .geometry import Point, add_delta_evaluations, delta, require_exact


class ConditionId(NamedTuple):
    """One of the 3(n-3) decision conditions: family omega at index i."""

    omega: int
    i: int


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


def _base_case(vertices: Sequence[Point], n: int) -> ConvexityReport:
    require_exact(vertices)
    if n <= 2:
        return ConvexityReport(True, n)
    ok = delta(vertices[0], vertices[1], vertices[2]) != 0
    return ConvexityReport(ok, 3)


def is_strictly_convex(vertices: Sequence[Point], *, explain: bool = False,
                       collect_signs: bool = True) -> ConvexityReport:
    """Decide strict convexity in one pass with O(1) auxiliary state.

    The scan computes three determinant signs per step and checks each index's
    three conditions in order once its forward signs are available, so a full
    run evaluates exactly 3(n-3)+3 determinants for n >= 4.  By default the
    scan stops at the first violated condition; ``explain=True`` keeps going
    and fills the whole sign table.  ``collect_signs=False`` skips the table
    entirely, leaving nothing but the constant-size report (the mode plain
    ``check`` uses).
    """
    n = len(vertices)
    if n <= 3:
        return _base_case(vertices, n)
    failed, table = _scan(vertices, explain, collect_signs)
    return ConvexityReport(failed is None, n, failed, table)


def _scan(vertices: Sequence[Point], explain: bool, collect_signs: bool):
    """The scan kernel behind every decision path; needs n >= 4.

    Step i (2 <= i <= n-1) works on coordinates translated to V0: p = V[i-1],
    c = V[i], q = V[i+1] (V0 at the last step, i.e. the origin), with
    u = V1 - V0 and the edges e = c - p, f = q - c.  Then

        a_i = e x f     (= delta(V[i-1], V[i], V[i+1]))
        b_i = p x c     (= delta(V0, V[i-1], V[i]))
        c_i = u x c     (= delta(V0, V1, V[i]))

    and the window slides by c -> p, q -> c, f -> e, so each coordinate
    difference is taken once.  The determinants are evaluated inline rather
    than through geometry.delta; their count, three per step, is added to the
    delta_evaluations() counter once on exit.  Returns (failed, table).
    """
    require_exact(vertices)
    n = len(vertices)
    x0, y0 = vertices[0]
    ux, uy = vertices[1]
    ux -= x0
    uy -= y0
    cx, cy = vertices[2]
    cx -= x0
    cy -= y0
    px, py = ux, uy
    ex, ey = cx - px, cy - py
    table = SignTable([], [], []) if collect_signs else None
    failed = None
    prev_a = prev_b = prev_c = 0
    following = itertools.chain(itertools.islice(vertices, 3, None),
                                (vertices[0],))
    for i, (qx, qy) in zip(range(2, n), following):
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
    if table is not None and len(table.a) == n - 2:
        # a_{n-1} wraps around to V0 and enters no condition.
        table.a.pop()
    return failed, table


def is_strictly_convex_chain(vertices: Sequence[Point]) -> ConvexityReport:
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
    n = len(vertices)
    if n <= 3:
        return _base_case(vertices, n)
    table = _scan(vertices, True, True)[1]
    failed = _first_break(table)
    return ConvexityReport(failed is None, n, failed, table)


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
