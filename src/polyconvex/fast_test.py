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

The scan decides in runs.  On a strictly convex polygon every step after
step 2 is one run of signs equal to s, and such a step changes nothing
but the table.  When s = a_2 < 0, step 2 swaps x and y, in the window and
in every block read after it: a reflection, which negates every
determinant, so that a step in the run has three positive determinants.
It compares each determinant's two products and goes on, with no sign and
no append.  Any other step takes the full path, its signs mapped back
through the reflection.  The sign table is filled by runs: each list is
extended by s once per step of the run when the next full step or the end
of the scan closes it.

The scan reads the polygon a block at a time, as int columns, one per
axis, and multiplies its window by each axis's growth factor once per
block, so the polygon is read once and no copy of it is made.  ``check``
hands the deciders the file reader's blocks
(``polyfile.iter_polygon_blocks``), exact ratio columns, which need no
check; each axis of a block goes through its ``geometry._Scale``
once, in its batch form: the scale grows over the values whose
denominators do not divide it, each found by a search in C, and the block
comes out as ints, or as exact Fractions on an axis the guard refuses,
whose factor 1/d turns the window back into exact values.  Any other
iterable of (x, y) pairs is read once, _CHUNK points at a time, and each
chunk is checked there, at the boundary: every point must be a pair, and
every coordinate an exact rational, an int or a Fraction
(``geometry.require_exact``).  A float, say, raises TypeError naming the
type of the first such coordinate: a rounded product near a collinear
triple can flip a sign.  A chunk of ints is one block; in any other, each
value goes through one ``_Scale.scale``, and a new block starts wherever a
scale grows, so that the values before a growth are scanned at the
smaller d, and a fail-fast scan scales nothing past its stop.  The
per-vertex loop of the scan is left with no type test, no scaling and no
orientation test.

``condition_value`` stays on raw ``delta`` products of the unscaled input,
as a check that shares neither the kernel nor its scaling.

Base cases: every polygon with n <= 2 is strictly convex, and a triangle is
strictly convex iff its three vertices are not collinear.

A fail-fast scan stops taking determinants one step past the first
failure's index, but still reads the input to its end, to count n and to
raise on a bad point past the failure.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional

from .geometry import (Point, RatioBlocks, _Scale, add_delta_evaluations,
                       delta, require_exact)

# Points taken at a time from an iterable that is not the file reader's
# block stream.
_CHUNK = 256

_INT_KINDS = frozenset({int})
_EXACT_KINDS = frozenset({int, Fraction})


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


def _base_case(xs: list, ys: list) -> ConvexityReport:
    n = len(xs)
    if n <= 2:
        return ConvexityReport(True, n)
    return ConvexityReport(delta(*zip(xs, ys)) != 0, 3)


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


def is_strictly_convex_chain(vertices: Iterable[Point], *,
                             collect_signs: bool = True) -> ConvexityReport:
    """Equality-chain variant of the decision; same verdict on every input.

    Runs the full scan and accepts iff the chain a_2 .. a_{n-2},
    b_2 .. b_{n-1}, c_2 .. c_{n-1} is constant and nonzero.  A broken chain
    is reported as a ConditionId that is genuinely violated (confirmable via
    condition_value): a's first break if there is one, else b's, else c's.
    ``collect_signs=False`` skips the sign table, as in
    ``is_strictly_convex``; the verdict and the condition stay the same.
    """
    return _decide(vertices, True, collect_signs, chain=True)


def _decide(vertices, explain: bool, collect_signs: bool,
            chain: bool) -> ConvexityReport:
    sx, sy = _Scale(), _Scale()
    # The vertices of each block or chunk, as it is read.
    sizes = []
    if type(vertices) is RatioBlocks:
        columns = _counted(map(_ratio_columns, vertices.blocks), sizes)
        blocks = map(_scaled, columns, itertools.repeat(sx),
                     itertools.repeat(sy))
    elif type(vertices) in (tuple, list) and 0 < len(vertices) <= _CHUNK:
        # One chunk, read at once: the library's usual call, on polygons
        # small enough to notice the set-up.
        sizes.append(len(vertices))
        columns = ()
        blocks = iter(_scaled_chunk(_exact_columns(vertices), sx, sy))
    else:
        points = iter(vertices)
        columns = _counted(map(_exact_columns, iter(
            lambda: list(itertools.islice(points, _CHUNK)), [])), sizes)
        blocks = itertools.chain.from_iterable(map(
            _scaled_chunk, columns, itertools.repeat(sx),
            itertools.repeat(sy)))
    X, Y = next(blocks, ((), ()))[:2]
    # V0 .. V3 may span blocks, each scaling the values before it.
    while len(X) < 4:
        block = next(blocks, None)
        if block is None:
            return _base_case(X, Y)
        X = [x * block[2] for x in X] + list(block[0])
        Y = [y * block[3] for y in Y] + list(block[1])
    i, breaks, table = _scan(X, Y, blocks, explain, collect_signs)
    add_delta_evaluations(3 * (i - 1))
    # The columns left after a fail-fast stop are still read, so that a
    # malformed or inexact point raises, and counted.
    for _ in columns:
        pass
    n = sum(sizes)
    if table is not None and len(table.a) == n - 2:
        # a_{n-1} wraps around to V0 and enters no condition.
        table.a.pop()
    failed = (next(filter(None, breaks), None) if chain else
              min(filter(None, breaks), key=itemgetter(1, 0), default=None))
    failed = ConditionId(*failed) if failed else None
    return ConvexityReport(failed is None, n, failed, table)


def _counted(columns, sizes: list):
    """``columns``, each one's length appended to ``sizes`` as it is
    read."""
    for column in columns:
        sizes.append(len(column[0]))
        yield column


def _exact_columns(chunk: list) -> tuple:
    """A chunk of points as (xs, ys, ints): its x and y columns, and
    whether every coordinate is an int.  Each point must be an (x, y) pair,
    and each coordinate an int or a Fraction (``require_exact``)."""
    try:
        xs, ys = zip(*chunk, strict=True)
    except ValueError:
        # The points ahead of the first that is not a pair are checked
        # first, as a scan of one point at a time would.
        require_exact(list(itertools.takewhile(lambda p: len(p) == 2, chunk)))
        raise ValueError("each point must be an (x, y) pair") from None
    kinds = set(map(type, xs + ys))
    if not kinds <= _EXACT_KINDS:
        require_exact(list(zip(xs, ys)))
    return xs, ys, kinds <= _INT_KINDS


def _scaled_chunk(columns: tuple, sx: _Scale, sy: _Scale):
    """A chunk's exact columns as blocks (X, Y, gx, gy), as ``_scaled``
    gives a block of the reader's: a chunk of ints as one block, any other
    as ``_scaled_values`` gives it."""
    xs, ys, ints = columns
    if ints:
        return [(sx.scale_column(xs, None)[0], sy.scale_column(ys, None)[0],
                 1, 1)]
    return _scaled_values(xs, ys, sx, sy)


def _scaled_values(xs, ys, sx: _Scale, sy: _Scale):
    """Blocks (X, Y, gx, gy) of exact values scaled one ``_Scale.scale``
    per value, as the scan reads them.  A new block starts wherever a scale
    grows or refuses, so that each value is scaled by the d of its place
    in the polygon: a polygon whose denominators grow along it, as the
    generator's do, is not scanned at its last d, nor in Fractions from
    its start when a late value is refused, and a fail-fast scan does not
    scale the values past its stop."""
    X = Y = None
    for x, y in zip(xs, ys):
        x, hx = sx.scale(x)
        y, hy = sy.scale(y)
        if X is None or hx != 1 or hy != 1:
            if X is not None:
                yield X, Y, gx, gy
            X, Y, gx, gy = [], [], hx, hy
        X.append(x)
        Y.append(y)
    yield X, Y, gx, gy


def _ratio_columns(block) -> tuple:
    """One of the file reader's interleaved ratio blocks as ratio columns,
    (x_nums, x_dens, y_nums, y_dens), each dens None if the block holds
    only ints."""
    nums, dens = block
    return (nums[0::2], dens and dens[0::2], nums[1::2], dens and dens[1::2])


def _scaled(columns: tuple, sx: _Scale, sy: _Scale) -> tuple:
    """A block's ratio columns as (X, Y, gx, gy): its x values scaled by
    sx and its y values by sy, each after its scale has grown over the
    block, and the factors by which the values scaled before must be
    multiplied to stay in step."""
    x_nums, x_dens, y_nums, y_dens = columns
    xs, gx = sx.scale_column(x_nums, x_dens)
    ys, gy = sy.scale_column(y_nums, y_dens)
    return xs, ys, gx, gy


def _scan(xs, ys, blocks, explain: bool, collect_signs: bool):
    """The scan kernel behind every decision path.

    ``xs`` and ``ys``, the columns of the first block, hold V0 .. V3 and
    maybe more; ``blocks`` gives the columns of the vertices after them a
    block at a time, as (X, Y, gx, gy), where the window must be multiplied
    by gx and gy before the block is read.  Step i
    (2 <= i <= n-1) works on coordinates translated to V0: p = V[i-1],
    c = V[i], q = V[i+1] (the origin at the last step, i = n-1), with
    u = V1 - V0 and the edges e = c - p, f = q - c.  Then

        a_i = e x f     (= delta(V[i-1], V[i], V[i+1]))
        b_i = p x c     (= delta(V0, V[i-1], V[i]))
        c_i = u x c     (= delta(V0, V1, V[i]))

    and the window slides by c -> p, q -> c, f -> e, so each coordinate
    difference is taken once.  The determinants are evaluated inline rather
    than through geometry.delta; the caller counts them, three per step.

    The scan decides in runs.  Step 2 sets s = a_2; if s < 0 it swaps x
    and y, in the window and in every block after, a reflection that
    negates every determinant, so that a step whose three signs equal s
    has three positive determinants.  Such a hot step compares each
    determinant's two products, e.g. ex*fy > ey*fx, and goes on: it takes
    no sign and appends nothing.  A run starts after a step whose three
    signs are s != 0 and lasts while the comparisons hold.  Every other
    step takes the slow path: it computes the three signs, mapped back by
    the orientation o (-1 once swapped, else 1), and records the breaks.
    The sign table is filled by runs: a slow step or the end of the scan
    first extends each list by o = s once for every hot step since the
    last slow one.

    Returns (i, breaks, table): the last step i taken, and the first
    break of a, b and c as an (omega, i) tuple, or None for each family
    that holds.
    """
    x0, y0 = xs[0], ys[0]
    ux, uy = xs[1] - x0, ys[1] - y0
    cx, cy = xs[2] - x0, ys[2] - y0
    qx, qy = xs[3] - x0, ys[3] - y0
    ex, ey = cx - ux, cy - uy
    fx, fy = qx - cx, qy - cy
    # Step 2, where p = u, so that b_2 = c_2.
    a = ex * fy - ey * fx
    b = ux * cy - uy * cx
    s = (a > 0) - (a < 0)
    b_2 = (b > 0) - (b < 0)
    table = SignTable([s], [b_2], [b_2]) if collect_signs else None
    break_a = step_a = break_c = None
    if not s:
        break_a, step_a = (1, 2), 2
    break_b = (1, 2) if b_2 != s else None
    o = -1 if s < 0 else 1
    # A run starts after a step whose three signs are s = o.
    hot = b_2 == s == o
    if not explain and (break_a or break_b):
        # s is None once a fail-fast scan must stop at the next step.
        s = None
    px, py, cx, cy, ex, ey = cx, cy, qx, qy, fx, fy
    if o < 0:
        # Swap x and y: every later sign equal to s is then positive.
        x0, y0, ux, uy, px, py = y0, x0, uy, ux, py, px
        cx, cy, ex, ey = cy, cx, ey, ex
    i = 2
    rest = (xs[4:], ys[4:], 1, 1)
    for block in itertools.chain([rest], blocks, [None]):
        if block is None:
            # The last step, at V0 again: the origin, once translated.
            X, Y = (x0,), (y0,)
        else:
            X, Y, gx, gy = block if o > 0 else (block[1], block[0],
                                                 block[3], block[2])
            if gx != 1:
                x0, ux, px, cx, ex = (x0 * gx, ux * gx, px * gx, cx * gx,
                                      ex * gx)
            if gy != 1:
                y0, uy, py, cy, ey = (y0 * gy, uy * gy, py * gy, cy * gy,
                                      ey * gy)
        # Step i reads V[i+1]: the step of each vertex is told by how many
        # of the block's are left, so the loop counts nothing.
        end = i + len(X)
        unread = iter(X)
        left = unread.__length_hint__
        steps = zip(unread, Y)
        while True:
            if hot:
                # A run: each step compares its products and slides.
                for qx, qy in steps:
                    qx -= x0
                    qy -= y0
                    fx = qx - cx
                    fy = qy - cy
                    if (ex * fy <= ey * fx or px * cy <= py * cx
                            or ux * cy <= uy * cx):
                        break
                    px = cx
                    py = cy
                    cx = qx
                    cy = qy
                    ex = fx
                    ey = fy
                else:
                    break
            else:
                for qx, qy in steps:
                    break
                else:
                    break
                qx -= x0
                qy -= y0
                fx = qx - cx
                fy = qy - cy
            # A slow step.
            i = end - left()
            a = ex * fy - ey * fx
            b = px * cy - py * cx
            c = ux * cy - uy * cx
            a_i = o if a > 0 else -o if a < 0 else 0
            b_i = o if b > 0 else -o if b < 0 else 0
            c_i = o if c > 0 else -o if c < 0 else 0
            if table is not None:
                if hot and len(table.b) < i - 2:
                    _flush(table, o, i - 2)
                table.a.append(a_i)
                table.b.append(b_i)
                table.c.append(c_i)
            if a_i != s or b_i != s or c_i != s:
                if s is None:
                    return i, (break_a, break_b, break_c), table
                if break_a is None and (a_i != s or not s):
                    # a_{i-1} = s: (C1 i) = a_i*b_i or (C2 i-1) = s*b_i fails.
                    break_a = (1, i) if not a_i or b_i == s else (2, i - 1)
                    step_a = i
                if break_b is None and b_i != s:
                    break_b = (2, i - 1)
                if break_c is None and c_i != s:
                    break_c = (3, i - 1)
                if not explain:
                    # Stop one step past the failing index: now for (2, i-1)
                    # and (3, i-1), at the next step for (1, i).
                    if b_i != s or c_i != s:
                        return i, (break_a, break_b, break_c), table
                    if break_a or break_b:
                        s = None
            hot = a_i == b_i == c_i == s == o
            px, py, cx, cy, ex, ey = cx, cy, qx, qy, fx, fy
        i = end
    # a_{n-1} wraps around to V0 and enters no condition.
    if step_a == i:
        break_a = None
    # A scan that stops does so at a slow step, which flushed the run.
    if table is not None and len(table.b) < i - 1:
        _flush(table, o, i - 1)
    return i, (break_a, break_b, break_c), table


def _flush(table: SignTable, sign: int, steps: int) -> None:
    """Extend each list of ``table`` by ``sign`` up to ``steps`` entries:
    one for each hot step of the run that ends here."""
    run = steps - len(table.b)
    for signs in table:
        signs.extend(itertools.repeat(sign, run))
