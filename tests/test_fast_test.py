import contextlib
import itertools
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconvex import fast_test
from polyconvex.fast_test import (ConditionId, ConvexityReport,
                                  InvalidConditionId, SignTable,
                                  condition_value, is_strictly_convex,
                                  is_strictly_convex_chain)
from polyconvex.generator import (make_strictly_convex, parabola_polygon,
                                  random_polygon)
from polyconvex.geometry import (Point, delta, delta_evaluations,
                                 integer_scaled, sign_of)
from polyconvex.oracles import (convex_hull, hull_oracle, matches_hull_order,
                                strictly_convex_oracle)

P = Point
SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
SWAPPED_SQUARE = (P(0, 0), P(1, 1), P(1, 0), P(0, 1))  # square in order 0,2,1,3
MIRRORED_SQUARE = (P(0, 0), P(0, 1), P(1, 1), P(1, 0))

grid_points = st.builds(Point, st.integers(0, 3), st.integers(0, 3))
small_polygons = st.lists(grid_points, min_size=0, max_size=9).map(tuple)


def test_square_is_strictly_convex():
    report = is_strictly_convex(SQUARE)
    assert report.verdict and report.failed is None and report.n == 4


def test_swapped_square_rejected_with_first_failure():
    # Conditions C2 and C3 both fail at i=2 here; the scan order
    # (i ascending, then omega 1, 2, 3) makes C2 the reported one.
    report = is_strictly_convex(SWAPPED_SQUARE)
    assert not report.verdict
    assert report.failed == ConditionId(2, 2)
    assert condition_value(SWAPPED_SQUARE, ConditionId(3, 2)) <= 0


@pytest.mark.parametrize("vertices", [
    (), (P(3, 7),), (P(0, 0), P(1, 0)), (P(2, 2), P(2, 2)),
])
def test_tiny_polygons_accepted(vertices):
    report = is_strictly_convex(vertices)
    assert report.verdict and report.failed is None and report.signs is None


def test_collinear_triangle_rejected_without_condition_id():
    report = is_strictly_convex((P(0, 0), P(1, 0), P(2, 0)))
    assert not report.verdict
    assert report.failed is None  # no condition vocabulary exists at n=3


def test_proper_triangle_accepted():
    assert is_strictly_convex((P(0, 0), P(1, 0), P(0, 1))).verdict


def test_sign_table_unit_square():
    t = is_strictly_convex(SQUARE, explain=True).signs
    assert t.a == [1]
    assert t.b == [1, 1]
    assert t.c == [1, 1]


def test_sign_table_reversed_square_all_negative():
    t = is_strictly_convex(tuple(reversed(SQUARE)), explain=True).signs
    assert set(t.a) == set(t.b) == set(t.c) == {-1}


def test_sign_table_swapped_square_c_signs():
    t = is_strictly_convex(SWAPPED_SQUARE, explain=True).signs
    assert t.c[0] == -1 and t.c[1] == 1  # c_2 and c_3


def test_chain_square_all_positive():
    report = is_strictly_convex_chain(SQUARE)
    assert report.verdict
    values = report.signs.a + report.signs.b + report.signs.c
    assert values == [1] * 5


def test_chain_mirrored_square_all_negative():
    report = is_strictly_convex_chain(MIRRORED_SQUARE)
    assert report.verdict
    values = report.signs.a + report.signs.b + report.signs.c
    assert values == [-1] * 5


def test_chain_rejects_swapped_square():
    assert not is_strictly_convex_chain(SWAPPED_SQUARE).verdict


# One polygon per way the chain can break, with the condition the chain
# decider reported for it when it still walked one flat list of signs.
CHAIN_BREAKS = {
    "a2-zero": ((P(0, 0), P(0, 1), P(1, 1), P(2, 1)), ConditionId(1, 2)),
    "later-a-zero": ((P(0, 0), P(0, 1), P(0, 2), P(1, 1), P(1, 0), P(1, 2)),
                     ConditionId(1, 4)),
    "a-break-to-C2": ((P(0, 0), P(0, 1), P(0, 2), P(2, 1), P(1, 1), P(1, 0)),
                      ConditionId(2, 3)),
    "a-break-to-C1": ((P(0, 0), P(0, 1), P(0, 2), P(1, 1), P(1, 0), P(2, 0)),
                      ConditionId(1, 4)),
    "b2-zero": ((P(0, 0), P(0, 1), P(0, 2), P(1, 0)), ConditionId(1, 2)),
    "b2-not-a2": ((P(0, 0), P(0, 1), P(1, 0), P(0, 2)), ConditionId(1, 2)),
    "b-break": ((P(0, 0), P(0, 1), P(1, 2), P(2, 1), P(1, 0), P(0, 2)),
                ConditionId(2, 4)),
    "c-break": ((P(0, 1), P(0, 0), P(1, 0), P(2, 1), P(1, 2), P(0, 2)),
                ConditionId(3, 4)),
}


@pytest.mark.parametrize("name", CHAIN_BREAKS)
def test_chain_failure_is_pinned_for_every_break(name):
    poly, failed = CHAIN_BREAKS[name]
    report = is_strictly_convex_chain(poly)
    assert not report.verdict and report.failed == failed
    assert condition_value(poly, failed) <= 0
    assert is_strictly_convex_chain(iter(poly)) == report


@given(poly=small_polygons)
@settings(max_examples=400)
def test_chain_and_scan_agree(poly):
    assert is_strictly_convex(poly).verdict == is_strictly_convex_chain(poly).verdict


def test_chain_and_scan_agree_exhaustive_tiny_grid():
    pts = [P(x, y) for x in range(2) for y in range(2)]
    for n in (3, 4, 5):
        for combo in itertools.product(pts, repeat=n):
            assert (is_strictly_convex(combo).verdict
                    == is_strictly_convex_chain(combo).verdict)


@given(poly=small_polygons)
@settings(max_examples=300)
def test_chain_failure_is_confirmed_by_raw_products(poly):
    report = is_strictly_convex_chain(poly)
    if report.failed is not None:
        assert condition_value(poly, report.failed) <= 0


@given(poly=small_polygons)
@settings(max_examples=300)
def test_scan_failure_is_confirmed_by_raw_products(poly):
    report = is_strictly_convex(poly)
    if report.failed is not None:
        assert condition_value(poly, report.failed) <= 0


@given(poly=small_polygons)
@settings(max_examples=300)
def test_scan_reports_first_failure_in_scan_order(poly):
    report = is_strictly_convex(poly)
    if report.failed is None:
        return
    n = len(poly)
    violated = [(i, omega) for i in range(2, n - 1) for omega in (1, 2, 3)
                if condition_value(poly, ConditionId(omega, i)) <= 0]
    assert violated[0] == (report.failed.i, report.failed.omega)


def test_oracle_equivalence_small_grid():
    pts = [P(x, y) for x in range(2) for y in range(2)]
    for n in (3, 4):
        for combo in itertools.product(pts, repeat=n):
            assert is_strictly_convex(combo).verdict == strictly_convex_oracle(combo)


@given(poly=small_polygons, rot=st.integers(0, 8), rev=st.booleans())
@settings(max_examples=300)
def test_verdict_invariant_under_rotation_and_reversal(poly, rot, rev):
    base = is_strictly_convex(poly).verdict
    seq = poly
    if poly:
        k = rot % len(poly)
        seq = poly[k:] + poly[:k]
    if rev:
        seq = tuple(reversed(seq))
    assert is_strictly_convex(seq).verdict == base


affine_scalars = st.integers(min_value=-5, max_value=5)


@given(poly=small_polygons, ma=affine_scalars, mb=affine_scalars,
       mc=affine_scalars, md=affine_scalars, me=affine_scalars,
       mf=affine_scalars)
@settings(max_examples=300)
def test_verdict_invariant_under_invertible_affine_maps(poly, ma, mb, mc, md,
                                                        me, mf):
    if ma * md - mb * mc == 0:
        return
    mapped = tuple(Point(ma * p.x + mb * p.y + me, mc * p.x + md * p.y + mf)
                   for p in poly)
    assert is_strictly_convex(mapped).verdict == is_strictly_convex(poly).verdict


@pytest.mark.parametrize("n", [4, 5, 8, 12])
def test_hereditary_under_vertex_deletion(n):
    poly = make_strictly_convex(n)
    assert is_strictly_convex(poly).verdict
    for i in range(n):
        assert is_strictly_convex(poly[:i] + poly[i + 1:]).verdict


@pytest.mark.parametrize("n", [4, 10, 100])
def test_work_bound_exact(n):
    poly = random_polygon(n, 50, rng_seed=n)
    before = delta_evaluations()
    is_strictly_convex(poly, explain=True)
    assert delta_evaluations() - before == 3 * (n - 3) + 3


def test_explain_mode_fills_table_past_failure():
    report = is_strictly_convex(SWAPPED_SQUARE, explain=True)
    assert not report.verdict
    assert report.failed == ConditionId(2, 2)
    # a_2 only; b_2, b_3 and c_2, c_3
    assert len(report.signs.a) == 1
    assert len(report.signs.b) == len(report.signs.c) == 2


def test_fail_fast_table_stops_at_failure():
    # first violation on a hexagon leaves later indices unpopulated
    poly = (P(0, 0), P(4, 0), P(1, 1), P(4, 4), P(2, 5), P(0, 4))
    report = is_strictly_convex(poly)
    assert not report.verdict
    full = is_strictly_convex(poly, explain=True).signs
    assert len(report.signs.b) < len(full.b)


def test_sign_table_costs_at_most_32_bytes_per_vertex():
    # Three lists of cached small ints take 24 bytes per vertex; the JSON
    # payload shares them rather than copying.
    n = 10**5
    poly = parabola_polygon(n)
    tracemalloc.start()
    payload = is_strictly_convex(poly, explain=True).to_json_dict()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert payload["verdict"] and len(payload["signs"]["a"]) == n - 3
    assert peak < 32 * n, peak


def test_collect_signs_off_returns_no_table():
    report = is_strictly_convex(SQUARE, collect_signs=False)
    assert report.verdict and report.signs is None


def test_condition_value_validates_id():
    with pytest.raises(InvalidConditionId):
        condition_value(SQUARE, ConditionId(4, 2))
    with pytest.raises(InvalidConditionId):
        condition_value(SQUARE, ConditionId(1, 3))


def test_report_json_shape():
    payload = is_strictly_convex(SWAPPED_SQUARE).to_json_dict()
    assert payload["verdict"] is False
    assert payload["n"] == 4
    assert payload["failed"] == {"omega": 2, "i": 2}
    assert set(payload["signs"]) == {"a", "b", "c"}
    assert all(s in (-1, 0, 1) for row in payload["signs"].values() for s in row)


def test_report_json_null_signs_for_small_n():
    payload = is_strictly_convex((P(0, 0), P(1, 0))).to_json_dict()
    assert payload == {"verdict": True, "n": 2, "failed": None, "signs": None}


def test_exact_fraction_coordinates_near_collinear():
    # a vertex displaced by 1e-40 off a collinear triple must still be seen
    eps = Fraction(1, 10**40)
    poly = (P(0, 0), P(1, 0), P(2, eps), P(0, 1))
    assert is_strictly_convex(poly).verdict == strictly_convex_oracle(poly)
    flat = (P(0, 0), P(1, 0), P(2, 0), P(0, 1))
    assert not is_strictly_convex(flat).verdict


# Strictly convex in exact arithmetic, yet float arithmetic rejects it.
FLOAT_QUAD = ((0.0, 0.0), (0.5, -1.0), (1.0, 0.30000000000000004),
              (0.763774618976614, 0.22913238569298425))


def test_float_coordinates_are_rejected():
    exact = tuple(P(Fraction(x), Fraction(y)) for x, y in FLOAT_QUAD)
    assert is_strictly_convex(exact).verdict
    assert strictly_convex_oracle(exact)
    assert condition_value(exact, ConditionId(1, 2)) > 0
    assert matches_hull_order(exact) and len(convex_hull(exact)) == 4
    for decide in (is_strictly_convex, is_strictly_convex_chain,
                   strictly_convex_oracle, hull_oracle, convex_hull,
                   matches_hull_order,
                   lambda v: condition_value(v, ConditionId(1, 2))):
        with pytest.raises(TypeError, match="float"):
            decide(FLOAT_QUAD)


@pytest.mark.parametrize("vertices", [
    ((0.5, 0),),
    ((0, 0), (1, 0), (0, 1.0)),
    (P(0, 0), P(1, 0), P(1, 1), P(Decimal("0.1"), 1)),
    # Past the first failure, C2 at i = 2, up to which a stream is scanned.
    SWAPPED_SQUARE + ((0.5, 0),),
])
def test_inexact_coordinates_are_rejected_at_every_size(vertices):
    for decide in (is_strictly_convex, is_strictly_convex_chain):
        for given in (vertices, iter(vertices)):
            with pytest.raises(TypeError):
                decide(given)


class Ratio(Fraction):
    pass


def test_only_int_and_fraction_coordinates_are_exact():
    # numpy integers wrap at 64 bits: every product of this strictly convex
    # square overflows, and a decider that took them would reject it.
    np = pytest.importorskip("numpy", exc_type=ImportError)
    big = 1 << 40
    square = ((0, 0), (big, 0), (big, big), (0, big))
    wrapping = tuple((np.int64(x), np.int64(y)) for x, y in square)
    for decide in (is_strictly_convex, lambda v: is_strictly_convex(iter(v)),
                   is_strictly_convex_chain, strictly_convex_oracle,
                   hull_oracle, convex_hull,
                   lambda v: condition_value(v, ConditionId(1, 2))):
        with pytest.raises(TypeError, match="int64"):
            decide(wrapping)
    # Subclasses of int, bool among them, and of Fraction stay exact.
    for exact in (square, tuple((x == big, y == big) for x, y in square),
                  tuple((Ratio(x, 3), Ratio(y, 3)) for x, y in square)):
        for decide in (lambda v: is_strictly_convex(v).verdict,
                       lambda v: is_strictly_convex(iter(v)).verdict,
                       lambda v: is_strictly_convex_chain(v).verdict,
                       strictly_convex_oracle, hull_oracle):
            assert decide(exact)


def reference_scan(vertices, explain=False, collect_signs=True):
    """The scan as first written, for n >= 4: three delta() calls and three
    sign_of() calls per step, with the wrap-around taken by % n."""
    n = len(vertices)
    table = SignTable([], [], []) if collect_signs else None
    v0, v1 = vertices[0], vertices[1]
    failed = None
    prev_a = prev_b = prev_c = 0
    for i in range(2, n):
        a_i = sign_of(delta(vertices[i - 1], vertices[i], vertices[(i + 1) % n]))
        b_i = sign_of(delta(v0, vertices[i - 1], vertices[i]))
        c_i = sign_of(delta(v0, v1, vertices[i]))
        if table is not None:
            if i <= n - 2:
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
                return ConvexityReport(False, n, failed, table)
        prev_a, prev_b, prev_c = a_i, b_i, c_i
    return ConvexityReport(failed is None, n, failed, table)


SCAN_MODES = [(False, True), (True, True), (False, False), (True, False)]


def counted(fn, *args, **kwargs):
    before = delta_evaluations()
    result = fn(*args, **kwargs)
    return result, delta_evaluations() - before


def assert_kernel_matches_reference(poly):
    """The kernel agrees with the reference on the polygon given as a tuple
    and as a stream, in every mode."""
    for explain, collect_signs in SCAN_MODES:
        expected = counted(reference_scan, poly, explain, collect_signs)
        for vertices in (poly, iter(poly)):
            got = counted(is_strictly_convex, vertices, explain=explain,
                          collect_signs=collect_signs)
            assert got == expected, (poly, explain, collect_signs)


def test_kernel_matches_reference_loop_on_every_grid_4gon():
    pts = [P(x, y) for x in range(3) for y in range(3)]
    for combo in itertools.product(pts, repeat=4):
        assert_kernel_matches_reference(combo)


def chain_first_break(table):
    """The chain decider's report as a second pass over a full sign table:
    with s = a_2, the first a, then b, then c that differs from s."""
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


def assert_chain_reports_first_break(poly):
    expected = None
    if len(poly) >= 4:
        expected = chain_first_break(reference_scan(poly, explain=True).signs)
    for vertices in (poly, iter(poly)):
        assert is_strictly_convex_chain(vertices).failed == expected, poly


def test_chain_reports_first_break_on_every_grid_4gon():
    pts = [P(x, y) for x in range(3) for y in range(3)]
    for combo in itertools.product(pts, repeat=4):
        assert_chain_reports_first_break(combo)


@given(poly=small_polygons)
@settings(max_examples=400)
def test_chain_reports_first_break(poly):
    assert_chain_reports_first_break(poly)


def test_failed_is_a_condition_id_on_every_grid_4gon():
    # A plain (omega, i) tuple compares equal to its ConditionId, so the
    # comparisons with reference_scan cannot tell the two apart.
    pts = [P(x, y) for x in range(3) for y in range(3)]
    for combo in itertools.product(pts, repeat=4):
        reports = [is_strictly_convex(combo, explain=explain,
                                      collect_signs=collect_signs)
                   for explain, collect_signs in SCAN_MODES]
        reports.append(is_strictly_convex_chain(combo))
        for report in reports:
            assert (report.failed is None
                    or type(report.failed) is ConditionId), (combo, report)


def _random_polygons(rng, count):
    """Seeded 5..9-gons: lattice noise (mostly early failures) and affine
    images of convex parabola polygons, some with one vertex displaced, in
    both orientations and with int or Fraction coordinates."""
    for _ in range(count):
        n = rng.randint(5, 9)
        if rng.random() < 0.3:
            yield tuple(P(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(n))
            continue
        poly = list(parabola_polygon(n))
        if rng.random() < 0.5:
            k = rng.randrange(n)
            poly[k] = P(poly[k].x + rng.randint(-2, 2),
                        poly[k].y + rng.randint(-2, 2))
        if rng.random() < 0.5:
            poly.reverse()
        if rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(6)]
        else:
            coeffs = [rng.randint(-9, 9) for _ in range(6)]
        a, b, c, d, e, f = coeffs
        if a * d - b * c == 0:
            a, b, c, d = 1, 0, 0, 1
        yield tuple(P(a * x + b * y + e, c * x + d * y + f) for x, y in poly)


def test_kernel_matches_reference_loop_on_random_polygons():
    rng = random.Random(20061)
    for poly in _random_polygons(rng, 600):
        assert_kernel_matches_reference(poly)


# 2^p - 1 for distinct primes p are pairwise coprime, since
# gcd(2^p - 1, 2^q - 1) = 2^gcd(p, q) - 1.
COPRIME_DENOMINATORS = [2**p - 1 for p in (61, 67, 71, 73, 79, 83, 89, 97)]
# Products of powers of 2 and 3: they share factors, and their lcm never
# outgrows the scaling guard.
SHARED_DENOMINATORS = (2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72)


def _exact(value):
    """An int where the value is whole, so polygons mix int and Fraction."""
    return value.numerator if value.denominator == 1 else value


@st.composite
def rational_polygons(draw):
    """(polygon, coprime): 4..9-gons, lattice noise or a parabola polygon
    (convex, some vertices nudged), translated to negative coordinates, with
    each axis divided by a denominator of SHARED_DENOMINATORS.  If coprime,
    one axis of each of 6..9 vertices is also moved by 1/m, with a distinct
    m from COPRIME_DENOMINATORS at every vertex."""
    coprime = draw(st.booleans())
    n = draw(st.integers(6 if coprime else 4, 9))
    if draw(st.booleans()):
        base = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                             min_size=n, max_size=n))
    else:
        base = [(t, t * t) for t in range(n)]
        if draw(st.booleans()):
            base.reverse()
    tx, ty = draw(st.integers(-30, 0)), draw(st.integers(-30, 0))
    sx, sy = (draw(st.sampled_from(SHARED_DENOMINATORS)) for _ in "xy")
    nudges = draw(st.lists(st.tuples(st.integers(-2, 2),
                                     st.sampled_from(SHARED_DENOMINATORS)),
                           min_size=n, max_size=n))
    poly = [[Fraction(x + tx, sx) + Fraction(r, d), Fraction(y + ty, sy)]
            for (x, y), (r, d) in zip(base, nudges)]
    if coprime:
        axis = draw(st.integers(0, 1))
        dens = draw(st.permutations(COPRIME_DENOMINATORS))
        for point, m in zip(poly, dens):
            point[axis] += Fraction(draw(st.sampled_from((-1, 1))), m)
    return tuple(P(_exact(x), _exact(y)) for x, y in poly), coprime


@contextlib.contextmanager
def refusals(note=lambda: None):
    """Record the scaling guard's fallback: each call of _Scale.refuse
    appends note() to the list yielded."""
    notes = []
    refuse = fast_test._Scale.refuse

    def recording(scale):
        notes.append(note())
        return refuse(scale)

    with mock.patch.object(fast_test._Scale, "refuse", recording):
        yield notes


@contextlib.contextmanager
def fraction_arithmetic():
    """Record each Fraction sum, difference or product made in the block:
    none once every coordinate the scan works on is a scaled int."""
    calls = []
    with contextlib.ExitStack() as stack:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__"):
            def counting(a, b, op=getattr(Fraction, name), name=name):
                calls.append(name)
                return op(a, b)

            stack.enter_context(mock.patch.object(Fraction, name, counting))
        yield calls


@given(case=rational_polygons())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_loop_on_rational_polygons(case):
    poly, coprime = case
    with refusals() as refused, fraction_arithmetic() as arithmetic:
        is_strictly_convex(poly, explain=True)
    # Both sides of the guard: shared denominators are scaled away, so the
    # scan is all ints, and pairwise-coprime ones keep the Fraction scan.
    assert bool(arithmetic) == bool(refused) == coprime
    assert_kernel_matches_reference(poly)


@st.composite
def growing_denominators(draw):
    """Parabola n-gons (t, t^2), maybe reversed, with y nudged at each
    vertex by r/s for s from SHARED_DENOMINATORS, so that the scale grows
    mid-polygon, and one axis of the vertices k .. k+7 nudged by 1/m, with
    the eight COPRIME_DENOMINATORS in a drawn order.  No seven of those
    fit under the scaling guard, so it refuses after the head and before
    the end."""
    k = draw(st.integers(4, 8))
    n = draw(st.integers(k + 9, k + 12))
    base = [[t, t * t + Fraction(draw(st.integers(-1, 1)),
                                 draw(st.sampled_from(SHARED_DENOMINATORS)))]
            for t in range(n)]
    if draw(st.booleans()):
        base.reverse()
    axis = draw(st.integers(0, 1))
    dens = draw(st.permutations(COPRIME_DENOMINATORS))
    for point, m in zip(base[k:], dens):
        point[axis] += Fraction(draw(st.sampled_from((-1, 1))), m)
    return tuple(P(_exact(x), _exact(y)) for x, y in base)


@given(poly=growing_denominators())
@settings(max_examples=100, deadline=None)
def test_guard_refuses_mid_polygon_and_the_scan_stays_exact(poly):
    read = []

    def stream():
        for point in poly:
            read.append(point)
            yield point

    with refusals(lambda: len(read)) as refused:
        report = is_strictly_convex(stream(), explain=True)
    assert len(refused) == 1 and 4 < refused[0] < len(poly), refused
    assert report == reference_scan(poly, explain=True)
    assert_kernel_matches_reference(poly)


@given(poly=st.one_of(rational_polygons().map(itemgetter(0)),
                      growing_denominators()))
@settings(max_examples=300, deadline=None)
def test_integer_scaled_refuses_as_often_as_the_scan(poly):
    # One guard for the eager and the streaming scaling: both read each
    # axis's values in the same order, so both refuse as often.
    with refusals() as streamed:
        is_strictly_convex(poly, explain=True)
    with refusals() as eager:
        integer_scaled(poly)
    assert len(eager) == len(streamed)


def test_guard_refuses_one_axis_and_scales_the_other():
    # x = t + 1/m with pairwise-coprime m outgrows the guard; y = t^2/6
    # shares the denominator 6 and becomes ints.
    poly = [P(t + Fraction(1, m), Fraction(t * t, 6))
            for t, m in enumerate(COPRIME_DENOMINATORS)]
    with refusals() as refused:
        scaled = integer_scaled(poly)
    assert len(refused) == 1
    xs, ys = zip(*scaled)
    assert list(xs) == [x for x, _ in poly]
    assert list(ys) == [t * t for t in range(len(poly))]
    assert all(type(y) is int for y in ys)
    assert strictly_convex_oracle(poly) and hull_oracle(poly)
    assert is_strictly_convex(poly).verdict
    assert is_strictly_convex_chain(poly).verdict


def _primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def test_scaling_guard_keeps_distinct_prime_denominators_unscaled():
    n = 500
    convex = tuple(P(t, Fraction(t * t * p + 1, p))
                   for t, p in zip(range(n), _primes(n)))
    with refusals() as refused, fraction_arithmetic() as arithmetic:
        report = is_strictly_convex(convex, explain=True)
    assert refused and arithmetic
    assert report.verdict and report == reference_scan(convex, explain=True)
    # The same parabola nudged by 1/2^k keeps the scaled scan.
    dyadic = tuple(P(t, Fraction(t * t * 2**k + 1, 2**k))
                   for t, k in zip(range(n), itertools.cycle(range(1, 9))))
    with refusals() as refused, fraction_arithmetic() as arithmetic:
        assert is_strictly_convex(dyadic).verdict
    assert not refused and not arithmetic


def test_scaling_guard_refuses_after_a_few_coprime_denominators(monkeypatch):
    # x = t + 1/(2^p - 1) for the first 256 primes p above 11,000: each
    # denominator is about 11,000 bits long, and the lcm of all 256 has about
    # 2.8 million bits and takes seconds to compute.  The guard must refuse a
    # few denominators in, and let the rest pass unscaled.
    primes = [p for p in _primes(1600) if p > 11000][:256]
    poly = tuple(P(t + Fraction(1, 2**p - 1), t * t)
                 for t, p in enumerate(primes))
    gcd = math.gcd
    denominators = []

    def counting_gcd(scale, den):
        denominators.append(den)
        return gcd(scale, den)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    scale = fast_test._Scale()
    with refusals(lambda: len(denominators)) as refused:
        scaled = [scale.scale(x) for x, _ in poly]
    assert len(refused) == 1 and refused[0] <= 8, refused
    # No gcd step follows but the one that makes the 1/d factor.
    assert len(denominators) <= refused[0] + 1
    assert scaled[-1] == (poly[-1].x, 1)
