import itertools
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconvex.errors import InvalidConditionId
from polyconvex.fast_test import (ConditionId, ConvexityReport, SignTable,
                                  condition_value, is_strictly_convex,
                                  is_strictly_convex_chain)
from polyconvex.generator import (make_strictly_convex, parabola_polygon,
                                  random_polygon)
from polyconvex.geometry import (AffineMap, Point, delta, delta_evaluations,
                                 sign_of)
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
    m = AffineMap(ma, mb, mc, md, me, mf)
    if m.det == 0:
        return
    mapped = tuple(m.apply(p) for p in poly)
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
])
def test_inexact_coordinates_are_rejected_at_every_size(vertices):
    for decide in (is_strictly_convex, is_strictly_convex_chain):
        with pytest.raises(TypeError):
            decide(vertices)


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
    for explain, collect_signs in SCAN_MODES:
        expected = counted(reference_scan, poly, explain, collect_signs)
        got = counted(is_strictly_convex, poly, explain=explain,
                      collect_signs=collect_signs)
        assert got == expected, (poly, explain, collect_signs)


def test_kernel_matches_reference_loop_on_every_grid_4gon():
    pts = [P(x, y) for x in range(3) for y in range(3)]
    for combo in itertools.product(pts, repeat=4):
        assert_kernel_matches_reference(combo)


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
        m = AffineMap(*coeffs)
        if m.det == 0:
            m = AffineMap(1, 0, 0, 1, *coeffs[4:])
        yield tuple(m.apply(p) for p in poly)


def test_kernel_matches_reference_loop_on_random_polygons():
    rng = random.Random(20061)
    for poly in _random_polygons(rng, 600):
        assert_kernel_matches_reference(poly)
