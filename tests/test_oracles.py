import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyconvex.oracles as oracles_module
from conftest import fraction_arithmetic, sign
from polyconvex import generator, geometry
from polyconvex.fast_test import (ConditionId, is_strictly_convex,
                                  is_strictly_convex_chain)
from polyconvex.generator import make_strictly_convex
from polyconvex.geometry import MODULUS, Point, delta, delta_evaluations
from polyconvex.oracles import (TooFewVertices, convex_hull, hull_oracle,
                                is_quasi_strict, is_strict,
                                matches_hull_order, strictly_convex_oracle)

P = Point
SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
SWAPPED_SQUARE = (P(0, 0), P(1, 1), P(1, 0), P(0, 1))
PENTAGON = (P(5, 0), P(2, 4), P(-4, 3), P(-4, -3), P(2, -4))


def test_sidedness_oracle_accepts_square():
    assert strictly_convex_oracle(SQUARE)


def test_sidedness_oracle_rejects_swapped_square():
    assert not strictly_convex_oracle(SWAPPED_SQUARE)


def test_sidedness_oracle_accepts_pentagon():
    assert strictly_convex_oracle(PENTAGON)


@pytest.mark.parametrize("vertices", [(), (P(0, 0),), (P(0, 0), P(1, 0))])
def test_oracles_need_three_vertices(vertices):
    with pytest.raises(TooFewVertices):
        strictly_convex_oracle(vertices)
    with pytest.raises(TooFewVertices):
        hull_oracle(vertices)


@pytest.mark.parametrize("oracle", [strictly_convex_oracle, hull_oracle])
@pytest.mark.parametrize("polygon", [SQUARE, SWAPPED_SQUARE],
                         ids=["square", "swapped-square"])
def test_oracles_read_a_one_shot_iterable_once(oracle, polygon):
    assert oracle(iter(polygon)) == oracle(polygon)

def test_hull_oracle_accepts_square():
    assert hull_oracle(SQUARE)


def test_hull_oracle_rejects_swapped_square():
    assert not hull_oracle(SWAPPED_SQUARE)


def test_hull_oracle_rejects_vertex_on_hull_edge():
    assert not hull_oracle((P(0, 0), P(2, 0), P(1, 1), P(0, 2)))


def test_hull_oracle_rejects_interior_vertex():
    assert not hull_oracle((P(0, 0), P(4, 0), P(1, 1), P(0, 4)))


def test_oracles_agree_exhaustively_on_tiny_grid():
    pts = [P(x, y) for x in range(2) for y in range(2)]
    for n in (3, 4, 5):
        for combo in itertools.product(pts, repeat=n):
            assert strictly_convex_oracle(combo) == hull_oracle(combo)


def test_oracle_hereditary_under_deletion():
    for n in (4, 6, 9):
        poly = make_strictly_convex(n)
        assert strictly_convex_oracle(poly)
        for i in range(n):
            assert strictly_convex_oracle(poly[:i] + poly[i + 1:])


def test_sidedness_oracle_examines_every_edge():
    # No polygon can pass all open edges and fail only the closing one (all
    # vertices would be hull corners walked in boundary order, making the
    # closing pair hull-adjacent), so edge coverage is asserted directly:
    # on a convex n-gon the sweep takes a row of n-2 determinants for each
    # of the n edges, the closing one included.  One edge skipped would
    # show as (n-1)(n-2): 6 for the square, 342 for the 20-gon.
    assert with_count(strictly_convex_oracle, SQUARE) == (True, 8)
    assert with_count(strictly_convex_oracle, make_strictly_convex(20)) == \
        (True, 360)


def one_side(targets, seg_start, seg_end):
    """Every target strictly on one common side of a non-degenerate
    segment, by one delta() each."""
    signs = {sign(delta(t, seg_start, seg_end)) for t in targets}
    return seg_start != seg_end and signs in ({1}, {-1})


def test_closing_edge_cannot_be_sole_failure_small_scale():
    # exhaustive confirmation of the impossibility claim above, n=4 on {0,1,2}^2
    pts = [P(x, y) for x in range(3) for y in range(3)]
    for combo in itertools.product(pts, repeat=4):
        open_edges_pass = all(
            one_side([combo[k] for k in range(4) if k not in (i, i + 1)],
                     combo[i], combo[i + 1])
            for i in range(3))
        if open_edges_pass:
            assert one_side([combo[1], combo[2]], combo[3], combo[0])


def test_convex_hull_square_with_interior_points():
    pts = [P(0, 0), P(3, 0), P(3, 3), P(0, 3), P(1, 1), P(2, 1)]
    assert sorted(convex_hull(pts)) == [P(0, 0), P(0, 3), P(3, 0), P(3, 3)]


def test_convex_hull_reads_a_one_shot_iterable_once():
    # So do the hull order check and the collinearity predicates.
    pts = [P(0, 0), P(3, 0), P(3, 3), P(0, 3), P(1, 1), P(2, 1)]
    for read in (convex_hull, matches_hull_order, is_strict, is_quasi_strict):
        for points in (pts, SQUARE):
            assert read(iter(points)) == read(points)


# Polygons whose points the tests below give as tuples, lists and Points:
# convex, reflex, with a vertex on an edge, with a repeated vertex, and
# with Fraction coordinates, convex or not.
POINT_FORM_POLYGONS = [
    SQUARE, SWAPPED_SQUARE, PENTAGON,
    (P(0, 0), P(2, 0), P(1, 1), P(2, 2), P(0, 2)),
    (P(0, 0), P(1, 0), P(2, 0), P(1, 1)),
    (P(0, 0), P(1, 0), P(1, 0), P(0, 1)),
    (P(Fraction(1, 2), 0), P(1, 0), P(1, 1), P(0, 1)),
    (P(0, 0), P(1, Fraction(1, 3)), P(1, 1), P(Fraction(2, 3), 1),
     P(0, 1)),
]


@pytest.mark.parametrize("polygon", POINT_FORM_POLYGONS)
def test_deciders_and_hull_helpers_take_points_in_any_pair_form(polygon):
    def results(points):
        return (is_strictly_convex(points), is_strictly_convex_chain(points),
                strictly_convex_oracle(points), hull_oracle(points),
                convex_hull(points), matches_hull_order(points))

    expected = results(polygon)
    for form in (tuple, list):
        assert results([form(point) for point in polygon]) == expected
    # A tuple, a Point among them, comes back as it is.
    assert all(type(point) is Point for point in convex_hull(polygon))


def test_convex_hull_skips_edge_midpoints():
    pts = [P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)]
    assert sorted(convex_hull(pts)) == [P(0, 0), P(0, 2), P(2, 0), P(2, 2)]


def test_convex_hull_degenerate_inputs():
    assert convex_hull([P(1, 1), P(1, 1)]) == [P(1, 1)]
    assert convex_hull([P(0, 0), P(1, 1), P(2, 2), P(3, 3)]) == [P(0, 0), P(3, 3)]


def test_matches_hull_order_up_to_rotation_and_reversal():
    for k in range(4):
        rotated = SQUARE[k:] + SQUARE[:k]
        assert matches_hull_order(rotated)
        assert matches_hull_order(tuple(reversed(rotated)))
    assert not matches_hull_order(SWAPPED_SQUARE)


coords = st.integers(0, 4)
# Single grid points, which repeat often, and collinear runs of up to four.
pieces = st.one_of(
    st.builds(lambda x, y: [P(x, y)], coords, coords),
    st.builds(lambda x, y, dx, dy, k: [P(x + i * dx, y + i * dy)
                                       for i in range(k)],
              coords, coords, st.integers(-1, 1), st.integers(-1, 1),
              st.integers(2, 4)),
)
point_lists = st.lists(pieces, min_size=1, max_size=5).map(
    lambda runs: [p for run in runs for p in run])


@given(points=point_lists)
@settings(max_examples=400)
def test_convex_hull_meets_the_hull_definition(points):
    hull = convex_hull(points)
    lo, hi = min(points), max(points)
    if all(delta(lo, hi, p) == 0 for p in points):
        assert hull == sorted({lo, hi})
        return
    k = len(hull)
    assert k >= 3 and hull[0] == lo
    assert set(hull) <= set(points)
    for i in range(k):
        a, b, c = hull[i], hull[(i + 1) % k], hull[(i + 2) % k]
        assert delta(a, b, c) > 0
        assert all(delta(a, b, p) >= 0 for p in points)


def test_generator_and_oracles_take_their_determinants_on_ints(monkeypatch):
    results = []

    def recording(a, b, c):
        value = delta(a, b, c)
        results.append(type(value))
        return value

    # geometry.delta is the one that _any_collinear calls for its exact
    # determinants.
    for module in (generator, oracles_module, geometry):
        monkeypatch.setattr(module, "delta", recording)
    witness = generator.make_minimality_witness(12, ConditionId(2, 7))
    assert any(type(v) is Fraction for p in witness for v in p)
    # The sidedness oracle calls no delta(): its rows of cross products
    # are on ints when no Fraction is added, subtracted or multiplied.
    with fraction_arithmetic() as arithmetic:
        assert not strictly_convex_oracle(witness)
    assert arithmetic == []
    assert not hull_oracle(witness)
    assert is_strict(witness) and is_quasi_strict(witness)
    # V0, V1 and V2 are collinear, so each sweep takes an exact determinant.
    collinear = (P(0, 0), P(Fraction(1, 2), Fraction(1, 3)),
                 P(1, Fraction(2, 3)), P(0, 1))
    before = len(results)
    assert not is_strict(collinear) and not is_quasi_strict(collinear)
    assert len(results) > before
    assert set(results) == {int}


long_ints = st.integers(-(1 << 4000), 1 << 4000)


@st.composite
def points_with_a_modulus_multiple(draw):
    """Three points whose determinant is m * MODULUS, collinear for m = 0
    and otherwise 0 only modulo that prime, in a shuffled list with a few
    more points.  Every coordinate but the m * MODULUS term is a long int,
    an int in -3..3 (whose triples are often collinear), or such an int or
    a Fraction, which keeps every determinant exact."""
    small_ints = st.integers(-3, 3)
    coordinate = draw(st.sampled_from([
        long_ints, small_ints,
        small_ints | st.fractions(-3, 3, max_denominator=4)]))
    ax, ay, dy, cx = (draw(coordinate) for _ in range(4))
    m = draw(st.integers(-2, 2))
    # b - a = (1, dy), so delta(a, b, c) = (cy - ay) - dy * (cx - ax).
    points = [(ax, ay), (ax + 1, ay + dy),
              (cx, ay + dy * (cx - ax) + m * MODULUS)]
    points += draw(st.lists(st.tuples(coordinate, coordinate), max_size=5))
    return [P(*points[i]) for i in draw(st.permutations(range(len(points))))]


def exact_sweep(triples):
    """(no determinant is 0, determinants taken): the exact sweep that
    stops at the first 0, which the residue sweeps must match in both."""
    for count, triple in enumerate(triples, 1):
        if delta(*triple) == 0:
            return False, count
    return True, len(triples)


def with_count(sweep, *args):
    before = delta_evaluations()
    result = sweep(*args)
    return result, delta_evaluations() - before


# Collinear, with an int that reducing would move by MODULUS beside a
# Fraction: the determinant would then be off by a non-integer multiple.
@example(points=[P(-1, 0), P(0, Fraction(1, 2)), P(1, 1)])
# is_strict's first exact 0, (V0, V1, V3), is mid-row, after (V0, V1, V2),
# whose determinant is MODULUS itself.
@example(points=[P(0, 0), P(1, 0), P(2, MODULUS), P(3, 0), P(1, 5)])
# _keeps_quasi_strict's first exact 0 is on the new edge: V1 is on the
# line from V3 to the vertex.  Then on the closing edge: V2 is on the line
# from the vertex to V0.
@example(points=[P(0, 0), P(4, 1), P(3, 3), P(1, 4), P(-2, 7)])
@example(points=[P(0, 0), P(4, 1), P(3, 3), P(1, 4), P(-1, -1)])
# is_quasi_strict's first exact 0 is on the closing edge: V2 is on the line
# from V4 to V0.  Then mid-row: (V1, V2, V4), after (V1, V2, V3), whose
# determinant is MODULUS itself.
@example(points=[P(0, 0), P(4, 1), P(3, 3), P(1, 4), P(-2, -2)])
@example(points=[P(0, 5), P(0, 0), P(1, 0), P(2, MODULUS), P(3, 0)])
@settings(deadline=None)
@given(points=points_with_a_modulus_multiple())
def test_the_residue_sweeps_find_exactly_the_zero_determinants(points):
    assert with_count(is_strict, points) == exact_sweep(
        list(itertools.combinations(points, 3)))
    n = len(points)
    assert with_count(is_quasi_strict, points) == exact_sweep(
        [(points[i], points[(i + 1) % n], points[j])
         for i in range(n) for j in range(n) if j not in (i, (i + 1) % n)])
    *polygon, vertex = points
    k = len(polygon)
    tests = [*((polygon[i], polygon[i + 1], vertex) for i in range(k - 1)),
             *((polygon[-1], vertex, polygon[j]) for j in range(k - 1)),
             *((vertex, polygon[0], polygon[j]) for j in range(1, k))]
    assert with_count(generator._keeps_quasi_strict, polygon, vertex) == \
        exact_sweep(tests)


def test_the_residue_sweeps_count_one_determinant_per_test():
    # The counts of the exact sweeps, which took delta() at every test.
    convex = make_strictly_convex(20)
    assert with_count(hull_oracle, convex)[1] == 1194
    assert with_count(generator.make_minimality_witness,
                      12, ConditionId(2, 7))[1] == 219
