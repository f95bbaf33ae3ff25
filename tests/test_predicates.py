from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyconvex import generator
from polyconvex.fast_test import ConditionId
from polyconvex.generator import make_minimality_witness, make_strictly_convex
from polyconvex.geometry import Point
from polyconvex.oracles import (is_quasi_strict, is_strict,
                                strictly_convex_oracle)

P = Point
SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

scalars = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)
points = st.builds(Point, scalars, scalars)


@pytest.mark.parametrize("vertices, expected", [
    ((P(0, 0), P(1, 0), P(2, 0)), False),
    (SQUARE, True),
    ((P(0, 0), P(1, 0)), True),
    ((), True),
    ((P(0, 0), P(1, 0), P(1, 1), P(2, 2)), False),
])
def test_is_strict(vertices, expected):
    assert is_strict(vertices) is expected


@pytest.mark.parametrize("vertices, expected", [
    (SQUARE, True),
    ((P(0, 0), P(1, 0), P(2, 0), P(0, 1)), False),
    ((P(0, 0), P(1, 0)), True),
    ((P(0, 0),), True),
    # V1 collinear with the closing-side edge [V3, V4]
    ((P(0, 0), P(2, 1), P(4, 0), P(2, 4), P(2, -4)), False),
])
def test_is_quasi_strict(vertices, expected):
    assert is_quasi_strict(vertices) is expected


def test_quasi_strict_weaker_than_strict():
    # collinear triple at pairwise non-adjacent indices 0, 2, 4
    poly = (P(0, 0), P(1, 3), P(2, 0), P(5, 3), P(4, 0), P(1, -3))
    assert not is_strict(poly)
    assert is_quasi_strict(poly)


@pytest.mark.parametrize("vertices", [
    # Rows of one cross product each.
    (P(0, 0), P(1, 0), P(0, 1)),
    SQUARE,
    (P(Fraction(1, 2), 0), P(3, Fraction(1, 3)), P(2, 4), P(-1, 2), P(-1, 0)),
])
def test_sidedness_oracle_accepts_rows_of_one_sign(vertices):
    # Counterclockwise every row is all positive, clockwise all negative.
    for polygon in (vertices, vertices[::-1]):
        assert strictly_convex_oracle(polygon)


@pytest.mark.parametrize("vertices", [
    # A dart: V2 is reflex, so the row of V1 V2 has V3 and V0 on either side.
    (P(0, 0), P(4, 0), P(1, 1), P(0, 4)),
    # A bow tie: the edges V0 V1 and V2 V3 cross.
    (P(0, 0), P(2, 2), P(2, 0), P(0, 2)),
])
def test_sidedness_oracle_rejects_a_row_of_both_signs(vertices):
    for polygon in (vertices, vertices[::-1]):
        assert not strictly_convex_oracle(polygon)


@pytest.mark.parametrize("vertices", [
    (P(0, 0), P(1, 0), P(1, 0), P(0, 1)),
    (P(0, 0), P(1, 0), P(1, 1), P(0, 1), P(0, 0)),
    (P(0, 0), P(1, 0), P(1, 0)),
])
def test_sidedness_oracle_rejects_a_degenerate_edge(vertices):
    # A repeated consecutive vertex, the closing pair included, makes an
    # edge of length 0, whose row of cross products is all 0.
    for polygon in (vertices, vertices[::-1]):
        assert not strictly_convex_oracle(polygon)


@pytest.mark.parametrize("vertices", [
    # V2 is on the line of the edge V0 V1, and every other vertex strictly
    # on one side of it.
    (P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(0, 2)),
    # V3 is on the line of the closing edge V4 V0, and V0 on that of V3 V4.
    (P(0, 0), P(2, 0), P(2, 2), P(0, 2), P(0, 1)),
    (P(0, 0), P(1, 0), P(2, 0)),
])
def test_sidedness_oracle_rejects_a_vertex_on_an_edge_line(vertices):
    # Both orientations: a 0 fails a row that is otherwise positive, and one
    # that is otherwise negative.
    for polygon in (vertices, vertices[::-1]):
        assert not strictly_convex_oracle(polygon)


@given(vertices=st.lists(points, min_size=3, max_size=7), ma=scalars,
       mb=scalars, mc=scalars, md=scalars, me=scalars, mf=scalars)
@example(vertices=list(SQUARE), ma=2, mb=1, mc=0, md=1, me=-3, mf=5)
@settings(max_examples=200)
def test_sidedness_oracle_affine_invariant(vertices, ma, mb, mc, md, me, mf):
    assume(ma * md - mb * mc != 0)
    m = lambda p: Point(ma * p.x + mb * p.y + me, mc * p.x + md * p.y + mf)
    mapped = strictly_convex_oracle([m(p) for p in vertices])
    assert mapped == strictly_convex_oracle(vertices)


def test_generated_quasi_strict_polygons_are_ordinary():
    polygons = [make_strictly_convex(n) for n in range(3, 9)]
    polygons += [make_minimality_witness(6, ConditionId(omega, i))
                 for omega in (1, 2, 3) for i in (2, 3, 4)]
    polygons.append(generator._arc_steps(make_strictly_convex(5), [2])[0])
    # For n >= 3, quasi-strict already rules out two equal vertices.
    for poly in polygons:
        assert is_quasi_strict(poly)


def test_oracle_certified_convex_polygons_have_strict_equal_quasi_strict():
    for poly in (SQUARE, make_strictly_convex(7),
                 tuple(P(*q) for q in [(5, 0), (2, 4), (-4, 3), (-4, -3), (2, -4)])):
        assert strictly_convex_oracle(poly)
        assert is_strict(poly) == is_quasi_strict(poly) == True
