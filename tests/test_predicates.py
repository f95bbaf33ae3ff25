import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconvex import generator
from polyconvex.fast_test import ConditionId
from polyconvex.generator import make_minimality_witness, make_strictly_convex
from polyconvex.geometry import Point
from polyconvex.oracles import (is_quasi_strict, is_strict,
                                strictly_convex_oracle, strictly_one_side)

P = Point
SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

scalars = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)
points = st.builds(Point, scalars, scalars)
point_lists = st.lists(points, max_size=7)


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


def test_strictly_one_side_both_above():
    assert strictly_one_side([P(0, 1), P(1, 1)], P(0, 0), P(1, 0))


def test_strictly_one_side_opposite_signs():
    assert not strictly_one_side([P(0, 1), P(0, -1)], P(0, 0), P(1, 0))


def test_strictly_one_side_collinear_target():
    assert not strictly_one_side([P(2, 0)], P(0, 0), P(1, 0))


def test_strictly_one_side_degenerate_segment():
    assert not strictly_one_side([P(0, 1)], P(1, 1), P(1, 1))


def test_strictly_one_side_empty_targets():
    assert strictly_one_side([], P(0, 0), P(1, 0))


@given(targets=point_lists, start=points, end=points, ma=scalars, mb=scalars,
       mc=scalars, md=scalars, me=scalars, mf=scalars)
@settings(max_examples=200)
def test_strictly_one_side_affine_invariant(targets, start, end,
                                            ma, mb, mc, md, me, mf):
    if ma * md - mb * mc == 0:
        return
    m = lambda p: Point(ma * p.x + mb * p.y + me, mc * p.x + md * p.y + mf)
    mapped = strictly_one_side([m(t) for t in targets], m(start), m(end))
    assert mapped == strictly_one_side(targets, start, end)


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
