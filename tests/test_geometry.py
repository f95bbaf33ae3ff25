import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sign
from polyconvex.geometry import Point, delta, delta_evaluations
from polyconvex.geometry import _Scale, integer_scaled
from polyconvex.oracles import hull_oracle, strictly_convex_oracle

scalars = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
points = st.builds(Point, scalars, scalars)


def test_delta_unit_triangle():
    assert delta(Point(0, 0), Point(1, 0), Point(0, 1)) == 1


def test_delta_swapped_rows_negates():
    assert delta(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


def test_delta_collinear_is_zero():
    assert delta(Point(0, 0), Point(1, 1), Point(2, 2)) == 0


def test_delta_exact_on_fractions():
    a = Point(Fraction(1, 3), Fraction(1, 7))
    b = Point(Fraction(2, 3), Fraction(1, 7))
    c = Point(Fraction(1, 3), Fraction(8, 7))
    assert delta(a, b, c) == Fraction(1, 3)


@given(a=points, b=points, c=points)
def test_delta_antisymmetry(a, b, c):
    d = delta(a, b, c)
    assert delta(b, a, c) == -d
    assert delta(a, c, b) == -d


@given(a=points, b=points, c=points)
def test_delta_cyclic_invariance(a, b, c):
    assert delta(a, b, c) == delta(b, c, a) == delta(c, a, b)


@given(a=points, b=points, c=points, t=points)
def test_delta_translation_invariance(a, b, c, t):
    shift = lambda p: Point(p.x + t.x, p.y + t.y)
    assert delta(shift(a), shift(b), shift(c)) == delta(a, b, c)


@given(a=points, b=points, c=points, ma=scalars, mb=scalars, mc=scalars,
       md=scalars, me=scalars, mf=scalars)
@settings(max_examples=200)
def test_delta_affine_equivariance(a, b, c, ma, mb, mc, md, me, mf):
    m = lambda p: Point(ma * p.x + mb * p.y + me, mc * p.x + md * p.y + mf)
    det = ma * md - mb * mc
    assert delta(m(a), m(b), m(c)) == det * delta(a, b, c)


def test_delta_counter_counts():
    before = delta_evaluations()
    delta(Point(0, 0), Point(1, 0), Point(0, 1))
    delta(Point(0, 0), Point(1, 0), Point(0, 1))
    assert delta_evaluations() - before == 2


# Denominators from a small set: their lcm stays within the guard.
small_denominator_scalars = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.builds(Fraction, st.integers(min_value=-30, max_value=30),
              st.sampled_from([1, 2, 3, 4, 6, 9, 12])),
)


@given(pts=st.lists(st.builds(Point, small_denominator_scalars,
                              small_denominator_scalars), max_size=8))
def test_integer_scaled_keeps_signs_order_and_equality(pts):
    scaled = integer_scaled(pts)
    assert len(scaled) == len(pts)
    assert all(type(v) is int for p in scaled for v in p)
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        assert (sign(delta(scaled[i], scaled[j], scaled[k]))
                == sign(delta(pts[i], pts[j], pts[k])))
    indices = range(len(pts))
    assert (sorted(indices, key=scaled.__getitem__)
            == sorted(indices, key=pts.__getitem__))
    for i, j in itertools.product(indices, repeat=2):
        assert (scaled[i] == scaled[j]) == (pts[i] == pts[j])


def test_integer_scaled_refuses_pairwise_distinct_long_denominators():
    # The lcm of 40 distinct ~1000-bit denominators would run to tens of
    # thousands of bits: the points come back unscaled and exact.
    pts = [Point(t + Fraction(1, 2 ** 1000 + 2 * t + 1), t * t)
           for t in range(40)]
    assert integer_scaled(pts) == pts
    assert strictly_convex_oracle(pts)
    assert hull_oracle(pts)


def test_integer_scaled_empty_and_single_point():
    assert integer_scaled([]) == []
    scaled = integer_scaled([Point(Fraction(3, 4), Fraction(-5, 6))])
    assert scaled == [(3, -5)]
    assert all(type(v) is int for v in scaled[0])


column_values = st.lists(st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=24),
    # Pairwise-coprime denominators, which the guard refuses a few in.
    st.builds(lambda p, k: Fraction(k, 2 ** p - 1),
              st.sampled_from([61, 67, 71, 73, 79, 83, 89, 97]),
              st.integers(1, 9)),
), max_size=30).map(lambda values: [
    value.numerator if value.denominator == 1 else value
    for value in map(Fraction, values)])


@given(before=column_values, values=column_values)
@settings(max_examples=300)
def test_scale_column_grows_as_scale_does_value_by_value(before, values):
    one, batch = _Scale(), _Scale()
    for value in before:
        one.scale(value)
        batch.scale(value)
    d = one.d
    for value in values:
        one.scale(value)
    ints = all(type(value) is int for value in values)
    column, g = batch.scale_column(
        [Fraction(value).numerator for value in values],
        None if ints else [Fraction(value).denominator for value in values])
    assert (batch.d, batch.bound) == (one.d, one.bound)
    # Each value times the settled d, an int where it is whole.
    assert [(type(v), v) for v in column] == [
        (type(v), v) for v in (one.scale(value)[0] for value in values)]
    # The factor that keeps the values scaled before in step.
    assert g == (Fraction(one.d, d) if one.bound is not None
                 else Fraction(1, d))
