import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyconvex import generator, geometry
from polyconvex.fast_test import (ConditionId, InvalidConditionId,
                                  condition_value, is_strictly_convex)
from polyconvex.generator import (DEFAULT_SEED_TRIANGLE,
                                  make_minimality_witness,
                                  make_strictly_convex, parabola_polygon,
                                  random_polygon)
from polyconvex.geometry import Point
from polyconvex.oracles import (hull_oracle, is_quasi_strict,
                                strictly_convex_oracle)
from polyconvex.polyfile import format_polygon

P = Point
TRIANGLE = DEFAULT_SEED_TRIANGLE


def conditions_at_new_index(polygon):
    i = len(polygon) - 2
    return {omega: condition_value(polygon, ConditionId(omega, i)) > 0
            for omega in (1, 2, 3)}


def test_extend_all_hold_satisfies_new_conditions():
    quad = generator._arc_steps(TRIANGLE, [0])[0]
    assert len(quad) == 4 and quad[:3] == TRIANGLE
    assert is_quasi_strict(quad)
    assert conditions_at_new_index(quad) == {1: True, 2: True, 3: True}


# The ids keep the names these cases have always been reported under.
@pytest.mark.parametrize("omega", [1, 2, 3],
                         ids=["Arc.NEG_C1-1", "Arc.NEG_C2-2", "Arc.NEG_C3-3"])
def test_extend_negating_variants(omega):
    quad = generator._arc_steps(TRIANGLE, [omega])[0]
    assert is_quasi_strict(quad)
    held = conditions_at_new_index(quad)
    assert held == {family: family != omega for family in (1, 2, 3)}


quasi_strict_polygons = st.lists(
    st.builds(Point, st.integers(-4, 4), st.integers(-4, 4)),
    min_size=3, max_size=6).map(tuple).filter(is_quasi_strict)


@given(polygon=quasi_strict_polygons, omega=st.sampled_from([0, 1, 2, 3]))
def test_extension_plants_its_arc_pattern_on_any_quasi_strict_input(
        polygon, omega):
    bigger = generator._arc_steps(polygon, [omega])[0]
    assert bigger[:len(polygon)] == polygon
    assert is_quasi_strict(bigger)
    held = conditions_at_new_index(bigger)
    assert held == {family: family != omega for family in (1, 2, 3)}


# V2 is moved to the midpoint of the first attempt's point and V3, V5 or
# V0, which puts the point on the old edge from V2 to V3, or V2 on one of
# the two new edges: from V5 = V[k-1] to the point, or from it to V0.  Each
# is seen by its own row of _keeps_quasi_strict.  The vertex appended
# instead depends only on V0, V1, V4 and V5, and on the scales the rejected
# point grew; each is pinned as the arc construction first gave it.
RETRIED_VERTEX = {
    0: P(Fraction(-841246724853277612553, 20577179815233267969211392),
         Fraction(2767741312, 75725907432836971827)),
    1: P(Fraction(-13678926652187, 1199125827744768),
         Fraction(691250896, 613392117987)),
    2: P(Fraction(119959588325661941863, 2939597116461895424173056),
         Fraction(2767741312, 75725907432836971827)),
    3: P(Fraction(-119959588325661941863, 2939597116461895424173056),
         Fraction(-2767741312, 75725907432836971827)),
}


@pytest.mark.parametrize("omega, end", [
    *(pytest.param(omega, 3, id=str(omega)) for omega in range(4)),
    *(pytest.param(omega, end, id=f"{edge}-{omega}")
      for end, edge in ((5, "edge-from-last"), (0, "edge-to-first"))
      for omega in range(4)),
])
def test_arc_step_retries_a_smaller_eps_when_the_first_point_is_collinear(
        omega, end, monkeypatch):
    hexagon = make_strictly_convex(6)
    # The point of the first attempt, j = 0: what _arc_steps appends when
    # every candidate is accepted.  It depends only on V0, V1, V4 and V5.
    with monkeypatch.context() as patch:
        patch.setattr(generator, "_keeps_quasi_strict", lambda *_: True)
        first = generator._arc_steps(hexagon, [omega])[0][-1]
    v = hexagon[end]
    midpoint = P(Fraction(v.x + first.x, 2), Fraction(v.y + first.y, 2))
    moved = hexagon[:2] + (midpoint,) + hexagon[3:]
    assert is_quasi_strict(moved)
    assert not generator._keeps_quasi_strict(moved, first)
    bigger = generator._arc_steps(moved, [omega])[0]
    assert bigger[:6] == moved and bigger[-1] == RETRIED_VERTEX[omega]
    assert is_quasi_strict(bigger)
    held = conditions_at_new_index(bigger)
    assert held == {family: family != omega for family in (1, 2, 3)}


# On this int seed, arc 1's first point (7/4, -1/4) lies on the line of
# V1 and V3, so the new edge from V3 would pass through V1, and it grows
# both scales from 1 to 4.  The next attempt must map the arc through the
# copy's corners as they are after that growth.  The other arcs take their
# first point.  Each vertex is pinned as the arc construction first gave it.
SEED_OF_A_GROWING_RETRY = (P(0, 0), P(0, -2), P(1, 0), P(1, -1))


@pytest.mark.parametrize("omega, first, appended", [
    (0, None, P(Fraction(22, 441), Fraction(-43, 441))),
    (1, P(Fraction(7, 4), Fraction(-1, 4)), P(Fraction(21, 16),
                                              Fraction(-1, 16))),
    (2, None, P(Fraction(22, 441), Fraction(-1, 441))),
    (3, None, P(Fraction(-22, 441), Fraction(1, 441))),
])
def test_a_retry_maps_the_arc_through_the_grown_copy(omega, first, appended,
                                                      monkeypatch):
    seed = SEED_OF_A_GROWING_RETRY
    assert is_quasi_strict(seed)
    if first is not None:
        with monkeypatch.context() as patch:
            patch.setattr(generator, "_keeps_quasi_strict", lambda *_: True)
            assert generator._arc_steps(seed, [omega])[0][-1] == first
        assert not generator._keeps_quasi_strict(seed, first)
    bigger, scaled = generator._arc_steps(seed, [omega])
    assert bigger[:4] == seed and bigger[-1] == appended
    assert_positive_multiple(bigger, scaled)
    assert is_quasi_strict(bigger)
    held = conditions_at_new_index(bigger)
    assert held == {family: family != omega for family in (1, 2, 3)}


def axis_factor(exact, scaled):
    """The one d with scaled == d * exact at every coordinate of an axis."""
    ratios = {Fraction(s) / e for e, s in zip(exact, scaled) if e}
    assert len(ratios) == 1, ratios
    (d,) = ratios
    assert all(s == d * e for e, s in zip(exact, scaled))
    return d


def assert_positive_multiple(polygon, scaled):
    """scaled[i] == (dx * x_i, dy * y_i) for every i, with dx, dy > 0."""
    assert len(scaled) == len(polygon)
    for exact_axis, scaled_axis in zip(zip(*polygon), zip(*scaled)):
        assert axis_factor(exact_axis, scaled_axis) > 0


# The integer copy is exact only while every growth of a scale multiplies
# it by g; a wrong copy could still give exact output but accept a collinear
# vertex, so it is checked against the polygon itself.
@given(polygon=quasi_strict_polygons,
       omegas=st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=4))
def test_the_integer_copy_stays_a_positive_per_axis_multiple(polygon, omegas):
    bigger, scaled = generator._arc_steps(polygon, omegas)
    assert bigger[:len(polygon)] == polygon
    assert len(bigger) == len(polygon) + len(omegas)
    assert_positive_multiple(bigger, scaled)


@pytest.mark.parametrize("omega", [0, 1, 2, 3])
def test_a_rejected_candidate_keeps_the_copy_a_multiple(omega, monkeypatch):
    # The hexagon of the retry test above, whose first candidate is
    # rejected: its denominators stay in the scales.
    hexagon = make_strictly_convex(6)
    with monkeypatch.context() as patch:
        patch.setattr(generator, "_keeps_quasi_strict", lambda *_: True)
        first = generator._arc_steps(hexagon, [omega])[0][-1]
    v3 = hexagon[3]
    midpoint = P(Fraction(v3.x + first.x, 2), Fraction(v3.y + first.y, 2))
    moved = hexagon[:2] + (midpoint,) + hexagon[3:]
    bigger, scaled = generator._arc_steps(moved, [omega, 0])
    assert bigger[6] != first
    assert_positive_multiple(bigger, scaled)


def test_a_refusal_mid_build_turns_the_copy_back_to_the_exact_values(
        monkeypatch):
    # The guard does not refuse on this seed, so it is made to refuse at
    # the first growth of the x scale, d = 3, after the seed is scaled: the
    # factor it returns must turn the copy back into the exact x values.
    seed = (P(0, 0), P(Fraction(1, 3), 0), P(0, 1))
    scale = geometry._Scale.scale
    armed = []

    def refusing(self, value):
        scaled, g = scale(self, value)
        if g != 1 and armed and self is armed[0]:
            armed.clear()
            return value, g * self.refuse()
        return scaled, g

    def seeded(points, sx, sy):
        scaled = geometry._scale_all(points, sx, sy)
        armed.append(sx)
        return scaled

    with monkeypatch.context() as patch:
        patch.setattr(geometry._Scale, "scale", refusing)
        patch.setattr(generator, "_scale_all", seeded)
        polygon, scaled = generator._arc_steps(seed, [0, 0, 2, 0])
    assert not armed
    assert axis_factor([x for x, _ in polygon], [x for x, _ in scaled]) == 1
    assert_positive_multiple(polygon, scaled)
    # The build of the witness for (2, 4) at n = 7 from this seed.
    assert polygon == generator._arc_steps(seed, [0, 0, 2, 0])[0]


def count_calls(monkeypatch, name, modules):
    """Count the calls of ``name`` made through any of ``modules``."""
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counting(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("build", [
    lambda: make_strictly_convex(20),
    lambda: make_minimality_witness(12, ConditionId(2, 7)),
], ids=["convex-20", "witness-12-C2-7"])
def test_a_build_scales_its_seed_once(build, monkeypatch):
    # The seed is a constant, so nothing is type-checked.
    checks = count_calls(monkeypatch, "require_exact", (geometry,))
    scalings = count_calls(monkeypatch, "_scale_all", (geometry, generator))
    build()
    assert (len(checks), len(scalings)) == (0, 1)


# SHA-256 of format_polygon output, recorded before the frame map was built
# directly instead of through a double inverse: the exact output must not move.
PINNED_BUILDS = {
    "convex-20": (
        lambda: make_strictly_convex(20),
        "07879145378ff88f1fb384811b9c403155e1b3a26a2d6ebff2b75e17d6f3e39c"),
    "custom-seed-12": (
        lambda: generator._arc_steps((P(2, 1), P(5, 2), P(3, 4)), [0] * 9)[0],
        "313eb9c565294e9bbbee0581cdcc7c5469a2404707cfb50de2836034031c8294"),
    "witness-12-C1-4": (
        lambda: make_minimality_witness(12, ConditionId(1, 4)),
        "cf447fc4ec24b6a39878b267b42c972543e19de9a84bc6d9629884f34cd61e9f"),
    "witness-12-C2-7": (
        lambda: make_minimality_witness(12, ConditionId(2, 7)),
        "6a339f782b81b4e73b91598bae4dff79545ded5c0a128e1ff1cf532517cf77bd"),
    "witness-12-C3-10": (
        lambda: make_minimality_witness(12, ConditionId(3, 10)),
        "01becc4b059a811fc66d65cfeb4862bb6b4a38f63adba94260cdf71bb9dbeee6"),
}


@pytest.mark.parametrize("name", PINNED_BUILDS)
def test_generator_output_is_pinned(name):
    build, digest = PINNED_BUILDS[name]
    text = format_polygon(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_extend_preserves_prefix_verbatim():
    poly = TRIANGLE
    for omega in (0, 3, 0):
        bigger = generator._arc_steps(poly, [omega])[0]
        assert bigger[:len(poly)] == tuple(poly)
        assert len(bigger) == len(poly) + 1
        poly = bigger


def test_extend_all_hold_preserves_passing_verdict():
    poly = TRIANGLE
    for _ in range(6):
        poly = generator._arc_steps(poly, [0])[0]
        assert is_strictly_convex(poly).verdict


def test_make_strictly_convex_n3_returns_seed():
    assert make_strictly_convex(3) == TRIANGLE


def test_make_strictly_convex_small():
    hexagon = make_strictly_convex(6)
    assert len(hexagon) == 6
    assert is_strictly_convex(hexagon).verdict
    assert strictly_convex_oracle(hexagon)
    assert hull_oracle(hexagon)


def test_make_strictly_convex_50_passes_oracle():
    poly = make_strictly_convex(50)
    assert is_strictly_convex(poly, collect_signs=False).verdict
    assert strictly_convex_oracle(poly)


def test_make_strictly_convex_custom_seed():
    seed = (P(2, 1), P(5, 2), P(3, 4))
    poly = generator._arc_steps(seed, [0] * 4)[0]
    assert poly[:3] == seed
    assert strictly_convex_oracle(poly)


def test_make_strictly_convex_rejects_bad_seed():
    with pytest.raises(ValueError):
        make_strictly_convex(2)


def test_make_strictly_convex_rejects_a_non_int_n():
    with pytest.raises(ValueError):
        make_strictly_convex(5.5)


def test_inexact_seed_is_refused_at_entry():
    # Scaling the seed refuses it, before any step.
    seed = (P(0, 0), P(0.5, 0), P(0, 1))
    with pytest.raises(TypeError, match="exact rationals"):
        generator._arc_steps(seed, [0, 0])


def test_generator_is_deterministic():
    a = make_strictly_convex(9)
    b = make_strictly_convex(9)
    assert a == b
    wa = make_minimality_witness(7, ConditionId(2, 4))
    wb = make_minimality_witness(7, ConditionId(2, 4))
    assert wa == wb


@pytest.mark.parametrize("n, omega, i", [
    (5, 3, 2),
    (5, 1, 3),
    (4, 2, 2),
    (8, 1, 2),
    (8, 3, 6),
])
def test_minimality_witness_violates_exactly_target(n, omega, i):
    witness = make_minimality_witness(n, ConditionId(omega, i))
    assert len(witness) == n
    assert is_quasi_strict(witness)
    assert not strictly_convex_oracle(witness)
    report = is_strictly_convex(witness)
    assert not report.verdict and report.failed == ConditionId(omega, i)
    violated = [(o, j) for j in range(2, n - 1) for o in (1, 2, 3)
                if condition_value(witness, ConditionId(o, j)) <= 0]
    assert violated == [(omega, i)]


def test_minimality_witness_violates_exactly_target_beyond_n_12():
    n = 56
    witness = make_minimality_witness(n, ConditionId(2, 30))
    violated = [(o, j) for j in range(2, n - 1) for o in (1, 2, 3)
                if condition_value(witness, ConditionId(o, j)) <= 0]
    assert violated == [(2, 30)]


@pytest.mark.parametrize("planted", [0, 3], ids=["arc-0", "wrong-family"])
def test_the_witness_guard_refuses_a_wrong_pattern(monkeypatch, planted):
    # The target step draws from arc `planted` instead of arc 2, so the
    # finished polygon violates no condition, or (3, 3) instead of (2, 3).
    arc_steps = generator._arc_steps
    monkeypatch.setattr(generator, "_arc_steps", lambda polygon, omegas:
                        arc_steps(polygon, [omega and planted
                                            for omega in omegas]))
    with pytest.raises(RuntimeError, match=r"\(2, 3\)"):
        make_minimality_witness(7, ConditionId(2, 3))


def test_an_arc_step_that_finds_no_admissible_point_raises(monkeypatch):
    # The budget is k*(k-1)+1 attempts: 7 at k = 3.
    monkeypatch.setattr(generator, "_keeps_quasi_strict", lambda *_: False)
    with pytest.raises(RuntimeError, match=re.escape(
            "no admissible arc point within 7 attempts (k=3)")):
        make_strictly_convex(4)


@pytest.mark.parametrize("n, omega, i", [
    (4, 2, 3),   # i beyond n-2
    (4, 0, 2),   # bad family
    (3, 1, 2),   # n too small
    (6, 1, 1),   # i below 2
])
def test_minimality_witness_rejects_bad_target(n, omega, i):
    with pytest.raises(InvalidConditionId):
        make_minimality_witness(n, ConditionId(omega, i))


def test_random_polygon_empty():
    assert random_polygon(0, 5, rng_seed=1) == ()


def test_random_polygon_deterministic_and_in_range():
    a = random_polygon(6, 2, rng_seed=42)
    b = random_polygon(6, 2, rng_seed=42)
    assert a == b and len(a) == 6
    assert all(0 <= p.x <= 2 and 0 <= p.y <= 2 for p in a)
    assert random_polygon(6, 2, rng_seed=43) != a


def test_random_polygon_validates_arguments():
    with pytest.raises(ValueError):
        random_polygon(-1, 5, rng_seed=0)
    with pytest.raises(ValueError):
        random_polygon(4, 0, rng_seed=0)


def test_parabola_polygon_strictly_convex():
    poly = parabola_polygon(64)
    assert is_strictly_convex(poly, collect_signs=False).verdict
    assert strictly_convex_oracle(poly)
    assert hull_oracle(poly)
    with pytest.raises(ValueError):
        parabola_polygon(2)
