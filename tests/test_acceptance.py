"""Acceptance gates for the whole artifact.

Each test prints one ``ACCEPTANCE <k>: PASS|FAIL`` line (visible with
``pytest -s`` or in captured output).  The expensive corpora are swept once
in module-scoped fixtures and shared by the criteria that consume them.
"""

import itertools
import math
import random
import statistics
import time
import tracemalloc
from fractions import Fraction

import pytest

from polyconvex import generator
from polyconvex.fast_test import (ConditionId, condition_value,
                                  is_strictly_convex, is_strictly_convex_chain)
from polyconvex.generator import (make_minimality_witness, parabola_polygon,
                                  random_polygon)
from polyconvex.geometry import Point, delta, delta_evaluations
from polyconvex.oracles import (hull_oracle, is_quasi_strict, is_strict,
                                matches_hull_order, strictly_convex_oracle)

P = Point


def report_line(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")


def integerized(poly):
    """Clear denominators with one positive scaling.

    A uniform positive scale is an invertible affine map, so every verdict
    exercised below is unchanged (representation invariance is itself under
    test in the unit suite); integer coordinates just decide much faster.
    """
    denoms = [c.denominator for p in poly for c in p if isinstance(c, Fraction)]
    if not denoms:
        return tuple(poly)
    scale = math.lcm(*denoms)
    return tuple(P(int(x * scale), int(y * scale)) for x, y in poly)


@pytest.fixture(scope="module")
def exhaustive_sweep():
    pts = [P(x, y) for x in range(3) for y in range(3)]
    stats = {"total": 0, "three_way": 0, "chain": 0,
             "hull_ordered": 0, "strict_vs_quasi": 0, "seconds": 0.0}
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        for combo in itertools.product(pts, repeat=n):
            fast = is_strictly_convex(combo, collect_signs=False).verdict
            chain = is_strictly_convex_chain(combo).verdict
            sweep = strictly_convex_oracle(combo)
            strict = is_strict(combo)
            order_ok = matches_hull_order(combo)
            hull = strict and order_ok
            stats["total"] += 1
            if not (fast == sweep == hull):
                stats["three_way"] += 1
            if chain != fast:
                stats["chain"] += 1
            if order_ok:
                stats["hull_ordered"] += 1
                if strict != is_quasi_strict(combo):
                    stats["strict_vs_quasi"] += 1
    stats["seconds"] = time.perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def random_sweep():
    stats = {"total": 0, "three_way": 0, "chain": 0, "seconds": 0.0}
    t0 = time.perf_counter()
    for n in (6, 8, 12):
        for idx in range(100_000):
            poly = random_polygon(n, 50, rng_seed=n * 10_000_000 + idx)
            fast = is_strictly_convex(poly, collect_signs=False).verdict
            chain = is_strictly_convex_chain(poly).verdict
            sweep = strictly_convex_oracle(poly)
            hull = hull_oracle(poly)
            stats["total"] += 1
            if not (fast == sweep == hull):
                stats["three_way"] += 1
            if chain != fast:
                stats["chain"] += 1
    stats["seconds"] = time.perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def witness_matrix():
    results = []
    for n in range(4, 11):
        for i in range(2, n - 1):
            for omega in (1, 2, 3):
                target = ConditionId(omega, i)
                witness = make_minimality_witness(n, target)
                violated = [
                    (o, j) for j in range(2, n - 1) for o in (1, 2, 3)
                    if condition_value(witness, ConditionId(o, j)) <= 0
                ]
                report = is_strictly_convex(witness)
                results.append({
                    "n": n,
                    "target": target,
                    "quasi_strict": is_quasi_strict(witness),
                    "exactly_target": violated == [(omega, i)],
                    "oracle_rejects": not strictly_convex_oracle(witness),
                    "fast_names_target": (not report.verdict
                                          and report.failed == target),
                    "chain_agrees": (is_strictly_convex_chain(witness).verdict
                                     == report.verdict),
                })
    return results


def test_criterion_1_decider_agreement_exhaustive(exhaustive_sweep):
    s = exhaustive_sweep
    ok = (s["total"] == 9**3 + 9**4 + 9**5 and s["three_way"] == 0
          and s["seconds"] < 120)
    report_line(1, ok, f"exhaustive three-way agreement on {s['total']} "
                       f"sequences, {s['three_way']} disagreements, "
                       f"{s['seconds']:.1f}s")
    assert ok


def test_criterion_2_decider_agreement_randomized(random_sweep):
    s = random_sweep
    ok = s["total"] == 300_000 and s["three_way"] == 0 and s["seconds"] < 300
    report_line(2, ok, f"randomized three-way agreement on {s['total']} "
                       f"polygons (n in 6/8/12, grid 50), "
                       f"{s['three_way']} disagreements, {s['seconds']:.1f}s")
    assert ok


def test_criterion_3_minimality_matrix(witness_matrix):
    good = sum(all((w["quasi_strict"], w["exactly_target"],
                    w["oracle_rejects"], w["fast_names_target"]))
               for w in witness_matrix)
    ok = len(witness_matrix) == 84 and good == 84
    report_line(3, ok, f"minimality witnesses verified {good}/84 "
                       f"(every condition, n in [4,10])")
    assert ok


def test_criterion_4_chain_equivalence(exhaustive_sweep, random_sweep,
                                        witness_matrix):
    chain_breaks = exhaustive_sweep["chain"] + random_sweep["chain"]
    chain_breaks += sum(not w["chain_agrees"] for w in witness_matrix)
    ok = chain_breaks == 0
    report_line(4, ok, f"chain and scan deciders agree on all corpus inputs "
                       f"and witnesses ({chain_breaks} mismatches)")
    assert ok


def test_criterion_5_hereditariness():
    rng = random.Random(20260810)

    def strict_seed():
        while True:
            tri = random_polygon(3, 9, rng_seed=rng.randrange(10**9))
            if delta(*tri) != 0:
                return tri

    target_count = 1000
    checked = 0
    failures = 0
    raw_spot_checks = 0
    while checked < target_count:
        # make_strictly_convex(20) grown from a random seed triangle.
        chain = generator._arc_steps(strict_seed(), [0] * 17)[0]
        for n in range(5, 21):
            if checked >= target_count:
                break
            poly = integerized(chain[:n])
            ok = (is_strictly_convex(poly, collect_signs=False).verdict
                  and strictly_convex_oracle(poly) and hull_oracle(poly))
            for i in range(n):
                sub = poly[:i] + poly[i + 1:]
                ok = ok and is_strictly_convex(sub, collect_signs=False).verdict
                ok = ok and strictly_convex_oracle(sub) and hull_oracle(sub)
            if checked % 32 == 0:
                # spot-check the unscaled construction output as well
                raw = chain[:n]
                ok = ok and strictly_convex_oracle(raw)
                ok = ok and is_strictly_convex(raw, collect_signs=False).verdict
                raw_spot_checks += 1
            failures += not ok
            checked += 1
    ok = failures == 0
    report_line(5, ok, f"single-vertex deletions on {checked} generated "
                       f"convex polygons (n in [5,20]) all accepted by all "
                       f"three deciders; {failures} failures, "
                       f"{raw_spot_checks} unscaled spot-checks")
    assert ok


def test_criterion_6_strict_equals_quasi_strict_on_convex(exhaustive_sweep):
    s = exhaustive_sweep
    ok = s["strict_vs_quasi"] == 0 and s["hull_ordered"] > 0
    report_line(6, ok, f"strict == quasi-strict on all {s['hull_ordered']} "
                       f"hull-ordered corpus polygons "
                       f"({s['strict_vs_quasi']} violations)")
    assert ok


def test_criterion_7_work_bound():
    measured = {}
    for n in (4, 10, 100, 10**5):
        poly = parabola_polygon(n)
        before = delta_evaluations()
        is_strictly_convex(poly, explain=True)
        measured[n] = delta_evaluations() - before
    ok = all(measured[n] == 3 * (n - 3) + 3 for n in measured)
    report_line(7, ok, f"full-scan determinant counts {measured} "
                       f"all equal 3(n-3)+3")
    assert ok


def time_decision(n, reps=3):
    """Median nanoseconds of the decision loop alone on the n-vertex parabola
    polygon, and the determinant count of the last run."""
    poly = parabola_polygon(n)
    times = []
    for _ in range(reps):
        before = delta_evaluations()
        start = time.perf_counter_ns()
        report = is_strictly_convex(poly, collect_signs=False)
        times.append(time.perf_counter_ns() - start)
        deltas = delta_evaluations() - before
        assert report.verdict
    return statistics.median(times), deltas


def test_criterion_8_linear_scaling():
    timed = {n: time_decision(n) for n in (10**5, 10**6)}
    ratio = timed[10**6][0] / timed[10**5][0]
    counts_ok = all(deltas == 3 * (n - 3) + 3
                    for n, (_, deltas) in timed.items())

    # constant-size auxiliary state: benchmark mode returns no sign table,
    # and the decision's transient allocations stay far below table scale
    poly = parabola_polygon(10**5)
    tracemalloc.start()
    report = is_strictly_convex(poly, collect_signs=False)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    memory_ok = report.signs is None and report.verdict and peak < 256 * 1024

    ok = 5 <= ratio <= 20 and counts_ok and memory_ok
    report_line(8, ok, f"fast test 1e5 -> 1e6 time ratio {ratio:.1f} "
                       f"(target [5, 20]), delta counts exact, "
                       f"decision peak allocation {peak} bytes")
    assert ok


def test_rational_decision_keeps_constant_memory():
    # Criterion 8's bound for Fraction input: the scan reads the integer
    # images of the coordinates one vertex at a time, never a scaled copy.
    poly = tuple(P(Fraction(x, 3), Fraction(y, 5))
                 for x, y in parabola_polygon(10**5))
    tracemalloc.start()
    report = is_strictly_convex(poly, collect_signs=False)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.signs is None and report.verdict
    assert peak < 256 * 1024, peak


def test_criterion_9_regressions():
    square = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
    swapped = (P(0, 0), P(1, 1), P(1, 0), P(0, 1))
    checks = {
        "unit square accepted": is_strictly_convex(square).verdict,
        "reordered square rejected": not is_strictly_convex(swapped).verdict,
        "empty accepted": is_strictly_convex(()).verdict,
        "single point accepted": is_strictly_convex((P(2, 3),)).verdict,
        "segment accepted": is_strictly_convex((P(0, 0), P(1, 0))).verdict,
        "repeated pair accepted": is_strictly_convex((P(1, 1), P(1, 1))).verdict,
        "collinear triangle rejected":
            not is_strictly_convex((P(0, 0), P(1, 0), P(2, 0))).verdict,
        "duplicate-vertex 4-gon rejected":
            not is_strictly_convex((P(0, 0), P(1, 0), P(1, 0), P(0, 1))).verdict,
    }
    ok = all(checks.values())
    failing = [name for name, passed in checks.items() if not passed]
    report_line(9, ok, "fixed-case regressions all hold" if ok
                else f"failing: {failing}")
    assert ok
