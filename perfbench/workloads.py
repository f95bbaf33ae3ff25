"""The benchmark's workloads: inputs built from the seed, ops, and gates.

Each workload builds its inputs in ``setup`` and confirms the construction at
a small size through the CLI with both oracles and the chain decider (the
preflight), so the expected verdicts of the large inputs rest on more than
the decider being timed.  ``cycle`` returns one round of ops; the runner
repeats whole rounds, so every run sees the same mix of ops.

An op is ``(kind, run, check)``: ``run`` is the timed call into the package,
``check`` gates its result and returns None or a description of the error.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

PREFLIGHT_N = 32


class Op(NamedTuple):
    kind: str
    run: Callable
    check: Callable


def run_cli(pkg, argv, tracer):
    """``cli.main(argv)`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    text = out.getvalue()
    tracer.count("cli.output_bytes", len(text))
    return code, text


def _confirmed(pkg, vertices, report) -> bool:
    """A rejection names a condition whose raw determinant product is <= 0."""
    return report.failed is not None and \
        pkg.fast_test.condition_value(vertices, report.failed) <= 0


def _preflight(pkg, path, vertices, expect_failed, tracer) -> list[str]:
    """Run a small input through ``check --oracle --json`` and
    ``check --chain --json``; expect_failed is None for a convex input."""
    errors = []
    expect_code = 0 if expect_failed is None else 1
    code, text = run_cli(pkg, ["check", str(path), "--oracle", "--json"], tracer)
    report = json.loads(text) if code in (0, 1) else {}
    failed = report.get("failed")
    if code != expect_code or report.get("verdict") != (expect_failed is None) \
            or not report.get("oracle", {}).get("agree"):
        errors.append(f"preflight {path.name}: exit {code}, output {text[:200]!r}")
    elif expect_failed is not None and (
            failed is None or (failed["omega"], failed["i"]) != tuple(expect_failed)):
        errors.append(f"preflight {path.name}: failed {failed}, "
                      f"expected {tuple(expect_failed)}")
    code, text = run_cli(pkg, ["check", str(path), "--chain", "--json"], tracer)
    report = json.loads(text) if code in (0, 1) else {}
    failed = report.get("failed")
    if code != expect_code or (expect_failed is not None and (
            failed is None or pkg.fast_test.condition_value(
                vertices, pkg.fast_test.ConditionId(failed["omega"],
                                                    failed["i"])) > 0)):
        errors.append(f"preflight {path.name} --chain: exit {code}, "
                      f"output {text[:200]!r}")
    return errors


# --- check_int_large ---------------------------------------------------------

class _Parabola:
    """Vertices (t + tx, t^2 + ty), with vertex k lifted by one when k is set:
    the input as a lazy sequence, for confirming a reported failure without
    holding a second copy of the polygon."""

    def __init__(self, n, tx, ty, k=None):
        self.n, self.tx, self.ty, self.k = n, tx, ty, k

    def __len__(self):
        return self.n

    def __getitem__(self, t):
        if not 0 <= t < self.n:
            raise IndexError(t)
        lift = 1 if t == self.k else 0
        return (t + self.tx, t * t + self.ty + lift)


def _parabola_files(pkg, n, rng, workdir, stem, tracer):
    """Write the translated parabola n-gon and its copy with vertex k moved
    to the midpoint of its neighbours; return (ok, bad, k) with ok and bad as
    (path, lazy vertices)."""
    tx, ty = rng.randint(-999, 999), rng.randint(-999, 999)
    k = 3 * n // 4 + rng.randint(-(n // 64), n // 64)
    polygon = tuple(pkg.geometry.Point(x + tx, y + ty)
                    for x, y in pkg.generator.parabola_polygon(n))
    tracer.note_coords(polygon)
    lines = pkg.polyfile.format_polygon(polygon).split("\n")
    ok_path, bad_path = workdir / f"{stem}-ok.txt", workdir / f"{stem}-bad.txt"
    ok_path.write_text("\n".join(lines))
    lines[k] = f"{k + tx} {k * k + 1 + ty}"
    bad_path.write_text("\n".join(lines))
    return ((ok_path, _Parabola(n, tx, ty)), (bad_path, _Parabola(n, tx, ty, k)),
            k)


class CheckIntLarge:
    name = "check_int_large"
    n = 20_000

    def setup(self, pkg, seed, workdir, tracer):
        rng = random.Random(seed)
        ok, bad, k = _parabola_files(pkg, self.n, rng, workdir, "int", tracer)
        small_ok, small_bad, small_k = _parabola_files(
            pkg, PREFLIGHT_N, rng, workdir, "int-small", tracer)
        errors = _preflight(pkg, small_ok[0], small_ok[1], None, tracer)
        errors += _preflight(pkg, small_bad[0], small_bad[1], (1, small_k), tracer)
        state = {"ok": ok, "bad": bad, "k": k}
        inputs = {"n": self.n, "k": k, "ok_bytes": ok[0].stat().st_size,
                  "bad_bytes": bad[0].stat().st_size}
        return state, inputs, errors

    def cycle(self, pkg, state, tracer):
        ok_path, _ = state["ok"]
        bad_path, bad_vertices = state["bad"]
        k = state["k"]
        condition = pkg.fast_test.ConditionId(1, k)

        def check_ok(result):
            if result != (0, "strictly-convex\n"):
                return f"convex file: got {result!r}"
            return None

        def check_bad(result):
            if result != (1, f"not-strictly-convex: C1 at i={k}\n"):
                return f"file with C1 at i={k} broken: got {result!r}"
            if pkg.fast_test.condition_value(bad_vertices, condition) > 0:
                return f"reported C1 at i={k} holds on the raw determinants"
            return None

        return [
            Op("check_ok", lambda: run_cli(pkg, ["check", str(ok_path)], tracer),
               check_ok),
            Op("check_bad", lambda: run_cli(pkg, ["check", str(bad_path)], tracer),
               check_bad),
        ]


# --- check_rational_json -----------------------------------------------------

def _decimal(value: Fraction, digits: int) -> str:
    """Exact decimal text of a value whose denominator divides 10**digits."""
    scaled = value * 10 ** digits
    whole, frac = divmod(abs(scaled.numerator), 10 ** digits)
    sign = "-" if value < 0 else ""
    return f"{sign}{whole}.{frac:0{digits}d}"


def _rational_map(rng):
    """Invertible map (t, u) -> (a t + b u + e, c t + d u + f).

    a..d are thirds and e, f have denominators 8 and 5 that the thirds never
    cancel, so no image coordinate is an integer; where the thirds part is
    whole the value is an exact decimal (x in 1/8ths, y in 1/5ths).
    """
    nums = (-5, -4, -2, -1, 1, 2, 4, 5)
    while True:
        a, b, c, d = (Fraction(rng.choice(nums), 3) for _ in range(4))
        if a * d != b * c:
            break
    e = Fraction(rng.randrange(-15, 16, 2), 8)
    f = Fraction(rng.choice([p for p in range(-24, 25) if p % 5]), 5)
    return a, b, c, d, e, f


def _rational_file(pkg, n, coeffs, path, tracer):
    a, b, c, d, e, f = coeffs
    polygon = tuple(pkg.geometry.Point(a * x + b * y + e, c * x + d * y + f)
                    for x, y in pkg.generator.parabola_polygon(n))
    tracer.note_coords(polygon)
    lines = pkg.polyfile.format_polygon(polygon).split("\n")
    decimals = 0
    for index, (x, y) in enumerate(polygon):
        if x.denominator == 8 and y.denominator == 5:
            lines[index] = f"{_decimal(x, 3)} {_decimal(y, 1)}"
            decimals += 1
    path.write_text("\n".join(lines))
    return polygon, decimals


class CheckRationalJson:
    name = "check_rational_json"
    n = 4_000

    def setup(self, pkg, seed, workdir, tracer):
        coeffs = _rational_map(random.Random(seed))
        a, b, c, d = coeffs[:4]
        path = workdir / "rational.txt"
        _, decimals = _rational_file(pkg, self.n, coeffs, path, tracer)
        small_path = workdir / "rational-small.txt"
        small, _ = _rational_file(pkg, PREFLIGHT_N, coeffs, small_path, tracer)
        errors = _preflight(pkg, small_path, small, None, tracer)
        # An affine image of the counterclockwise parabola turns the way the
        # sign of the map's determinant says: every decision sign equals it.
        state = {"path": path, "sign": 1 if a * d - b * c > 0 else -1}
        inputs = {"n": self.n, "decimal_lines": decimals,
                  "bytes": path.stat().st_size,
                  "map": [str(v) for v in coeffs]}
        return state, inputs, errors

    def cycle(self, pkg, state, tracer):
        path, sign, n = state["path"], state["sign"], self.n

        def check(result):
            code, text = result
            if code != 0:
                return f"exit {code}: {text[:200]!r}"
            report = json.loads(text)
            signs = report["signs"]
            if report["verdict"] is not True or report["failed"] is not None \
                    or report["n"] != n:
                return f"report {text[:200]!r}"
            if [len(signs[kind]) for kind in "abc"] != [n - 3, n - 2, n - 2] \
                    or any(s != sign for kind in "abc" for s in signs[kind]):
                return f"sign table is not the constant {sign} chain"
            return None

        return [Op("check_json",
                   lambda: run_cli(pkg, ["check", str(path), "--json"], tracer),
                   check)]


# --- verify_corpus -----------------------------------------------------------

class VerifyCorpus:
    name = "verify_corpus"
    witness_n = 12
    convex_n = 20
    randoms_per_witness = 4
    random_sizes = (4, 12)
    random_grid = 6

    def setup(self, pkg, seed, workdir, tracer):
        rng = random.Random(seed)
        ConditionId = pkg.fast_test.ConditionId
        targets = [ConditionId(omega, i) for i in range(2, self.witness_n - 1)
                   for omega in (1, 2, 3)]
        rng.shuffle(targets)
        small_target = ConditionId(rng.choice((1, 2, 3)), rng.randint(2, 5))
        errors = []
        for name, polygon, expect in (
                ("witness", pkg.generator.make_minimality_witness(7, small_target),
                 small_target),
                ("convex", pkg.generator.make_strictly_convex(7), None)):
            path = workdir / f"corpus-small-{name}.txt"
            path.write_text(pkg.polyfile.format_polygon(polygon))
            errors += _preflight(pkg, path, polygon, expect, tracer)
        randoms = [[(rng.randint(*self.random_sizes), rng.getrandbits(32))
                    for _ in range(self.randoms_per_witness)] for _ in targets]
        state = {"targets": targets, "randoms": randoms}
        inputs = {"witness_n": self.witness_n, "witnesses": len(targets),
                  "convex_n": self.convex_n,
                  "randoms_per_witness": self.randoms_per_witness,
                  "random_n": list(self.random_sizes),
                  "random_grid": self.random_grid}
        return state, inputs, errors

    def cycle(self, pkg, state, tracer):
        """One convex polygon, then each witness followed by a few polygons
        from the seeded random stream; every round sweeps the same corpus."""
        gen = pkg.generator
        ops = [self._op(pkg, "convex", tracer,
                        lambda: gen.make_strictly_convex(self.convex_n), True)]
        for target, randoms in zip(state["targets"], state["randoms"]):
            ops.append(self._op(
                pkg, "witness", tracer,
                lambda t=target: gen.make_minimality_witness(self.witness_n, t),
                target))
            for m, s in randoms:
                ops.append(self._op(
                    pkg, "random", tracer,
                    lambda m=m, s=s: gen.random_polygon(m, self.random_grid, s),
                    None))
        return ops

    @staticmethod
    def _op(pkg, kind, tracer, build, expect):
        """Build, write, read back, decide twice, cross-check twice.

        expect: True for a convex polygon, a ConditionId for a witness, None
        for a random polygon (the four deciders need only agree)."""
        polyfile, fast_test, oracles = pkg.polyfile, pkg.fast_test, pkg.oracles

        def run():
            polygon = build()
            tracer.note_coords(polygon)
            parsed = polyfile.parse_polygon(polyfile.format_polygon(polygon))
            return (polygon, parsed, fast_test.is_strictly_convex(parsed),
                    fast_test.is_strictly_convex_chain(parsed),
                    oracles.strictly_convex_oracle(parsed),
                    oracles.hull_oracle(parsed))

        def check(result):
            polygon, parsed, fast, chain, sidedness, hull = result
            if parsed != polygon:
                return f"{kind}: format/parse round trip changed the polygon"
            verdicts = (fast.verdict, chain.verdict, sidedness, hull)
            if len(set(verdicts)) != 1:
                return f"{kind}: deciders disagree {verdicts} on {polygon}"
            for report in (fast, chain):
                if not report.verdict and not _confirmed(pkg, parsed, report):
                    return f"{kind}: unconfirmed failure {report.failed}"
            if expect is True and not fast.verdict:
                return f"{kind}: convex polygon rejected at {fast.failed}"
            if isinstance(expect, tuple):
                if fast.verdict or fast.failed != expect:
                    return f"witness {expect}: fast test reported {fast.failed}"
                n = len(parsed)
                for i in range(2, n - 1):
                    for omega in (1, 2, 3):
                        cond = fast_test.ConditionId(omega, i)
                        violated = fast_test.condition_value(parsed, cond) <= 0
                        if violated != (cond == expect):
                            return f"witness {expect}: condition {cond} " \
                                   f"{'fails' if violated else 'holds'}"
            return None

        return Op(kind, run, check)


WORKLOADS = {w.name: w for w in (CheckIntLarge(), CheckRationalJson(),
                                 VerifyCorpus())}
