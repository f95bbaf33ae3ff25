"""Command-line front end.

    polyconvex check FILE [--explain] [--oracle] [--chain] [--json]
    polyconvex generate --n N --mode convex|witness [--omega W --i I] --out FILE
    polyconvex bench --sizes A,B,C [--reps R] [--with-oracle]

Exit codes: 0 strictly convex, 1 not strictly convex, 2 parse or usage error,
3 oracle disagreement (an invariant violation worth a loud failure).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import NamedTuple

from .errors import TooFewVertices
from .fast_test import ConditionId, is_strictly_convex, is_strictly_convex_chain
from .generator import make_minimality_witness, make_strictly_convex, parabola_polygon
from .geometry import delta_evaluations
from .oracles import hull_oracle, strictly_convex_oracle
from .polyfile import PolygonParseError, read_polygon_file, write_polygon_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyconvex",
        description="Exact strict-convexity testing for polygons.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide strict convexity of a polygon file")
    check.add_argument("file", help="polygon file (one 'x y' pair per line)")
    check.add_argument("--explain", action="store_true",
                       help="print the full sign table, even past a failure")
    check.add_argument("--oracle", action="store_true",
                       help="also run both brute-force oracles and report agreement")
    check.add_argument("--chain", action="store_true",
                       help="use the equality-chain decision procedure")
    check.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON")
    check.set_defaults(func=_cmd_check)

    gen = sub.add_parser("generate", help="write a constructed polygon file")
    gen.add_argument("--n", type=int, required=True, help="vertex count")
    gen.add_argument("--mode", choices=("convex", "witness"), required=True)
    gen.add_argument("--omega", type=int, help="condition family (witness mode)")
    gen.add_argument("--i", type=int, dest="index",
                     help="condition index (witness mode)")
    gen.add_argument("--out", required=True, help="output file path")
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="time the linear test on generated convex polygons")
    bench.add_argument("--sizes", required=True,
                       help="comma-separated vertex counts, each >= 4")
    bench.add_argument("--reps", type=int, default=3,
                       help="timing repetitions per size (median is reported)")
    bench.add_argument("--with-oracle", action="store_true",
                       help="also time the quadratic oracle (slow for large n)")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (PolygonParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_check(args) -> int:
    polygon = read_polygon_file(args.file)
    if args.chain:
        report = is_strictly_convex_chain(polygon)
    else:
        # Plain check prints no signs, so it collects none.
        report = is_strictly_convex(polygon, explain=args.explain,
                                    collect_signs=args.explain or args.as_json)

    oracle = None
    if args.oracle:
        if len(polygon) < 3:
            oracle = {"skipped": f"oracles need n >= 3, got {len(polygon)}"}
        else:
            sidedness = strictly_convex_oracle(polygon)
            hull = hull_oracle(polygon)
            oracle = {"sidedness": sidedness, "hull": hull,
                      "agree": sidedness == hull == report.verdict}

    if args.as_json:
        payload = report.to_json_dict()
        if args.oracle:
            payload["oracle"] = oracle
        print(json.dumps(payload))
    else:
        _print_text_report(report, args.explain, oracle)

    if oracle is not None and "agree" in oracle and not oracle["agree"]:
        return 3
    return 0 if report.verdict else 1


def _print_text_report(report, explain: bool, oracle) -> None:
    if report.verdict:
        print("strictly-convex")
    elif report.failed is not None:
        print(f"not-strictly-convex: C{report.failed.omega} at i={report.failed.i}")
    else:
        print("not-strictly-convex")
    if explain and report.signs is not None:
        for kind in ("a", "b", "c"):
            row = getattr(report.signs, kind)
            cells = " ".join(f"{i}={row[i]:+d}" for i in sorted(row))
            print(f"signs {kind}: {cells}")
    if oracle is not None:
        if "skipped" in oracle:
            print(f"oracles: skipped ({oracle['skipped']})")
        else:
            verdict = "agree" if oracle["agree"] else "DISAGREE"
            print(f"oracles: sidedness={str(oracle['sidedness']).lower()} "
                  f"hull={str(oracle['hull']).lower()} -> {verdict}")


def _cmd_generate(args) -> int:
    if args.mode == "convex":
        if args.n < 3:
            print("error: convex mode needs --n >= 3", file=sys.stderr)
            return 2
        polygon = make_strictly_convex(args.n)
    else:
        if args.omega is None or args.index is None:
            print("error: witness mode needs --omega and --i", file=sys.stderr)
            return 2
        if args.n < 4 or args.omega not in (1, 2, 3) \
                or not 2 <= args.index <= args.n - 2:
            print(f"error: witness needs n >= 4, omega in {{1,2,3}}, "
                  f"i in [2, n-2]; got n={args.n}, omega={args.omega}, "
                  f"i={args.index}", file=sys.stderr)
            return 2
        polygon = make_minimality_witness(args.n, ConditionId(args.omega, args.index))
    write_polygon_file(args.out, polygon)
    print(f"wrote {len(polygon)} vertices to {args.out}")
    return 0


class BenchRow(NamedTuple):
    n: int
    fast_ns: int
    oracle_ns: int | None
    deltas: int


def bench_rows(sizes, reps: int = 3, with_oracle: bool = False) -> list[BenchRow]:
    """Time the linear test (and optionally the quadratic oracle) on generated
    strictly convex polygons.

    Only the decision loop is timed; generation and parsing are excluded.
    The reported delta count is from the last timed run and must equal
    3(n-3)+3 on every size.
    """
    rows = []
    for n in sizes:
        polygon = parabola_polygon(n)
        times = []
        deltas = 0
        for _ in range(reps):
            before = delta_evaluations()
            t0 = time.perf_counter_ns()
            report = is_strictly_convex(polygon, collect_signs=False)
            elapsed = time.perf_counter_ns() - t0
            deltas = delta_evaluations() - before
            times.append(elapsed)
            if not report.verdict:
                raise RuntimeError(f"generated {n}-gon failed the fast test")
        oracle_ns = None
        if with_oracle:
            oracle_times = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                verdict = strictly_convex_oracle(polygon)
                oracle_times.append(time.perf_counter_ns() - t0)
                if not verdict:
                    raise RuntimeError(f"generated {n}-gon failed the oracle")
            oracle_ns = int(statistics.median(oracle_times))
        rows.append(BenchRow(n, int(statistics.median(times)), oracle_ns, deltas))
    return rows


def _cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return 2
    if not sizes or any(n < 4 for n in sizes):
        print("error: every bench size must be >= 4", file=sys.stderr)
        return 2
    if args.reps < 1:
        print("error: --reps must be >= 1", file=sys.stderr)
        return 2
    print("n,fast_ns,oracle_ns,deltas_evaluated")
    for row in bench_rows(sizes, args.reps, args.with_oracle):
        oracle_cell = "" if row.oracle_ns is None else str(row.oracle_ns)
        print(f"{row.n},{row.fast_ns},{oracle_cell},{row.deltas}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
