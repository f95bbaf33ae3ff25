"""Command-line front end.

    polyconvex check FILE [--explain] [--oracle] [--chain] [--json]
    polyconvex generate --n N --mode convex|witness [--omega W --i I] --out FILE

Exit codes: 0 strictly convex, 1 not strictly convex, 2 parse or usage error,
3 oracle disagreement (an invariant violation worth a loud failure), 4 any
other error, with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .fast_test import ConditionId, is_strictly_convex, is_strictly_convex_chain
from .generator import make_minimality_witness, make_strictly_convex
from .oracles import hull_oracle, strictly_convex_oracle
from .polyfile import (MAX_DIGITS, PolygonParseError, read_polygon_file,
                       write_polygon_file)

# Largest `generate --n`.  With the default seed, the coordinates of
# make_strictly_convex(56) and of every witness at n = 56 have at most 4,178
# digits; at n = 57 they reach 4,338, past what a polygon file can hold
# (MAX_DIGITS), and each further vertex costs more to build.
MAX_GENERATE_N = 56


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
    except Exception:
        # Exit 1 means "not strictly convex" and nothing else.
        traceback.print_exc()
        return 4


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
        for kind, row in zip("abc", report.signs):
            cells = " ".join(f"{i}={s:+d}" for i, s in enumerate(row, 2))
            print(f"signs {kind}: {cells}")
    if oracle is not None:
        if "skipped" in oracle:
            print(f"oracles: skipped ({oracle['skipped']})")
        else:
            verdict = "agree" if oracle["agree"] else "DISAGREE"
            print(f"oracles: sidedness={str(oracle['sidedness']).lower()} "
                  f"hull={str(oracle['hull']).lower()} -> {verdict}")


def _cmd_generate(args) -> int:
    if args.n > MAX_GENERATE_N:
        print(f"error: --n must be <= {MAX_GENERATE_N}, got {args.n}: larger "
              f"polygons have coordinates of more than {MAX_DIGITS} digits",
              file=sys.stderr)
        return 2
    if args.mode == "witness" and (args.omega is None or args.index is None):
        print("error: witness mode needs --omega and --i", file=sys.stderr)
        return 2
    try:
        if args.mode == "convex":
            polygon = make_strictly_convex(args.n)
        else:
            polygon = make_minimality_witness(
                args.n, ConditionId(args.omega, args.index))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_polygon_file(args.out, polygon)
    print(f"wrote {len(polygon)} vertices to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
