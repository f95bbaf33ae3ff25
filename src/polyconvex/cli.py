"""Command-line front end.

    polyconvex check FILE [--explain] [--oracle] [--chain] [--json]
    polyconvex generate --n N --mode convex|witness [--omega W --i I] --out FILE

Exit codes: 0 strictly convex, 1 not strictly convex, 2 parse or usage error,
3 oracle disagreement (an invariant violation worth a loud failure), 4 any
other error, with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import traceback

from .fast_test import ConditionId, is_strictly_convex, is_strictly_convex_chain
from .generator import make_minimality_witness, make_strictly_convex
from .oracles import hull_oracle, strictly_convex_oracle
from .polyfile import (MAX_DIGITS, PolygonParseError, exact_polygon,
                       iter_polygon_blocks, write_polygon_file)

# Largest `generate --n`.  The coordinates of make_strictly_convex(56) and
# of every witness at n = 56 have at most 4,178 digits; at n = 57 they
# reach 4,338, past what a polygon file can hold (MAX_DIGITS), and each
# further vertex costs more to build.
MAX_GENERATE_N = 56

# Sign cells per write of a --explain row, and the text after "i" in a cell.
_ROW_SLICE = 4096
_SIGN_TEXT = {1: "=+1", 0: "=+0", -1: "=-1"}


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error as every other refusal: one "error:" line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


# Built once per process: parse_args leaves the parser as it was.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # A polygon file holds values of up to MAX_DIGITS digits, so a lower
    # int-string limit (PYTHONINTMAXSTRDIGITS, 0 for none) is raised for a run.
    limit = sys.get_int_max_str_digits()
    raise_limit = 0 < limit < MAX_DIGITS
    if raise_limit:
        sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # A usage error (_Parser.error), or --help.
        return exc.code
    except (PolygonParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # Exit 1 means "not strictly convex" and nothing else.
        traceback.print_exc()
        return 4
    finally:
        if raise_limit:
            sys.set_int_max_str_digits(limit)


def _cmd_check(args) -> int:
    # The deciders read the file as a stream of exact ratio blocks under
    # every flag, and scale each axis of each block to ints.  Under --oracle
    # the blocks of that one read are held, since a pipe is read once; the
    # oracles take their exact values and scale them on their own, so that
    # no fault in the deciders' block scaling can make the deciders and the
    # oracles agree on a wrong polygon.
    vertices = iter_polygon_blocks(args.file)
    if args.oracle:
        blocks = vertices.blocks = list(vertices.blocks)
    # Only --explain and --json print signs; no other run collects them.
    collect_signs = args.explain or args.as_json
    if args.chain:
        report = is_strictly_convex_chain(vertices,
                                          collect_signs=collect_signs)
    else:
        report = is_strictly_convex(vertices, explain=args.explain,
                                    collect_signs=collect_signs)

    oracle = None
    if args.oracle:
        if report.n < 3:
            oracle = {"skipped": f"oracles need n >= 3, got {report.n}"}
        else:
            polygon = exact_polygon(blocks)
            sidedness = strictly_convex_oracle(polygon)
            hull = hull_oracle(polygon)
            oracle = {"sidedness": sidedness, "hull": hull,
                      "agree": sidedness == hull == report.verdict}

    with _stdout_may_close():
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


@contextlib.contextmanager
def _stdout_may_close():
    """A reader closing stdout early (``| head``) leaves the exit code as is;
    stdout then writes to devnull, so Python's final flush cannot fail."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def _print_text_report(report, explain: bool, oracle) -> None:
    if report.verdict:
        print("strictly-convex")
    elif report.failed is not None:
        print(f"not-strictly-convex: C{report.failed.omega} at i={report.failed.i}")
    else:
        print("not-strictly-convex")
    if explain and report.signs is not None:
        # Written a slice of cells at a time, so that no string of the whole
        # row is ever built.  A full table has no empty row.
        write = sys.stdout.write
        for kind, row in zip("abc", report.signs):
            write(f"signs {kind}:")
            for start in range(0, len(row), _ROW_SLICE):
                cells = row[start:start + _ROW_SLICE]
                write("".join([f" {i}{_SIGN_TEXT[s]}"
                               for i, s in enumerate(cells, start + 2)]))
            write("\n")
    if oracle is not None:
        if "skipped" in oracle:
            print(f"oracles: skipped ({oracle['skipped']})")
        else:
            verdict = "agree" if oracle["agree"] else "DISAGREE"
            print(f"oracles: sidedness={str(oracle['sidedness']).lower()} "
                  f"hull={str(oracle['hull']).lower()} -> {verdict}")


def _cmd_generate(args) -> int:
    refuse = _build_parser().error
    if args.n > MAX_GENERATE_N:
        refuse(f"--n must be <= {MAX_GENERATE_N}, got {args.n}: larger "
               f"polygons have coordinates of more than {MAX_DIGITS} digits")
    witness = args.mode == "witness"
    if (args.omega is not None, args.index is not None) != (witness, witness):
        refuse("--omega and --i go together, and only with --mode witness")
    try:
        if args.mode == "convex":
            polygon = make_strictly_convex(args.n)
        else:
            polygon = make_minimality_witness(
                args.n, ConditionId(args.omega, args.index))
    except ValueError as exc:
        refuse(str(exc))
    write_polygon_file(args.out, polygon)
    with _stdout_may_close():
        print(f"wrote {len(polygon)} vertices to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
