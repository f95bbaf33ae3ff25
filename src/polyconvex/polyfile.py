"""Plain-text polygon files.

One vertex per line: two whitespace-separated coordinates.  A coordinate is
an integer ("3"), a fraction ("3/4") or a decimal ("0.25"); decimals convert
exactly, so "0.1" is one tenth, never a binary float.  A run of more than
MAX_DIGITS digits (leading zeros count), a decimal exponent beyond
+-MAX_DIGITS, or a value whose numerator or denominator has more than
MAX_DIGITS digits, is a PolygonParseError.  Blank lines and lines
starting with '#' are ignored.  Files are UTF-8 text, optionally opening
with a byte-order mark; other bytes are a PolygonParseError.  Writing a
polygon and parsing it back reproduces it exactly.

The grammar is that of Fraction(token).  Integers, "p/q" and "a.b" written
in plain digits, the shapes that fill real files, are read with int() and
reduced by at most one Fraction(n, d); every other token goes to Fraction's
own parser, so what a token means and which error it raises never depend on
the shortcut.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .geometry import Point


class PolygonParseError(ValueError):
    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


# Python's default limit on the digits of an int string.  format_scalar
# cannot write a numerator or denominator longer than this, so no parsed value
# may have one.  It also bounds a decimal exponent before Fraction builds 10**e
# in full, which for a nine-byte token could cost seconds.
MAX_DIGITS = 4300
_TOO_MANY_DIGITS = 10 ** MAX_DIGITS

# A group of digits as int() reads it; underscores between digits do not
# count toward the int-string limit.
_DIGIT_RUN = re.compile(r"[\d_]+")

# Longest token prefix quoted in an error message.
_QUOTE_LIMIT = 40


def _quoted(token: str) -> str:
    if len(token) <= _QUOTE_LIMIT:
        return repr(token)
    return f"{token[:_QUOTE_LIMIT]!r}... ({len(token)} characters)"


def _exponent_too_large(token: str) -> bool:
    # Called only for a token holding an "e" or "E"; Fraction reads the
    # exponent after the last one.
    mark = max(token.rfind("e"), token.rfind("E"))
    try:
        return abs(int(token[mark + 1:])) > MAX_DIGITS
    except ValueError:
        return False


def parse_scalar(token: str, line_number: int | None = None):
    # int() and Fraction refuse a run of more than MAX_DIGITS digits only under
    # Python's default int-string limit, which PYTHONINTMAXSTRDIGITS or Python
    # 3.10.0-3.10.6 lifts, so the check is made here.  A shorter token cannot
    # hold such a run: the hot path pays one length test.
    if len(token) > MAX_DIGITS and any(len(run) - run.count("_") > MAX_DIGITS
                                       for run in _DIGIT_RUN.findall(token)):
        raise PolygonParseError(f"bad coordinate {_quoted(token)}",
                                line_number)
    # Plain integers skip the Fraction regex.  The guard keeps "p/q" and
    # decimal tokens off the exception path.  A token the guard passes but
    # int() rejects (a superscript digit) falls through, so Fraction alone
    # decides what is accepted.
    if token.isdigit() or (token[:1] == "-" and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:
            pass
    # So do "p/q" and "a.b" in plain digits, with an optional "-" on p or a:
    # int() reads the parts and one Fraction(n, d) reduces them.  A token this
    # short cannot hold a value beyond the digit caps.  Any other shape, a
    # zero denominator, or digits int() refuses falls through to Fraction,
    # which alone decides what such a token means.
    if len(token) <= MAX_DIGITS:
        head, sep, tail = token.partition("/")
        if not sep:
            head, sep, tail = token.partition(".")
        if tail.isdigit() and (head.isdigit() or (head[:1] == "-"
                                                  and head[1:].isdigit())):
            try:
                if sep == "/":
                    numerator, denominator = int(head), int(tail)
                else:
                    numerator, denominator = int(head + tail), 10 ** len(tail)
            except ValueError:
                denominator = 0
            if denominator:
                value = Fraction(numerator, denominator)
                return value.numerator if value.denominator == 1 else value
    if ("e" in token or "E" in token) and _exponent_too_large(token):
        raise PolygonParseError(f"exponent beyond +-{MAX_DIGITS} in "
                                f"{_quoted(token)}", line_number)
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise PolygonParseError(f"bad coordinate {_quoted(token)}",
                                line_number) from None
    if (abs(value.numerator) >= _TOO_MANY_DIGITS
            or value.denominator >= _TOO_MANY_DIGITS):
        raise PolygonParseError(f"more than {MAX_DIGITS} digits in "
                                f"{_quoted(token)}", line_number)
    return value.numerator if value.denominator == 1 else value


def parse_polygon(text: str) -> tuple:
    vertices = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise PolygonParseError(
                f"expected two coordinates, got {len(parts)}", line_number)
        vertices.append(Point(parse_scalar(parts[0], line_number),
                              parse_scalar(parts[1], line_number)))
    return tuple(vertices)


def format_scalar(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def format_polygon(vertices: Sequence[Point]) -> str:
    return "".join(f"{format_scalar(x)} {format_scalar(y)}\n"
                   for x, y in vertices)


def read_polygon_file(path) -> tuple:
    # Decoded straight from the read, so the bytes are freed before parsing.
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_polygon does.  The "?" stands in for the bad
        # byte, so a prefix that ends in a line break counts the line after.
        prefix = exc.object[:exc.start].decode("utf-8")
        line_number = len((prefix + "?").splitlines())
        raise PolygonParseError(f"not UTF-8 text: {exc.reason} at byte "
                                f"{exc.start}", line_number) from None
    # Dropped here rather than by the utf-8-sig codec, whose error offsets
    # would not count the mark's three bytes.
    return parse_polygon(text.removeprefix("\ufeff"))


def write_polygon_file(path, vertices: Sequence[Point]) -> None:
    Path(path).write_text(format_polygon(vertices), encoding="utf-8")
