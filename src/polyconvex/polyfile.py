r"""Plain-text polygon files.

One vertex per line: two whitespace-separated coordinates.  A coordinate is
an integer ("3"), a fraction ("3/4") or a decimal ("0.25"); decimals convert
exactly, so "0.1" is one tenth, never a binary float.  A run of more than
MAX_DIGITS digits (leading zeros count), a decimal exponent beyond
+-MAX_DIGITS, or a value whose numerator or denominator has more than
MAX_DIGITS digits, is a PolygonParseError.  Blank lines and lines
starting with '#' are ignored.  Files are UTF-8 text, optionally opening
with a byte-order mark; other bytes are a PolygonParseError.  Writing a
polygon and parsing it back reproduces it exactly; only int and Fraction
coordinates are written, any other is a TypeError.

The grammar is that of Fraction(token).  Integers, "p/q" and "a.b" written
in plain digits, the shapes that fill real files, are read with int() and
reduced by at most one Fraction(n, d); every other token goes to Fraction's
own parser, so what a token means and which error it raises never depend on
the shortcut.

``iter_polygon`` streams a file as (x, y) pairs in one pass, holding one
block of it at a time.  Each block is a 64 KB binary read followed by the
rest of its last line, so it ends after a b"\n" or at the end of the file,
holds whole lines and, since no UTF-8 multibyte sequence contains that byte,
decodes on its own.  So a file with no b"\n", one huge line or lines
ending in a bare "\r", is read as one block, held whole.  Nothing seeks,
so a pipe reads like a file.  A block made only of lines of two plain
integers (``-?[0-9]{1,MAX_DIGITS}``, separated by spaces or tabs, with an
optional "\r"), as one regex match tells, is split and read by int() with
no per-line code; any other block is decoded and read line by line by the
same code as ``parse_polygon``, so values, messages and line numbers never
depend on the blocks.  Errors come in file order: a bad line ahead of a
non-UTF-8 byte is reported first.  ``parse_polygon`` and
``read_polygon_file`` give the vertices as a tuple of Points.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from .geometry import Point, require_exact


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
    # Python's default int-string limit, which PYTHONINTMAXSTRDIGITS=0 or a
    # value past MAX_DIGITS lifts, so the check is made here.  A shorter token
    # cannot hold such a run: the hot path pays one length test.
    if len(token) > MAX_DIGITS and any(len(run) - run.count("_") > MAX_DIGITS
                                       for run in _DIGIT_RUN.findall(token)):
        raise PolygonParseError(f"bad coordinate {_quoted(token)}",
                                line_number)
    # Integers, "p/q" and "a.b" in plain digits, with an optional "-" on the
    # integer, p or a, skip the Fraction regex: int() reads the parts and one
    # Fraction(n, d) reduces them.  A token this short cannot hold a value
    # beyond the digit caps.  Any other shape, a zero denominator, or digits
    # int() refuses (a superscript) falls through to Fraction, which alone
    # decides what such a token means.
    if len(token) <= MAX_DIGITS:
        head, sep, tail = token.partition("/" if "/" in token else ".")
        if head.removeprefix("-").isdigit() and (not sep or tail.isdigit()):
            try:
                if not sep:
                    return int(head)
                if sep == "/":
                    value = Fraction(int(head), int(tail))
                else:
                    value = Fraction(int(head + tail), 10 ** len(tail))
            except (ValueError, ZeroDivisionError):
                pass
            else:
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


def _parse_lines(lines, line_number: int):
    """The (x, y) pairs of ``lines``, the first of which is ``line_number``."""
    for line_number, raw in enumerate(lines, line_number):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise PolygonParseError(
                f"expected two coordinates, got {len(parts)}", line_number)
        yield (parse_scalar(parts[0], line_number),
               parse_scalar(parts[1], line_number))


def parse_polygon(text: str) -> tuple:
    return tuple(itertools.starmap(Point, _parse_lines(text.splitlines(), 1)))


def format_scalar(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def format_polygon(vertices: Sequence[Point]) -> str:
    vertices = tuple(vertices)
    require_exact(vertices)
    return "".join(f"{format_scalar(x)} {format_scalar(y)}\n"
                   for x, y in vertices)


# Bytes read at a time by iter_polygon.
_BLOCK_SIZE = 1 << 16

_BYTE_ORDER_MARK = "\ufeff".encode()

# Lines of two plain integers, the last of which may lack its "\n".  The caps
# hold under any int-string limit; *+ keeps no backtracking state per line.
_INTEGER = rb"-?[0-9]{1,%d}" % MAX_DIGITS
_PLAIN_BLOCK = re.compile(rb"(?:[ \t]*%s[ \t]+%s[ \t]*\r?(?:\n|\Z))*+"
                          % (_INTEGER, _INTEGER))


def _block_pairs(path):
    """An iterable of (x, y) pairs per block, in file order."""
    line_number = 1
    end = 0  # bytes read so far
    with open(path, "rb") as file:
        # The readline() completes the last line read, so a block ends after
        # a b"\n" or at the end of the file.
        while block := file.read(_BLOCK_SIZE) + file.readline():
            start = end
            end += len(block)
            if start == 0 and block.startswith(_BYTE_ORDER_MARK):
                # Only a mark at byte 0 is dropped; offsets still count it.
                block = block[len(_BYTE_ORDER_MARK):]
                start = len(_BYTE_ORDER_MARK)
            if _PLAIN_BLOCK.fullmatch(block):
                try:
                    values = list(map(int, block.split()))
                except ValueError:
                    # A lowered int-string limit: parse_scalar decides.
                    pass
                else:
                    line_number += len(values) // 2
                    values = iter(values)
                    yield zip(values, values)
                    continue
            try:
                lines = block.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                # The lines before the bad byte's line come first.  The "?"
                # stands in for the bad byte, so a prefix that ends in a
                # line break counts the line after.
                lines = (block[:exc.start].decode("utf-8") + "?").splitlines()
                yield _parse_lines(lines[:-1], line_number)
                raise PolygonParseError(
                    f"not UTF-8 text: {exc.reason} at byte "
                    f"{start + exc.start}",
                    line_number + len(lines) - 1) from None
            yield _parse_lines(lines, line_number)
            line_number += len(lines)


def iter_polygon(path) -> Iterator[tuple]:
    """The vertices of a polygon file as (x, y) pairs, read in one pass.

    The file is opened at the first pair asked for; an error, a parse error
    or OSError, is raised when the iteration reaches it.
    """
    return itertools.chain.from_iterable(_block_pairs(path))


def read_polygon_file(path) -> tuple:
    return tuple(itertools.starmap(Point, iter_polygon(path)))


def write_polygon_file(path, vertices: Sequence[Point]) -> None:
    Path(path).write_text(format_polygon(vertices), encoding="utf-8")
