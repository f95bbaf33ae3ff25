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

Both file readers, ``read_polygon_file`` and ``iter_scaled_polygon``,
read a file in one pass, one block at a time.  Each block is a 64 KB binary
read, cut after its last "\n" or "\r" (a "\r\n" is never cut in two),
behind what the read before left over, so it holds whole lines and, since
no UTF-8 multibyte sequence contains either byte, decodes on its own.  Only
a file with no line end, one huge line, is read as one block, held whole.
Nothing seeks, so a pipe reads like a file.  One kind of block is read in
C, into ratio columns, with no per-line code: a block as ``format_polygon``
writes it, two plain tokens per line (an integer, "p/q" or "a.b" in ASCII
digits, with an optional "-" on the integer, p or a), one space between
them, and every line ending in "\n".  It is told by its skeleton: one
translate deletes the token bytes, and what is left must be one space and
one "\n" per line, with two tokens per line.  Its tokens are checked as
they are read.  An integer block is one JSON read: each space and line end
becomes a comma, and ``json.loads`` reads the block as one array.  JSON
refuses an empty token, a bad integer ("-", "1-2") and a leading zero
("007"), and its int parse obeys the int-string limit; under no limit, or
one past MAX_DIGITS, a value of more than MAX_DIGITS digits is refused.  In
a rational block each distinct token shape (its digits zeroed) is matched
once, and int() reads the digits; a token the shortcut of ``parse_scalar``
would leave to Fraction (a zero denominator, more than MAX_DIGITS
characters, digits past a lowered int-string limit) is refused.  A refused
block goes back to the per-line reader.  Every other block ("\r\n" or "\r"
line ends, tabs, runs of spaces, comments) is decoded and read line by line
by the same code as ``parse_polygon``, so values, messages and line numbers
never depend on the blocks.  Errors come
in file order: a bad line ahead of a non-UTF-8 byte is reported first.
``parse_polygon`` and ``read_polygon_file`` give the vertices as a tuple of
Points.

``iter_scaled_polygon`` streams the blocks to the linear deciders and
gives each vertex as (x * Dx, y * Dy), Dx and Dy > 0, as ints built by
C-level column maps: the first block that holds a vertex fixes each D by
the scan's own rule and guard (``geometry._Scale``), and a value whose
denominator does not divide D comes as an exact Fraction.  Every
orientation determinant is multiplied by Dx * Dy, so every sign and verdict
is kept.  ``check --oracle`` reads exact values with ``read_polygon_file``
instead, so that a fault in the scaling cannot make the deciders and the
oracles agree on the same wrong polygon.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

from .geometry import Point, _Scale, require_exact


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
    # An int skips isinstance(value, Fraction), which goes through the
    # ABCMeta __instancecheck__ of Fraction's metaclass.
    if type(value) is int:
        return str(value)
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def format_polygon(vertices: Sequence[Point]) -> str:
    vertices = tuple(vertices)
    require_exact(vertices)
    return "".join(f"{format_scalar(x)} {format_scalar(y)}\n"
                   for x, y in vertices)


# Bytes read at a time by the block loop.
_BLOCK_SIZE = 1 << 16

_BYTE_ORDER_MARK = "\ufeff".encode()


# The bytes of integer tokens, and those of rational ones.
_INTEGER_BYTES = b"0123456789-"
_RATIONAL_BYTES = b"0123456789-./"

# Maps the space and the line end of a canonical line to JSON's comma.
_COMMAS = bytes.maketrans(b" \n", b",,")

# Maps every digit to "0": a token's shape.
_ZERO_DIGITS = bytes.maketrans(b"0123456789", b"0" * 10)

# The shape of a plain rational token.
_PLAIN_SHAPE = re.compile(rb"-?0+(?:[./]0+)?")


class _Ratios(NamedTuple):
    """A canonical block's values as ratio columns, x and y interleaved:
    value k is nums[k] / dens[k], not reduced; dens is None when every
    value is an int."""

    nums: list
    dens: Optional[list]


class _Denominators(dict):
    """Token shape -> the iterator its denominator is taken from: ``ints``
    for "p/q", whose q follows p there, else a constant 10**k for a decimal
    of k places, or 1 for an integer.  __missing__ runs once per distinct
    shape, most blocks having only a few, and raises ValueError for a shape
    that is not plain or is longer than MAX_DIGITS."""

    __slots__ = ("ints",)

    def __init__(self, ints):
        super().__init__()
        self.ints = ints

    def __missing__(self, shape):
        if len(shape) > MAX_DIGITS:
            # parse_scalar's shortcut leaves a token this long to Fraction.
            raise ValueError("token beyond the shortcut's length")
        if not _PLAIN_SHAPE.fullmatch(shape):
            raise ValueError("not a plain token")
        if b"/" in shape:
            source = self.ints
        else:
            dot = shape.find(b".")
            source = itertools.repeat(
                1 if dot < 0 else 10 ** (len(shape) - dot - 1))
        self[shape] = source
        return source


def _plain_ratios(block: bytes) -> Optional[_Ratios]:
    """The values of a canonical block as ratio columns, read in C: the
    same values parse_scalar gives.  None for any other block; for an
    integer block JSON refuses or one holding a value of more than
    MAX_DIGITS digits; and for a rational block holding a token the
    shortcut of parse_scalar leaves to Fraction: a zero denominator, more
    than MAX_DIGITS characters, or digits past a lowered int-string
    limit."""
    rational = b"/" in block or b"." in block
    # A block as format_polygon writes it, two tokens with one space between
    # and every line ending in "\n", the last line's end optional, leaves
    # one " \n" per line once its token bytes are deleted.
    skeleton = block.translate(None,
                               _RATIONAL_BYTES if rational else _INTEGER_BYTES)
    lines = b" \n" * ((len(skeleton) + 1) // 2)
    # A skeleton that ends in "\n" says nothing of a token after it.
    if not (lines.startswith(skeleton) and (
            len(skeleton) % 2 == 1 or block.endswith(b"\n"))):
        return None
    if not rational:
        # One JSON array, each space and line end a comma.  JSON refuses an
        # empty token, so it reads two values per line, and refuses "-",
        # "1-2", "--5", a leading zero ("007") and, as int() does, digits
        # past the int-string limit: each such block goes to the per-line
        # reader, which gives the same values.
        try:
            values = json.loads(b"[" + block.removesuffix(b"\n").translate(
                _COMMAS) + b"]")
        except ValueError:
            return None
        # Under no int-string limit, or one past MAX_DIGITS, JSON reads any
        # run of digits; the per-line reader refuses more than MAX_DIGITS.
        # With no leading zero, a value's digits are its token's.
        if (not 0 < sys.get_int_max_str_digits() <= MAX_DIGITS
                and max(max(values), -min(values)) >= _TOO_MANY_DIGITS):
            return None
        return _Ratios(values, None)
    # The shapes of the tokens.
    tokens = block.translate(_ZERO_DIGITS).split()
    # One space per line leaves room for at most two tokens, so two per line
    # proves that every line holds two; fewer is no canonical block either.
    if len(tokens) != len(lines):
        return None
    try:
        # Each token's numerator ("a.b" read as ab), with a p/q token's q
        # right after its p.
        ints = map(int, block.replace(b".", b"").replace(b"/", b" ").split())
        # zip asks for a token's source before map(next) reads its
        # numerator, so a token is measured and its shape checked before
        # int() reads it; the numerator then comes first, and q, if the
        # source is ints, after.
        sources = map(_Denominators(ints).__getitem__, tokens)
        flat = list(map(next, itertools.chain.from_iterable(
            zip(itertools.repeat(ints), sources))))
    except ValueError:
        return None
    dens = flat[1::2]
    return None if 0 in dens else _Ratios(flat[0::2], dens)


def _exact(numerator: int, denominator: int):
    """numerator / denominator as parse_scalar gives it: an int if whole."""
    if denominator == 1:
        return numerator
    value = Fraction(numerator, denominator)
    return value.numerator if value.denominator == 1 else value


def _blocks(file):
    """The bytes of ``file`` in blocks of whole lines: each block is a
    _BLOCK_SIZE read cut after its last line end, behind what the read
    before left over."""
    held = []
    while chunk := file.read(_BLOCK_SIZE):
        # Not after a final "\r": it may be the first half of a "\r\n".
        cut = max(chunk.rfind(b"\n"),
                  chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            held.append(chunk[:cut])
            block = b"".join(held)
            held = [chunk[cut:]]
            # Only the block is held while the reader parses it.
            del chunk
            yield block
        else:
            held.append(chunk)
    if tail := b"".join(held):
        yield tail


def _parsed_blocks(path):
    """Per block, in file order: a canonical block's _Ratios, or the (x, y)
    pairs of any other block, read by the per-line parser."""
    line_number = 1
    end = 0  # bytes read so far
    with open(path, "rb") as file:
        for block in _blocks(file):
            start = end
            end += len(block)
            if start == 0 and block.startswith(_BYTE_ORDER_MARK):
                # Only a mark at byte 0 is dropped; offsets still count it.
                block = block[len(_BYTE_ORDER_MARK):]
                start = len(_BYTE_ORDER_MARK)
            ratios = _plain_ratios(block)
            if ratios is not None:
                line_number += len(ratios.nums) // 2
                yield ratios
                # Only the reader holds a block's values while the next
                # block is read.
                del ratios
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


def _exact_pairs(block) -> Iterator[tuple]:
    """A block's vertices as exact (x, y) pairs."""
    if not isinstance(block, _Ratios):
        return block
    nums, dens = block
    values = iter(nums if dens is None else map(_exact, nums, dens))
    return zip(values, values)


def _settle(scale: _Scale, nums: list, dens: list) -> None:
    """Let ``scale`` grow over the values nums[k] / dens[k], in order, as
    the scan's own would, calling it only on those whose denominator does
    not divide its d: each is found by a search in C, which resumes where
    the last one stopped."""
    numerators, denominators = iter(nums), iter(dens)
    start = 0
    while scale.bound is not None:
        # n * d % q is 0 iff the reduced denominator of n/q divides d.
        misses = map(operator.mod, map(operator.mul, numerators,
                                       itertools.repeat(scale.d)),
                     denominators)
        k = next(itertools.compress(itertools.count(start), misses), None)
        if k is None:
            return
        scale.scale(Fraction(nums[k], dens[k]))
        start = k + 1


def _scaled_column(d: int, nums: list, dens: Optional[list]) -> list:
    """Each value nums[k] / dens[k] times d, dens None meaning all 1: an int
    where its denominator divides d, else an exact Fraction."""
    products = nums if d == 1 else list(map(operator.mul, nums,
                                            itertools.repeat(d)))
    if dens is None:
        return products
    if any(map(operator.mod, products, dens)):
        return list(map(_exact, products, dens))
    return list(map(operator.floordiv, products, dens))


def _scaled_pairs(scales: list, block) -> Iterator[tuple]:
    """A block's vertices as (x * Dx, y * Dy) pairs.  ``scales`` holds the
    two _Scales, fixed by the first block that holds a vertex."""
    if not isinstance(block, _Ratios):
        values = list(itertools.chain.from_iterable(block))
        block = _Ratios(list(map(operator.attrgetter("numerator"), values)),
                        list(map(operator.attrgetter("denominator"), values)))
    nums, dens = block
    if not nums:
        return iter(())
    if not scales:
        scales += _Scale(), _Scale()
        if dens is not None:
            _settle(scales[0], nums[0::2], dens[0::2])
            _settle(scales[1], nums[1::2], dens[1::2])
    dx, dy = scales[0].d, scales[1].d
    if dens is None and dx == dy == 1:
        values = iter(nums)
        return zip(values, values)
    return zip(_scaled_column(dx, nums[0::2], dens and dens[0::2]),
               _scaled_column(dy, nums[1::2], dens and dens[1::2]))


def iter_scaled_polygon(path) -> Iterator[tuple]:
    """The vertices of a polygon file as (x * Dx, y * Dy) pairs, read in one
    pass, for the linear deciders.

    Dx and Dy are the common denominators that the rule and guard of
    ``geometry._Scale``, the scan's own, fix over the x and the y values of
    the first block that holds a vertex; an axis the guard refuses keeps
    D = 1.  A value whose denominator divides D comes as an int, any other
    as an exact Fraction, which the scan scales as it reads it.  Scaling
    each axis by a positive constant keeps the sign of every orientation
    determinant, so the deciders give on this stream the report they give
    on the exact values of ``read_polygon_file``.  Parse errors are those of
    ``read_polygon_file``.
    """
    return itertools.chain.from_iterable(
        map(functools.partial(_scaled_pairs, []), _parsed_blocks(path)))


def read_polygon_file(path) -> tuple:
    return tuple(itertools.starmap(Point, itertools.chain.from_iterable(
        map(_exact_pairs, _parsed_blocks(path)))))


def write_polygon_file(path, vertices: Sequence[Point]) -> None:
    Path(path).write_text(format_polygon(vertices), encoding="utf-8")
