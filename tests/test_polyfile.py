import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyconvex
from polyconvex import fast_test, geometry, polyfile
from polyconvex.generator import make_minimality_witness, make_strictly_convex
from polyconvex.fast_test import ConditionId
from polyconvex.geometry import Point
from polyconvex.polyfile import (MAX_DIGITS, PolygonParseError, _quoted,
                                 format_polygon, format_scalar,
                                 iter_polygon_blocks, parse_polygon,
                                 parse_scalar, read_polygon_file,
                                 write_polygon_file)

P = Point


def test_parse_integers_fractions_decimals():
    text = "0 0\n3 -4\n1/2 -7/3\n0.1 2.25\n"
    poly = parse_polygon(text)
    assert poly == (P(0, 0), P(3, -4), P(Fraction(1, 2), Fraction(-7, 3)),
                    P(Fraction(1, 10), Fraction(9, 4)))


def test_decimals_are_exact_rationals():
    (vertex,) = parse_polygon("0.1 0.3")
    assert vertex.x == Fraction(1, 10)
    assert vertex.y == Fraction(3, 10)


def test_comments_and_blank_lines_ignored():
    text = "# a square\n\n0 0\n1 0\n\n# top edge\n1 1\n0 1\n"
    assert len(parse_polygon(text)) == 4


def test_bad_token_names_line():
    with pytest.raises(PolygonParseError) as err:
        parse_polygon("0 0\n1 x\n")
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_wrong_arity_names_line():
    with pytest.raises(PolygonParseError) as err:
        parse_polygon("1 2 3\n")
    assert err.value.line_number == 1


def test_zero_denominator_rejected():
    with pytest.raises(PolygonParseError):
        parse_polygon("1/0 2\n")


def test_empty_text_is_empty_polygon():
    assert parse_polygon("# only a comment\n") == ()


def test_round_trip_preserves_exact_values():
    poly = (P(0, 0), P(Fraction(-1, 11), Fraction(12, 121)), P(7, -3),
            P(Fraction(22, 7), Fraction(1, 10**30)))
    assert parse_polygon(format_polygon(poly)) == poly


@pytest.mark.parametrize("value", [0.5, Decimal("2.7")])
def test_inexact_values_are_not_written(tmp_path, value):
    path = tmp_path / "poly.txt"
    with pytest.raises(TypeError):
        format_polygon([(value, 0)])
    with pytest.raises(TypeError):
        write_polygon_file(path, [(0, 0), (1, 0), (value, 1)])
    assert not path.exists()


def test_round_trip_generated_polygons():
    for poly in (make_strictly_convex(8),
                 make_minimality_witness(6, ConditionId(3, 4))):
        assert parse_polygon(format_polygon(poly)) == poly


def test_file_round_trip(tmp_path):
    path = tmp_path / "poly.txt"
    poly = make_strictly_convex(5)
    write_polygon_file(path, poly)
    assert read_polygon_file(path) == poly


def test_a_one_shot_iterable_is_written_whole(tmp_path):
    square = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
    assert format_polygon(iter(square)) == format_polygon(square)
    path = tmp_path / "poly.txt"
    write_polygon_file(path, (p for p in square))
    assert path.read_text() == format_polygon(square)
    assert read_polygon_file(path) == square


def fraction_only(token):
    """The token grammar without the int() fast path: the exponent cap, then
    Fraction alone decides, then a value str() cannot write back is refused.
    The value and type parse_scalar must return, or PolygonParseError with
    the same message."""
    mark = max(token.rfind("e"), token.rfind("E"))
    try:
        too_large = mark >= 0 and abs(int(token[mark + 1:])) > MAX_DIGITS
    except ValueError:
        too_large = False
    if too_large:
        raise PolygonParseError(
            f"exponent beyond +-{MAX_DIGITS} in {_quoted(token)}")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise PolygonParseError(f"bad coordinate {_quoted(token)}") from None
    try:
        str(value.numerator), str(value.denominator)
    except ValueError:  # Python's limit on the digits of an int string
        raise PolygonParseError(
            f"more than {MAX_DIGITS} digits in {_quoted(token)}") from None
    return value.numerator if value.denominator == 1 else value


def outcome(parse, token):
    try:
        value = parse(token)
    except PolygonParseError as exc:
        return ("error", str(exc))
    return (type(value), value)


@pytest.mark.parametrize("token, expected", [
    ("0", 0), ("12", 12), ("-7", -7), ("+5", 5), ("-0", 0), ("007", 7),
    ("1_000", 1000), ("\u0663", 3), ("-\u0663", -3), ("1e3", 1000),
    ("3/4", Fraction(3, 4)), ("0.125", Fraction(1, 8)), ("6/3", 2),
    ("\u00b2", None), ("--5", None), ("-", None), ("", None), ("1/0", None),
    pytest.param("1" * 4301, None, id="4301-digits"),
    pytest.param("-" + "1" * 4301, None, id="minus-4301-digits"),
    pytest.param("-115/24", Fraction(-115, 24), id="-115/24"),
    pytest.param("-12.125", Fraction(-97, 8), id="-12.125"),
    pytest.param("0/5", 0, id="0/5"),
    pytest.param("3/0", None, id="3/0"),
    pytest.param("-0.0", 0, id="-0.0"),
    pytest.param("1.", 1, id="1."),
    pytest.param(".5", Fraction(1, 2), id=".5"),
    pytest.param("+3/4", Fraction(3, 4), id="+3/4"),
    pytest.param("3/-4", None, id="3/-4"),
])
def test_parse_scalar_token_grammar(token, expected):
    assert outcome(parse_scalar, token) == outcome(fraction_only, token)
    if expected is None:
        with pytest.raises(PolygonParseError):
            parse_scalar(token)
    else:
        value = parse_scalar(token)
        assert value == expected and type(value) is type(expected)


fraction_parts = st.one_of(st.from_regex(r"0*[0-9]{0,4}", fullmatch=True),
                           st.text(alphabet="01_\u0663\u00b2", max_size=4))
tokens = st.one_of(
    st.text(alphabet="0123456789-+_/.eE \u0663\u00b2", max_size=8),
    st.from_regex(r"-?[0-9]{1,30}", fullmatch=True),
    st.text(max_size=6),
    # Exponents near the cap, where the value's digit count crosses it.
    st.builds("{}{}e{}{}".format, st.sampled_from(["", "-", "+"]),
              st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,4})?", fullmatch=True),
              st.sampled_from(["", "-", "+"]),
              st.integers(MAX_DIGITS - 8, MAX_DIGITS + 1)),
    # "p/q" and "a.b" in every sign, with empty parts, zero and leading-zero
    # parts, and digits int() reads differently from str.isdigit().
    st.builds("{}{}{}{}".format, st.sampled_from(["", "-", "+", "--"]),
              fraction_parts, st.sampled_from("/."), fraction_parts),
    # The same shapes at lengths around the MAX_DIGITS token length.
    st.builds(lambda sign, sep, length, cut:
              sign + "7" * cut + sep + "3" * (length - len(sign) - cut - 1),
              st.sampled_from(["", "-"]), st.sampled_from("/."),
              st.integers(MAX_DIGITS - 1, MAX_DIGITS + 1),
              st.integers(0, MAX_DIGITS - 1)),
)


@given(token=tokens)
@settings(max_examples=500)
def test_parse_scalar_matches_fraction_only_path(token):
    assert outcome(parse_scalar, token) == outcome(fraction_only, token)


@given(token=tokens)
@settings(max_examples=500)
def test_every_accepted_token_round_trips_through_format_scalar(token):
    try:
        value = parse_scalar(token)
    except PolygonParseError:
        return
    assert parse_scalar(format_scalar(value)) == value


def polygon_reference(text):
    """parse_polygon with every token read by fraction_only, one line at a
    time: the vertices, or the first error in file order with its line."""
    vertices = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise PolygonParseError(
                f"expected two coordinates, got {len(parts)}", line_number)
        try:
            vertices.append(Point(*map(fraction_only, parts)))
        except PolygonParseError as exc:
            raise PolygonParseError(str(exc), line_number) from None
    return tuple(vertices)


def polygon_outcome(parse, text):
    try:
        polygon = parse(text)
    except PolygonParseError as exc:
        return ("error", str(exc), exc.line_number)
    return [[(type(c), c) for c in vertex] for vertex in polygon]


coordinates = st.one_of(
    st.from_regex(r"-?[0-9]{1,4}([/.][0-9]{1,3})?", fullmatch=True), tokens)
vertex_line = st.builds("{} {}".format, coordinates, coordinates)
lines = st.one_of(
    st.sampled_from(["", "  # a comment", "#1 2"]),
    # Listed twice, so that about half the lines are vertices.
    vertex_line, vertex_line,
    # One or three tokens: a bad line.
    st.lists(coordinates, min_size=1, max_size=3)
      .filter(lambda parts: len(parts) != 2).map(" ".join),
)


texts = st.lists(st.tuples(lines, st.sampled_from(["\n", "\r", "\r\n"])),
                 max_size=12).map(lambda body: "".join(map("".join, body)))


@given(text=texts)
@settings(max_examples=300)
def test_parse_polygon_matches_the_per_line_fraction_only_reference(text):
    assert polygon_outcome(parse_polygon, text) == \
        polygon_outcome(polygon_reference, text)


def read_in_blocks(path, size, read=read_polygon_file):
    """Every pair of read(path), read in blocks of ``size`` bytes."""
    with mock.patch.object(polyfile, "_BLOCK_SIZE", size):
        return tuple(read(path))


@pytest.fixture(scope="module")
def scratch_path(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "polygon.txt"


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
@given(text=texts)
@example(text="\ufeff \n")
@example(text="\ufeff1 2\n")
@example(text="\ufeff#c\n3 4\n")
@settings(max_examples=100)
def test_read_polygon_file_matches_the_reference_at_any_block_size(
        scratch_path, size, text):
    # The file reader drops a byte-order mark at byte 0, so the reference
    # reads the text without one.
    expected = polygon_outcome(polygon_reference, text.removeprefix("\ufeff"))
    scratch_path.write_bytes(text.encode("utf-8"))
    assert polygon_outcome(lambda _: read_in_blocks(scratch_path, size),
                           text) == expected


# Each file's first error, as reading the whole file before parsing it gave
# it, wherever a block boundary falls.
BAD_BYTE_FILES = {
    "LF": (b"0 0\n1 0\n\xff 1\n",
           "line 3: not UTF-8 text: invalid start byte at byte 8"),
    "CRLF-after-mark": (b"\xef\xbb\xbf0 0\r\n1 0\r\n\xff 1\r\n",
                        "line 3: not UTF-8 text: invalid start byte at byte 13"),
    "mid-line": (b"0 0\n1 \xc3\xa9\xff\n",
                 "line 2: not UTF-8 text: invalid start byte at byte 8"),
    "at-end": (b"0 0\n1 0\n\xe2\x82",
               "line 3: not UTF-8 text: unexpected end of data at byte 8"),
}


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 9, 64, 1 << 16])
@pytest.mark.parametrize("name", BAD_BYTE_FILES)
def test_bad_byte_past_a_block_boundary_keeps_its_offset_and_line(
        tmp_path, name, size):
    data, message = BAD_BYTE_FILES[name]
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(PolygonParseError) as err:
        read_in_blocks(path, size)
    assert str(err.value) == message


@pytest.mark.parametrize("size", [1, 2, 3, 4, 64])
def test_errors_come_in_file_order(tmp_path, size):
    # A bad token ahead of a bad byte in the same block is reported first.
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 0\n1 x\n\xff 1\n")
    with pytest.raises(PolygonParseError) as err:
        read_in_blocks(path, size)
    assert str(err.value) == "line 2: bad coordinate 'x'"


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 64])
def test_byte_order_mark_is_dropped_only_at_byte_0(tmp_path, size):
    mark = "\ufeff".encode()
    path = tmp_path / "bom.txt"
    path.write_bytes(mark + b"0 0\n1 0\n")
    assert read_in_blocks(path, size) == ((0, 0), (1, 0))
    # At sizes 1 to 3 the second block starts with this mark.
    path.write_bytes(b"0 0\n" + mark + b"1 0\n")
    with pytest.raises(PolygonParseError) as err:
        read_in_blocks(path, size)
    assert str(err.value) == "line 2: bad coordinate '\\ufeff1'"


def test_integers_the_block_reader_skips_are_read_by_parse_scalar(tmp_path):
    # One past the digit cap leaves the plain-integer fast path, and so,
    # under a lowered int-string limit, does one that int() refuses.
    path = tmp_path / "long.txt"
    limit = sys.get_int_max_str_digits()
    for digits, lowered in ((MAX_DIGITS + 1, limit), (641, 640)):
        text = f"0 0\n1 -{'7' * digits}\n2 4\n"
        path.write_text(text)
        sys.set_int_max_str_digits(lowered)
        try:
            streamed = polygon_outcome(lambda _: read_polygon_file(path), text)
            assert streamed == polygon_outcome(parse_polygon, text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert streamed[:1] == ("error",) and streamed[2] == 2


# Lines that are not two plain integers.
NON_PLAIN_LINES = {"comment": "# a comment", "three-tokens": "1 2 3",
                   "fraction": "7/3 4"}


@pytest.mark.parametrize("end", ["\n", ""],
                         ids=["newline", "no-final-newline"])
@pytest.mark.parametrize("kind, line", [
    *((kind, line) for kind in NON_PLAIN_LINES for line in (1, 129, 200, 300)),
    (None, None),
])
def test_one_non_plain_line_in_a_long_block(tmp_path, kind, line, end):
    # 300 lines, one block at the default size, longer than any run of lines
    # the texts strategy draws.
    lines = [f"{t} {t * t}" for t in range(300)]
    if kind is not None:
        lines[line - 1] = NON_PLAIN_LINES[kind]
    text = "\n".join(lines) + end
    path = tmp_path / "polygon.txt"
    path.write_text(text)
    assert polygon_outcome(lambda _: read_polygon_file(path), text) == \
        polygon_outcome(polygon_reference, text)


@pytest.mark.parametrize("line", ["{t} {s}", "-{t}/7 {t}.{s}"],
                         ids=["integer", "rational"])
def test_parse_memory_stays_near_the_size_of_the_result(line):
    text = "".join(line.format(t=t, s=t * t) + "\n" for t in range(10 ** 5))
    tracemalloc.start()
    try:
        polygon = parse_polygon(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(polygon) == 10 ** 5
    # Peak over the bytes the result holds.  The per-line loop keeps the list
    # of lines beside the vertices: 1.55 (integer) and 1.32 (rational) on
    # CPython 3.11.  Holding every line's tokens at once gave 3.14 and 2.12.
    assert peak / held < 1.8


@pytest.mark.parametrize("token", ["1e4301", "1E-1000000", "1.5e+4301"])
def test_huge_decimal_exponent_is_rejected_quickly(token):
    start = time.perf_counter()
    with pytest.raises(PolygonParseError, match="exponent beyond"):
        parse_polygon(f"0 0\n1 {token}\n")
    # Building 10**1000000 in full took about 0.2 s.
    assert time.perf_counter() - start < 0.05


def test_exponent_at_the_cap_still_parses_exactly():
    assert parse_scalar("1e4299") == 10 ** 4299
    assert parse_scalar("-1e-4299") == Fraction(-1, 10 ** 4299)
    assert parse_scalar("2.5e-3") == Fraction(1, 400)


@pytest.mark.parametrize("token", [
    "1e4300", "1e-4300", "123.456e4299", "1" * 4000 + "." + "1" * 400,
    "0." + "0" * 4299 + "1"],
    ids=["1e4300", "1e-4300", "123.456e4299", "long-decimal", "tiny-decimal"])
def test_value_beyond_the_digit_cap_is_rejected(token):
    # format_scalar could not write any of these back.
    with pytest.raises(PolygonParseError, match=f"more than {MAX_DIGITS} digits"):
        parse_polygon(f"0 {token}\n")


def test_bad_coordinate_message_quotes_a_bounded_prefix():
    with pytest.raises(PolygonParseError) as err:
        parse_scalar("1" * 4301)
    message = str(err.value)
    assert len(message) < 100 and "4301 characters" in message


# Tokens holding a run of more than MAX_DIGITS digits.  int() and Fraction
# refuse each of them only under Python's default int-string limit.
LONG_RUN_TOKENS = ["7" * 5000, "0" * 5000 + "1", "+" + "7" * 5000,
                   "-" + "7" * 5000, "7" * 5000 + "/3", "1_" * 4300 + "1",
                   "1e" + "0" * 4301 + "5"]

PARSE_EACH_TOKEN = """
import sys
from polyconvex.polyfile import PolygonParseError, parse_scalar
for token in sys.stdin.read().split():
    try:
        print("accepted", parse_scalar(token) == 0)
    except PolygonParseError as exc:
        print("refused", exc)
"""


def parse_under_int_string_limit(limit, tokens):
    src = str(Path(polyconvex.__file__).parent.parent)
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", PARSE_EACH_TOKEN],
                          input="\n".join(tokens), env=env,
                          capture_output=True, text=True, check=True).stdout


def test_long_digit_runs_are_refused_whatever_the_int_string_limit():
    unlimited = parse_under_int_string_limit("0", LONG_RUN_TOKENS)
    assert unlimited == parse_under_int_string_limit("4300", LONG_RUN_TOKENS)
    assert unlimited.count("refused bad coordinate") == len(LONG_RUN_TOKENS)


def test_values_beyond_the_digit_cap_are_refused_whatever_the_int_string_limit():
    # No run is too long, but the decimal's value is: int() would read its
    # digits joined under a lifted limit.
    tokens = ["1" * 4000 + "." + "1" * 400, "-0." + "0" * 4299 + "1"]
    unlimited = parse_under_int_string_limit("0", tokens)
    assert unlimited == parse_under_int_string_limit("4300", tokens)
    assert unlimited.count(f"refused more than {MAX_DIGITS} digits") == 2


def test_comment_lines_with_leading_space_or_no_gap():
    text = "  # c\n#1 2\n0 0\n\t#\t3 4\n1 0\n"
    assert parse_polygon(text) == (P(0, 0), P(1, 0))


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"0 0\n\xff\xfe 0 0\n")
    with pytest.raises(PolygonParseError) as err:
        read_polygon_file(path)
    assert err.value.line_number == 2
    assert "UTF-8" in str(err.value)


@pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
def test_bad_byte_line_is_numbered_as_the_parser_numbers_lines(tmp_path, eol):
    head = eol.join(["0 0", "1 0", "1 1", ""]).encode()
    path = tmp_path / "bad.txt"
    path.write_bytes(head + b"\xff 1" + eol.encode())
    with pytest.raises(PolygonParseError) as bad_byte:
        read_polygon_file(path)
    path.write_bytes(head + b"x 1" + eol.encode())
    with pytest.raises(PolygonParseError) as bad_token:
        read_polygon_file(path)
    assert bad_byte.value.line_number == bad_token.value.line_number == 4
    assert str(bad_byte.value).endswith(f"at byte {len(head)}")


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf0 0\n1 0\n1 1\n0 1\n")
    assert read_polygon_file(path) == (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
    # Byte offsets still count from the start of the file, mark included.
    path.write_bytes(b"\xef\xbb\xbf0 0\n\xff 1\n")
    with pytest.raises(PolygonParseError) as err:
        read_polygon_file(path)
    assert str(err.value) == ("line 2: not UTF-8 text: invalid start byte "
                              "at byte 7")


def test_format_scalar_writes_ints_and_their_subclasses_alike():
    # Exact ints skip the Fraction test; bool, an int subclass, does not.
    for value in (0, -7, 10 ** 50, True, False, Fraction(6, 3)):
        assert format_scalar(value) == str(int(value))
    assert format_scalar(Fraction(-7, 3)) == "-7/3"


@pytest.mark.parametrize("eol", [b"\r", b"\r\n", b"\n"],
                         ids=["CR", "CRLF", "LF"])
def test_a_block_ends_at_any_line_end(tmp_path, eol):
    # About 100 KB of lines: more than one block at the default size.
    lines = [b"%d %d" % (t, t * t) for t in range(10 ** 4)]
    path = tmp_path / "polygon.txt"
    path.write_bytes(eol.join(lines) + eol)
    with open(path, "rb") as file:
        blocks = list(polyfile._blocks(file))
    assert len(blocks) > 1
    # A read, one byte after a final "\r", and the line the read before
    # left unfinished: no line here is longer than 16 bytes.
    assert all(len(block) <= polyfile._BLOCK_SIZE + 1 + 16 for block in blocks)
    assert all(block.endswith(eol) for block in blocks)
    assert read_polygon_file(path) == tuple(
        P(t, t * t) for t in range(10 ** 4))


@pytest.mark.parametrize("size", range(1, 16))
def test_a_crlf_cut_by_a_read_keeps_the_line_numbers(tmp_path, size):
    # Every size puts some read's end between a "\r" and its "\n"; the bad
    # token is then on the same line as parse_polygon numbers it.
    # "\r\r\n" is a line ended by "\r", then an empty line.
    text = "0 0\r\n1 0\r\r\n\r\n1/3 1\r\n0 1.5\r\n2 x\r\n"
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.encode())
    expected = polygon_outcome(parse_polygon, text)
    assert expected == ("error", "line 7: bad coordinate 'x'", 7)
    for read in (read_polygon_file, block_pairs):
        assert polygon_outcome(lambda _: read_in_blocks(path, size, read),
                               text) == expected


def whole(value):
    return value.numerator if value.denominator == 1 else value


def block_pairs(path):
    """The vertices of iter_polygon_blocks(path), read from its ratio
    columns, as exact Points; a block with no denominators holds only
    ints."""
    values = []
    for nums, dens in iter_polygon_blocks(path).blocks:
        if dens is None:
            assert all(type(value) is int for value in nums), nums
            values += nums
        else:
            assert len(dens) == len(nums) and 0 not in dens
            values += map(whole, map(Fraction, nums, dens))
    assert len(values) % 2 == 0
    return tuple(map(P, values[0::2], values[1::2]))


def scaled_blocks(path):
    """The vertices of iter_polygon_blocks(path) as the deciders scale them:
    each block's ratio columns scaled by one _Scale per axis, and the
    values before the block multiplied by its growth factors, as the scan
    multiplies its window.  A whole value that a refusal's 1/d turned into
    a Fraction is given as an int."""
    sx, sy = geometry._Scale(), geometry._Scale()
    xs, ys = [], []
    for block in iter_polygon_blocks(path).blocks:
        X, Y, gx, gy = fast_test._scaled(fast_test._ratio_columns(block),
                                         sx, sy)
        xs = [whole(Fraction(x * gx)) for x in xs] + list(X)
        ys = [whole(Fraction(y * gy)) for y in ys] + list(Y)
    return tuple(map(P, xs, ys))


def scale_factors(exact, scaled):
    """The (Dx, Dy) by which each scaled pair is its exact pair, checking
    that they are positive integers and that a scaled value is an int iff
    it is whole."""
    assert len(scaled) == len(exact)
    factors = []
    for axis in (0, 1):
        pairs = [(e[axis], s[axis]) for e, s in zip(exact, scaled)]
        for _, value in pairs:
            assert type(value) is (int if Fraction(value).denominator == 1
                                   else Fraction), value
        assert all(value == 0 for e, value in pairs if e == 0)
        ratios = {Fraction(value) / e for e, value in pairs if e != 0}
        assert len(ratios) <= 1, ratios
        factor = ratios.pop() if ratios else Fraction(1)
        assert factor > 0 and factor.denominator == 1, factor
        factors.append(factor.numerator)
    return tuple(factors)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
@given(text=texts)
@example(text="\ufeff1/3 2\r\n0.5 -1/7\r\n")
@example(text="1/3 1e2\n+2 1_0\n.5 1/6\n")
@settings(max_examples=60)
def test_scaled_reader_is_the_reference_times_positive_factors(
        scratch_path, size, text):
    # Values and errors, messages and line numbers, are the reference's.
    expected = polygon_outcome(polygon_reference, text.removeprefix("\ufeff"))
    scratch_path.write_bytes(text.encode("utf-8"))
    assert polygon_outcome(
        lambda _: read_in_blocks(scratch_path, size, block_pairs),
        text) == expected
    if expected[:1] != ("error",):
        scale_factors(polygon_reference(text.removeprefix("\ufeff")),
                      read_in_blocks(scratch_path, size, scaled_blocks))


plain_tokens = st.one_of(
    st.integers(-999, 999).map(str),
    st.builds("{}/{}".format, st.integers(-999, 999), st.integers(1, 99)),
    st.builds(lambda value, places: f"{value:.{places}f}",
              st.decimals(-99, 99, places=3, allow_nan=False),
              st.integers(1, 3)),
)
plain_texts = st.lists(st.tuples(plain_tokens, plain_tokens),
                       min_size=1, max_size=40).map(
    lambda pairs: "".join(f"{x} {y}\n" for x, y in pairs))


@pytest.mark.parametrize("size", [8, 32, 128, 1 << 16])
@given(text=plain_texts)
@settings(max_examples=60)
def test_scaled_reader_on_plain_blocks_with_new_denominators(scratch_path,
                                                            size, text):
    # Small blocks, each read in C, bring in new denominators.
    scratch_path.write_bytes(text.encode())
    expected = polygon_outcome(parse_polygon, text)
    for read in (read_polygon_file, block_pairs):
        assert polygon_outcome(
            lambda _: read_in_blocks(scratch_path, size, read),
            text) == expected
    scale_factors(parse_polygon(text),
                  read_in_blocks(scratch_path, size, scaled_blocks))


def first_block_factor(values):
    """The d a fresh _Scale reaches over ``values``, in order: the rule the
    deciders must follow over the first block."""
    scale = geometry._Scale()
    for value in values:
        scale.scale(value)
    return scale.d


@pytest.mark.parametrize("xs, ys", [
    # Thirds and eighths, then a value whose denominator is already in d.
    (["1/3", "0.125", "5/24", "7"], ["-4/5", "0.2", "3", "-1.5"]),
    # Pairwise-coprime denominators with one-digit numerators: the guard
    # refuses at the third, and the axis keeps D = 1.
    (["1/1009", "1/1013", "1/1019", "1/1021"], ["0", "1", "2", "3"]),
], ids=["grows", "refuses"])
def test_the_first_block_fixes_each_factor_by_the_scan_rule(tmp_path, xs, ys):
    text = "".join(f"{x} {y}\n" for x, y in zip(xs, ys))
    path = tmp_path / "polygon.txt"
    path.write_text(text)
    exact = parse_polygon(text)
    factors = scale_factors(exact, scaled_blocks(path))
    assert factors == (first_block_factor(p.x for p in exact),
                       first_block_factor(p.y for p in exact))
    if xs[0] == "1/1009":
        assert factors[0] == 1


@pytest.mark.parametrize("text", [
    "0 0\n1/0 2\n",
    "0 0\n1/3 00/000\n",
    "0 0\n0.5 " + "7" * 4301 + "\n",
    "0 0\n0.5 1." + "5" * 4300 + "\n",
    "0 0\n0.5 1/" + "3" * 4300 + "\n",
    "0 0\n0.5 1/2/3\n",
    "0 0\n0.5 1.2.3\n",
], ids=["zero-denominator", "zero-denominator-leading-zeros",
        "past-the-digit-cap", "long-decimal", "long-p/q", "two-slashes",
        "two-dots"])
@pytest.mark.parametrize("size", [3, 1 << 16])
@pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "no-limit"])
def test_a_token_the_shortcut_refuses_is_read_by_the_per_line_reader(
        tmp_path, text, size, limit):
    # With no int-string limit, int() reads any run of digits: the block
    # reader must not rely on it to refuse one.
    path = tmp_path / "polygon.txt"
    path.write_text(text)
    before = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        expected = polygon_outcome(parse_polygon, text)
        for read in (read_polygon_file, block_pairs):
            assert polygon_outcome(lambda _: read_in_blocks(path, size, read),
                                   text) == expected
    finally:
        sys.set_int_max_str_digits(before)


def test_plain_rational_blocks_under_a_lowered_int_string_limit(tmp_path):
    # 641 digits in a decimal's numerator: int() refuses them under a limit
    # of 640, so parse_scalar, reading line by line, decides.
    text = f"0 0\n1/3 0.{'7' * 641}\n2 4\n"
    path = tmp_path / "polygon.txt"
    path.write_text(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        expected = polygon_outcome(parse_polygon, text)
        for read in (read_polygon_file, block_pairs):
            assert polygon_outcome(lambda _: read(path), text) == expected
    finally:
        sys.set_int_max_str_digits(limit)
    assert expected[0] == "error" and expected[2] == 2


# Tokens of plain bytes only, many of them one edit away from a plain token.
near_miss_tokens = st.one_of(
    st.from_regex(r"-?[0-9]{1,3}([./][0-9]{1,2})?", fullmatch=True),
    st.sampled_from(["", "-", "1-2", "--5", "1.2.3", "1/2/3", "./", "-1/-2",
                     "1/0", "5.", ".5", "-.5", "00/00"]),
    st.text(alphabet="0123456789-./", max_size=5),
)
near_miss_lines = st.one_of(
    # Listed twice, so that about half the lines look canonical.
    st.builds("{} {}".format, near_miss_tokens, near_miss_tokens),
    st.builds("{} {}".format, near_miss_tokens, near_miss_tokens),
    # Leading or trailing spaces, a blank line, one or three tokens.
    st.builds("{}{} {}{}".format, st.sampled_from(["", " ", "  "]),
              near_miss_tokens, near_miss_tokens,
              st.sampled_from(["", " ", "  "])),
    st.sampled_from(["", " "]),
    st.lists(near_miss_tokens, min_size=1, max_size=3).map(" ".join),
)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def near_miss_texts(draw):
    """Lines ending in one line end, or each in its own, with or without a
    final line end."""
    body = draw(st.lists(near_miss_lines, min_size=1, max_size=12))
    if draw(st.booleans()):
        ends = [draw(line_ends)] * len(body)
    else:
        ends = draw(st.lists(line_ends, min_size=len(body),
                             max_size=len(body)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map("".join, zip(body, ends)))


@pytest.mark.parametrize("size", [1, 2, 3, 7, 16, 64])
@given(text=near_miss_texts())
# Two tokens and one space per line, but a token astray; two line ends.
@example(text="1 \n3")
@example(text="1 \r2\n3 4\r\n")
@example(text="1 2\r\n3 4\n")
@settings(max_examples=150)
def test_near_canonical_blocks_read_as_the_per_line_parser_reads_them(
        scratch_path, size, text):
    expected = polygon_outcome(parse_polygon, text)
    scratch_path.write_bytes(text.encode())
    for read in (read_polygon_file, block_pairs):
        assert polygon_outcome(
            lambda _: read_in_blocks(scratch_path, size, read),
            text) == expected


@pytest.mark.parametrize("block", [b"1 \n3", b"1 2\n3 \n4", b"1 \n3 4\n"])
def test_a_block_with_one_space_per_line_but_a_token_astray_is_refused(block):
    # One space per line, as a canonical block has, but a token after the
    # last line end, or a line of one token.  The block loop cuts a file
    # after its last line end, so only a direct call meets the first two.
    assert polyfile._plain_ratios(block) is None
    with pytest.raises(PolygonParseError):
        parse_polygon(block.decode())


def parabola_text(n, eol="\n"):
    return "".join(f"{t - 500} {t * t}{eol}" for t in range(n))


@pytest.mark.parametrize("text, per_line", [
    (parabola_text(10 ** 4), False),
    (format_polygon([P(Fraction(t, 7), Fraction(-t * t, 3))
                     for t in range(1, 6000)]), False),
    ("".join(f"{t}.{t % 9} -0.{t}\n" for t in range(8000)), False),
    (parabola_text(10 ** 4).replace(" ", "\t"), True),
    (parabola_text(10 ** 4).replace(" ", "  "), True),
    (parabola_text(10 ** 4, "\r\n"), True),
    (parabola_text(10 ** 4, "\r"), True),
    # JSON, which reads canonical integer blocks, refuses a leading zero.
    ("007 -0\n00 5\n" + parabola_text(10 ** 4), True),
], ids=["integer", "p/q", "decimal", "tab-separated", "two-spaces",
        "integer-crlf", "integer-cr", "integer-leading-zeros"])
def test_only_a_non_canonical_block_takes_the_per_line_reader(
        tmp_path, monkeypatch, text, per_line):
    path = tmp_path / "polygon.txt"
    path.write_text(text, newline="")
    assert len(text) > polyfile._BLOCK_SIZE
    exact = parse_polygon(text)
    # parse_polygon, the reference, has read the text: each call counted
    # from here on is a block sent to the per-line reader.
    calls = []
    parse_lines = polyfile._parse_lines

    def counting_parse_lines(lines, line_number):
        calls.append(line_number)
        return parse_lines(lines, line_number)

    monkeypatch.setattr(polyfile, "_parse_lines", counting_parse_lines)
    assert read_polygon_file(path) == exact
    assert polygon_outcome(lambda _: block_pairs(path), text) == \
        polygon_outcome(lambda _: exact, text)
    if per_line:
        assert len(calls) >= 1
    else:
        assert calls == []


@pytest.mark.parametrize("line", ["- 5", "1-2 5", "3 --5", " 5", "5 "],
                         ids=["minus", "inner-minus", "double-minus",
                              "empty-x", "empty-y"])
@pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "no-limit"])
def test_a_bad_integer_in_a_canonical_block_is_reported_as_parse_polygon_does(
        tmp_path, line, limit):
    # Each line keeps the block's skeleton canonical, one space and one
    # "\n"; the JSON read refuses it and the per-line reader names it.
    lines = parabola_text(10 ** 4).splitlines(keepends=True)
    lines[9000] = line + "\n"
    text = "".join(lines)
    path = tmp_path / "polygon.txt"
    path.write_text(text)
    before = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        expected = polygon_outcome(parse_polygon, text)
        for read in (read_polygon_file, block_pairs):
            assert polygon_outcome(lambda _: read(path), text) == expected
    finally:
        sys.set_int_max_str_digits(before)
    assert expected[:1] == ("error",) and expected[2] == 9001


@pytest.mark.parametrize("read", [read_polygon_file, block_pairs])
def test_digit_cap_holds_in_a_canonical_block_with_no_int_string_limit(
        tmp_path, read):
    # The long token sits past the first 64 KB block.
    lines = parabola_text(10 ** 4).splitlines(keepends=True)
    lines[9000] = "1" * (MAX_DIGITS + 1) + " 5\n"
    path = tmp_path / "polygon.txt"
    path.write_text("".join(lines))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(PolygonParseError) as err:
            tuple(read(path))
    finally:
        sys.set_int_max_str_digits(before)
    assert err.value.line_number == 9001
    assert str(err.value).startswith("line 9001: bad coordinate '1111")


@pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "no-limit"])
def test_a_crlf_integer_file_reads_as_its_lf_twin(tmp_path, limit):
    text = parabola_text(10 ** 4)
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_text(text)
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    before = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        for read in (read_polygon_file, block_pairs):
            assert polygon_outcome(read, crlf) == polygon_outcome(read, lf)
    finally:
        sys.set_int_max_str_digits(before)
