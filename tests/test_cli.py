import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tomllib
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyconvex import cli, geometry, polyfile
from polyconvex.cli import main
from polyconvex.fast_test import (ConditionId, is_strictly_convex,
                                  is_strictly_convex_chain)
from polyconvex.generator import (make_minimality_witness,
                                  make_strictly_convex, parabola_polygon)
from polyconvex.geometry import Point
from polyconvex.oracles import (is_quasi_strict, is_strict,
                                strictly_convex_oracle)
from polyconvex.polyfile import (MAX_DIGITS, format_polygon, format_scalar,
                                 parse_polygon, read_polygon_file,
                                 write_polygon_file)

SQUARE_TEXT = "0 0\n1 0\n1 1\n0 1\n"
SWAPPED_TEXT = "0 0\n1 1\n1 0\n0 1\n"
# 5,500 canonical lines, some 71 KB: more than the first 64 KB block.
LONG_TEXT = "".join(f"{t} {t * t}\n" for t in range(5500))


def child_env(**variables):
    """The environment of a CLI child that runs this package."""
    src = str(Path(cli.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=src, **variables)


def checked(argv):
    """(exit code, stdout) of ``main(argv)``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def refused(argv, env=None):
    """Assert that the CLI refuses ``argv``: exit 2, no stdout, and one
    stderr line, "error: ...", so no traceback; return it.  With ``env``,
    the CLI is ``python -m polyconvex`` in a child."""
    if env is None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code, out = checked(argv)
        err = err.getvalue()
    else:
        done = subprocess.run([sys.executable, "-m", "polyconvex", *argv],
                              env=env, capture_output=True, text=True)
        code, out, err = done.returncode, done.stdout, done.stderr
    assert (code, out, err[:7], err.count("\n"), err[-1:]) == (
        2, "", "error: ", 1, "\n"), err
    return err


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return str(path)


@pytest.fixture
def swapped_file(tmp_path):
    path = tmp_path / "swapped.txt"
    path.write_text(SWAPPED_TEXT)
    return str(path)


def test_check_accepts_square(square_file, capsys):
    assert main(["check", square_file]) == 0
    assert capsys.readouterr().out.strip() == "strictly-convex"


def test_check_rejects_swapped_square(swapped_file):
    code, out = checked(["check", swapped_file])
    assert code == 1 and out.startswith("not-strictly-convex: C2 at i=2")


def test_check_malformed_line_exits_2(tmp_path):
    # The last file's bad line is past the first block.
    path = tmp_path / "bad.txt"
    for text, line in (("0 0\n1 x\n", 2), ("0 0\n1 zz\n", 2),
                       (LONG_TEXT + "1.2.3 4\n", 5501)):
        path.write_text(text)
        assert refused(["check", str(path)]).startswith(
            f"error: line {line}: bad coordinate")


def test_check_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "binary.txt"
    for data, line in ((b"\xff\xfe 0 0\n", 1), (b"0 0\n1 \xff\n", 2)):
        path.write_bytes(data)
        assert f"line {line}: not UTF-8 text" in refused(["check", str(path)])


def test_check_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + SQUARE_TEXT.encode())
    assert checked(["check", str(path)]) == (0, "strictly-convex\n")


@pytest.mark.parametrize("token", ["1e4301", "1E-1000000", "1.5e+4301"])
def test_check_huge_exponent_exits_2(token, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"0 0\n1 0\n{token} 1\n")
    assert "line 3: exponent beyond" in refused(["check", str(path)])


@pytest.mark.parametrize("flags", [(), ("--json",), ("--explain",),
                                   ("--chain",)])
def test_check_reads_past_a_failure_to_a_malformed_last_line(flags, tmp_path):
    # C1 fails at i = 2, long before the bad line.
    path = tmp_path / "bad.txt"
    path.write_text(format_polygon(lifted_parabola(8, 2)) + "1 x\n")
    err = refused(["check", str(path), *flags])
    assert "line 9: bad coordinate 'x'" in err


def test_check_missing_file_exits_2(tmp_path):
    assert "No such file" in refused(["check", str(tmp_path / "nope.txt")])


def test_check_explain_prints_sign_rows(square_file, capsys):
    assert main(["check", square_file, "--explain"]) == 0
    out = capsys.readouterr().out
    assert "signs a: 2=+1" in out
    assert "signs b: 2=+1 3=+1" in out
    assert "signs c: 2=+1 3=+1" in out


def test_check_chain_agrees_on_exit_status(square_file, swapped_file):
    assert main(["check", square_file, "--chain"]) == 0
    assert main(["check", swapped_file, "--chain"]) == 1


def test_check_json_schema_true_case(square_file, capsys):
    assert main(["check", square_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"verdict", "n", "failed", "signs"}
    assert payload["verdict"] is True and payload["n"] == 4
    assert payload["failed"] is None
    assert payload["signs"] == {"a": [1], "b": [1, 1], "c": [1, 1]}


def test_check_json_schema_false_case(swapped_file, capsys):
    assert main(["check", swapped_file, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is False
    assert payload["failed"] == {"omega": 2, "i": 2}


def test_check_json_small_polygon(tmp_path):
    path = tmp_path / "segment.txt"
    path.write_text("0 0\n1 0\n")
    code, out = checked(["check", str(path), "--json"])
    assert (code, json.loads(out)) == (
        0, {"verdict": True, "n": 2, "failed": None, "signs": None})


def test_check_oracle_agreement(tmp_path, capsys):
    # Beside the squares, the sidedness oracle's zero cases: a repeated
    # vertex, whose edge has a row of cross products all 0, and V3 on the
    # line of the closing edge.
    path = tmp_path / "polygon.txt"
    for text, code in ((SQUARE_TEXT, 0), (SWAPPED_TEXT, 1),
                       ("0 0\n1 0\n1 0\n0 1\n", 1),
                       ("0 0\n2 0\n2 2\n0 2\n0 1\n", 1)):
        path.write_text(text)
        assert main(["check", str(path), "--oracle"]) == code
        assert capsys.readouterr().out.endswith(" -> agree\n")


def test_check_oracle_skipped_below_three_vertices(tmp_path, capsys):
    path = tmp_path / "segment.txt"
    path.write_text("0 0\n1 0\n")
    assert main(["check", str(path), "--oracle"]) == 0
    assert "skipped" in capsys.readouterr().out


def test_check_json_oracle_adds_the_oracle_object(square_file, tmp_path,
                                                  capsys):
    assert main(["check", square_file, "--json", "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"] == {"sidedness": True, "hull": True,
                                 "agree": True}
    segment = tmp_path / "segment.txt"
    segment.write_text("0 0\n1 0\n")
    assert main(["check", str(segment), "--json", "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"] == {"skipped": "oracles need n >= 3, got 2"}


def test_check_oracle_disagreement_exits_3(square_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "hull_oracle", lambda polygon: False)
    assert checked(["check", square_file, "--oracle"]) == (
        3, "strictly-convex\noracles: sidedness=true hull=false -> DISAGREE\n")
    assert main(["check", square_file, "--oracle", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is True
    assert payload["oracle"] == {"sidedness": True, "hull": False,
                                 "agree": False}


def test_check_oracle_cross_checks_the_stream_that_plain_check_decides(
        tmp_path, monkeypatch):
    # A fault in the deciders' block scaling: d grows only on the first
    # value of a column that it does not cover, so a later such value is
    # floored, not scaled.
    def first_hit_only(scale, nums, dens):
        for num, den in zip(nums, dens):
            if num * scale.d % den:
                scale.scale(Fraction(num, den))
                return

    q = [3, 3, 3, 3, 3, 3, 11, 7, 13, 13, 5, 5, 17, 17, 11, 11, 11]
    polygon = [Point(x, x * x)
               for x in (t + Fraction(1, q_t) for t, q_t in enumerate(q))]
    # V14 on its neighbours' chord: not strictly convex.
    polygon[14] = Point(*((a + b) / 2 for a, b in zip(polygon[13],
                                                       polygon[15])))
    path = tmp_path / "parabola.txt"
    path.write_text(format_polygon(polygon))
    monkeypatch.setattr(polyfile, "_BLOCK_SIZE", 128)
    assert checked(["check", str(path)]) == (
        1, "not-strictly-convex: C1 at i=14\n")
    monkeypatch.setattr(geometry, "_settle", first_hit_only)
    # Unguarded, the fault passes the polygon; the oracles catch it.
    assert checked(["check", str(path)]) == (0, "strictly-convex\n")
    assert checked(["check", str(path), "--oracle"]) == (
        3, "strictly-convex\noracles: sidedness=false hull=false -> DISAGREE\n")


def test_check_rejects_collinear_triangle_without_condition(tmp_path):
    path = tmp_path / "collinear.txt"
    path.write_text("0 0\n1 0\n2 0\n")
    assert checked(["check", str(path)]) == (1, "not-strictly-convex\n")


def generated(path, *argv):
    """``path``, written by ``polyconvex generate ARGV --out PATH``."""
    assert checked(["generate", *argv, "--out", str(path)])[0] == 0
    return str(path)


def test_generate_convex_round_trip(tmp_path):
    for n in ("8", "50"):
        path = generated(tmp_path / "convex.txt", "--mode", "convex", "--n", n)
        polygon = read_polygon_file(path)
        for flags in [(), ("--oracle",), ("--chain", "--json"),
                      ("--explain",)]:
            assert checked(["check", path, *flags]) == decided(polygon, flags)
        assert decided(polygon, ()) == (0, "strictly-convex\n")


def test_generate_witness_round_trip(tmp_path):
    path = generated(tmp_path / "witness.txt", "--mode", "witness", "--n", "6",
                     "--omega", "2", "--i", "3")
    polygon = read_polygon_file(path)
    for flags in [(), ("--oracle",), ("--chain", "--json"), ("--explain",)]:
        assert checked(["check", path, *flags]) == decided(polygon, flags)
    assert decided(polygon, ()) == (1, "not-strictly-convex: C2 at i=3\n")


def test_generate_witness_file_is_exact(tmp_path):
    path = generated(tmp_path / "witness.txt", "--mode", "witness", "--n", "5",
                     "--omega", "3", "--i", "2")
    assert read_polygon_file(path) == make_minimality_witness(
        5, ConditionId(3, 2))


@pytest.mark.parametrize("argv", [
    ["generate", "--mode", "witness", "--n", "4", "--i", "3",
     "--omega", "1", "--out", "x.txt"],           # i out of [2, n-2]
    ["generate", "--mode", "witness", "--n", "6", "--out", "x.txt"],
    ["generate", "--mode", "witness", "--n", "6", "--omega", "5", "--i", "2",
     "--out", "x.txt"],
    ["generate", "--mode", "convex", "--n", "2", "--out", "x.txt"],
    ["generate", "--mode", "convex", "--out", "x.txt"],    # no --n
    # --omega and --i name a witness; convex mode would ignore them.
    ["generate", "--mode", "convex", "--n", "5", "--omega", "2", "--i", "3",
     "--out", "x.txt"],
])
def test_generate_usage_errors_exit_2(argv, tmp_path):
    refused([a if a != "x.txt" else str(tmp_path / "x.txt") for a in argv])


@pytest.mark.parametrize("mode", [
    ["--mode", "convex"], ["--mode", "witness", "--omega", "1", "--i", "2"]])
@pytest.mark.parametrize("n", [cli.MAX_GENERATE_N + 1, 10**6])
def test_generate_beyond_the_cap_exits_2_at_once(mode, n, tmp_path):
    out = tmp_path / "x.txt"
    start = time.perf_counter()
    err = refused(["generate", *mode, "--n", str(n), "--out", str(out)])
    # Building the 57-gon alone takes seconds.
    assert time.perf_counter() - start < 0.5
    assert f"--n must be <= {cli.MAX_GENERATE_N}" in err
    assert not out.exists()


def largest_part(polygon) -> int:
    """The largest |numerator| or denominator among the coordinates."""
    return max(abs(part) for point in polygon for value in point
               for part in Fraction(value).as_integer_ratio())


def test_the_generate_cap_is_the_last_n_a_file_can_hold(tmp_path):
    # A value has more than MAX_DIGITS digits iff it is >= 10**MAX_DIGITS;
    # comparing avoids printing numbers that long.
    limit, n = 10 ** MAX_DIGITS, str(cli.MAX_GENERATE_N)
    assert largest_part(make_strictly_convex(cli.MAX_GENERATE_N + 1)) >= limit
    convex = generated(tmp_path / "convex.txt", "--mode", "convex", "--n", n)
    witness = generated(tmp_path / "witness.txt", "--mode", "witness",
                        "--n", n, "--omega", "2", "--i", "30")
    # Once scaled, coordinates of some 14,000 bits, which the hull oracle's
    # all-triples check, is_strict and is_quasi_strict sweep.
    for path, runs, code in (
            (convex, [(), ("--oracle",), ("--oracle", "--json")], 0),
            (witness, [("--oracle",)], 1)):
        polygon = read_polygon_file(path)
        assert largest_part(polygon) < limit
        assert is_strict(polygon) and is_quasi_strict(polygon)
        for flags in runs:
            expected = decided(polygon, flags)
            assert checked(["check", path, *flags]) == expected
            assert expected[0] == code


@pytest.mark.parametrize("text, code, out", [
    (SQUARE_TEXT, 0, "strictly-convex\n"),
    (SWAPPED_TEXT, 1, "not-strictly-convex: C2 at i=2\n"),
    ("0 0\n1 x\n", 2, ""),
], ids=["square", "swapped-square", "bad-file"])
def test_python_dash_m_polyconvex_runs_the_cli(tmp_path, text, code, out):
    path = tmp_path / "polygon.txt"
    path.write_text(text)
    if code == 2:
        refused(["check", str(path)], child_env())
    else:
        done = subprocess.run([sys.executable, "-m", "polyconvex", "check",
                               str(path)], env=child_env(),
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (code, out), done.stderr


def test_the_console_script_is_main(tmp_path, monkeypatch):
    # The installed script calls what pyproject.toml names with no
    # arguments, so main reads sys.argv.
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as file:
        value = tomllib.load(file)["project"]["scripts"]["polyconvex"]
    assert value == "polyconvex.cli:main"
    script = EntryPoint("polyconvex", value, "console_scripts").load()
    path = tmp_path / "polygon.txt"
    for text, code in ((SQUARE_TEXT, 0), (SWAPPED_TEXT, 1), ("0 0\n1 x\n", 2)):
        path.write_text(text)
        monkeypatch.setattr(sys, "argv", ["polyconvex", "check", str(path)])
        assert script() == code


def test_main_called_twice_prints_what_fresh_processes_print(swapped_file,
                                                              capsys):
    # The parser is built once per process; a run's flags must not leak
    # into the next run.
    runs = [["check", swapped_file, "--explain"], ["check", swapped_file]]
    fresh = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "polyconvex", *argv],
                              env=child_env(), capture_output=True, text=True)
        fresh.append((done.returncode, done.stdout, done.stderr))
    in_process = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert in_process == fresh
    assert "signs a:" in fresh[0][1] and "signs" not in fresh[1][1]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                    reason="no /dev/stdin on this platform")
@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"],
                         ids=["plain", "byte-order-mark"])
def test_check_reads_a_pipe(mark):
    # A pipe cannot seek: the reader must take the file front to back.  Nor
    # can it be read twice: a second read gets no vertices, so --oracle must
    # read its file once.
    oracle_json = {"verdict": True, "n": 4, "failed": None,
                   "signs": {"a": [1], "b": [1, 1], "c": [1, 1]},
                   "oracle": {"sidedness": True, "hull": True,
                              "agree": True}}
    for flags, expected in (
            ([], b"strictly-convex\n"),
            (["--oracle"], b"strictly-convex\n"
                           b"oracles: sidedness=true hull=true -> agree\n"),
            (["--oracle", "--json"], json.dumps(oracle_json).encode() + b"\n"),
    ):
        done = subprocess.run([sys.executable, "-m", "polyconvex", "check",
                               "/dev/stdin", *flags],
                              input=mark + SQUARE_TEXT.encode(),
                              env=child_env(), capture_output=True)
        assert (done.returncode, done.stdout) == (0, expected), done.stderr


def buffered_stdout_env():
    """The environment of a CLI child whose stdout is buffered, as it is by
    default when stdout is a pipe."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("collinear, code", [(False, 0), (True, 1)],
                         ids=["parabola", "collinear-twin"])
def test_a_reader_closing_the_pipe_early_leaves_the_exit_code(
        tmp_path, collinear, code):
    # The sign table fills more than a 64 KB pipe buffer, so the check is
    # still writing when the reader goes.
    polygon = list(parabola_polygon(20000))
    if collinear:
        # The midpoint of its neighbours.
        polygon[10000] = Point(10000, 10000 ** 2 + 1)
    path = tmp_path / "polygon.txt"
    path.write_text(format_polygon(polygon))
    with subprocess.Popen([sys.executable, "-m", "polyconvex", "check",
                           str(path), "--explain"],
                          env=buffered_stdout_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (code, b"")


def test_generate_exits_0_when_stdout_is_closed_before_it_writes(tmp_path):
    # The one line written waits in the buffer until the final flush.
    out = tmp_path / "convex.txt"
    with subprocess.Popen([sys.executable, "-m", "polyconvex", "generate",
                           "--mode", "convex", "--n", "5", "--out", str(out)],
                          env=buffered_stdout_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert out.read_text().count("\n") == 5


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts the entries of /proc/self/fd")
def test_a_broken_pipe_leaves_no_descriptor_open(square_file, monkeypatch):
    # In one process, as a caller of main() would run it many times.
    def run_into_a_closed_pipe():
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert main(["check", str(square_file)]) == 0

    run_into_a_closed_pipe()
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        run_into_a_closed_pipe()
    assert len(os.listdir("/proc/self/fd")) == before


def run_cli_under_int_string_limit(limit, *args):
    return subprocess.run([sys.executable, "-m", "polyconvex.cli", *args],
                          env=child_env(PYTHONINTMAXSTRDIGITS=limit),
                          capture_output=True, text=True)


def test_file_format_ignores_a_lowered_int_string_limit(tmp_path):
    written = {}
    for limit in ("4300", "640"):
        out = tmp_path / f"convex-{limit}.txt"
        done = run_cli_under_int_string_limit(
            limit, "generate", "--mode", "convex", "--n", "30", "--out",
            str(out))
        assert done.returncode == 0, done.stderr
        written[limit] = out.read_bytes()
    assert written["640"] == written["4300"]
    # The 30-gon needs more digits than the lowered limit allows.
    assert max(map(len, written["4300"].split())) > 640
    done = run_cli_under_int_string_limit(
        "640", "check", str(tmp_path / "convex-4300.txt"))
    assert (done.returncode, done.stdout) == (0, "strictly-convex\n")


def test_integer_past_the_digit_cap_exits_2_under_a_lifted_limit(tmp_path):
    # Every other line of the file is a plain integer pair, read by the block
    # reader's fast path; the cap holds there too.
    path = tmp_path / "polygon.txt"
    path.write_text(f"0 0\n1 0\n{'1' * 4300} 1\n")
    done = run_cli_under_int_string_limit("0", "check", str(path))
    assert done.returncode == 0, done.stderr
    path.write_text(f"0 0\n1 0\n{'1' * 4301} 1\n")
    err = refused(["check", str(path)], child_env(PYTHONINTMAXSTRDIGITS="0"))
    assert "line 3: bad coordinate" in err


MEASURE_CHILD_RSS = """
import resource, subprocess, sys
done = subprocess.run(sys.argv[1:], capture_output=True, text=True)
print(done.returncode, done.stdout.strip(),
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def peak_kb_of_check(path, *flags):
    """The peak RSS in KB of a check that accepts ``path``.  A process of
    its own runs it, so that no other child of the test run counts."""
    done = subprocess.run(
        [sys.executable, "-c", MEASURE_CHILD_RSS, sys.executable, "-m",
         "polyconvex", "check", str(path), *flags],
        env=child_env(), capture_output=True, text=True, check=True)
    code, verdict, peak_kb = done.stdout.split()
    assert (code, verdict) == ("0", "strictly-convex")
    return int(peak_kb)


def test_check_streams_a_large_file_in_small_memory(tmp_path):
    # Reading the whole file first peaked at 61 MB here; the stream holds
    # one 64 KB block.
    path = tmp_path / "parabola.txt"
    path.write_text(format_polygon(parabola_polygon(2 * 10**5)))
    peak_kb = peak_kb_of_check(path)
    assert peak_kb <= 32 * 1024, peak_kb


def test_check_chain_keeps_no_sign_table(tmp_path):
    # The table of a 10^5-gon is three lists of 10^5 pointers, about 2.7 MB
    # on CPython 3.11: --chain peaked 3.3 MB above plain check with it and
    # 0.1 MB without.  Each check runs in a process of its own.
    path = tmp_path / "parabola.txt"
    path.write_text(format_polygon(parabola_polygon(10**5)))
    peaks = [peak_kb_of_check(path, *flags) for flags in ((), ("--chain",))]
    assert peaks[1] <= peaks[0] + 1024, peaks


def test_main_restores_a_lowered_int_string_limit(square_file, capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["check", square_file]) == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)


def test_unexpected_error_exits_4_with_traceback(square_file, monkeypatch,
                                                capsys):
    def broken(path):
        raise RuntimeError("broken reader")
    # The reader plain check calls.
    monkeypatch.setattr(cli, "iter_polygon_blocks", broken)
    assert main(["check", square_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "broken reader" in captured.err


def test_generate_deterministic_output(tmp_path):
    first, second = (Path(generated(tmp_path / name, "--mode", "convex",
                                    "--n", "7")).read_text() for name in "ab")
    assert first == second


def test_unknown_command_exits_2():
    assert "invalid choice: 'frobnicate'" in refused(["frobnicate"])
    assert "invalid choice: 'bench'" in refused(["bench", "--sizes", "8"])


def test_missing_subcommand_exits_2():
    assert "required: command" in refused([])


def test_an_unknown_option_exits_2(square_file):
    assert "unrecognized arguments: --bogus" in refused(
        ["check", square_file, "--bogus"])


def test_help_prints_the_usage_and_exits_0(capsys):
    for argv in (["--help"], ["check", "--help"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: polyconvex")
        assert captured.err == ""


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "witness.txt"
    write_polygon_file(path, make_minimality_witness(6, ConditionId(2, 3)))
    return str(path)


# Exit code and exact stdout of every check mode, as first released.
CHECK_OUTPUTS = {
    ("square_file", ()): (0, "strictly-convex\n"),
    ("square_file", ("--explain",)): (
        0, "strictly-convex\nsigns a: 2=+1\nsigns b: 2=+1 3=+1\n"
           "signs c: 2=+1 3=+1\n"),
    ("square_file", ("--json",)): (
        0, '{"verdict": true, "n": 4, "failed": null, '
           '"signs": {"a": [1], "b": [1, 1], "c": [1, 1]}}\n'),
    ("square_file", ("--chain",)): (0, "strictly-convex\n"),
    ("swapped_file", ()): (1, "not-strictly-convex: C2 at i=2\n"),
    ("swapped_file", ("--explain",)): (
        1, "not-strictly-convex: C2 at i=2\nsigns a: 2=-1\n"
           "signs b: 2=-1 3=+1\nsigns c: 2=-1 3=+1\n"),
    ("swapped_file", ("--json",)): (
        1, '{"verdict": false, "n": 4, "failed": {"omega": 2, "i": 2}, '
           '"signs": {"a": [-1], "b": [-1, 1], "c": [-1, 1]}}\n'),
    ("swapped_file", ("--chain",)): (1, "not-strictly-convex: C2 at i=2\n"),
    ("witness_file", ()): (1, "not-strictly-convex: C2 at i=3\n"),
    ("witness_file", ("--explain",)): (
        1, "not-strictly-convex: C2 at i=3\nsigns a: 2=+1 3=+1 4=-1\n"
           "signs b: 2=+1 3=+1 4=-1 5=-1\nsigns c: 2=+1 3=+1 4=+1 5=+1\n"),
    ("witness_file", ("--json",)): (
        1, '{"verdict": false, "n": 6, "failed": {"omega": 2, "i": 3}, '
           '"signs": {"a": [1, 1, -1], "b": [1, 1, -1], "c": [1, 1, 1]}}\n'),
    ("witness_file", ("--chain",)): (1, "not-strictly-convex: C2 at i=3\n"),
}


@pytest.mark.parametrize("fixture, flags", list(CHECK_OUTPUTS))
def test_check_output_is_pinned(fixture, flags, request):
    path = request.getfixturevalue(fixture)
    assert checked(["check", path, *flags]) == CHECK_OUTPUTS[fixture, flags]


def lifted_parabola(n, k):
    """parabola_polygon(n) with vertex k raised above the chord of its
    neighbours, so C1 first fails at i = k."""
    poly = list(parabola_polygon(n))
    poly[k] = Point(poly[k].x, poly[k].y + 2)
    return tuple(poly)


def rational_text(polygon):
    """The file of polygon's image under (x, y) -> ((500 - x)/8,
    (y - 250000)/3): x as exact decimals, y as p/q or integers.  The map
    reverses orientation, so every sign of a convex input is -1."""
    lines = []
    for x, y in polygon:
        whole, frac = divmod(abs(500 - x) * 125, 1000)
        sign = "-" if x > 500 else ""
        lines.append(f"{sign}{whole}.{frac:03d} "
                     f"{format_scalar(Fraction(y - 250000, 3))}\n")
    return "".join(lines)


# Exit code and SHA-256 of the exact stdout of checks on 1000-gons.  The
# last-step inputs fail at i = n-2, so their fail-fast --json table ends on
# the scan's final step; the mid-scan input gives a partial --json table.
LARGE_INPUTS = {
    "convex": format_polygon(parabola_polygon(1000)),
    "last-step": format_polygon(lifted_parabola(1000, 998)),
    "mid-scan": format_polygon(lifted_parabola(1000, 500)),
    "rational-convex": rational_text(parabola_polygon(1000)),
    "rational-last-step": rational_text(lifted_parabola(1000, 998)),
}
LARGE_CHECK_DIGESTS = {
    ("convex", "--explain"): (
        0, "4ed50269c022bc615e8e091c65ce792986058e4be942d45988218f17dfbba075"),
    ("convex", "--json"): (
        0, "5481220b964f5daf8ff085c1c023897996250a4a78b35af9f90f9f39f1217260"),
    ("last-step", "--explain"): (
        1, "b3ab78df2445f5e118495ffa092fe87037f69afac3ae038c49fdb63c259a6932"),
    ("last-step", "--json"): (
        1, "d7ac67273f71314183ba8c1a5bd74716485f55b3f71ed8ca3f56cc0f94c513b4"),
    ("mid-scan", "--explain"): (
        1, "bffa3174918823b109e9ddee38b8585a84e4e1a142de91eadafb9904fe814487"),
    ("mid-scan", "--json"): (
        1, "47a3640bd2f01d3c8b7267e8a1b126ae3892d6b431d9515d2247fb1c0836ceea"),
    ("rational-convex", "--explain"): (
        0, "1f3beca6b5c793b89bc4bc6dfcd015fed9850d709d9166890e627fa46c044dac"),
    ("rational-convex", "--json"): (
        0, "08da061da0ac22d72e5dd9d8a912907b148e1157e7cf22c81afe577bbbc7b034"),
    ("rational-last-step", "--explain"): (
        1, "3a6b6b2d4358d158ab122b83000af539fbc84aa9deac3f4a974048623fc34228"),
    ("rational-last-step", "--json"): (
        1, "cda05eca96450ce335a0e5407a923ccbf490245d1ab12c81107dee80f2f56f79"),
}


@pytest.mark.parametrize("name, flag", list(LARGE_CHECK_DIGESTS))
def test_large_check_output_is_pinned(name, flag, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(LARGE_INPUTS[name], encoding="utf-8")
    code = main(["check", str(path), flag])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == LARGE_CHECK_DIGESTS[name, flag]


@pytest.mark.parametrize("name", ["convex", "mid-scan", "rational-last-step"])
def test_explain_rows_written_in_slices_keep_their_digests(name, tmp_path,
                                                           monkeypatch, capsys):
    # The pinned rows hold fewer cells than one slice; cut them into many.
    monkeypatch.setattr(cli, "_ROW_SLICE", 7)
    path = tmp_path / f"{name}.txt"
    path.write_text(LARGE_INPUTS[name], encoding="utf-8")
    code = main(["check", str(path), "--explain"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == LARGE_CHECK_DIGESTS[name, "--explain"]


def on_parabola(xs, written, eol="\n", lift=None):
    """The file of the points (x, x^2) for increasing xs, a strictly convex
    polygon, each value written by ``written(value, k)``; the vertex at
    index ``lift`` is raised by one, so that the polygon is not convex."""
    lines = []
    for k, x in enumerate(xs):
        y = x * x + (1 if k == lift else 0)
        lines.append(f"{written(x, k)} {written(y, k)}{eol}")
    return "".join(lines)


def as_fraction(value, k):
    return format_scalar(value)


def exotic(value, k):
    """Tokens the plain-block reader leaves to the per-line parser: a "+",
    an exponent, underscores.  ``value``'s denominator divides 10**6."""
    if k % 3 == 0:
        return ("+" if value >= 0 else "") + format_scalar(value)
    if k % 3 == 1:
        return f"{int(value * 10**6)}e-6"
    numerator, denominator = value.as_integer_ratio()
    return f"{numerator:_}/{denominator}"


PRIMES = [p for p in range(1000, 1600) if all(p % q for q in range(2, 40))]

# Files of several blocks at a block size of 128 bytes.
RATIONAL_FILES = {
    # Thirds fix D in the first block; sevenths and elevenths come later.
    "new-denominators": on_parabola(
        [Fraction(k, 3) for k in range(1, 40)]
        + [14 + Fraction(k, 7) for k in range(40)]
        + [20 + Fraction(k, 11) for k in range(40)], as_fraction),
    "new-denominators-lifted": on_parabola(
        [Fraction(k, 3) for k in range(1, 40)]
        + [14 + Fraction(k, 7) for k in range(40)], as_fraction, lift=60),
    # Pairwise-coprime denominators: the guard refuses within the first
    # block, and the x axis is read unscaled.
    "refused": on_parabola([k + Fraction(1, p) for k, p in enumerate(PRIMES)],
                           as_fraction),
    "exotic-bom-crlf": "\ufeff" + on_parabola(
        [Fraction(k, 8) - 3 for k in range(60)], exotic, eol="\r\n"),
    "mixed-lifted": on_parabola(
        [Fraction(k, 8) - 3 for k in range(60)],
        lambda v, k: exotic(v, k) if k % 5 == 0 else as_fraction(v, k),
        lift=2),
}


def decided(polygon, flags):
    """Exit code and stdout that check should give: the deciders' report on
    the exact values of ``polygon``, printed as the CLI does, and under
    --oracle, both oracles agreeing with it (n >= 3)."""
    explain, as_json = "--explain" in flags, "--json" in flags
    if "--chain" in flags:
        report = is_strictly_convex_chain(polygon,
                                          collect_signs=explain or as_json)
    else:
        report = is_strictly_convex(polygon, explain=explain,
                                    collect_signs=explain or as_json)
    oracle = None
    if "--oracle" in flags:
        oracle = {"sidedness": report.verdict, "hull": report.verdict,
                  "agree": True}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if as_json:
            payload = report.to_json_dict()
            if oracle:
                payload["oracle"] = oracle
            print(json.dumps(payload))
        else:
            cli._print_text_report(report, explain, oracle)
    return (0 if report.verdict else 1), out.getvalue()


@pytest.mark.parametrize("flags", [(), ("--json",), ("--explain",),
                                   ("--chain",), ("--chain", "--json")])
@pytest.mark.parametrize("name", RATIONAL_FILES)
def test_check_of_a_rational_file_prints_what_the_exact_values_give(
        name, flags, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(RATIONAL_FILES[name].encode())
    monkeypatch.setattr(polyfile, "_BLOCK_SIZE", 128)
    assert len(RATIONAL_FILES[name]) > 4 * 128
    expected = decided(read_polygon_file(path), flags)
    assert checked(["check", str(path), *flags]) == expected
    assert expected[0] == (1 if name.endswith("lifted") else 0)


def test_sevenths_after_a_first_block_of_thirds_decide_as_the_exact_values(
        tmp_path):
    # 210 vertices of some 460 bytes each: the first block holds only
    # thirds, and the sevenths after it do not divide the d it fixed.
    xs = [Fraction(10**150 + k, 3) for k in range(150)]
    xs += [Fraction(10**150 + 200, 3) + Fraction(k, 7) for k in range(1, 61)]
    lines = [f"{x} {x * x}\n" for x in xs]
    assert len("".join(lines[:150])) > polyfile._BLOCK_SIZE
    path = tmp_path / "rational.txt"
    path.write_text("".join(lines))
    for flags in (("--json",), ("--oracle", "--json")):
        expected = decided(read_polygon_file(path), flags)
        assert checked(["check", str(path), *flags]) == expected


@pytest.mark.parametrize("twin", [
    LONG_TEXT.replace("\n", "\r\n"), LONG_TEXT.replace(" ", "\t"),
    LONG_TEXT.replace("\n", "\r"),
    "".join(f"0{t} {t * t}\n" for t in range(5500))],
    ids=["crlf", "tab", "cr", "zero"])
def test_a_long_file_checks_as_its_lf_twin(twin, tmp_path):
    # Read by the per-line parser: the JSON read of integer blocks refuses a
    # leading zero.
    path, outputs = tmp_path / "long.txt", []
    for text in (LONG_TEXT, twin):
        path.write_bytes(text.encode())
        outputs.append(checked(["check", str(path), "--json"]))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def token(value, form):
    """``value`` as format_scalar writes it (form 0), with a leading zero
    (1), as a decimal (2) or with an exponent (3), if whole."""
    text = format_scalar(value)
    if form == 1:
        return text.replace("-", "-0") if text[0] == "-" else "0" + text
    if form and Fraction(value).denominator == 1:
        return text + (".0" if form == 2 else "0e-1")
    return text


@st.composite
def block_boundary_files(draw):
    """(text, block size): a 4..60-gon, and a _BLOCK_SIZE of 8..256 bytes.
    The vertices are ints on a grid (mostly not convex), or the parabola
    (x, x^2), with x = t, or t + 1/3 and t + 1/5 by turns from some line
    on, maybe with one vertex moved onto its neighbours' chord or off the
    curve by +-1/q, q in {3, 5, 7}; each maybe with one vertex lifted by 1
    and in either orientation.  The file is as format_polygon writes it,
    or has each value in a drawn form (``token``) and each line ended by
    "\n", "\r\n", "\r" or a "#" comment line."""
    n = draw(st.integers(4, 60))
    if draw(st.booleans()):
        polygon = draw(st.lists(st.tuples(st.integers(-4, 4),
                                          st.integers(-4, 4)),
                                min_size=n, max_size=n))
    else:
        thirds = draw(st.integers(0, 4) | st.integers(0, n) | st.just(n))
        xs = [t + (Fraction(1, 3 + t % 2 * 2) if t >= thirds else 0)
              for t in range(n)]
        polygon = [(x, x * x) for x in xs]
        # A verdict that hangs on one exact sign, drawn where the fractions
        # are, past the first block when they start there.
        moved = draw(st.none()
                     | st.integers(min(max(thirds, 1), n - 2), n - 2))
        if moved is not None:
            (x0, y0), (x, y), (x1, y1) = polygon[moved - 1:moved + 2]
            q = draw(st.sampled_from([None, 3, 5, 7, -3, -5, -7]))
            polygon[moved] = (((x0 + x1) / 2, (y0 + y1) / 2) if q is None
                              else (x, y + Fraction(1, q)))
    lifted = draw(st.none() | st.integers(0, n - 1))
    if lifted is not None:
        x, y = polygon[lifted]
        polygon[lifted] = (x, y + 1)
    if draw(st.booleans()):
        polygon.reverse()
    text = format_polygon([Point(Fraction(x), Fraction(y))
                           for x, y in polygon])
    if draw(st.booleans()):
        forms = st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.sampled_from(["\n", "\r\n", "\r", "\n# c\r"]))
        lines = draw(st.lists(forms, min_size=n, max_size=n))
        text = "".join(f"{token(x, fx)} {token(y, fy)}{end}"
                       for (x, y), (fx, fy, end) in zip(polygon, lines))
    return text, draw(st.integers(8, 256))


def late_thirds_text(n, thirds, lifted=None):
    """The parabola (x, x^2) clockwise, x = t for t = n-1 down to
    ``thirds`` and t + 1/3 for the lines after, maybe with the vertex of
    line ``lifted`` moved up by 1."""
    xs = [t + (Fraction(1, 3) if t < thirds else 0)
          for t in reversed(range(n))]
    return format_polygon([Point(x, x * x + (k == lifted))
                           for k, x in enumerate(xs)])


@pytest.mark.parametrize("n, lifted", [(5500, None), (20000, None),
                                       (20000, 5000)])
def test_a_clockwise_int_parabola_over_several_blocks(n, lifted, tmp_path):
    # Step 2 swaps x and y, and the rest is one run over the blocks, with a
    # table all -1.  The vertex of line 5000, lifted onto its neighbours'
    # chord, fails C1 there.
    path = tmp_path / "clockwise.txt"
    path.write_text(late_thirds_text(n, 0, lifted))
    out = ("not-strictly-convex: C1 at i=5000\n" if lifted else
           "strictly-convex\n")
    assert checked(["check", str(path)]) == (1 if lifted else 0, out)
    if not lifted:
        code, out = checked(["check", str(path), "--json"])
        assert (code, json.loads(out)["signs"]) == (0, {
            "a": [-1] * (n - 3), "b": [-1] * (n - 2), "c": [-1] * (n - 2)})


@pytest.fixture(scope="module")
def block_path(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "polygon.txt"


@given(case=block_boundary_files())
# V0 .. V3 over four blocks, the last two of them bringing thirds.
@example(case=(late_thirds_text(6, 4), 8))
# V0 .. V3 over three blocks, clockwise, the scale growing after the swap.
@example(case=(late_thirds_text(40, 20), 8))
@example(case=(late_thirds_text(40, 20), 64))
# A fail-fast stop at step 4 that drains some twenty blocks.
@example(case=(late_thirds_text(40, 20, lifted=3), 16))
# Thirds and fifths in one block: each axis's d grows twice over a column.
@example(case=(format_polygon([Point(x, x * x) for x in (
    t + Fraction(1, 3 + t % 2 * 2) for t in range(6))]), 64))
@settings(max_examples=200, deadline=None)
def test_check_in_small_blocks_prints_what_the_exact_values_give(block_path,
                                                                  case):
    text, size = case
    block_path.write_text(text)
    polygon = parse_polygon(text)
    # decided() runs the same kernel on one block, so a fault in the window
    # that both paths share shows only against the oracle.
    verdict = strictly_convex_oracle(polygon)
    for flags in [(), ("--json",), ("--explain",), ("--chain",),
                  ("--oracle",)]:
        with mock.patch.object(polyfile, "_BLOCK_SIZE", size):
            code, out = checked(["check", str(block_path), *flags])
        assert (code, out) == decided(polygon, flags), flags
        assert code == (0 if verdict else 1), flags


def test_a_later_block_is_scaled_once_not_value_by_value(tmp_path, capsys):
    # 6,000 int lines (t, t^2), then 2,000 of (t + 1/3, (t + 1/3)^2): one
    # block brings thirds and ninths, and each axis's scale grows once.
    lines = [f"{t} {t * t}\n" for t in range(6000)]
    lines += [f"{format_scalar(x)} {format_scalar(x * x)}\n"
              for x in (t + Fraction(1, 3) for t in range(6000, 8000))]
    path = tmp_path / "late-thirds.txt"
    path.write_text("".join(lines))
    scaled = []
    scale = geometry._Scale.scale

    def recording(self, value):
        scaled.append(value)
        return scale(self, value)

    with mock.patch.object(geometry._Scale, "scale", recording):
        assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "strictly-convex\n"
    # Only the values whose denominator did not divide d: the first third
    # and the first ninth.
    assert scaled == [Fraction(18001, 3), Fraction(18001, 3) ** 2]
    code, out = checked(["check", str(path), "--json"])
    assert code == 0 and json.loads(out)["verdict"] is True
