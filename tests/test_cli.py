import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from polyconvex import cli, polyfile
from polyconvex.cli import main
from polyconvex.fast_test import (ConditionId, is_strictly_convex,
                                  is_strictly_convex_chain)
from polyconvex.generator import (make_minimality_witness,
                                  make_strictly_convex, parabola_polygon)
from polyconvex.geometry import Point
from polyconvex.polyfile import (MAX_DIGITS, format_polygon, format_scalar,
                                 read_polygon_file, write_polygon_file)

SQUARE_TEXT = "0 0\n1 0\n1 1\n0 1\n"
SWAPPED_TEXT = "0 0\n1 1\n1 0\n0 1\n"


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


def test_check_rejects_swapped_square(swapped_file, capsys):
    assert main(["check", swapped_file]) == 1
    out = capsys.readouterr().out
    assert out.startswith("not-strictly-convex: C2 at i=2")


def test_check_malformed_line_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 x\n")
    assert main(["check", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_check_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe 0 0\n")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: not UTF-8 text" in captured.err


def test_check_accepts_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + SQUARE_TEXT.encode())
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "strictly-convex\n"


@pytest.mark.parametrize("token", ["1e4301", "1E-1000000", "1.5e+4301"])
def test_check_huge_exponent_exits_2(token, tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"0 0\n1 0\n{token} 1\n")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: exponent beyond" in captured.err


@pytest.mark.parametrize("flags", [(), ("--json",), ("--explain",),
                                   ("--chain",)])
def test_check_reads_past_a_failure_to_a_malformed_last_line(flags, tmp_path,
                                                             capsys):
    # C1 fails at i = 2, long before the bad line.
    path = tmp_path / "bad.txt"
    path.write_text(format_polygon(lifted_parabola(8, 2)) + "1 x\n")
    assert main(["check", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 9: bad coordinate 'x'" in captured.err


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.txt")]) == 2


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


def test_check_json_small_polygon(tmp_path, capsys):
    path = tmp_path / "segment.txt"
    path.write_text("0 0\n1 0\n")
    assert main(["check", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"verdict": True, "n": 2, "failed": None, "signs": None}


def test_check_oracle_agreement(square_file, swapped_file, capsys):
    assert main(["check", square_file, "--oracle"]) == 0
    assert "agree" in capsys.readouterr().out
    assert main(["check", swapped_file, "--oracle"]) == 1
    assert "agree" in capsys.readouterr().out


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
    assert main(["check", square_file, "--oracle"]) == 3
    assert capsys.readouterr().out == (
        "strictly-convex\n"
        "oracles: sidedness=true hull=false -> DISAGREE\n")
    assert main(["check", square_file, "--oracle", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is True
    assert payload["oracle"] == {"sidedness": True, "hull": False,
                                 "agree": False}


def test_check_rejects_collinear_triangle_without_condition(tmp_path, capsys):
    path = tmp_path / "collinear.txt"
    path.write_text("0 0\n1 0\n2 0\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == "not-strictly-convex\n"


def test_generate_convex_round_trip(tmp_path, capsys):
    out = tmp_path / "convex8.txt"
    assert main(["generate", "--mode", "convex", "--n", "8",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out)]) == 0


def test_generate_witness_round_trip(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    assert main(["generate", "--mode", "witness", "--n", "6", "--omega", "2",
                 "--i", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out)]) == 1
    assert "C2 at i=3" in capsys.readouterr().out


def test_generate_witness_file_is_exact(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    assert main(["generate", "--mode", "witness", "--n", "5", "--omega", "3",
                 "--i", "2", "--out", str(out)]) == 0
    from polyconvex.polyfile import read_polygon_file
    assert read_polygon_file(out) == make_minimality_witness(5, ConditionId(3, 2))


@pytest.mark.parametrize("argv", [
    ["generate", "--mode", "witness", "--n", "4", "--i", "3",
     "--omega", "1", "--out", "x.txt"],           # i out of [2, n-2]
    ["generate", "--mode", "witness", "--n", "6", "--out", "x.txt"],
    ["generate", "--mode", "witness", "--n", "6", "--omega", "5", "--i", "2",
     "--out", "x.txt"],
    ["generate", "--mode", "convex", "--n", "2", "--out", "x.txt"],
    # --omega and --i name a witness; convex mode would ignore them.
    ["generate", "--mode", "convex", "--n", "5", "--omega", "2", "--i", "3",
     "--out", "x.txt"],
])
def test_generate_usage_errors_exit_2(argv, tmp_path, capsys):
    argv = [a if a != "x.txt" else str(tmp_path / "x.txt") for a in argv]
    assert main(argv) == 2


@pytest.mark.parametrize("mode", [
    ["--mode", "convex"], ["--mode", "witness", "--omega", "1", "--i", "2"]])
@pytest.mark.parametrize("n", [cli.MAX_GENERATE_N + 1, 10**6])
def test_generate_beyond_the_cap_exits_2_at_once(mode, n, tmp_path, capsys):
    out = tmp_path / "x.txt"
    start = time.perf_counter()
    assert main(["generate", *mode, "--n", str(n), "--out", str(out)]) == 2
    # Building the 57-gon alone takes seconds.
    assert time.perf_counter() - start < 0.5
    assert f"--n must be <= {cli.MAX_GENERATE_N}" in capsys.readouterr().err
    assert not out.exists()


def largest_part(polygon) -> int:
    """The largest |numerator| or denominator among the coordinates."""
    return max(abs(part) for point in polygon for value in point
               for part in Fraction(value).as_integer_ratio())


def test_the_generate_cap_is_the_last_n_a_file_can_hold(tmp_path):
    # A value has more than MAX_DIGITS digits iff it is >= 10**MAX_DIGITS;
    # comparing avoids printing numbers that long.
    limit = 10 ** MAX_DIGITS
    n = cli.MAX_GENERATE_N
    assert largest_part(make_strictly_convex(n)) < limit
    assert largest_part(make_minimality_witness(n, ConditionId(2, 30))) < limit
    assert largest_part(make_strictly_convex(n + 1)) >= limit
    out = tmp_path / "convex.txt"
    assert main(["generate", "--mode", "convex", "--n", str(n),
                 "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0

@pytest.mark.parametrize("text, code, out", [
    (SQUARE_TEXT, 0, "strictly-convex\n"),
    (SWAPPED_TEXT, 1, "not-strictly-convex: C2 at i=2\n"),
    ("0 0\n1 x\n", 2, ""),
], ids=["square", "swapped-square", "bad-file"])
def test_python_dash_m_polyconvex_runs_the_cli(tmp_path, text, code, out):
    path = tmp_path / "polygon.txt"
    path.write_text(text)
    src = str(Path(cli.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-m", "polyconvex", "check",
                           str(path)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (code, out), done.stderr


def test_main_called_twice_prints_what_fresh_processes_print(swapped_file,
                                                              capsys):
    # The parser is built once per process; a run's flags must not leak
    # into the next run.
    src = str(Path(cli.__file__).parent.parent)
    runs = [["check", swapped_file, "--explain"], ["check", swapped_file]]
    fresh = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "polyconvex", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
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
    src = str(Path(cli.__file__).parent.parent)
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
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True)
        assert (done.returncode, done.stdout) == (0, expected), done.stderr


def buffered_stdout_env():
    """The environment of a CLI child whose stdout is buffered, as it is by
    default when stdout is a pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
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
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "polyconvex.cli", *args],
                          env=env, capture_output=True, text=True)


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
    for digits, code in ((4300, 0), (4301, 2)):
        path = tmp_path / f"{digits}.txt"
        path.write_text(f"0 0\n1 0\n{'1' * digits} 1\n")
        done = run_cli_under_int_string_limit("0", "check", str(path))
        assert done.returncode == code, done.stderr
    assert "line 3: bad coordinate" in done.stderr


MEASURE_CHILD_RSS = """
import resource, subprocess, sys
done = subprocess.run(sys.argv[1:], capture_output=True, text=True)
print(done.returncode, done.stdout.strip(),
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_check_streams_a_large_file_in_small_memory(tmp_path):
    # Reading the whole file first peaked at 61 MB here; the stream holds
    # one 64 KB block.  A process of its own runs the check, so that no
    # other child of the test run counts toward the peak.
    path = tmp_path / "parabola.txt"
    path.write_text(format_polygon(parabola_polygon(2 * 10**5)))
    src = str(Path(cli.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", MEASURE_CHILD_RSS, sys.executable, "-m",
         "polyconvex", "check", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    code, verdict, peak_kb = done.stdout.split()
    assert (code, verdict) == ("0", "strictly-convex")
    assert int(peak_kb) <= 32 * 1024, peak_kb


def test_check_chain_keeps_no_sign_table(tmp_path):
    # The table of a 10^5-gon is three lists of 10^5 pointers, about 2.7 MB
    # on CPython 3.11: --chain peaked 3.3 MB above plain check with it and
    # 0.1 MB without.  Each check runs in a process of its own.
    path = tmp_path / "parabola.txt"
    path.write_text(format_polygon(parabola_polygon(10**5)))
    src = str(Path(cli.__file__).parent.parent)
    peaks = []
    for flags in ((), ("--chain",)):
        done = subprocess.run(
            [sys.executable, "-c", MEASURE_CHILD_RSS, sys.executable, "-m",
             "polyconvex", "check", str(path), *flags],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        code, verdict, peak_kb = done.stdout.split()
        assert (code, verdict) == ("0", "strictly-convex")
        peaks.append(int(peak_kb))
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
    monkeypatch.setattr(cli, "iter_scaled_polygon", broken)
    assert main(["check", square_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "broken reader" in captured.err


def test_generate_deterministic_output(tmp_path, capsys):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for out in (first, second):
        assert main(["generate", "--mode", "convex", "--n", "7",
                     "--out", str(out)]) == 0
    assert first.read_text() == second.read_text()


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["bench", "--sizes", "8"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


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
def test_check_output_is_pinned(fixture, flags, request, capsys):
    path = request.getfixturevalue(fixture)
    code = main(["check", path, *flags])
    assert (code, capsys.readouterr().out) == CHECK_OUTPUTS[fixture, flags]


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


def decided(path, flags):
    """Exit code and stdout that check should give: the deciders' report on
    the exact values of read_polygon_file(path), printed as the CLI does."""
    polygon = read_polygon_file(path)
    explain, as_json = "--explain" in flags, "--json" in flags
    if "--chain" in flags:
        report = is_strictly_convex_chain(polygon,
                                          collect_signs=explain or as_json)
    else:
        report = is_strictly_convex(polygon, explain=explain,
                                    collect_signs=explain or as_json)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if as_json:
            print(json.dumps(report.to_json_dict()))
        else:
            cli._print_text_report(report, explain, None)
    return (0 if report.verdict else 1), out.getvalue()


@pytest.mark.parametrize("flags", [(), ("--json",), ("--explain",),
                                   ("--chain",), ("--chain", "--json")])
@pytest.mark.parametrize("name", RATIONAL_FILES)
def test_check_of_a_rational_file_prints_what_the_exact_values_give(
        name, flags, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(RATIONAL_FILES[name].encode())
    monkeypatch.setattr(polyfile, "_BLOCK_SIZE", 128)
    assert len(RATIONAL_FILES[name]) > 4 * 128
    expected = decided(path, flags)
    code = main(["check", str(path), *flags])
    assert (code, capsys.readouterr().out) == expected
    assert expected[0] == (1 if name.endswith("lifted") else 0)
