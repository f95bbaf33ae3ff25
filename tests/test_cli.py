import hashlib
import json
import time

import pytest

from polyconvex import cli
from polyconvex.cli import main
from polyconvex.fast_test import ConditionId
from polyconvex.generator import make_minimality_witness, parabola_polygon
from polyconvex.geometry import Point
from polyconvex.polyfile import write_polygon_file

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


@pytest.mark.parametrize("token", ["1e4301", "1E-1000000", "1.5e+4301"])
def test_check_huge_exponent_exits_2(token, tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"0 0\n1 0\n{token} 1\n")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: exponent beyond" in captured.err


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


def test_unexpected_error_exits_4_with_traceback(square_file, monkeypatch,
                                                capsys):
    def broken(path):
        raise RuntimeError("broken reader")
    monkeypatch.setattr(cli, "read_polygon_file", broken)
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


# Exit code and SHA-256 of the exact stdout of checks on 1000-gons.  The
# last-step input fails at i = n-2, so its fail-fast --json table ends on
# the scan's final step; the mid-scan input gives a partial --json table.
LARGE_INPUTS = {
    "convex": parabola_polygon(1000),
    "last-step": lifted_parabola(1000, 998),
    "mid-scan": lifted_parabola(1000, 500),
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
}


@pytest.mark.parametrize("name, flag", list(LARGE_CHECK_DIGESTS))
def test_large_check_output_is_pinned(name, flag, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    write_polygon_file(path, LARGE_INPUTS[name])
    code = main(["check", str(path), flag])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == LARGE_CHECK_DIGESTS[name, flag]
