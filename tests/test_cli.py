import argparse
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fibsum
from fibsum import construct, fibonacci
from fibsum.cli import build_parser, main
from fibsum.fibonacci import fib
from fibsum.linalg import (SingularMatrixError, adjugate_exact,
                           determinant_exact, entry_sum, invert_unit_triangular)
from fibsum.matrixio import format_matrix, parse_matrix
from fibsum.search import (GENERAL_MAX_N, SEARCH_MAX_N, SEARCH_MAX_RESTARTS,
                           SEARCH_MAX_STEPS, TRIANGULAR_MAX_N, SearchConfig,
                           SearchResult)

from fixtures import BANDED_9_L2
from oracles import invert_adjugate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestBasicCommands:
    def test_fib(self, capsys):
        code, out, _ = run(capsys, "fib", "10")
        assert code == 0 and out.strip() == "55"

    def test_fib_json(self, capsys):
        code, payload, _ = run_json(capsys, "fib", "6")
        assert code == 0 and payload == {"k": 6, "value": 8}

    def test_fib_above_limit_refused_before_computing(self, capsys):
        cached = len(fibonacci._cache)
        limit = fibonacci.FIB_INDEX_LIMIT
        code, out, err = run(capsys, "fib", str(limit + 1))
        assert code == 1 and out == ""
        assert f"FIB_INDEX_LIMIT = {limit}" in err
        assert len(fibonacci._cache) == cached

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.startswith("fibsum ")

    def test_subcommand_version(self, capsys):
        code, out, _ = run(capsys, "construct", "--version")
        assert code == 0 and out.startswith("fibsum ")

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1
        assert "SUBCOMMAND" in out

    def test_help_description_is_one_whole_sentence(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.split("\n\n")[1] == (
            "fibsum: construction, inversion, enumeration, search and verification.")


class TestConstructCommands:
    def test_construct_text_round_trip(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "7", "--sum", "10")
        assert code == 0
        rows = parse_matrix(out)
        assert entry_sum(invert_unit_triangular(rows)) == 10
        assert "# inverse entry sum = 10" in out

    def test_construct_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "--n", "6", "--sum", "-3")
        assert code == 0
        assert set(payload) == {"n", "matrix", "inverse", "sum"}
        assert payload["sum"] == -3
        assert entry_sum(payload["inverse"]) == -3

    def test_construct_out_of_range_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "7", "--sum", "11")
        assert code == 1
        assert "[-6, 10]" in err

    def test_extremal_matches_reference(self, capsys):
        code, payload, _ = run_json(capsys, "extremal", "--n", "9", "--l", "2")
        assert code == 0
        assert payload["matrix"] == BANDED_9_L2
        assert payload["sum"] == 23

    def test_wmatrix(self, capsys):
        code, payload, _ = run_json(capsys, "wmatrix", "--n", "5", "--det", "6")
        assert code == 0
        assert payload["det"] == 6
        assert determinant_exact(payload["matrix"]) == 6
        assert payload["sum"] is not None

    def test_wmatrix_inverse_matches_adjugate_oracle(self, capsys):
        for n in range(3, 8):
            bound = fib(n - 1)
            for det in range(3 - bound, 4 + bound):
                code, payload, _ = run_json(capsys, "wmatrix", "--n", str(n),
                                            "--det", str(det))
                assert code == 0 and payload["det"] == det
                if det == 0:
                    assert payload["inverse"] is None and payload["sum"] is None
                    continue
                expected = invert_adjugate(payload["matrix"])
                inverse = [[Fraction(x) for x in row] for row in payload["inverse"]]
                assert inverse == expected
                assert Fraction(payload["sum"]) == sum(map(sum, expected))

    @pytest.mark.parametrize("n", [20, 40])
    def test_wmatrix_inverse_matches_adjugate_at_larger_n(self, capsys, n):
        # Both interval ends, the singular target and det 3, against the
        # fraction-free Gauss-Jordan adjugate.
        bound = fib(n - 1)
        for det in (3 - bound, 3 + bound, 0, 3):
            code, payload, _ = run_json(capsys, "wmatrix", "--n", str(n),
                                        "--det", str(det))
            assert code == 0 and payload["det"] == det
            if det == 0:
                with pytest.raises(SingularMatrixError):
                    adjugate_exact(payload["matrix"])
                assert payload["inverse"] is None and payload["sum"] is None
                continue
            adj_det, adj = adjugate_exact(payload["matrix"])
            expected = [[Fraction(x, adj_det) for x in row] for row in adj]
            inverse = [[Fraction(x) for x in row] for row in payload["inverse"]]
            assert adj_det == det and inverse == expected
            assert Fraction(payload["sum"]) == entry_sum(expected)

    def test_wmatrix_sum_matches_entry_sum_to_n10(self, capsys):
        # The command emits S(W^{-1}) as (det - 1) / det; sum the emitted
        # inverse entry by entry instead, over every admissible det.
        cases = 0
        for n in range(3, 11):
            bound = fib(n - 1)
            for det in range(3 - bound, 4 + bound):
                code, payload, _ = run_json(capsys, "wmatrix", "--n", str(n),
                                            "--det", str(det))
                assert code == 0
                cases += 1
                if det == 0:
                    assert payload["inverse"] is None and payload["sum"] is None
                    continue
                inverse = [[Fraction(x) for x in row] for row in payload["inverse"]]
                assert Fraction(payload["sum"]) == entry_sum(inverse)
        assert cases == 182

    def test_wmatrix_singular_target(self, capsys):
        code, payload, _ = run_json(capsys, "wmatrix", "--n", "5", "--det", "0")
        assert code == 0
        assert payload["det"] == 0
        assert payload["inverse"] is None and payload["sum"] is None

    @pytest.mark.parametrize("command, low, target", [
        ("construct", 3, ("--sum", "2")), ("extremal", 5, ("--l", "2")),
        ("wmatrix", 3, ("--det", "3")), ("invert", None, ())])
    def test_size_limit_refused_before_work_and_shown(self, capsys, monkeypatch,
                                                      command, low, target):
        # Every command refuses through construct._check_size, so all print
        # the same line; invert reads n from its dimension line.
        def work(*args):
            pytest.fail(f"{command} started work above CONSTRUCT_MAX_N")

        for name in ("fib", "sum_interval", "_dominant_rows", "identity"):
            monkeypatch.setattr(construct, name, work)
        monkeypatch.setattr("fibsum.matrixio.parse_scalar", work)
        limit = construct.CONSTRUCT_MAX_N
        if command == "invert":
            monkeypatch.setattr("sys.stdin", io.StringIO(f"{limit + 1}\n"))
            code, out, err = run(capsys, command)
        else:
            code, out, err = run(capsys, command, "--n", str(limit + 1), *target)
        assert code == 1 and out == ""
        assert err == (f"fibsum: error: n must be <= CONSTRUCT_MAX_N = {limit}, "
                       f"got {limit + 1}\n")
        if low is not None:
            code, out, _ = run(capsys, command, "--help")
            assert code == 0 and f"{low}..{limit}" in out


class TestInvert:
    def test_invert_identity_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(format_matrix(
            [[1 if i == j else 0 for j in range(5)] for i in range(5)])))
        code, out, _ = run(capsys, "invert")
        assert code == 0
        assert parse_matrix(out) == [[1 if i == j else 0 for j in range(5)]
                                     for i in range(5)]
        assert "# entry sum = 5" in out

    def test_invert_file_round_trip(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("# comment\n3\n1 1 1\n0 1 0\n0 0 1\n")
        dst = tmp_path / "inv.txt"
        code, _, _ = run(capsys, "invert", "--in", str(src), "--out", str(dst))
        assert code == 0
        assert parse_matrix(dst.read_text()) == [[1, -1, -1], [0, 1, 0], [0, 0, 1]]

    def test_invert_above_limit_refused_before_work(self, capsys, monkeypatch):
        def refuse(rows):
            pytest.fail(f"inverted a {len(rows)} x {len(rows)} matrix")

        limit = construct.CONSTRUCT_MAX_N
        monkeypatch.setattr("fibsum.cli.invert_unit_triangular", refuse)
        monkeypatch.setattr("sys.stdin", io.StringIO(format_matrix(
            [[1 if i == j else 0 for j in range(limit + 1)] for i in range(limit + 1)])))
        code, out, err = run(capsys, "invert")
        assert code == 1 and out == ""
        assert f"CONSTRUCT_MAX_N = {limit}, got {limit + 1}" in err

    def test_invert_above_limit_refused_before_parsing(self, capsys, monkeypatch):
        # Refused from the dimension line alone: no entry is parsed, and
        # rows that do not match the header get the size refusal (exit 1),
        # not the format error (exit 3).
        def refuse(token):
            pytest.fail(f"parsed entry {token!r} of an oversize matrix")

        limit = construct.CONSTRUCT_MAX_N
        monkeypatch.setattr("fibsum.matrixio.parse_scalar", refuse)
        monkeypatch.setattr("sys.stdin", io.StringIO(f"# header\n{limit + 1}\n1 0\n0 1\n"))
        code, out, err = run(capsys, "invert")
        assert code == 1 and out == ""
        assert f"CONSTRUCT_MAX_N = {limit}, got {limit + 1}" in err

    def test_invert_at_limit_accepted(self, capsys, monkeypatch):
        limit = construct.CONSTRUCT_MAX_N
        monkeypatch.setattr("sys.stdin", io.StringIO(format_matrix(
            [[1 if i <= j else 0 for j in range(limit)] for i in range(limit)])))
        code, payload, _ = run_json(capsys, "invert")
        assert code == 0 and payload["n"] == limit and payload["sum"] == 1

    def test_invert_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "invert", "--in", str(tmp_path / "nope.txt"))
        assert code == 3

    def test_invert_malformed_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n1 0\n"))
        code, _, err = run(capsys, "invert")
        assert code == 3

    @pytest.mark.parametrize("entry", ["1_0", "\u0663", "1/-2", "1.0"])
    def test_invert_non_ascii_decimal_entry_exits_3(self, capsys, monkeypatch, entry):
        # int() would read "1_0" as 10 and the Arabic-Indic digit as 3.
        monkeypatch.setattr("sys.stdin", io.StringIO(f"2\n1 {entry}\n0 1\n"))
        code, out, err = run(capsys, "invert")
        assert code == 3 and out == ""
        assert "bad matrix entry" in err

    def test_invert_non_triangular_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n1 1\n1 1\n"))
        code, _, _ = run(capsys, "invert")
        assert code == 1

    def test_invert_rational_matrix(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("3\n1 1/2 0\n0 1 1/3\n0 0 1\n"))
        code, payload, _ = run_json(capsys, "invert")
        assert code == 0
        assert payload["inverse"][0] == [1, "-1/2", "1/6"]
        assert payload["sum"] == "7/3"


class TestEnumerate:
    def test_triangular_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "--family", "triangular",
                                    "--n", "4", "--jobs", "1")
        assert code == 0
        assert payload["family"] == "triangular"
        assert payload["min"] == 0 and payload["max"] == 4
        assert payload["achieved"] == [0, 1, 2, 3, 4]
        assert payload["counts"] == {"0": 1, "1": 20, "2": 30, "3": 12, "4": 1}
        assert set(payload["witnesses"]) == {"0", "1", "2", "3", "4"}

    def test_w_family(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "--family", "w",
                                    "--n", "3", "--jobs", "1")
        assert code == 0
        assert payload["achieved"] == [2, 3, 4]

    def test_general_family_rational_keys(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "--family", "general",
                                    "--n", "3", "--jobs", "1")
        assert code == 0
        assert payload["min"] == 1 and payload["max"] == 3
        assert "3/2" in payload["counts"]

    def test_json_to_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["enumerate", "--family", "triangular", "--n", "3",
                     "--jobs", "1", "--json", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["counts"] == {"1": 3, "2": 4, "3": 1}

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--family", "triangular",
                         "--n", "5", "--jobs", "1", "--json")
        _, out2, _ = run(capsys, "enumerate", "--family", "triangular",
                         "--n", "5", "--jobs", "2", "--json")
        assert out1 == out2

    def test_bad_n_exits_1(self, capsys):
        code, _, err = run(capsys, "enumerate", "--family", "triangular",
                           "--n", "12", "--jobs", "1")
        assert code == 1

    @pytest.mark.parametrize("family, limit, name", [
        ("triangular", TRIANGULAR_MAX_N, "TRIANGULAR_MAX_N"),
        ("w", TRIANGULAR_MAX_N, "TRIANGULAR_MAX_N"),
        ("general", GENERAL_MAX_N, "GENERAL_MAX_N")])
    def test_limit_plus_one_refused_and_ranges_shown(self, capsys, family, limit, name):
        code, out, err = run(capsys, "enumerate", "--family", family,
                             "--n", str(limit + 1))
        assert code == 1 and out == ""
        assert f"3..{name} = {limit}" in err
        code, out, _ = run(capsys, "enumerate", "--help")
        assert code == 0 and f"3..{limit}" in out

    def test_jobs_defaults_to_one(self):
        args = build_parser().parse_args(["enumerate", "--family", "general",
                                          "--n", "3"])
        assert args.jobs == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, capsys, jobs):
        code, out, err = run(capsys, "enumerate", "--family", "triangular",
                             "--n", "3", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "jobs must be >= 1" in err


# Runs commands through fibsum.cli.main in a fresh interpreter, every
# enumerate family included, then prints whether numpy got imported.
NUMPY_FREE_CHILD = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from fibsum.cli import main
for argv in (["enumerate", "--family", "triangular", "--n", "5"],
             ["enumerate", "--family", "general", "--n", "3"],
             ["enumerate", "--family", "w", "--n", "4"],
             ["search", "--n", "4", "--direction", "max", "--restarts", "3"],
             ["verify", "--suite", "all", "--n", "6", "--samples", "5",
              "--count", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv} failed")
print("numpy" in sys.modules)
"""


class TestNoNumpy:
    def test_no_command_imports_numpy(self):
        src = str(Path(fibsum.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_CHILD, src],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestSearch:
    def test_n3_max(self, capsys):
        code, payload, _ = run_json(capsys, "search", "--n", "3",
                                    "--direction", "max", "--restarts", "8",
                                    "--seed", "1")
        assert code == 0
        assert payload["best_sum"] == 3

    def test_reproducible(self, capsys):
        args = ("search", "--n", "4", "--direction", "min", "--restarts", "6",
                "--seed", "9", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("flag, name, low, limit", [
        ("--n", "SEARCH_MAX_N", 3, SEARCH_MAX_N),
        ("--restarts", "SEARCH_MAX_RESTARTS", 1, SEARCH_MAX_RESTARTS),
        ("--max-steps", "SEARCH_MAX_STEPS", 1, SEARCH_MAX_STEPS)])
    def test_limit_plus_one_refused_before_work(self, capsys, monkeypatch,
                                                flag, name, low, limit):
        def refuse(config):
            pytest.fail(f"hill_climb_general ran with {config}")

        monkeypatch.setattr("fibsum.cli.hill_climb_general", refuse)
        field = flag[2:].replace("-", "_")
        for value in (limit + 1, low - 1):
            options = {"--n": "5", "--restarts": "3", "--max-steps": "5", flag: str(value)}
            argv = [x for item in options.items() for x in item]
            code, out, err = run(capsys, "search", "--direction", "max", *argv)
            assert code == 1 and out == ""
            assert f"{field} must lie in {low}..{name} = {limit}, got {value}" in err

    def test_exhausted_search_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr("fibsum.search._objective", lambda rows: (0, None))
        code, out, err = run(capsys, "search", "--n", "5", "--direction", "max",
                             "--restarts", "2", "--json")
        assert code == 1 and out == ""
        assert err == ("fibsum: error: no invertible 5x5 start matrix found "
                       "in 2 restarts x 200 draws\n")

    def test_negative_seed_refused_before_work(self, capsys, monkeypatch):
        # random.Random seeds with |seed|, so --seed -1 would replay --seed 1.
        monkeypatch.setattr("fibsum.cli.hill_climb_general",
                            lambda config: pytest.fail(f"ran with {config}"))
        code, out, err = run(capsys, "search", "--n", "5", "--direction", "max",
                             "--restarts", "1", "--seed", "-1")
        assert code == 1 and out == ""
        assert "seed must be >= 0, got -1" in err
        for command in ("search", "verify"):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0 and ">= 0" in out

    def test_limits_accepted_and_shown(self, capsys, monkeypatch):
        seen = []

        def record(config):
            seen.append(config)
            return SearchResult(((1,),), Fraction(1), 0, config.restarts)

        monkeypatch.setattr("fibsum.cli.hill_climb_general", record)
        code, payload, _ = run_json(
            capsys, "search", "--n", str(SEARCH_MAX_N), "--direction", "min",
            "--restarts", str(SEARCH_MAX_RESTARTS),
            "--max-steps", str(SEARCH_MAX_STEPS), "--seed", "4")
        assert code == 0 and payload["restarts_used"] == SEARCH_MAX_RESTARTS
        assert seen == [SearchConfig(SEARCH_MAX_N, "min", SEARCH_MAX_RESTARTS,
                                     SEARCH_MAX_STEPS, 4)]
        code, out, _ = run(capsys, "search", "--help")
        assert code == 0
        for shown in (f"3..{SEARCH_MAX_N}", f"1..{SEARCH_MAX_RESTARTS}",
                      f"1..{SEARCH_MAX_STEPS}"):
            assert shown in out


class TestVerify:
    def test_theorem_suite_n6(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem", "--n", "6")
        assert code == 0
        assert "PASS theorem-range" in out
        assert "[-3, 7]" in out

    def test_corollaries_suite(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--suite", "corollaries",
                                    "--n", "60")
        assert code == 0
        assert payload["failed"] == 0
        names = {c["name"] for c in payload["checks"]}
        assert names == {"lemma1-identities", "corollary3-identity",
                         "corollary4-identity"}

    def test_pattern_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pattern", "--n", "12")
        assert code == 0

    def test_remark_suite(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--suite", "remark",
                                    "--n", "8", "--count", "40")
        assert code == 0
        assert payload["failed"] == 0

    def test_gsampling_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "gsampling", "--n", "5",
                         "--samples", "50")
        assert code == 0

    @pytest.mark.parametrize("suite, minimum", [
        ("theorem", 3), ("corollaries", 6), ("pattern", 5), ("remark", 3),
        ("gsampling", 3), ("all", 6)])
    def test_n_below_suite_minimum_exits_1(self, capsys, suite, minimum):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--n", str(minimum - 1))
        assert code == 1
        assert out == ""
        assert f"--n >= {minimum}" in err

    @pytest.mark.parametrize("suite, minimum", [
        ("corollaries", 6), ("pattern", 5), ("gsampling", 3), ("all", 6)])
    def test_n_at_suite_minimum_passes(self, capsys, suite, minimum):
        code, payload, _ = run_json(capsys, "verify", "--suite", suite,
                                    "--n", str(minimum), "--samples", "20",
                                    "--count", "20")
        assert code == 0
        assert payload["failed"] == 0 and payload["passed"] > 0


class TestArgumentErrors:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "5", "--sum", "2",
                           "--bogus")
        assert code == 1

    def test_missing_required_exits_1(self, capsys):
        code, _, _ = run(capsys, "construct", "--n", "5")
        assert code == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


# One small, seeded run of each subcommand: (argv, stdin).
EVERY_COMMAND = [
    (("fib", "12"), ""),
    (("invert",), "3\n1 1/2 0\n0 1 1/3\n0 0 1\n"),
    (("construct", "--n", "5", "--sum", "4"), ""),
    (("extremal", "--n", "7", "--l", "3"), ""),
    (("wmatrix", "--n", "4", "--det", "2"), ""),
    (("enumerate", "--family", "triangular", "--n", "4"), ""),
    (("search", "--n", "4", "--direction", "max", "--restarts", "3",
      "--seed", "5"), ""),
    (("verify", "--suite", "all", "--n", "6", "--samples", "5", "--count", "5",
      "--seed", "3"), ""),
]


class TestOutputDestination:
    def test_cases_cover_every_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(argv[0] for argv, _ in EVERY_COMMAND)

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("argv, stdin", EVERY_COMMAND,
                             ids=[argv[0] for argv, _ in EVERY_COMMAND])
    def test_out_gets_exactly_what_stdout_would(self, capsys, monkeypatch,
                                                tmp_path, argv, stdin, fmt):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, expected, _ = run(capsys, *argv, *fmt)
        assert code == 0 and expected
        out = tmp_path / "out"
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert run(capsys, *argv, *fmt, "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("argv", [
        ("--json", "fib", "3"),
        ("--json=report.json", "fib", "3"),
        ("enumerate", "--family", "triangular", "--n", "4", "--json", "report.json"),
        ("enumerate", "--family", "triangular", "--n", "4", "--json", "-"),
    ])
    def test_json_takes_no_path(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: fibsum ")
        assert "error: unrecognized arguments" in err
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_path_is_an_io_error(self, capsys):
        code, out, err = run(capsys, "fib", "10", "--out", "")
        assert code == 3 and out == ""
        assert "i/o error" in err

    def test_top_level_takes_only_help_and_version(self, capsys):
        code, out, _ = run(capsys, "--help")
        options = out.split("options:\n", 1)[1]
        flags = [line.split()[0] for line in options.splitlines()
                 if line.startswith("  -")]
        assert code == 0 and flags == ["-h,", "--version"]
