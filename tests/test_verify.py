"""The verification layer: every check can fail, and the benchmark's
per-layer hooks still see the suites and the functions they check."""

import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import fibsum
from fibsum import cli, construct, fibonacci, linalg, search
from fibsum.linalg import InvariantError, SingularMatrixError, Triangular01
from fibsum.verify import (MAX_BOUND, MAX_COUNT, MAX_SAMPLES, SUITE_SIZES, SUITES,
                           check_options, suite_remark, suite_sizes)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


# Each fault patches one input of the verification layer so that exactly one
# check fails.  Every function is patched on its module, where the suites
# look it up.


def drop_top_sum(monkeypatch):
    real = search.enumerate_triangular

    def enumerate_triangular(n):
        dist = real(n)
        del dist.counts[max(dist.counts)]
        return dist

    monkeypatch.setattr(search, "enumerate_triangular", enumerate_triangular)


def perturb_fib_181(monkeypatch):
    # F_181 is read only by lemma 1 at n = 90 (1 + F_2 + F_4 + ... + F_180
    # = F_181); the corollaries at n <= 90 read indices up to 89.
    real = fibonacci.fib
    monkeypatch.setattr(fibonacci, "fib", lambda k: real(k) + (k == 181))


def corollary_fails_at(k, n):
    def patch(monkeypatch):
        real = fibonacci.corollary_failures

        def corollary_failures(max_n):
            bad = real(max_n)
            return tuple(b + [n] if i == k - 3 else b for i, b in enumerate(bad))

        monkeypatch.setattr(fibonacci, "corollary_failures", corollary_failures)
    return patch


def replace_extremal_6_2(predicted_only):
    """At (n, l) = (6, 2), predict a wrong inverse entry, or return the
    identity (inverse sum 6, not 2 - F_5 = -3) with its true inverse."""
    def patch(monkeypatch):
        real = construct.extremal_pattern_matrix

        def extremal_pattern_matrix(n, l):
            matrix, predicted = real(n, l)
            if (n, l) != (6, 2):
                return matrix, predicted
            if predicted_only:
                predicted[0][n - 1] += 1
                return matrix, predicted
            return Triangular01(n, 0), linalg.identity(n)

        monkeypatch.setattr(construct, "extremal_pattern_matrix",
                            extremal_pattern_matrix)
    return patch


def swap_small_extremal(monkeypatch):
    real = construct.small_extremal
    other = {"maximizing": "minimizing", "minimizing": "maximizing"}
    monkeypatch.setattr(construct, "small_extremal",
                        lambda n, kind: real(n, other[kind]))


def swap_7x7_records(monkeypatch):
    monkeypatch.setattr(search, "KNOWN_GENERAL_MIN_7X7", search.KNOWN_GENERAL_MAX_7X7)


def wrong_triangular_inverse(monkeypatch):
    real = linalg.invert_unit_triangular

    def invert_unit_triangular(rows):
        inverse = real(rows)
        inverse[0][-1] += 1
        return inverse

    monkeypatch.setattr(linalg, "invert_unit_triangular", invert_unit_triangular)


def singular_not_rejected(monkeypatch):
    real = linalg.inverse_sum_via_determinant

    def inverse_sum_via_determinant(rows):
        try:
            return real(rows)
        except SingularMatrixError:
            return Fraction(0)

    monkeypatch.setattr(linalg, "inverse_sum_via_determinant",
                        inverse_sum_via_determinant)


def samples_outside_interval(planted, entry=-100):
    """Plant through the block-sum kernel: the n x n block sums to
    n - entry where ``planted(n)`` holds (as ``entry`` at (0, 1) of the
    identity would, putting -entry in the inverse), and to the drawn
    sample's sum elsewhere."""
    def patch(monkeypatch):
        real = linalg.column_block_sum_pairs

        def column_block_sum_pairs(columns):
            identity = [[(0, 1)] * j for j in range(len(columns))]
            identity[1][0] = entry.as_integer_ratio()
            return [p if planted(n) else s for n, (s, p) in enumerate(
                zip(real(columns), real(identity)), 1)]

        monkeypatch.setattr(linalg, "column_block_sum_pairs", column_block_sum_pairs)
    return patch


sample_outside_interval = samples_outside_interval(lambda n: True)


SMALL = {"theorem": ["--n", "6"], "corollaries": ["--n", "90"],
         "pattern": ["--n", "8"], "remark": ["--n", "8", "--count", "30"],
         "gsampling": ["--n", "6", "--samples", "20"]}

FAULTS = {
    "theorem-range": ("theorem", drop_top_sum),
    "lemma1-identities": ("corollaries", perturb_fib_181),
    "corollary3-identity": ("corollaries", corollary_fails_at(3, 7)),
    "corollary4-identity": ("corollaries", corollary_fails_at(4, 8)),
    "pattern-predicted-inverse": ("pattern", replace_extremal_6_2(True)),
    "pattern-sum-parity": ("pattern", replace_extremal_6_2(False)),
    "small-extremal-sums": ("pattern", swap_small_extremal),
    "known-7x7-records": ("remark", swap_7x7_records),
    "determinant-formula": ("remark", wrong_triangular_inverse),
    "singular-rejected": ("remark", singular_not_rejected),
    "gsampling-interval": ("gsampling", sample_outside_interval),
    "gsampling-endpoints": ("gsampling", replace_extremal_6_2(False)),
}


class TestPlantedFaults:
    def test_every_check_has_a_fault(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--n", "6",
                        "--samples", "5", "--count", "5", "--json")
        assert code == 0
        assert {c["name"] for c in json.loads(out)["checks"]} == set(FAULTS)

    @pytest.mark.parametrize("check", sorted(FAULTS))
    def test_fault_fails_its_check_only(self, capsys, monkeypatch, check):
        suite, plant = FAULTS[check]
        argv = ["verify", "--suite", suite, *SMALL[suite]]
        code, out = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["failed"] == 0
        plant(monkeypatch)
        code, out = run(capsys, *argv, "--json")
        assert code == 2
        report = json.loads(out)
        assert [c["name"] for c in report["checks"] if not c["pass"]] == [check]
        # Details name exact scalars as 103 or 207/2, never by Python repr.
        assert not [c["detail"] for c in report["checks"] if "Fraction(" in c["detail"]]
        code, out = run(capsys, *argv)
        assert code == 2
        assert f"FAIL {check} [" in out
        assert "Fraction(" not in out


class TestTheoremReport:
    def test_missing_and_outside_sums_reported(self, capsys, monkeypatch):
        # The interval at n = 6 is [-3, 7]: drop 7, plant -4.
        drop_top_sum(monkeypatch)
        real = search.enumerate_triangular

        def enumerate_triangular(n):
            dist = real(n)
            dist.counts[-4] = 1
            return dist

        monkeypatch.setattr(search, "enumerate_triangular", enumerate_triangular)
        code, out = run(capsys, "verify", "--suite", "theorem", "--n", "6", "--json")
        assert code == 2
        check, = json.loads(out)["checks"]
        assert check["detail"] == ("interval [-3, 7], method exhaustive, "
                                   "missing sums [7], sums outside interval [-4]")

    def test_frontier_fault_reported_outside(self, capsys, monkeypatch):
        # The interval at n = 9 is [-19, 23]: one extra P on the frontier
        # after 8 rows puts 24 in reach.
        real = search.bound_frontier

        def bound_frontier(m):
            frontiers = real(m)
            (p, q), *rest = frontiers[-1]
            frontiers[-1] = [(p + 1, q), *rest]
            return frontiers

        monkeypatch.setattr(search, "bound_frontier", bound_frontier)
        code, out = run(capsys, "verify", "--suite", "theorem", "--n", "9", "--json")
        assert code == 2
        check, = json.loads(out)["checks"]
        assert check["detail"] == ("interval [-19, 23], method constructive + frontier, "
                                   "sums outside interval [24]")


class TestGsamplingReport:
    def test_first_five_outside_are_n_major(self, capsys, monkeypatch):
        # Every seed fails at each odd n.  Sampling seed by seed would list
        # n = 3, 5, 3, 5, 3 first; the report lists n = 3, k = 0..4.
        samples_outside_interval(lambda n: n % 2 == 1)(monkeypatch)
        code, out = run(capsys, "verify", "--suite", "gsampling", "--n", "6",
                        "--samples", "20", "--seed", "7", "--json")
        assert code == 2
        check, = [c for c in json.loads(out)["checks"] if not c["pass"]]
        assert check["name"] == "gsampling-interval"
        assert check["detail"] == ("sums outside interval: [(3, 7, 103), (3, 8, 103), "
                                   "(3, 9, 103), (3, 10, 103), (3, 11, 103)]")

    def test_non_integral_sum_reported_as_a_fraction(self, capsys, monkeypatch):
        # -201/2 at (0, 1) puts 201/2 in the inverse: the 3 x 3 block sums
        # to 207/2.
        samples_outside_interval(lambda n: n == 3, Fraction(-201, 2))(monkeypatch)
        code, out = run(capsys, "verify", "--suite", "gsampling", "--n", "6",
                        "--samples", "20", "--seed", "7", "--json")
        assert code == 2
        check, = [c for c in json.loads(out)["checks"] if not c["pass"]]
        assert check["detail"] == ("sums outside interval: [(3, 7, 207/2), (3, 8, 207/2), "
                                   "(3, 9, 207/2), (3, 10, 207/2), (3, 11, 207/2)]")

    @pytest.mark.parametrize("pair", [(3, 2), (-1, 2), (0, 0), (1, 17)])
    def test_draw_outside_its_range_raises(self, monkeypatch, pair):
        # p > q, p < 0, q < 1 and q above --bound 16: each is a drawer
        # fault, refused as an invariant, not reported as a sum.
        real = construct.relaxation_columns

        def relaxation_columns(n, seed, bound):
            columns = real(n, seed, bound)
            if seed == 9:
                columns[4][2] = pair
            return columns

        monkeypatch.setattr(construct, "relaxation_columns", relaxation_columns)
        with pytest.raises(InvariantError,
                           match=re.escape(f"seed 9: entry (2, 4) drawn as {pair}")):
            cli.main(["verify", "--suite", "gsampling", "--n", "6",
                      "--samples", "20", "--seed", "7", "--bound", "16"])


class TestSuiteSizes:
    def test_defaults_and_all(self):
        defaults = {name: default for name, (default, *_) in SUITE_SIZES.items()}
        assert suite_sizes("all") == defaults
        assert suite_sizes("pattern") == {"pattern": 20}
        assert suite_sizes("all", 9) == dict.fromkeys(SUITE_SIZES, 9)

    def test_all_takes_the_largest_minimum(self):
        with pytest.raises(ValueError, match="--n >= 6"):
            suite_sizes("all", 5)
        assert suite_sizes("theorem", 3) == {"theorem": 3}

    def test_all_takes_the_smallest_maximum(self):
        largest = min(top for _, _, top in SUITE_SIZES.values())
        assert suite_sizes("all", largest) == dict.fromkeys(SUITE_SIZES, largest)
        with pytest.raises(ValueError, match=f"--n <= {largest}"):
            suite_sizes("all", largest + 1)

    def test_unknown_suite_names_suites(self):
        with pytest.raises(ValueError, match=re.escape(f"SUITES = {SUITES}, got 'nope'")):
            suite_sizes("nope")


def refuse_every_suite(monkeypatch):
    """Make every suite fail the test if it is called."""
    def refuse(*args):
        raise AssertionError("a suite started past a refused limit")

    for name in SUITE_SIZES:
        monkeypatch.setattr(cli, f"_suite_{name}", refuse)


class TestLimits:
    @pytest.mark.parametrize("suite", [*SUITE_SIZES, "all"])
    def test_n_above_largest_refused_before_work(self, capsys, monkeypatch, suite):
        names = SUITE_SIZES if suite == "all" else [suite]
        largest = min(SUITE_SIZES[name][2] for name in names)
        refuse_every_suite(monkeypatch)
        cached = len(fibonacci._cache)
        code = cli.main(["verify", "--suite", suite, "--n", str(largest + 1)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"--n <= {largest}, got {largest + 1}" in captured.err
        assert len(fibonacci._cache) == cached

    @pytest.mark.parametrize("flag, name, limit", [
        ("--samples", "MAX_SAMPLES", MAX_SAMPLES), ("--count", "MAX_COUNT", MAX_COUNT),
        ("--bound", "MAX_BOUND", MAX_BOUND)])
    @pytest.mark.parametrize("suite", ["all", "gsampling", "remark"])
    def test_option_above_limit_refused_before_work(self, capsys, monkeypatch,
                                                    suite, flag, name, limit):
        refuse_every_suite(monkeypatch)
        for value in (limit + 1, 0):
            code = cli.main(["verify", "--suite", suite, flag, str(value)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert f"{flag} must lie in 1..{name} = {limit}, got {value}" in captured.err

    @pytest.mark.parametrize("suite", ["all", "gsampling", "remark"])
    def test_negative_seed_refused_before_work(self, capsys, monkeypatch, suite):
        # random.Random seeds with |seed|, so -500 would replay seed 500.
        refuse_every_suite(monkeypatch)
        code = cli.main(["verify", "--suite", suite, "--seed", "-500"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--seed must be >= 0, got -500" in captured.err
        with pytest.raises(ValueError, match="got -1"):
            check_options(1, 1, 1, -1)
        check_options(1, 1, 1, 0)

    def test_remark_suite_refuses_a_negative_seed(self, monkeypatch):
        # Called as a library function too: -3 would draw seed 3's matrices
        # and report seed -3.
        def refuse(rows):
            raise AssertionError("the remark suite started on a negative seed")

        monkeypatch.setattr(linalg, "inverse_sum_via_determinant", refuse)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            suite_remark(10, 50, -3)

    def test_largest_values_accepted(self, capsys, monkeypatch):
        seen = {}

        def record(name):
            def suite(*args):
                seen[name] = args
                return []
            return suite

        for name in SUITE_SIZES:
            monkeypatch.setattr(cli, f"_suite_{name}", record(name))
        largest = min(top for _, _, top in SUITE_SIZES.values())
        code = cli.main(["verify", "--suite", "all", "--n", str(largest),
                         "--samples", str(MAX_SAMPLES), "--count", str(MAX_COUNT),
                         "--bound", str(MAX_BOUND), "--seed", "3"])
        assert code == 0
        assert seen["gsampling"] == (largest, MAX_SAMPLES, MAX_BOUND, 3)
        assert seen["remark"] == (largest, MAX_COUNT, 3)
        capsys.readouterr()


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    def test_tracer_sees_every_suite_and_checked_layer(self, capsys):
        tracer = load_tracer()
        t = tracer.install(fibsum, cli, search, linalg, construct, fibonacci)
        try:
            assert cli.main(["verify", "--suite", "all", "--n", "6",
                             "--samples", "20", "--count", "20"]) == 0
        finally:
            t.restore()
        capsys.readouterr()
        layers = [f"cli.verify.{suite}" for suite in tracer.VERIFY_SUITES]
        # construct.sample_g is not among them: gsampling draws through
        # construct.relaxation_columns, which the tracer does not wrap.
        layers += ["construct.extremal", "linalg.inv_tri.int", "fibonacci.identities"]
        assert [layer for layer in layers if not t.calls.get(layer)] == []

    def test_tracer_sees_the_climb_and_its_start_scores(self, capsys):
        # The tracer wraps hill_climb_general and search._objective by name,
        # so a climb that stops scoring its starts through _objective
        # leaves search.climb.objective empty.
        tracer = load_tracer()
        t = tracer.install(fibsum, cli, search, linalg, construct, fibonacci)
        try:
            assert cli.main(["search", "--n", "5", "--direction", "max",
                             "--restarts", "3", "--json"]) == 0
        finally:
            t.restore()
        capsys.readouterr()
        layers = ["search.climb", "search.climb.objective"]
        assert [layer for layer in layers if not t.calls.get(layer)] == []
