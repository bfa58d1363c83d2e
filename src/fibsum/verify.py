"""The paper's checks, as five named verification suites: ``theorem`` (the
interval [2 - F_{n-1}, 2 + F_{n-1}] of inverse entry sums), ``corollaries``
(lemma 1 and corollaries 3 and 4), ``pattern`` (the banded extremal
matrices), ``remark`` (the determinant formula and the 7x7 general records)
and ``gsampling`` (the continuous relaxation).  Each returns a list of
:class:`CheckResult`.

The functions under check are reached through their modules
(``construct.sample_g_matrix``), so wrappers set on those modules, such as
``bench/tracer.py``, see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import construct, fibonacci, linalg, search

# Sizes past this are not checked by construction: each of the 2 F_{n-1} + 1
# targets in the interval costs one constructor round trip.
CONSTRUCTIVE_MAX_N = 20

# name: (default n, smallest n, largest n).  The smallest n is the first at
# which every check of the suite covers a non-empty range (corollary 4 starts
# at n = 6, the banded pattern at n = 5).  The largest n is the one past
# which the suite would run for more than a few minutes on one core of a
# 2-vCPU Xeon host: the pattern suite grows about as n^3.6 (9 s at n = 160,
# 23 s at 200), remark at 60 with MAX_COUNT draws takes about 60 s, and
# gsampling at 20 with MAX_SAMPLES samples and MAX_BOUND about 90 s.
# Theorem and corollaries stop where their checks do.
SUITE_SIZES = {"theorem": (7, 3, CONSTRUCTIVE_MAX_N),
               "corollaries": (90, 6, fibonacci.IDENTITY_MAX_N),
               "pattern": (20, 5, 200), "remark": (10, 3, 60),
               "gsampling": (8, 3, 20)}
# Largest --samples (gsampling samples per n), --count (remark draws) and
# --bound (gsampling denominators), sized with the largest n above.
MAX_SAMPLES = 10_000
MAX_COUNT = 10_000
MAX_BOUND = 10**6
SUITES = (*SUITE_SIZES, "all")


@dataclass
class CheckResult:
    name: str
    parameters: dict
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    suite: str
    checks: list

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": sum(c.passed for c in self.checks),
            "failed": sum(not c.passed for c in self.checks),
            "checks": [
                {"name": c.name, "parameters": c.parameters,
                 "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _check(name: str, parameters: dict, failures, prefix: str,
           holds: str) -> CheckResult:
    """A check that passes when ``failures`` is empty."""
    return CheckResult(name, parameters, not failures,
                       f"{prefix}{failures}" if failures else holds)


def suite_sizes(suite: str, n: int | None = None) -> dict:
    """The suites that ``suite`` names (``all`` names every one), each mapped
    to the n it runs at: ``n`` when given, else the suite's default.  Raises
    ValueError when n is below the smallest n of any of them or above the
    largest n of any of them."""
    names = tuple(SUITE_SIZES) if suite == "all" else (suite,)
    minimum = max(SUITE_SIZES[name][1] for name in names)
    maximum = min(SUITE_SIZES[name][2] for name in names)
    if n is not None and n < minimum:
        raise ValueError(f"--suite {suite} needs --n >= {minimum}, got {n}: "
                         "a smaller n leaves a check with nothing to check")
    if n is not None and n > maximum:
        raise ValueError(f"--suite {suite} needs --n <= {maximum}, got {n}: "
                         "SUITE_SIZES bounds n so that each suite ends in minutes")
    return {name: SUITE_SIZES[name][0] if n is None else n for name in names}


def check_options(samples: int, count: int, bound: int) -> None:
    """Raise ValueError unless each of ``samples``, ``count`` and ``bound``
    lies between 1 and its named limit."""
    for flag, value, name, limit in (("--samples", samples, "MAX_SAMPLES", MAX_SAMPLES),
                                     ("--count", count, "MAX_COUNT", MAX_COUNT),
                                     ("--bound", bound, "MAX_BOUND", MAX_BOUND)):
        if not 1 <= value <= limit:
            raise ValueError(f"{flag} must lie in 1..{name} = {limit}, got {value}")


# ---------------------------------------------------------------------------
# Theorem


@dataclass(frozen=True)
class TheoremRangeReport:
    """Result of checking that every integer in [2 - F_{n-1}, 2 + F_{n-1}]
    is achieved (and nothing outside it)."""

    n: int
    low: int
    high: int
    method: str
    missing: tuple
    unexpected: tuple

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unexpected


def verify_theorem_range(n: int) -> TheoremRangeReport:
    """Check full-interval achievability of inverse entry sums.

    n <= 8 is settled by exhaustive enumeration; 9 <= n <= CONSTRUCTIVE_MAX_N
    by round-tripping each target in the interval through the constructor.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if n > CONSTRUCTIVE_MAX_N:
        raise ValueError(f"n={n} exceeds CONSTRUCTIVE_MAX_N = {CONSTRUCTIVE_MAX_N}, "
                         "the largest n checked by construction")
    bound = fibonacci.fib(n - 1)
    low, high = 2 - bound, 2 + bound
    interval = range(low, high + 1)
    if n <= 8:
        achieved = set(search.enumerate_triangular(n).counts)
        missing = tuple(s for s in interval if s not in achieved)
        unexpected = tuple(sorted(achieved - set(interval)))
        return TheoremRangeReport(n, low, high, "exhaustive", missing, unexpected)
    missing = tuple(s for s in interval
                    if linalg.inverse_entry_sum(
                        construct.construct_with_sum(n, s).rows()) != s)
    return TheoremRangeReport(n, low, high, "constructive", missing, ())


def suite_theorem(n: int) -> list:
    report = verify_theorem_range(n)
    detail = f"interval [{report.low}, {report.high}], method {report.method}"
    if report.missing:
        detail += f", missing sums {list(report.missing)}"
    if report.unexpected:
        detail += f", sums outside interval {list(report.unexpected)}"
    return [CheckResult("theorem-range", {"n": n}, report.ok, detail)]


# ---------------------------------------------------------------------------
# Fibonacci identities


def identity_failures(max_n: int) -> tuple:
    """Where the identities fail for n <= max_n: the (n, identity) pairs of
    lemma 1 (identity 1..3 as in :class:`fibonacci.Lemma1Report`), then the
    failing n of corollary 3 and of corollary 4."""
    lemma1 = fibonacci.check_lemma1(max_n).failures()
    return (lemma1, *fibonacci.corollary_failures(max_n))


def suite_corollaries(max_n: int) -> list:
    lemma1, bad3, bad4 = identity_failures(max_n)
    params = {"max_n": max_n}
    return [
        _check("lemma1-identities", params, lemma1, "failures: ",
               "three identities hold"),
        _check("corollary3-identity", params, bad3, "failures at n = ",
               f"holds for n = 5..{max_n}"),
        _check("corollary4-identity", params, bad4, "failures at n = ",
               f"holds for n = 6..{max_n}"),
    ]


# ---------------------------------------------------------------------------
# Extremal pattern


def suite_pattern(max_n: int) -> list:
    fib = fibonacci.fib
    bad_inverse = []
    bad_sum = []
    for n in range(5, max_n + 1):
        for l in (2, 3):
            matrix, predicted = construct.extremal_pattern_matrix(n, l)
            actual = linalg.invert_unit_triangular(matrix.rows())
            if actual != predicted:
                bad_inverse.append((n, l))
            expected = 2 - fib(n - 1) if (n + l) % 2 == 0 else 2 + fib(n - 1)
            if linalg.entry_sum(actual) != expected:
                bad_sum.append((n, l))
    bad_small = []
    for n in (3, 4):
        for kind, expected in (("maximizing", 2 + fib(n - 1)),
                               ("minimizing", 2 - fib(n - 1))):
            m = construct.small_extremal(n, kind)
            if linalg.inverse_entry_sum(m.rows()) != expected:
                bad_small.append((n, kind))
    band = {"n": f"5..{max_n}", "l": [2, 3]}
    return [
        _check("pattern-predicted-inverse", band, bad_inverse, "mismatches: ",
               "predicted inverse exact"),
        _check("pattern-sum-parity", band, bad_sum, "mismatches: ",
               "sums follow the n+l parity rule"),
        _check("small-extremal-sums", {"n": [3, 4]}, bad_small, "mismatches: ",
               "n = 3, 4 extremal sums exact"),
    ]


# ---------------------------------------------------------------------------
# Determinant formula and general records


def suite_remark(max_n: int, count: int, seed: int) -> list:
    inverse_sum = linalg.inverse_sum_via_determinant
    got_min = inverse_sum([list(r) for r in search.KNOWN_GENERAL_MIN_7X7])
    got_max = inverse_sum([list(r) for r in search.KNOWN_GENERAL_MAX_7X7])
    checks = [CheckResult(
        "known-7x7-records", {}, (got_min, got_max) == (Fraction(-7), Fraction(11)),
        f"inverse sums {got_min} and {got_max} (expected -7 and 11)")]
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        n = rng.randint(3, max_n)
        rows = linalg.Triangular01(n, rng.getrandbits(n * (n - 1) // 2)).rows()
        if inverse_sum(rows) != linalg.entry_sum(linalg.invert_unit_triangular(rows)):
            bad += 1
    checks.append(CheckResult(
        "determinant-formula", {"count": count, "max_n": max_n, "seed": seed},
        bad == 0, f"{bad} mismatches in {count} random triangular matrices"))
    try:
        inverse_sum([[1, 1], [1, 1]])
        rejected = False
    except linalg.SingularMatrixError:
        rejected = True
    checks.append(CheckResult(
        "singular-rejected", {}, rejected,
        "singular matrix raises SingularMatrixError" if rejected
        else "singular matrix not rejected"))
    return checks


# ---------------------------------------------------------------------------
# Continuous relaxation


def suite_gsampling(max_n: int, samples: int, bound: int, seed: int) -> list:
    fib = fibonacci.fib
    outside = []
    for n in range(3, max_n + 1):
        low, high = 2 - fib(n - 1), 2 + fib(n - 1)
        for k in range(samples):
            g = construct.sample_g_matrix(n, seed + k, bound)
            s = linalg.inverse_entry_sum(g.rows)
            if not low <= s <= high:
                outside.append((n, seed + k, s))
    bad_ends = []
    for n in range(3, max_n + 1):
        if n <= 4:
            mats = [construct.small_extremal(n, "maximizing"),
                    construct.small_extremal(n, "minimizing")]
        else:
            mats = [construct.extremal_pattern_matrix(n, l)[0] for l in (2, 3)]
        sums = sorted(linalg.inverse_entry_sum(m.rows()) for m in mats)
        if sums != [2 - fib(n - 1), 2 + fib(n - 1)]:
            bad_ends.append((n, sums))
    return [
        _check("gsampling-interval", {"n": f"3..{max_n}", "samples": samples,
                                      "bound": bound, "seed": seed},
               outside[:5], "sums outside interval: ",
               "all sampled inverse sums inside the closed interval"),
        _check("gsampling-endpoints", {"n": f"3..{max_n}"}, bad_ends, "mismatches: ",
               "both interval endpoints attained by (0,1) extremal matrices"),
    ]
