"""The paper's checks, as five named verification suites: ``theorem`` (the
interval [2 - F_{n-1}, 2 + F_{n-1}] of inverse entry sums), ``corollaries``
(lemma 1 and corollaries 3 and 4), ``pattern`` (the banded extremal
matrices), ``remark`` (the determinant formula and the 7x7 general records)
and ``gsampling`` (the continuous relaxation).  Each returns a list of
:class:`CheckResult`.

The functions under check are reached through their modules
(``fibonacci.check_lemma1``, ``construct.relaxation_columns``,
``linalg.column_block_sum_pairs``), so wrappers set on those modules, such
as ``bench/tracer.py`` and the tests' planted faults, see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import construct, fibonacci, linalg, matrixio, search

# Sizes past this are not checked by construction: each of the 2 F_{n-1} + 1
# targets in the interval costs one constructor round trip.
CONSTRUCTIVE_MAX_N = 20

# name: (default n, smallest n, largest n).  The smallest n is the first at
# which every check of the suite covers a non-empty range (corollary 4 starts
# at n = 6, the banded pattern at n = 5).  The largest n is the one past
# which the suite would run for more than a few minutes on one core of a
# 2-vCPU Xeon host: the pattern suite grows about as n^3.6 (9 s at n = 160,
# 23 s at 200), remark at 60 with MAX_COUNT draws takes about 60 s, and
# gsampling at 20 with MAX_SAMPLES samples and MAX_BOUND 4.5-5.5 s, about
# 60% of it in the block sums' integer arithmetic (one forward substitution
# per seed, at n = 20, gives every n) and most of the rest in the draws.
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
    largest n of any of them, or when ``suite`` is not one of ``SUITES``."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of SUITES = {SUITES}, got {suite!r}")
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


def check_options(samples: int, count: int, bound: int, seed: int) -> None:
    """Raise ValueError unless each of ``samples``, ``count`` and ``bound``
    lies between 1 and its named limit, and ``seed`` is >= 0: ``random.Random``
    seeds with |seed|, so a negative seed would replay a positive one."""
    for flag, value, name, limit in (("--samples", samples, "MAX_SAMPLES", MAX_SAMPLES),
                                     ("--count", count, "MAX_COUNT", MAX_COUNT),
                                     ("--bound", bound, "MAX_BOUND", MAX_BOUND)):
        if not 1 <= value <= limit:
            raise ValueError(f"{flag} must lie in 1..{name} = {limit}, got {value}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


# ---------------------------------------------------------------------------
# Theorem


@dataclass(frozen=True)
class TheoremRangeReport:
    """Result of checking that every integer in [2 - F_{n-1}, 2 + F_{n-1}]
    is achieved (``missing``) and nothing outside it (``unexpected``)."""

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
    """Check that the inverse entry sums are exactly the interval's integers.

    n <= 8 is settled by exhaustive enumeration; 9 <= n <= CONSTRUCTIVE_MAX_N
    by round-tripping each target through the constructor, and every sum
    lies between 1 - N and 1 + P over :func:`search.bound_frontier`.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if n > CONSTRUCTIVE_MAX_N:
        raise ValueError(f"n={n} exceeds CONSTRUCTIVE_MAX_N = {CONSTRUCTIVE_MAX_N}, "
                         "the largest n checked by construction")
    low, high = fibonacci.sum_interval(n)
    interval = range(low, high + 1)
    if n <= 8:
        achieved = set(search.enumerate_triangular(n).counts)
        missing = tuple(s for s in interval if s not in achieved)
        unexpected = tuple(sorted(achieved - set(interval)))
        return TheoremRangeReport(n, low, high, "exhaustive", missing, unexpected)
    missing = tuple(s for s in interval
                    if linalg.inverse_entry_sum(
                        construct.construct_with_sum(n, s).rows()) != s)
    ends = {s for p, q in search.bound_frontier(n - 1)[-1] for s in (1 - q, 1 + p)}
    return TheoremRangeReport(n, low, high, "constructive + frontier", missing,
                              tuple(sorted(ends - set(interval))))


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


def suite_corollaries(max_n: int) -> list:
    lemma1 = fibonacci.check_lemma1(max_n)
    bad3, bad4 = fibonacci.corollary_failures(max_n)
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
    bad_inverse = []
    bad_sum = []
    for n in range(5, max_n + 1):
        interval = fibonacci.sum_interval(n)
        for l in (2, 3):
            matrix, predicted = construct.extremal_pattern_matrix(n, l)
            actual = linalg.invert_unit_triangular(matrix.rows())
            if actual != predicted:
                bad_inverse.append((n, l))
            if linalg.entry_sum(actual) != interval[(n + l) % 2]:
                bad_sum.append((n, l))
    bad_small = []
    for n in (3, 4):
        low, high = fibonacci.sum_interval(n)
        for kind, expected in (("maximizing", high), ("minimizing", low)):
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
    if seed < 0:
        # random.Random seeds with |seed|: -3 would replay seed 3.
        raise ValueError(f"seed must be >= 0, got {seed}")
    inverse_sum = linalg.inverse_sum_via_determinant
    got_min = inverse_sum(search.KNOWN_GENERAL_MIN_7X7)
    got_max = inverse_sum(search.KNOWN_GENERAL_MAX_7X7)
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


def _check_draws(columns: list, bound: int, seed: int) -> None:
    """Raise InvariantError unless every drawn pair (p, q) of ``columns``
    has 1 <= q <= ``bound`` and 0 <= p <= q, so that each entry p/q lies
    in [0, 1] with a denominator of at most ``bound``."""
    for j, column in enumerate(columns):
        for i, (p, q) in enumerate(column):
            if not (1 <= q <= bound and 0 <= p <= q):
                raise linalg.InvariantError(
                    f"seed {seed}: entry ({i}, {j}) drawn as ({p}, {q}), "
                    f"not p/q with 0 <= p <= q <= {bound}")


def suite_gsampling(max_n: int, samples: int, bound: int, seed: int) -> list:
    """Each of the ``samples`` seeds s from ``seed`` on draws one sample,
    ``relaxation_columns(max_n, s, bound)``, and its n x n leading
    principal block is the n x n sample of seed s, for 3 <= n <= max_n.
    The block has iid entries from the same law as a sample drawn at n.
    Every drawn pair (p, q) is checked as integers, and one forward
    substitution of the max_n sample's pairs gives every block's inverse
    entry sum as an integer pair (T, E), compared with the interval as
    low E <= T <= high E.  A reported ``(n, s, sum)`` names the n x n
    block of seed s's max_n sample.  The report lists the sums outside the
    interval n by n, at most five in all, each as ``(n, s, p/q)``; only
    those are built as Fractions.

    The interval is a corollary of the (0,1) case: each entry of A^{-1} is
    a signed sum over increasing paths, each using a cell at most once, so
    the sum is affine in each strictly upper entry and extreme at (0,1)
    vertices of [0, 1]^cells."""
    sizes = range(3, max_n + 1)
    intervals = [(n, *fibonacci.sum_interval(n)) for n in sizes]
    outside_by_n = {n: [] for n in sizes}  # at most the first five each
    for k in range(samples):
        columns = construct.relaxation_columns(max_n, seed + k, bound)
        _check_draws(columns, bound, seed + k)
        pairs = linalg.column_block_sum_pairs(columns)
        for n, low, high in intervals:
            num, den = pairs[n - 1]
            if not low * den <= num <= high * den and len(outside_by_n[n]) < 5:
                sum_text = matrixio.format_scalar(Fraction(num, den))
                outside_by_n[n].append(f"({n}, {seed + k}, {sum_text})")
    outside = [entry for n in sizes for entry in outside_by_n[n]][:5]
    bad_ends = []
    for n, low, high in intervals:
        if n <= 4:
            mats = [construct.small_extremal(n, "maximizing"),
                    construct.small_extremal(n, "minimizing")]
        else:
            mats = [construct.extremal_pattern_matrix(n, l)[0] for l in (2, 3)]
        sums = sorted(linalg.inverse_entry_sum(m.rows()) for m in mats)
        if sums != [low, high]:
            bad_ends.append((n, sums))
    return [
        _check("gsampling-interval", {"n": f"3..{max_n}", "samples": samples,
                                      "bound": bound, "seed": seed},
               outside and f"[{', '.join(outside)}]", "sums outside interval: ",
               "all sampled inverse sums inside the closed interval"),
        _check("gsampling-endpoints", {"n": f"3..{max_n}"}, bad_ends, "mismatches: ",
               "both interval endpoints attained by (0,1) extremal matrices"),
    ]
