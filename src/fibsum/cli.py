"""fibsum: command-line surface for construction, inversion, enumeration,
search and verification.

Exit codes: 0 success, 1 invalid arguments, 2 verification failure,
3 I/O failure.  `--json` switches any subcommand to machine-readable
output; with a path argument the JSON is written to that file instead of
standard output.  Identical invocations (including seeds) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .construct import (construct_w_matrix, construct_with_sum,
                        extremal_pattern_matrix, sample_g_matrix,
                        small_extremal)
from .fibonacci import check_lemma1, corollary_failures, fib
from .linalg import (SingularMatrixError, determinant_exact, entry_sum,
                     invert_general_exact, invert_unit_triangular,
                     inverse_column_sums, inverse_sum_via_determinant)
from .matrixio import MatrixFormatError, format_matrix, format_scalar, parse_matrix
from .search import (KNOWN_GENERAL_MAX_7X7, KNOWN_GENERAL_MIN_7X7,
                     SearchConfig, SearchExhaustedError, enumerate_general,
                     enumerate_triangular, enumerate_w_determinants,
                     hill_climb_general, verify_theorem_range)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for verification failures,
    # so argument errors exit 1 instead of argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _exact_json(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def _rows_json(rows):
    return [[_exact_json(x) for x in row] for row in rows]


def _write_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    if args.json == "-":
        sys.stdout.write(text)
    else:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_matrix(args):
    path = getattr(args, "infile", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_matrix(fh.read())
    return parse_matrix(sys.stdin.read())


# ---------------------------------------------------------------------------
# Verification plumbing


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


def _suite_theorem(n: int) -> list:
    report = verify_theorem_range(n)
    detail = (f"interval [{report.low}, {report.high}], method {report.method}")
    if report.missing:
        detail += f", missing sums {list(report.missing)}"
    if report.unexpected:
        detail += f", sums outside interval {list(report.unexpected)}"
    return [CheckResult("theorem-range", {"n": n}, report.ok, detail)]


def _suite_corollaries(max_n: int) -> list:
    checks = []
    lem = check_lemma1(max_n)
    checks.append(CheckResult(
        "lemma1-identities", {"max_n": max_n}, lem.all_pass,
        f"failures: {lem.failures()}" if not lem.all_pass else "three identities hold"))
    for k, bad, low in zip((3, 4), corollary_failures(max_n), (5, 6)):
        checks.append(CheckResult(
            f"corollary{k}-identity", {"max_n": max_n}, not bad,
            f"failures at n = {bad}" if bad else f"holds for n = {low}..{max_n}"))
    return checks


def _suite_pattern(max_n: int) -> list:
    checks = []
    bad_inverse = []
    bad_sum = []
    for n in range(5, max_n + 1):
        for l in (2, 3):
            matrix, predicted = extremal_pattern_matrix(n, l)
            actual = invert_unit_triangular(matrix.rows())
            if actual != predicted:
                bad_inverse.append((n, l))
            expected = 2 - fib(n - 1) if (n + l) % 2 == 0 else 2 + fib(n - 1)
            if entry_sum(actual) != expected:
                bad_sum.append((n, l))
    checks.append(CheckResult(
        "pattern-predicted-inverse", {"n": f"5..{max_n}", "l": [2, 3]},
        not bad_inverse,
        f"mismatches: {bad_inverse}" if bad_inverse else "predicted inverse exact"))
    checks.append(CheckResult(
        "pattern-sum-parity", {"n": f"5..{max_n}", "l": [2, 3]}, not bad_sum,
        f"mismatches: {bad_sum}" if bad_sum else "sums follow the n+l parity rule"))
    bad_small = []
    for n in (3, 4):
        for kind, expected in (("maximizing", 2 + fib(n - 1)),
                               ("minimizing", 2 - fib(n - 1))):
            m = small_extremal(n, kind)
            if sum(inverse_column_sums(m.rows())) != expected:
                bad_small.append((n, kind))
    checks.append(CheckResult(
        "small-extremal-sums", {"n": [3, 4]}, not bad_small,
        f"mismatches: {bad_small}" if bad_small else "n = 3, 4 extremal sums exact"))
    return checks


def _suite_remark(max_n: int, count: int, seed: int) -> list:
    import random

    from .linalg import Triangular01

    checks = []
    got_min = inverse_sum_via_determinant([list(r) for r in KNOWN_GENERAL_MIN_7X7])
    got_max = inverse_sum_via_determinant([list(r) for r in KNOWN_GENERAL_MAX_7X7])
    checks.append(CheckResult(
        "known-7x7-records", {}, (got_min, got_max) == (Fraction(-7), Fraction(11)),
        f"inverse sums {got_min} and {got_max} (expected -7 and 11)"))
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        n = rng.randint(3, max_n)
        mask = rng.getrandbits(n * (n - 1) // 2)
        matrix = Triangular01(n, mask)
        direct = entry_sum(invert_unit_triangular(matrix.rows()))
        formula = inverse_sum_via_determinant(matrix.rows())
        if formula != direct:
            bad += 1
    checks.append(CheckResult(
        "determinant-formula", {"count": count, "max_n": max_n, "seed": seed},
        bad == 0, f"{bad} mismatches in {count} random triangular matrices"))
    singular = [[1, 1], [1, 1]]
    try:
        inverse_sum_via_determinant(singular)
        rejected = False
    except SingularMatrixError:
        rejected = True
    checks.append(CheckResult(
        "singular-rejected", {}, rejected,
        "singular matrix raises SingularMatrixError" if rejected
        else "singular matrix not rejected"))
    return checks


def _suite_gsampling(max_n: int, samples: int, bound: int, seed: int) -> list:
    checks = []
    outside = []
    for n in range(3, max_n + 1):
        low, high = 2 - fib(n - 1), 2 + fib(n - 1)
        for k in range(samples):
            g = sample_g_matrix(n, seed + k, bound)
            s = sum(inverse_column_sums(g.rows))
            if not low <= s <= high:
                outside.append((n, seed + k, s))
    checks.append(CheckResult(
        "gsampling-interval",
        {"n": f"3..{max_n}", "samples": samples, "bound": bound, "seed": seed},
        not outside,
        f"sums outside interval: {outside[:5]}" if outside
        else "all sampled inverse sums inside the closed interval"))
    bad_ends = []
    for n in range(3, max_n + 1):
        if n <= 4:
            mats = [small_extremal(n, "maximizing"), small_extremal(n, "minimizing")]
        else:
            mats = [extremal_pattern_matrix(n, 2)[0], extremal_pattern_matrix(n, 3)[0]]
        sums = sorted(sum(inverse_column_sums(m.rows())) for m in mats)
        if sums != [2 - fib(n - 1), 2 + fib(n - 1)]:
            bad_ends.append((n, sums))
    checks.append(CheckResult(
        "gsampling-endpoints", {"n": f"3..{max_n}"}, not bad_ends,
        f"mismatches: {bad_ends}" if bad_ends
        else "both interval endpoints attained by (0,1) extremal matrices"))
    return checks


# Smallest --n at which every check of a suite covers a non-empty range:
# corollary 4 starts at n = 6, the banded pattern at n = 5.
_SUITE_MIN_N = {"theorem": 3, "corollaries": 6, "pattern": 5, "remark": 3,
                "gsampling": 3}
_SUITE_MIN_N["all"] = max(_SUITE_MIN_N.values())
_SUITES = tuple(_SUITE_MIN_N)


def _run_suite(args) -> VerificationReport:
    checks = []
    name = args.suite
    if args.n is not None and args.n < _SUITE_MIN_N[name]:
        raise ValueError(f"--suite {name} needs --n >= {_SUITE_MIN_N[name]}, "
                         f"got {args.n}: a smaller n leaves a check with nothing to check")

    def size(default: int) -> int:
        return default if args.n is None else args.n

    if name in ("theorem", "all"):
        checks.extend(_suite_theorem(size(7)))
    if name in ("corollaries", "all"):
        checks.extend(_suite_corollaries(size(90)))
    if name in ("pattern", "all"):
        checks.extend(_suite_pattern(size(20)))
    if name in ("remark", "all"):
        checks.extend(_suite_remark(size(10), args.count, args.seed))
    if name in ("gsampling", "all"):
        checks.extend(_suite_gsampling(size(8), args.samples, args.bound, args.seed))
    return VerificationReport(name, checks)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_fib(args) -> int:
    value = fib(args.k)
    if args.json:
        _write_json(args, {"k": args.k, "value": value})
    else:
        print(value)
    return EXIT_OK


def cmd_identities(args) -> int:
    if args.max_n < _SUITE_MIN_N["corollaries"]:
        raise ValueError(f"--max-n must be >= {_SUITE_MIN_N['corollaries']}, "
                         f"got {args.max_n}: corollary 4 starts at n = 6")
    report = check_lemma1(args.max_n)
    bad3, bad4 = corollary_failures(args.max_n)
    ok = report.all_pass and not bad3 and not bad4
    if args.json:
        _write_json(args, {
            "max_n": args.max_n,
            "lemma1_pass": report.all_pass,
            "lemma1_failures": report.failures(),
            "corollary3_pass": not bad3,
            "corollary4_pass": not bad4,
        })
    else:
        print(f"lemma1 identities (n <= {args.max_n}): "
              f"{'PASS' if report.all_pass else 'FAIL ' + str(report.failures())}")
        for k, bad in ((3, bad3), (4, bad4)):
            print(f"corollary{k} identity (n <= {args.max_n}): "
                  f"{'PASS' if not bad else 'FAIL at ' + str(bad)}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_invert(args) -> int:
    rows = _read_matrix(args)
    inverse = invert_unit_triangular(rows)
    s = entry_sum(inverse)
    if args.json:
        _write_json(args, {
            "n": len(rows),
            "matrix": _rows_json(rows),
            "inverse": _rows_json(inverse),
            "sum": _exact_json(s),
        })
    else:
        _write_text(args, format_matrix(inverse) + f"# entry sum = {format_scalar(s)}\n")
    return EXIT_OK


def cmd_construct(args) -> int:
    matrix = construct_with_sum(args.n, args.sum)
    rows = matrix.rows()
    inverse = invert_unit_triangular(rows)
    if args.json:
        _write_json(args, {
            "n": args.n,
            "matrix": rows,
            "inverse": inverse,
            "sum": entry_sum(inverse),
        })
    else:
        _write_text(args, format_matrix(rows)
                    + f"# inverse entry sum = {entry_sum(inverse)}\n")
    return EXIT_OK


def cmd_extremal(args) -> int:
    matrix, predicted = extremal_pattern_matrix(args.n, args.l)
    rows = matrix.rows()
    if args.json:
        _write_json(args, {
            "n": args.n,
            "l": args.l,
            "matrix": rows,
            "inverse": predicted,
            "sum": entry_sum(predicted),
        })
    else:
        _write_text(args, format_matrix(rows)
                    + f"# inverse entry sum = {entry_sum(predicted)}\n")
    return EXIT_OK


def cmd_wmatrix(args) -> int:
    w = construct_w_matrix(args.n, args.det)
    rows = w.to_rows()
    det = determinant_exact(rows)
    if det != 0:
        inverse = invert_general_exact(rows)
        s = entry_sum(inverse)
    else:
        inverse = None
        s = None
    if args.json:
        _write_json(args, {
            "n": args.n,
            "matrix": rows,
            "det": det,
            "inverse": _rows_json(inverse) if inverse is not None else None,
            "sum": _exact_json(s) if s is not None else None,
        })
    else:
        _write_text(args, format_matrix(rows) + f"# determinant = {det}\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    if args.family == "triangular":
        dist = enumerate_triangular(args.n)
    elif args.family == "general":
        dist = enumerate_general(args.n)
    else:
        dist = enumerate_w_determinants(args.n)
    payload = dist.to_json_dict(include_witnesses=not args.no_witnesses)
    if args.json:
        _write_json(args, payload)
    else:
        print(f"family {dist.family}  n {dist.n}  matrices {dist.total}")
        print(f"min {payload['min']}  max {payload['max']}")
        print("sum count")
        for s in dist.achieved:
            print(f"{format_scalar(s)} {dist.counts[s]}")
    return EXIT_OK


def cmd_search(args) -> int:
    config = SearchConfig(n=args.n, direction=args.direction,
                          restarts=args.restarts, max_steps=args.max_steps,
                          seed=args.seed)
    result = hill_climb_general(config)
    if args.json:
        _write_json(args, {
            "n": args.n,
            "direction": args.direction,
            "restarts": args.restarts,
            "max_steps": args.max_steps,
            "seed": args.seed,
            "best_sum": _exact_json(result.best_sum),
            "steps_taken": result.steps_taken,
            "restarts_used": result.restarts_used,
            "matrix": [list(r) for r in result.best_matrix],
        })
    else:
        _write_text(args, format_matrix(result.best_matrix)
                    + f"# inverse entry sum = {format_scalar(result.best_sum)}\n"
                    + f"# steps = {result.steps_taken}, restarts = {result.restarts_used}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _run_suite(args)
    if args.json:
        _write_json(args, report.to_json_dict())
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(check.parameters.items()))
            print(f"{status} {check.name} [{params}] {check.detail}")
        total = len(report.checks)
        failed = sum(not c.passed for c in report.checks)
        print(f"{total - failed}/{total} checks passed")
    return EXIT_OK if report.all_pass else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--version", action="version",
                        version=f"fibsum {__version__}")
    common.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="emit machine-readable JSON (to PATH if given)")

    parser = _Parser(prog="fibsum", parents=[common],
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("fib", parents=[common], help="print a Fibonacci number")
    p.add_argument("k", type=int, help="index (F_1 = F_2 = 1)")
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("identities", parents=[common],
                       help="check the Fibonacci sum identities exactly")
    p.add_argument("--max-n", type=int, default=90, dest="max_n")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("invert", parents=[common],
                       help="invert a unit triangular matrix from matrix text")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="read matrix text from PATH instead of stdin")
    p.add_argument("--out", metavar="PATH",
                   help="write output to PATH instead of stdout")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("construct", parents=[common],
                       help="construct a matrix with a prescribed inverse sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sum", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("extremal", parents=[common],
                       help="banded extremal matrix with Fibonacci-patterned inverse")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, choices=(2, 3), required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("wmatrix", parents=[common],
                       help="(1,2)-matrix with a prescribed determinant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--det", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_wmatrix)

    p = sub.add_parser("enumerate", parents=[common],
                       help="exhaustive scan of a matrix family")
    p.add_argument("--family", choices=("triangular", "general", "w"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for existing scripts and must be >= 1, but "
                        "has no effect: every family runs in one process")
    p.add_argument("--no-witnesses", action="store_true",
                   help="omit witness matrices from the report")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search", parents=[common],
                       help="hill-climb the general (0,1) family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--direction", choices=("max", "min"), required=True)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--max-steps", type=int, default=300, dest="max_steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="size bound; meaning depends on the suite")
    p.add_argument("--count", type=int, default=200,
                   help="random checks for the remark suite")
    p.add_argument("--samples", type=int, default=1000,
                   help="samples per size for the gsampling suite")
    p.add_argument("--bound", type=int, default=16,
                   help="denominator bound for the gsampling suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (MatrixFormatError, OSError) as exc:
        print(f"fibsum: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, SearchExhaustedError) as exc:
        print(f"fibsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
