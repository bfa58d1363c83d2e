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
from fractions import Fraction

from . import __version__
from .construct import (construct_w_matrix, construct_with_sum,
                        extremal_pattern_matrix)
from .fibonacci import fib
from .linalg import (SingularMatrixError, adjugate_exact, entry_sum,
                     invert_unit_triangular)
from .matrixio import MatrixFormatError, format_matrix, format_scalar, parse_matrix
from .search import (SearchConfig, SearchExhaustedError, enumerate_general,
                     enumerate_triangular, enumerate_w_determinants,
                     hill_climb_general)
from .verify import (MAX_BOUND, MAX_COUNT, MAX_SAMPLES, SUITE_SIZES, SUITES,
                     VerificationReport, check_options, identity_failures,
                     suite_sizes)
# cmd_verify looks the suites up by these names, the ones bench/tracer.py wraps.
from .verify import suite_corollaries as _suite_corollaries
from .verify import suite_gsampling as _suite_gsampling
from .verify import suite_pattern as _suite_pattern
from .verify import suite_remark as _suite_remark
from .verify import suite_theorem as _suite_theorem

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
# Subcommand handlers


def cmd_fib(args) -> int:
    value = fib(args.k)
    if args.json:
        _write_json(args, {"k": args.k, "value": value})
    else:
        print(value)
    return EXIT_OK


def cmd_identities(args) -> int:
    minimum = SUITE_SIZES["corollaries"][1]
    if args.max_n < minimum:
        raise ValueError(f"--max-n must be >= {minimum}, "
                         f"got {args.max_n}: corollary 4 starts at n = 6")
    lemma1, bad3, bad4 = identity_failures(args.max_n)
    if args.json:
        _write_json(args, {
            "max_n": args.max_n,
            "lemma1_pass": not lemma1,
            "lemma1_failures": lemma1,
            "corollary3_pass": not bad3,
            "corollary4_pass": not bad4,
        })
    else:
        print(f"lemma1 identities (n <= {args.max_n}): "
              f"{'PASS' if not lemma1 else 'FAIL ' + str(lemma1)}")
        for k, bad in ((3, bad3), (4, bad4)):
            print(f"corollary{k} identity (n <= {args.max_n}): "
                  f"{'PASS' if not bad else 'FAIL at ' + str(bad)}")
    return EXIT_VERIFY_FAILED if lemma1 or bad3 or bad4 else EXIT_OK


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
    rows = construct_w_matrix(args.n, args.det).to_rows()
    try:
        det, adj = adjugate_exact(rows)
    except SingularMatrixError:
        det, inverse, s = 0, None, None
    else:
        inverse = [[Fraction(x, det) for x in row] for row in adj]
        s = entry_sum(inverse)
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
    extra = {"remark": (args.count, args.seed),
             "gsampling": (args.samples, args.bound, args.seed)}
    sizes = suite_sizes(args.suite, args.n)
    check_options(args.samples, args.count, args.bound)
    checks = []
    for name, n in sizes.items():
        checks.extend(globals()[f"_suite_{name}"](n, *extra.get(name, ())))
    report = VerificationReport(args.suite, checks)
    if args.json:
        _write_json(args, report.to_json_dict())
    else:
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(check.parameters.items()))
            print(f"{status} {check.name} [{params}] {check.detail}")
        print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
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
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="size bound; meaning depends on the suite")
    p.add_argument("--count", type=int, default=200,
                   help=f"random checks for the remark suite, 1..{MAX_COUNT}")
    p.add_argument("--samples", type=int, default=1000,
                   help=f"samples per size for the gsampling suite, 1..{MAX_SAMPLES}")
    p.add_argument("--bound", type=int, default=16,
                   help=f"denominator bound for the gsampling suite, 1..{MAX_BOUND}")
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
