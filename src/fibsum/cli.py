"""fibsum: construction, inversion, enumeration, search and verification.

Exit codes: 0 success, 1 invalid arguments, 2 verification failure,
3 I/O failure.  `--json` switches any subcommand to machine-readable
output, and `--out PATH` writes the output, text or JSON, to PATH instead
of standard output.  Identical invocations (including seeds) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .construct import (CONSTRUCT_MAX_N, _check_size, construct_w_matrix,
                        construct_with_sum, extremal_pattern_matrix)
from .fibonacci import fib
from .linalg import entry_sum, invert_unit_triangular
from .matrixio import (MatrixFormatError, format_matrix, format_scalar,
                       json_scalar, parse_matrix)
from .search import (GENERAL_MAX_N, SEARCH_MAX_N, SEARCH_MAX_RESTARTS,
                     SEARCH_MAX_STEPS, TRIANGULAR_MAX_N, SearchConfig,
                     SearchExhaustedError, enumerate_general,
                     enumerate_triangular, enumerate_w_determinants,
                     hill_climb_general)
from .verify import (MAX_BOUND, MAX_COUNT, MAX_SAMPLES, SUITES,
                     VerificationReport, check_options, suite_sizes)
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


def _rows_json(rows):
    return [[json_scalar(x) for x in row] for row in rows]


def _write(args, text: str) -> None:
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload: dict) -> None:
    _write(args, json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
#
# Each handler returns (exit code, JSON payload, text) and writes nothing:
# `main` writes the payload under --json and the text otherwise.


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _with_inverse(head: dict, rows, inverse) -> tuple:
    s = entry_sum(inverse)
    return (EXIT_OK, {**head, "matrix": rows, "inverse": inverse, "sum": s},
            format_matrix(rows) + f"# inverse entry sum = {s}\n")


def cmd_fib(args) -> tuple:
    value = fib(args.k)
    return EXIT_OK, {"k": args.k, "value": value}, f"{value}\n"


def cmd_invert(args) -> tuple:
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    # Refused from the dimension line, before any row is parsed.
    rows = parse_matrix(text, _check_size)
    inverse = invert_unit_triangular(rows)
    s = entry_sum(inverse)
    payload = {
        "n": len(rows),
        "matrix": _rows_json(rows),
        "inverse": _rows_json(inverse),
        "sum": json_scalar(s),
    }
    return EXIT_OK, payload, format_matrix(inverse) + f"# entry sum = {format_scalar(s)}\n"


def cmd_construct(args) -> tuple:
    rows = construct_with_sum(args.n, args.sum).rows()
    return _with_inverse({"n": args.n}, rows, invert_unit_triangular(rows))


def cmd_extremal(args) -> tuple:
    matrix, predicted = extremal_pattern_matrix(args.n, args.l)
    return _with_inverse({"n": args.n, "l": args.l}, matrix.rows(), predicted)


def cmd_wmatrix(args) -> tuple:
    matrix = construct_w_matrix(args.n, args.det)
    rows = matrix.to_rows()
    det, inverse = matrix.det_and_inverse()
    payload = {"n": args.n, "matrix": rows, "det": det, "inverse": None, "sum": None}
    if inverse is not None:
        # W = J + L with S(L^{-1}) = det - 1, so Sherman-Morrison gives
        # S(W^{-1}) = S(L^{-1}) - S(L^{-1})^2 / det = (det - 1) / det.
        payload.update(inverse=_rows_json(inverse),
                       sum=json_scalar(Fraction(det - 1, det)))
    return EXIT_OK, payload, format_matrix(rows) + f"# determinant = {det}\n"


def cmd_enumerate(args) -> tuple:
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    scan = {"triangular": enumerate_triangular, "general": enumerate_general,
            "w": enumerate_w_determinants}[args.family]
    dist = scan(args.n)
    payload = dist.to_json_dict(include_witnesses=not args.no_witnesses)
    text = _lines([f"family {dist.family}  n {dist.n}  matrices {dist.total}",
                   f"min {payload['min']}  max {payload['max']}",
                   "sum count",
                   *(f"{format_scalar(s)} {dist.counts[s]}" for s in dist.achieved)])
    return EXIT_OK, payload, text


def cmd_search(args) -> tuple:
    config = SearchConfig(n=args.n, direction=args.direction,
                          restarts=args.restarts, max_steps=args.max_steps,
                          seed=args.seed)
    result = hill_climb_general(config)
    payload = {
        "n": args.n,
        "direction": args.direction,
        "restarts": args.restarts,
        "max_steps": args.max_steps,
        "seed": args.seed,
        "best_sum": json_scalar(result.best_sum),
        "steps_taken": result.steps_taken,
        "restarts_used": result.restarts_used,
        "matrix": [list(r) for r in result.best_matrix],
    }
    text = (format_matrix(result.best_matrix)
            + f"# inverse entry sum = {format_scalar(result.best_sum)}\n"
            + f"# steps = {result.steps_taken}, restarts = {result.restarts_used}\n")
    return EXIT_OK, payload, text


def cmd_verify(args) -> tuple:
    extra = {"remark": (args.count, args.seed),
             "gsampling": (args.samples, args.bound, args.seed)}
    sizes = suite_sizes(args.suite, args.n)
    check_options(args.samples, args.count, args.bound, args.seed)
    checks = []
    for name, n in sizes.items():
        checks.extend(globals()[f"_suite_{name}"](n, *extra.get(name, ())))
    report = VerificationReport(args.suite, checks)
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(check.parameters.items()))
        lines.append(f"{status} {check.name} [{params}] {check.detail}")
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return (EXIT_OK if report.all_pass else EXIT_VERIFY_FAILED,
            report.to_json_dict(), _lines(lines))


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--version", action="version",
                        version=f"fibsum {__version__}")
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")

    parser = _Parser(prog="fibsum", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"fibsum {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    p = sub.add_parser("fib", parents=[common], help="print a Fibonacci number")
    p.add_argument("k", type=int, help="index (F_1 = F_2 = 1)")
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("invert", parents=[common],
                       help="invert a unit triangular matrix from matrix text")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="read matrix text from PATH instead of stdin")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("construct", parents=[common],
                       help="construct a matrix with a prescribed inverse sum")
    p.add_argument("--n", type=int, required=True,
                   help=f"matrix size, 3..{CONSTRUCT_MAX_N}")
    p.add_argument("--sum", type=int, required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("extremal", parents=[common],
                       help="banded extremal matrix with Fibonacci-patterned inverse")
    p.add_argument("--n", type=int, required=True,
                   help=f"matrix size, 5..{CONSTRUCT_MAX_N}")
    p.add_argument("--l", type=int, choices=(2, 3), required=True)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("wmatrix", parents=[common],
                       help="(1,2)-matrix with a prescribed determinant")
    p.add_argument("--n", type=int, required=True,
                   help=f"matrix size, 3..{CONSTRUCT_MAX_N}")
    p.add_argument("--det", type=int, required=True)
    p.set_defaults(func=cmd_wmatrix)

    p = sub.add_parser("enumerate", parents=[common],
                       help="exhaustive scan of a matrix family")
    p.add_argument("--family", choices=("triangular", "general", "w"),
                   required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"matrix size, 3..{TRIANGULAR_MAX_N} for triangular and w, "
                        f"3..{GENERAL_MAX_N} for general")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for existing scripts and must be >= 1, but "
                        "has no effect: every family runs in one process")
    p.add_argument("--no-witnesses", action="store_true",
                   help="omit witness matrices from the report")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search", parents=[common],
                       help="hill-climb the general (0,1) family")
    p.add_argument("--n", type=int, required=True,
                   help=f"matrix size, 3..{SEARCH_MAX_N}")
    p.add_argument("--direction", choices=("max", "min"), required=True)
    p.add_argument("--restarts", type=int, default=200,
                   help=f"random start matrices, 1..{SEARCH_MAX_RESTARTS}")
    p.add_argument("--max-steps", type=int, default=300, dest="max_steps",
                   help=f"improving flips per restart, 1..{SEARCH_MAX_STEPS}")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random start matrices, >= 0")
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
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the remark and gsampling draws, >= 0")
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
        code, payload, text = args.func(args)
        if args.json:
            _write_json(args, payload)
        else:
            _write(args, text)
        return code
    except (MatrixFormatError, OSError) as exc:
        print(f"fibsum: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, SearchExhaustedError) as exc:
        print(f"fibsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
