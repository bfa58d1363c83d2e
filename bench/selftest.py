"""Self-test of the benchmark: the checkers reject planted faults, and a
small run of every workload completes, untraced and traced.

    python3 bench/selftest.py

Prints one line per case and exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction

import checks
import run


def outputs(fibsum, ops) -> list:
    _, _, results = run.run_round(fibsum.cli, ops, [], 0.0)
    return [json.loads(text) for _, text in results]


def non_minimal_tri_witness(out: dict) -> dict:
    """Replace one witness by a larger word with the same inverse sum."""
    n = out["n"]
    seen = {}
    for word in range(1 << (n * (n - 1) // 2)):
        rows = checks.tri_rows(n, word)
        s = checks.inverse_sum(rows)
        if s in seen:
            bad = copy.deepcopy(out)
            bad["witnesses"][str(s)] = rows
            return bad
        seen[s] = word
    raise AssertionError("every sum has a single matrix")


def non_minimal_gen_witness(out: dict) -> dict:
    bad = copy.deepcopy(out)
    key = next(iter(bad["witnesses"]))
    bad["witnesses"][key] = bad["witnesses"][key][::-1]
    return bad


def plus_one_count(out: dict) -> dict:
    bad = copy.deepcopy(out)
    key = next(iter(bad["counts"]))
    bad["counts"][key] += 1
    return bad


def wrong_best_sum(out: dict) -> dict:
    bad = copy.deepcopy(out)
    bad["best_sum"] = str(Fraction(str(out["best_sum"])) + 1)
    return bad


def not_local_optimum(out: dict) -> dict:
    """Swap in I + e_01, whose inverse sum n - 1 rises to n by clearing (0,1)."""
    assert out["direction"] == "max"
    bad = copy.deepcopy(out)
    n = out["n"]
    bad["matrix"] = [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                     for i in range(n)]
    bad["best_sum"] = n - 1
    bad["steps_taken"] = 0
    return bad


def missing_check(out: dict) -> dict:
    bad = copy.deepcopy(out)
    bad["checks"] = bad["checks"][:-1]
    bad["passed"] -= 1
    return bad


def main() -> int:
    fibsum = run.load_fibsum()
    ok = True

    def expect(label: str, problems: list, want_rejected: bool) -> None:
        nonlocal ok
        good = bool(problems) == want_rejected
        ok &= good
        verdict = "rejected" if problems else "accepted"
        print(f"{'PASS' if good else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    tri = outputs(fibsum, run.tri_scan(None, small=True))[-1]
    gen = outputs(fibsum, run.gen_scan(None, small=True))[0]
    search_ops = run.det_search(random.Random(1), small=True)
    found = outputs(fibsum, search_ops)
    verify_ops = run.verify_all(random.Random(1), small=True)
    report = outputs(fibsum, verify_ops)[0]

    tri_check = checks.check_triangular(tri["n"])
    gen_check = checks.check_general(gen["n"])
    search_check = search_ops[0][1]
    w_check = search_ops[-1][1]
    verify_check = verify_ops[0][1]

    expect("triangular output as printed", tri_check(0, tri), False)
    expect("triangular count off by one", tri_check(0, plus_one_count(tri)), True)
    expect("triangular non-minimal witness",
           tri_check(0, non_minimal_tri_witness(tri)), True)
    expect("general output as printed", gen_check(0, gen), False)
    expect("general count off by one", gen_check(0, plus_one_count(gen)), True)
    expect("general non-minimal witness",
           gen_check(0, non_minimal_gen_witness(gen)), True)
    expect("search output as printed", search_check(0, found[0]), False)
    expect("search wrong best sum", search_check(0, wrong_best_sum(found[0])), True)
    expect("search result not a local optimum",
           search_check(0, not_local_optimum(found[0])), True)
    expect("(1,2) output as printed", w_check(0, found[-1]), False)
    expect("(1,2) count off by one", w_check(0, plus_one_count(found[-1])), True)
    expect("verify report as printed", verify_check(0, report), False)
    expect("verify report with a check missing",
           verify_check(0, missing_check(report)), True)
    expect("verify exit code 2", verify_check(2, report), True)

    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(fibsum, name, seed=1, seconds=0,
                                      trace=trace, small=True)
            good = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} small {name} run"
                  f"{' traced' if trace else ''}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, problems {result['problems']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
