"""Summarize benchmark runs recorded by run.py.

    python3 bench/summarize.py bench/out/setA [bench/out/setB]

For each workload: the median and quartiles of every end-to-end metric over
the untraced runs in a directory, their spread (interquartile distance over
the median) against the metric's bound, and the median of every per-layer
metric over the traced runs.  The uncorrected round time and reference
slice time (see run.py) are shown beside the corrected metrics.  Given a
second directory, it also prints how far each end-to-end median moved from
the first set, against the bound.  Prints Markdown tables.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{(workload, trace): [record, ...]} for every run file in directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def values(records, metric) -> list:
    return [r["result"]["metrics"][metric]["value"] for r in records]


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    workloads = sorted({w for runs in sets for w, _ in runs})
    for label, runs in zip(argv, sets):
        print(f"\n### {label}\n")
        print("| workload | metric | runs | q1 | median | q3 | spread | bound | failed share |")
        print("|---|---|---|---|---|---|---|---|---|")
        for w in workloads:
            recs = runs.get((w, 0), [])
            if not recs:
                continue
            failed = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in recs})
            rows = [(f"{m['name']} ({m['unit']})", values(recs, m["name"]), m["bound"])
                    for m in spec["end_to_end"]]
            rows += [("uncorrected round wall (s)",
                      [statistics.median(r["round_wall_s"]) for r in recs], "-"),
                     ("reference slice (s)",
                      [statistics.median(x[0] for x in r["ref_slices"]) for r in recs], "-")]
            for name, xs, bound in rows:
                q1, med, q3 = quartiles(xs)
                print(f"| {w} | {name} | {len(recs)} | {q1:.4g} | {med:.4g} | {q3:.4g} | "
                      f"{(q3 - q1) / med:.3f} | {bound} | {failed} |")
    if len(sets) == 2:
        print("\n### median of the second set over the first\n")
        print("| workload | metric | change | bound |")
        print("|---|---|---|---|")
        for w in workloads:
            a, b = sets[0].get((w, 0)), sets[1].get((w, 0))
            if not a or not b:
                continue
            for m in spec["end_to_end"]:
                ma = statistics.median(values(a, m["name"]))
                mb = statistics.median(values(b, m["name"]))
                print(f"| {w} | {m['name']} | {mb / ma - 1:+.3f} | {m['bound']} |")
    traced = {w: sets[0].get((w, 1), []) for w in workloads}
    if any(traced.values()):
        print("\n### traced runs, median per round\n")
        shown = [w for w in workloads if traced[w]]
        print("| metric | unit | " + " | ".join(shown) + " |")
        print("|---|---|" + "---|" * len(shown))
        for m in spec["per_layer"]:
            cells = [f"{statistics.median(values(traced[w], m['name'])):.4g}" for w in shown]
            print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
        untraced = sets[0]
        cells = []
        for w in shown:
            if untraced.get((w, 0)):
                over = (statistics.median(values(traced[w], "trace.wall_s"))
                        - statistics.median(values(untraced[(w, 0)], "wall_s")))
                cells.append(f"{over:+.3f}")
            else:
                cells.append("n/a")
        print("| tracing overhead (traced minus untraced wall_s) | s | "
              + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
