"""Benchmark of the fibsum commands a researcher runs.

    python3 bench/run.py --workload tri-scan --seed 1 --seconds 10 --trace 0

Imports fibsum from ``src/`` of the checkout this file sits in and calls
``fibsum.cli.main`` in this process, with ``--jobs 1`` wherever the command
takes it, so no worker process starts while a round is timed.  A round runs
every command of the workload once; rounds repeat until ``--seconds`` have
passed, and timings are means over rounds.  Every command's JSON output
is checked afterwards by ``checks.py``, outside the timed window.

The host this runs on changes speed by up to 1.6x over minutes, which no
run length averages out.  So the benchmark interleaves a fixed amount of
reference work (``reference.py``) with the commands: before each command,
and after the last, it runs reference slices until they have taken
``REF_SHARE`` of the time the commands have taken so far.  The reported
times are corrected by it: each is divided by the mean reference slice of
its run and multiplied by ``REF_SLICE_S``, the slice's time at the speed the
benchmark calls nominal.  A time is then in seconds at nominal speed, and a
program change still moves it in full, since the reference does not use the
program.  The raw times are kept in the run's record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Each run also writes its result, round timings and run metadata (and, when
traced, the spans) to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
# Wall time of one reference slice on a 2-vCPU Xeon host at its usual
# speed: the nominal speed that the reported times are scaled to.
REF_SLICE_S = 0.16
# Reference time as a share of command time.  The slices are spread through
# the run in step with the commands, so they see the same mix of fast and
# slow spells.  None runs next to a setup sample: the slice after a fresh
# interpreter exits runs up to 1.8x slow.
REF_SHARE = 0.2

# Child process for setup_s: it prints the monotonic clock at the start of
# its own code, after numpy is imported, and after fibsum's CLI is imported.
SETUP_CHILD = """\
import sys, time
clock = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
t0 = clock()
import numpy
t1 = clock()
sys.path.insert(0, sys.argv[1])
import fibsum.cli
print(t0, t1, clock())
"""


def _enumerate(family: str, n: int) -> list:
    return ["enumerate", "--family", family, "--n", str(n), "--jobs", "1", "--json"]


def tri_scan(rng, small):
    return [(_enumerate("triangular", n), checks.check_triangular(n))
            for n in range(3, 6 if small else 8)]


def gen_scan(rng, small):
    n = 4 if small else 5
    return [(_enumerate("general", n), checks.check_general(n))]


def gen_scan_4(rng, small):
    n = 3 if small else 4
    return [(_enumerate("general", n), checks.check_general(n))]


def det_search(rng, small):
    restarts, max_steps = (10, 300) if small else (200, 300)
    ops = []
    for n in (4, 5) if small else (7, 8):
        for direction in ("max", "min"):
            seed = rng.randrange(1 << 31)
            argv = ["search", "--n", str(n), "--direction", direction,
                    "--restarts", str(restarts), "--max-steps", str(max_steps),
                    "--seed", str(seed), "--json"]
            ops.append((argv, checks.check_search(n, direction, restarts,
                                                  max_steps, seed)))
    w = 4 if small else 6
    ops.append((_enumerate("w", w), checks.check_w(w)))
    return ops


def verify_all(rng, small):
    samples, count, bound = (20, 20, 16) if small else (1000, 200, 16)
    seed = rng.randrange(1 << 31)
    argv = ["verify", "--suite", "all", "--samples", str(samples),
            "--count", str(count), "--bound", str(bound), "--seed", str(seed),
            "--json"]
    return [(argv, checks.check_verify(samples, count, bound, seed))]


WORKLOADS = {"tri-scan": tri_scan, "gen-scan": gen_scan, "gen-scan-4": gen_scan_4,
             "det-search": det_search, "verify-all": verify_all}


def load_fibsum():
    """Import fibsum from this checkout's src/, or exit with code 1."""
    sys.path.insert(0, str(SRC))
    try:
        import fibsum.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import fibsum from {SRC}: {exc}")
    if SRC.resolve() not in Path(fibsum.__file__).resolve().parents:
        sys.exit(f"bench: fibsum was imported from {fibsum.__file__}, not {SRC}")
    return fibsum


def measure_setup(samples: int) -> list:
    """(total, numpy import, fibsum import) seconds for fresh interpreters."""
    clock = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
    out = []
    for _ in range(samples):
        spawned = clock()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        t0, t1, t2 = map(float, proc.stdout.split())
        out.append((t2 - spawned, t1 - t0, t2 - t1))
    return out


def top_up(refs: list, command_s: float) -> None:
    """Run reference slices until they add up to REF_SHARE of command_s."""
    while sum(r[0] for r in refs) < REF_SHARE * command_s:
        refs.append(reference.measure())


def run_round(cli, ops, refs: list, before_s: float) -> tuple:
    """Run every command once; return (wall s, cpu s, [(exit code, stdout)]).

    before_s is the command time of the earlier rounds.  Reference slices
    run between the commands (see top_up); the times returned are the
    commands' alone.
    """
    results = []
    wall = cpu = 0.0
    for argv, _ in ops:
        top_up(refs, before_s + wall)
        buf = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        results.append((rc, buf.getvalue()))
    return wall, cpu, results


def evaluate(ops, rounds) -> tuple:
    """Check every command's output; return (attempted, failed, problems).

    A command fails when it raises or prints no JSON.  Identical commands
    must print identical text in every round, and each distinct text is
    checked once.
    """
    attempted = failed = 0
    problems = []
    for i, (argv, check) in enumerate(ops):
        texts = set()
        for results in rounds:
            rc, text = results[i]
            attempted += 1
            try:
                out = json.loads(text) if rc is not None else None
            except ValueError:
                out = None
            if out is None:
                failed += 1
                continue
            if text in texts:
                continue
            texts.add(text)
            try:
                found = check(rc, out)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError,
                    ZeroDivisionError) as exc:
                found = [f"malformed output: {exc!r}"]
            problems += [f"{' '.join(argv)}: {p}" for p in found]
        if len(texts) > 1:
            problems.append(f"{' '.join(argv)}: output differs between rounds")
    return attempted, failed, problems


def run_workload(fibsum, name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    ops = WORKLOADS[name](random.Random(seed), small)
    refs = []
    t = None
    if trace:
        from fibsum import construct, fibonacci, linalg, search
        t = tracer.install(fibsum, fibsum.cli, search, linalg, construct, fibonacci)
    walls, cpus, rounds, layers = [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            before = t.snapshot() if t else None
            wall, cpu, results = run_round(fibsum.cli, ops, refs, sum(walls))
            if t:
                after = t.snapshot()
                layers.append(tracer.layer_metrics(
                    *({k: v - old.get(k, 0) for k, v in new.items()}
                      for new, old in zip(after, before))))
            walls.append(wall)
            cpus.append(cpu)
            rounds.append(results)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if t:
            t.restore()
    top_up(refs, sum(walls))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = measure_setup(SETUP_SAMPLES)
    attempted, failed, problems = evaluate(ops, rounds)
    ref_wall = statistics.mean(r[0] for r in refs)
    wall_scale = REF_SLICE_S / ref_wall
    cpu_scale = REF_SLICE_S / statistics.mean(r[1] for r in refs)
    if trace:
        metrics = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        metrics["trace.wall_s"] = statistics.mean(walls) * wall_scale
        metrics["setup.import_numpy_s"] = statistics.median(s[1] for s in setup)
        metrics["setup.import_fibsum_s"] = statistics.median(s[2] for s in setup)
        metrics["machine.ref_slice_s"] = ref_wall
    else:
        metrics = {"wall_s": statistics.mean(walls) * wall_scale,
                   "cpu_s": statistics.mean(cpus) * cpu_scale,
                   "setup_s": statistics.median(s[0] for s in setup) * wall_scale,
                   "peak_rss_mb": peak_rss_mb}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "round_wall_s": walls,
            "round_cpu_s": cpus, "setup_s": setup, "ref_slices": refs,
            "spans": t.spans if t else None}


def metadata() -> dict:
    import numpy

    commit = "unknown"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = ((ROOT / ".git" / head[5:]).read_text().strip()
                  if head.startswith("ref: ") else head)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpus": os.cpu_count(),
            "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    fibsum = load_fibsum()
    run = run_workload(fibsum, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    if set(run["metrics"]) != {m["name"] for m in declared}:
        sys.exit("bench: measured metrics differ from BENCHMARK.json")
    for problem in run["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {m["name"]: {"value": run["metrics"][m["name"]],
                                      "unit": m["unit"]} for m in declared}}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "meta": metadata(), "result": result,
              **{k: run[k] for k in ("problems", "round_wall_s", "round_cpu_s",
                                     "setup_s", "ref_slices", "spans")}}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
