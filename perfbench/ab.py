#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts with the same benchmark.

    python3 perfbench/ab.py PARENT_DIR CHANGE_DIR [--pairs 10]

Each directory is a source checkout holding this benchmark under
perfbench/; each side builds there on its first run. The benchmark files
must be identical on both sides, so both commits are measured by the same
code and settings: every workload in BENCHMARK.json, its run_seconds,
and the seeds SEED_BASE, SEED_BASE + 1, ... For every workload the runner
makes --pairs pairs of runs, one per seed, alternating which side runs
first, and prints for every end-to-end metric:

  - each side's median and quartiles over its runs;
  - the change's win fraction: pairs where it read better, ties counting
    for neither;
  - the parent's own interquartile spread;
  - a verdict: "gain" when the change wins at least 9 of 10 pairs and the
    medians differ by more than the parent's spread; "regression" when
    the change's median is worse than the parent's by more than the
    metric's bound in BENCHMARK.json; "unresolved" when the parent's
    spread is wider than that bound (unless every change run beats every
    parent run); otherwise "same".

tools/bench_diff.py remains the gate for events/sim_ticks drift; this
runner compares host-time metrics only.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 1000


def bench_digest(checkout):
    """Hash of the benchmark's own files in @p checkout."""
    h = hashlib.sha256()
    root = os.path.join(checkout, "perfbench")
    if not os.path.isdir(root):
        raise SystemExit("ab: %s has no perfbench/ directory" % checkout)
    for dirpath, dirnames, files in sorted(os.walk(root)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    with open(os.path.join(checkout, "BENCHMARK.json"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit("ab: %s failed on %s seed %d" %
                         (checkout, workload, seed))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(spec, a_runs, b_runs):
    """Per-metric statistics of paired runs (lists of metric dicts)."""
    out = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        a = [r[name] for r in a_runs]
        b = [r[name] for r in b_runs]
        sign = 1.0 if higher else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        spread = a_q3 - a_q1
        worse = -sign * (b_med - a_med) / a_med if a_med else 0.0
        if wins >= 0.9 * len(a) and sign * (b_med - a_med) > spread:
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "regression"
        elif a_med and spread / abs(a_med) > m["bound"] and \
                not min(sign * y for y in b) > max(sign * x for x in a):
            verdict = "unresolved"
        else:
            verdict = "same"
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {"q1": a_q1, "median": a_med, "q3": a_q3, "runs": a},
            "change": {"q1": b_q1, "median": b_med, "q3": b_q3, "runs": b},
            "win_fraction": wins / len(a),
            "parent_iqr": spread,
            "delta": (b_med - a_med) / a_med if a_med else 0.0,
            "verdict": verdict,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    opts = ap.parse_args()
    if opts.pairs < 10:
        ap.error("--pairs must be at least 10")

    parent = os.path.abspath(opts.parent)
    change = os.path.abspath(opts.change)
    if bench_digest(parent) != bench_digest(change):
        raise SystemExit("ab: the benchmark differs between the two "
                         "checkouts; measure both with identical benchmark "
                         "code")
    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        # An untimed first run on each side absorbs the build.
        for side in (parent, change):
            run(side, workload, SEED_BASE - 1, 1)
        a_runs, b_runs = [], []
        for i in range(opts.pairs):
            seed = SEED_BASE + i
            order = ((parent, a_runs), (change, b_runs))
            for side, runs in (order if i % 2 == 0 else order[::-1]):
                runs.append(run(side, workload, seed, seconds))
            print("%s pair %d/%d done" % (workload, i + 1, opts.pairs),
                  file=sys.stderr, flush=True)
        report[workload] = compare(spec, a_runs, b_runs)

    print("%-12s %-12s %12s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "parent_med", "change_med", "parent_iqr",
        "delta", "wins", "verdict"))
    for workload, metrics in report.items():
        for name, r in metrics.items():
            print("%-12s %-12s %12.5g %12.5g %12.5g %+7.2f%% %8.2f  %s" % (
                workload, name, r["parent"]["median"],
                r["change"]["median"], r["parent_iqr"], 100 * r["delta"],
                r["win_fraction"], r["verdict"]))
    return 1 if any(r["verdict"] == "regression" for m in report.values()
                    for r in m.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
