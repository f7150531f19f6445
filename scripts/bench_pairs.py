#!/usr/bin/env python3
"""Run bench/run.py in two checkouts, alternating, and compare the runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload cli-mix

Pair i runs seed --seed + i in both checkouts, the parent first in even
pairs and the change first in odd ones; each run lasts --seconds, by
default BENCHMARK.json's run_seconds.  For each end-to-end metric of
BENCHMARK.json it prints both medians, the parent's quartiles, the ratio
change/parent of the medians, the number of pairs the change won (ties
count for neither side) and a verdict against the metric's relative bound:

- worse beyond bound: the change's median trails the parent's by more than
  the bound;
- unresolved: the parent's IQR exceeds the bound times its median, and the
  change did not win every pair;
- within bound: otherwise.

It exits 1 if any run reports wrong outputs or a failed op, and 2 if a run
does not finish.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_benchmark() -> tuple:
    """(run_seconds, metrics) from one read of BENCHMARK.json: the length of
    the benchmark's runs, and {metric name: (direction, bound)} over its
    end-to-end metrics, with direction "higher" or "lower", whichever is
    better, and bound the largest relative loss allowed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["run_seconds"], {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line (the last line of stdout) of one bench/run.py run."""
    argv = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(pairs: list, metrics: dict) -> tuple:
    """(report lines, whether every run was correct with no failed op) for a
    list of (parent result, change result) pairs."""
    lines = []
    for name, (direction, bound) in metrics.items():
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                  if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        parent, change = (statistics.median(side) for side in zip(*values))
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in values)
        q1, _, q3 = statistics.quantiles([p for p, _ in values], n=4) if len(values) > 1 else (parent,) * 3
        ratio = change / parent if parent else float("nan")
        if sign * (change - parent) < -bound * abs(parent):
            verdict = "worse beyond bound"
        elif q3 - q1 > bound * abs(parent) and won < len(values):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        lines.append(f"{name}: parent {parent:.6g} (quartiles {q1:.6g}-{q3:.6g}, IQR {q3 - q1:.4g}), "
                     f"change {change:.6g}, ratio {ratio:.4f}, change better in {won}/{len(values)} pairs; {verdict}")
    runs = [r for pair in pairs for r in pair]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    lines.append(f"runs with wrong outputs or failed ops: {len(bad)}/{len(runs)}")
    return lines, not bad


def main(argv=None) -> int:
    run_seconds, metrics = read_benchmark()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="length of each run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    pairs = []
    try:
        for i in range(args.pairs):
            got = [None, None]
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                got[side] = run_once((args.parent, args.change)[side], args.workload, args.seed + i,
                                     args.seconds)
            pairs.append(tuple(got))
            print(f"pair {i + 1} (seed {args.seed + i}) parent/change: " + ", ".join(
                f"{k} {got[0]['metrics'][k]['value']:.6g}/{got[1]['metrics'][k]['value']:.6g}"
                for k in got[0]["metrics"] if k in got[1]["metrics"]), file=sys.stderr)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    lines, ok = summarize(pairs, metrics)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
