#!/usr/bin/env python3
"""Run one benchmark workload against the package in this checkout.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

One single-threaded process runs a closed loop with one client: the next op
starts when the previous one has finished and been checked.  The loop runs
for --seconds of wall time (whole cycles for cli-mix, at least one op).
With --trace 1 it then replays the first ops of the same seed with every
layer's public functions traced, and reports per-layer metrics instead of
end-to-end ones.  The last line of stdout is the result JSON; the line
before it is a report with every figure and the stamp of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: fresh set-up processes per run; setup_s is their median
SETUP_PROBES = 11
#: repetitions of the field-table construction; fields.tables_s is their median
TABLE_REPEATS = 21


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["census", "witness", "sample", "cli-mix"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="0 runs the fewest ops")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package's sources, which identifies the code measured."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sdgqc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()


def probe_setup(workload: str, workdir: str) -> float:
    """Wall time of one fresh set-up process."""
    target = tempfile.mkdtemp(prefix="probe-", dir=workdir)
    t0 = time.perf_counter()
    # -S: the host's site-packages hooks are not the program's set-up
    subprocess.run([sys.executable, "-S", os.path.join(HERE, "setup_probe.py"), workload, target], check=True)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(target)
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sdgqc", "__init__.py")):
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sdgqc.cli
    import workloads
    from workloads import OK, WRONG

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, workloads.load_goldens())
        wl.write_inputs(workdir)
        sdgqc.cli.build_parser()

        min_ops = wl.trace_ops if args.trace else 1
        probes = 0 if args.trace else SETUP_PROBES
        latencies, setups, statuses, failures = [], [], Counter(), Counter()
        ops = wl.ops()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(latencies) < min_ops:
            # set-up probes are spread over the run, so that their median sees
            # the same spells of machine speed as the ops do
            share = (time.perf_counter() - start) / args.seconds if args.seconds else 1.0
            while len(setups) < min(probes, 1 + int(share * probes)):
                setups.append(probe_setup(args.workload, workdir))
            for _ in range(wl.ops_per_check):
                op = next(ops)
                elapsed, verdict = workloads.run_op(op)
                latencies.append(elapsed)
                statuses[verdict.status] += 1
                if verdict.status != OK:
                    failures[verdict.detail] += 1
        while len(setups) < probes:
            setups.append(probe_setup(args.workload, workdir))
        attempted = len(latencies)
        failed = attempted - statuses[OK]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": git_commit(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "ops": attempted,
            "loop": "closed, 1 client",
            "fail_frac": failed / attempted,
            "wrong": statuses[WRONG],
            "failures": dict(failures),
        }
        metrics = {"setup_s": (statistics.median(setups), "s")} if setups else {}
        metrics["ops_per_s"] = (statuses[OK] / sum(latencies), "1/s")
        metrics["op_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        if attempted >= 100:  # ten or more samples beyond the 90th percentile
            report["op_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1e3
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

        if args.trace:
            report["end_to_end"] = {k: v for k, (v, _) in metrics.items()}
            metrics = trace_pass(wl, latencies)
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps({
            "correct": statuses[WRONG] == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_pass(wl, latencies) -> dict:
    """Replay the first wl.trace_ops ops traced; per-layer metrics."""
    import sdgqc
    import spans
    from sdgqc.fields import Field
    from workloads import run_op

    tables = []
    for _ in range(TABLE_REPEATS):
        t0 = time.perf_counter()
        for q in (2, 4, 16):
            Field(q)
        tables.append(time.perf_counter() - t0)

    n = wl.trace_ops
    tracer = spans.Tracer()
    traced = []
    tracer.install(sdgqc)
    try:
        for index, op in zip(range(n), wl.ops()):
            tracer.op = index
            traced.append(run_op(op)[0])
    finally:
        tracer.uninstall()
    wall = sum(traced)
    metrics = spans.layer_metrics(tracer, n, wall)
    metrics["fields.tables_s"] = (statistics.median(tables), "s")
    metrics["trace.overhead_frac"] = (wall / sum(latencies[:n]) - 1, "ratio")
    tracer.write(os.path.join(OUT, f"spans-{wl.name}.csv.gz"))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
