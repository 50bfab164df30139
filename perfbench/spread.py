"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ordinary-paths,pbw-loci \
        --seeds 1-10 [--out FILE]

For every workload and metric: the median over the seeds and the
inter-quartile distance (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json.  Every
run is untraced and measures BENCHMARK.json's run_seconds; runs go one at
a time.  --out writes the raw results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True)
            if done.returncode:
                sys.exit("%s seed %d failed (%d):\n%s" % (workload, seed, done.returncode,
                                                         done.stderr[-2000:]))
            runs.append(json.loads(done.stdout.splitlines()[-1]))
            print("%s seed %d: %d ops, %d failed" % (workload, seed, runs[-1]["attempted"],
                                                     runs[-1]["failed"]), flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, s in summary.items():
            bound = bounds.get(name)
            print("  %-40s median %14.6f  spread %s%s" % (
                name, s["median"], "-" if s["spread"] is None else "%.4f" % s["spread"],
                "  bound %.2f (third %.3f)" % (bound, bound / 3) if bound else ""))
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        host = {"nproc": os.cpu_count(), "python": platform.python_version(),
                "seconds": seconds, "seeds": args.seeds}
        Path(args.out).write_text(json.dumps({"host": host, "workloads": report}, indent=1))


if __name__ == "__main__":
    main()
