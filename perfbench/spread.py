#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds N]

Runs perfbench/run.py once per seed and workload, one run at a time, and
prints for every end-to-end metric the median of the runs and the spread:
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. BENCHMARK.json bounds every metric's
regression; a benchmark is steady when each spread, setup_s aside, stays
below a third of its bound. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if res.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {res.returncode})\n{res.stderr[-2000:]}")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"  {workload:18s} {name:16s} median {med:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:.2f}  "
                  f"{'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
