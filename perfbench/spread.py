#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each chosen
workload and prints, per metric, the median of the values, their
interquartile range as a share of the median (Python's
statistics.quantiles with n=4), and whether that spread stays below a
third of the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads wallet,heavy --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True)
            record = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not record["correct"] or record["failed"]:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            for name, m in record["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in record["metrics"].items()), flush=True)
        print(f"\n{workload}: {'metric':<34} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ok = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            limit = "-" if bound is None else f"{bound / 3:.3f}"
            print(f"{workload}: {name:<34} {med:>12.4f} {spread:>8.3f} {limit:>8} {ok}")
        print()
    print(f"widest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
