#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload flow-n4 --runs 10 [--first-seed 1]

For every end-to-end metric in BENCHMARK.json this prints the median and
the distance between the first and third quartile as a share of the median,
next to the metric's bound.  A steady benchmark keeps every spread well below
its bound.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
            f" failed={result['failed']} "
            + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True,
        )
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{metric['name']:<20} {med:>12.6g} {spread:>8.4f} {metric['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
