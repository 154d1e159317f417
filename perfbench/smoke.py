#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload with --trace 0 and with --trace 1 for a couple of ops
and checks that each run is correct, that its JSON line carries exactly the
end-to-end or per-layer metrics of BENCHMARK.json with their units, and that
the report lines print all eight end-to-end metrics, the two failure
fractions included, and the run-wide minimum gate margin.  It also checks
that the tracer refuses to start when a name it must wrap is missing.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPORTED_END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "ops_failed_frac": "frac",
    "gates_failed_frac": "frac",
    "gate_margin_dec": "dec",
    "gate_margin_min_dec": "dec",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class SmokeFailure(Exception):
    pass


def check(cond: bool, message: str):
    if not cond:
        raise SmokeFailure(message)


def run_workload(spec: dict, workload: str, trace: int):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    check(out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}")
    check(result["correct"] is True, f"{where}: run not correct\n{out.stdout}")
    check(result["attempted"] >= 2, f"{where}: only {result['attempted']} ops")
    want = spec["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == {m["name"]: m["unit"] for m in want}, f"{where}: metrics differ from BENCHMARK.json")
    if not trace:
        reported = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3 and parts[0] in REPORTED_END_TO_END:
                reported[parts[0]] = parts[2]
        check(reported == REPORTED_END_TO_END, f"{where}: report lines give {reported}")
    print(f"ok  {where}: {result['attempted']} ops, {result['failed']} failed")


def check_missing_names():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import tracer

    fake = types.ModuleType("biflow.flows")
    fake.__all__ = ["renamed_away"]
    try:
        list(tracer._targets("flows", fake))
    except tracer.TraceSetupError:
        pass
    else:
        raise SmokeFailure("tracer accepted a missing __all__ name")

    saved = tracer.REQUIRED
    tracer.REQUIRED = saved + ("laurent.renamed_away",)
    try:
        tracer.Tracer()
    except tracer.TraceSetupError:
        pass
    else:
        raise SmokeFailure("tracer accepted a missing required name")
    finally:
        tracer.REQUIRED = saved
    print("ok  tracer refuses missing names")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_missing_names()
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                run_workload(spec, workload, trace)
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
