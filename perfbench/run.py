#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the biflow experiment driver.

    python3 perfbench/run.py --workload flow-n4 --seed 7 --seconds 35 --trace 0

One closed-loop client in one process and one thread: each op is issued
only after the previous one returns.  An op is one experiment verdict: one
call of the public entry point ``biflow.cli.main(argv)``, or for
``checks-n8`` a fixed battery of calls, with a seed derived from ``--seed``
and the op index.  The library receives only the generated argv.  It is
imported from ``src/`` of the checkout this file sits in, and every file
the run writes goes under ``.perfbench-work/`` of that checkout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops and reports per-layer metrics from the spans (see
tracer.py).  Every op's output is checked: exit 0 must hold exactly when
every gate in the JSON the CLI wrote passes, and the first op is rerun and
its outputs compared byte for byte.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the client is single-threaded and each op is pinned to
# one CPU, so more threads could only oversubscribe it.  Set before numpy is
# imported, whatever the environment says, so that results compare.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

# Per-op CLI arguments of each workload; --seed and --out are appended.
WORKLOADS = {
    # The headline experiment.  ~93% of an op is invariant monitoring
    # (invariants, laurent, matcore); RK4 is the rest and the cli layer
    # writes a CSV every op.  Never touches factorization.
    "flow-n4": [["flow", "--n", "4", "--k", "2", "--l", "0", "--t", "0.25", "--h", "1e-3"]],
    # Half RK4 reference runs at h=1e-4 (flows, symmetrizer), half circle
    # work (factorization, laurent) on a 320x320 Toeplitz system.  Never
    # touches invariant monitoring.
    "factorize-n8": [["factorize", "--n", "8", "--k", "2", "--l", "0", "--t", "0.5"]],
    # Wide-loop brackets, numerical rank and RK4 on a complex PDE vector.
    # At n=8 three gates are known to fail (numerical rank); the benchmark
    # reports that as measured.
    "checks-n8": [
        [experiment, "--n", "8"]
        for experiment in ("invariants", "commute", "lemma41", "findim", "pde")
    ],
}

MAX_OPS = 1000  # op seeds are seed * MAX_OPS + index
MIN_OPS = 2  # a trace run needs one traced and one untraced op
# Set-up probes per run: half before the timed loop and half after it, so
# that a run samples the host at two moments.  Each half is even, which
# splits it evenly over two CPUs.
SETUP_REPEATS = 12
TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops beyond it

# End-to-end metrics of the JSON line with --trace 0.  The report lines also
# print REPORT_ONLY_UNITS, which are left out of the JSON line:
# - op_s_p50 and op_s_tail: in a closed loop ops_per_s carries the op time,
#   and on a shared host their run-to-run spreads were wider (op_s_tail
#   most on factorize-n8, where it is a low percentile of ~14 ops);
# - ops_failed_frac and gates_failed_frac are zero on healthy workloads, so
#   the JSON line gives ops as attempted/failed and gates as
#   gates_passed_frac;
# - gate_margin_min_dec, the run-wide minimum margin, drifts with the seed
#   and with how many ops fit in the run; gate_margin_dec is the median over
#   ops of each op's worst passing-gate margin.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "gates_passed_frac": "frac",
    "gate_margin_dec": "dec",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
REPORT_ONLY_UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_failed_frac": "frac",
    "gates_failed_frac": "frac",
    "gate_margin_min_dec": "dec",
}

PER_LAYER_FUNCTIONS = (
    "invariants.hamiltonian.self_s",
    "invariants.spectral_coeffs.self_s",
    "laurent.mul.calls",
    "laurent.mul.self_s",
    "matcore.eigenvalues_sym.self_s",
    "matcore.char_poly.calls",
    "matcore.SymMatrix.full.calls",
    "factorization.expm.calls",
    "laurent.LaurentLoop.evaluate.calls",
    "factorization.birkhoff.self_s",
    "factorization.circle_symmetry_residual.self_s",
    "matcore.numerical_rank.calls",
    "invariants.integral_independence_rank.self_s",
    "laurent.rbracket.self_s",
    "flows.rk4_path.self_s",
)
PER_LAYER_COUNTERS = {
    "flows.rk4_steps": "count",
    "flows.rk4_useful_frac": "frac",
    "symmetrizer.table_builds": "count",
    "symmetrizer.entries_used_frac": "frac",
    "factorization.birkhoff.depth": "count",
    "factorization.birkhoff.doublings": "count",
    "factorization.birkhoff.residual": "norm",
    "factorization.birkhoff.tail": "norm",
    "factorization.sample_exp.aliasing": "norm",
    "trace.coverage_frac": "frac",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{m: "s" if m.endswith(".self_s") else "count" for m in PER_LAYER_FUNCTIONS},
    **PER_LAYER_COUNTERS,
}


@dataclass
class Op:
    index: int
    seed: int
    out: Path
    calls: list[list[str]]


@dataclass
class OpResult:
    traced: bool
    wall: float
    failed: bool = False
    errors: list[str] = field(default_factory=list)
    gates: int = 0
    gates_failed: int = 0
    margins: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def make_op(workload: str, seed: int, index: int, out: Path) -> Op:
    op_seed = seed * MAX_OPS + index
    calls = [
        base + ["--seed", str(op_seed), "--out", str(out)] for base in WORKLOADS[workload]
    ]
    return Op(index, op_seed, out, calls)


def make_ops(workload: str, seed: int, work: Path) -> list[Op]:
    return [make_op(workload, seed, i, work / "ops" / str(i)) for i in range(MAX_OPS)]


# -- one op -------------------------------------------------------------------


def run_op(cli_main, op: Op) -> tuple[float, list[int | None], list[str]]:
    """Issue every CLI call of an op; returns wall seconds, exit codes, errors."""
    codes: list[int | None] = []
    errors: list[str] = []
    sink = io.StringIO()
    start = time.perf_counter()
    for argv in op.calls:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli_main(argv))
        except Exception as exc:  # an escaped error is a failed op, not a failed run
            codes.append(None)
            errors.append(type(exc).__name__)
    return time.perf_counter() - start, codes, errors


def check_op(op: Op, traced: bool, wall: float, codes, errors) -> OpResult:
    """Read the JSON summaries the op wrote and check them against exit codes."""
    res = OpResult(traced, wall, errors=errors)
    res.failed = bool(errors) or any(code != 0 for code in codes)
    for argv, code in zip(op.calls, codes):
        if code is None:
            continue
        experiment = argv[0]
        path = op.out / f"{experiment}.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            res.problems.append(f"op {op.index}: {experiment} summary unreadable ({exc})")
            continue
        if data.get("experiment") != experiment or data["config"]["seed"] != op.seed:
            res.problems.append(f"op {op.index}: {path.name} is not this op's summary")
        tolerances = set(data["config"]["tolerances"].values())
        all_pass = True
        for gate in data["gates"]:
            res.gates += 1
            all_pass &= gate["pass"]
            res.gates_failed += not gate["pass"]
            # Tolerance gates (value <= tol) carry a configured tolerance;
            # exact gates (counts, ranks, flags) carry the wanted value.
            if gate["tol"] in tolerances and gate["value"] <= gate["tol"]:
                res.margins.append(_margin(gate["value"], gate["tol"]))
        if all_pass != data["pass"] or code not in (0, 1) or (code == 0) != all_pass:
            res.problems.append(
                f"op {op.index}: {experiment} exited {code} with gates passing={all_pass}"
            )
    return res


def _margin(value: float, tol: float) -> float:
    """Decades between a passing gate value and its tolerance, capped at 16."""
    if value <= 0.0:
        return 16.0
    return min(16.0, math.log10(tol / value))


def compare_outputs(first: Path, rerun: Path) -> list[str]:
    """Byte-for-byte comparison of two output directories, minus CSV version lines."""
    names_a = sorted(p.name for p in first.iterdir()) if first.is_dir() else []
    names_b = sorted(p.name for p in rerun.iterdir()) if rerun.is_dir() else []
    if names_a != names_b:
        return [f"rerun wrote {names_b}, first op wrote {names_a}"]
    problems = []
    for name in names_a:
        a = (first / name).read_bytes()
        b = (rerun / name).read_bytes()
        if name.endswith(".csv"):
            a, b = a.split(b"\n", 1)[-1], b.split(b"\n", 1)[-1]
        if a != b:
            problems.append(f"rerun of op 0 differs in {name}")
    return problems


# -- the run ------------------------------------------------------------------


def timed_loop(cli_main, ops: list[Op], seconds: float, tracer: Tracer | None):
    """Closed loop over ops until the time is up; with a tracer, even ops are traced.

    Ops run pinned to the usable CPUs in turn, two ops per CPU, so that a
    traced op and the untraced op after it share a CPU.  On a shared host
    the CPUs slow down independently, and a process left alone stays on one
    of them for the whole run; rotating makes every run sample all of them,
    which halved the run-to-run spread of op_s_p50 on a 2-CPU VM.
    """
    results: list[OpResult] = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    deadline = start + seconds
    for op in ops:
        if len(results) >= MIN_OPS and time.perf_counter() >= deadline:
            break
        os.sched_setaffinity(0, {cpus[op.index // 2 % len(cpus)]})
        traced = tracer is not None and op.index % 2 == 0
        if traced:
            tracer.install(op.index)
        wall = 0.0
        try:
            wall, codes, errors = run_op(cli_main, op)
        finally:
            if traced:
                tracer.uninstall(wall)
        results.append(check_op(op, traced, wall, codes, errors))
        if op.index > 0:
            shutil.rmtree(op.out, ignore_errors=True)
    elapsed = time.perf_counter() - start
    os.sched_setaffinity(0, cpus)
    return results, elapsed


def measure_setup(args, repeats: int) -> list[float]:
    """Wall seconds from starting a fresh interpreter until it is ready to issue ops.

    Each probe is this run's own command line plus ``--setup-probe``.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    for i in range(repeats):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # the probe inherits it
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    os.sched_setaffinity(0, cpus)
    return times


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND values beyond it.

    Returns (value, percentile, values beyond).  With fewer than
    TAIL_BEYOND + 1 values no percentile qualifies; the smallest value is
    returned and the count beyond it says so.
    """
    ordered = sorted(values)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def end_to_end(results, elapsed, setup_times, peak_rss_mib) -> tuple[dict, dict]:
    walls = [r.wall for r in results]
    gates = sum(r.gates for r in results)
    gates_failed = sum(r.gates_failed for r in results)
    worst = [min(r.margins) for r in results if r.margins]
    tail_s, tail_pct, beyond = tail(walls)
    values = {
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_s,
        "ops_per_s": len(results) / elapsed,
        "gates_passed_frac": 1.0 - gates_failed / gates if gates else 0.0,
        "gate_margin_dec": statistics.median(worst) if worst else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib,
        "ops_failed_frac": sum(r.failed for r in results) / len(results),
        "gates_failed_frac": gates_failed / gates if gates else 0.0,
        "gate_margin_min_dec": min(worst) if worst else 0.0,
    }
    info = {
        "ops": len(results),
        "tail_percentile": tail_pct,
        "tail_ops_beyond": beyond,
        "gates": gates,
        "gates_failed": gates_failed,
        "setup_runs_s": setup_times,
        "op_walls_s": walls,
    }
    return values, info


def per_layer(tracer: Tracer, results: list[OpResult]) -> dict:
    """Per-op medians of the traced ops' layer metrics, plus tracing overhead.

    ``trace.coverage_frac`` is the share of op wall time spent in the self
    time of layers below ``cli``: a layer whose names a refactor renames or
    moves drops out of it.
    """
    index = {name: i for i, name in enumerate(tracer.names)}
    totals = tracer.op_totals()
    per_op = []
    for op in tracer.ops:
        c = op.counters
        calls, self_s = totals[op.op_id]
        built = c.get("symmetrizer.entries_built", 0.0)
        integrated = c.get("flows.rk4_integrated_t", 0.0)
        row = {
            "flows.rk4_steps": c.get("flows.rk4_steps", 0.0),
            "flows.rk4_useful_frac": c["flows.rk4_final_t"] / integrated if integrated else 0.0,
            "symmetrizer.table_builds": calls[index["symmetrizer.SymmetrizerTable.__init__"]],
            "symmetrizer.entries_used_frac": (
                calls[index["symmetrizer.SymmetrizerTable.get"]] / built if built else 0.0
            ),
            "trace.coverage_frac": sum(
                s for s, layer in zip(self_s, tracer.layer_of) if layer != "cli"
            ) / op.wall,
        }
        for key in PER_LAYER_UNITS:
            if key in row or key == "trace.overhead_ratio":
                continue
            if key in PER_LAYER_COUNTERS:
                row[key] = c.get(key, 0.0)
                continue
            base, kind = key.rsplit(".", 1)
            values = calls if kind == "calls" else self_s
            if base in LAYERS:
                row[key] = sum(v for v, layer in zip(values, tracer.layer_of) if layer == base)
            else:
                row[key] = values[index[base]]
        per_op.append(row)
    metrics = {key: statistics.median(row[key] for row in per_op) for key in per_op[0]}
    traced = [r.wall for r in results if r.traced]
    untraced = [r.wall for r in results if not r.traced]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "biflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2**40)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "biflow" / "cli.py").is_file():
        print(f"perfbench: no biflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / args.workload
    if args.setup_probe:
        import biflow.cli  # noqa: F401  (the import is what is being timed)

        make_ops(args.workload, args.seed, work)
        print("ready", flush=True)
        return 0

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = [] if args.trace else measure_setup(args, SETUP_REPEATS // 2)
    from biflow.cli import main as cli_main

    ops = make_ops(args.workload, args.seed, work)
    tracer = Tracer() if args.trace else None
    results, elapsed = timed_loop(cli_main, ops, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_times += measure_setup(args, SETUP_REPEATS // 2)

    # Determinism: the first op again, same seed, fresh output directory.
    rerun = make_op(args.workload, args.seed, 0, work / "rerun")
    _, codes, errors = run_op(cli_main, rerun)
    problems = [p for r in results for p in r.problems]
    problems += check_op(rerun, False, 0.0, codes, errors).problems
    problems += compare_outputs(ops[0].out, rerun.out)

    if tracer is None:
        values, info = end_to_end(results, elapsed, setup_times, peak_rss_mib)
        units = END_TO_END_UNITS
        report_units = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}
    else:
        values = per_layer(tracer, results)
        info = {"ops_traced": len(tracer.ops)}
        units = report_units = PER_LAYER_UNITS
        tracer.write(work / "spans.json")
    if not set(units) <= set(values):
        raise RuntimeError(f"metrics not computed: {sorted(set(units) - set(values))}")

    env = environment(args)
    failed = sum(r.failed for r in results)
    gates = sum(r.gates for r in results)
    gates_failed = sum(r.gates_failed for r in results)
    error_types = sorted({e for r in results for e in r.errors})
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"ops {len(results)} in {elapsed:.2f} s, failed {failed}"
        f" (errors: {', '.join(error_types) or 'none'}), gates failed {gates_failed} of {gates}"
    )
    if tracer is None:
        print(
            f"op_s_tail is p{info['tail_percentile']:.1f} of {len(results)} ops,"
            f" {info['tail_ops_beyond']} beyond it"
        )
    for name, unit in report_units.items():
        print(f"  {name:<48} {values[name]:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    (work / "result.json").write_text(
        json.dumps(
            {"env": env, "info": info, "metrics": values, "problems": problems},
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    result = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
