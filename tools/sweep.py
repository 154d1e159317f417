#!/usr/bin/env python3
"""Run a named list of biflow command lines and digest what each produced.

    python3 tools/sweep.py run equivalence digest.json   # or seeds, ladder
    python3 tools/sweep.py diff before.json after.json
    python3 tools/sweep.py table digest.json             # of a ladder digest
    python3 tools/sweep.py census census.json

``run`` calls ``biflow.cli.main`` in-process for every case of the list,
each with a fresh output directory and with stderr captured, and writes a
JSON digest.  Per case the digest holds the exit code, stderr, the sha256 of
every output file (for a CSV, of everything after its version line), every
gate's value and verdict, and the wall time.  ``diff`` prints every case
whose entries differ in anything but wall time, then for each gate name whose
value moved the largest move over the cases in decades, |log10(after/before)|
(a move to or from 0, or from or to a value that is not finite, is printed as
the two values), and exits 1 if anything differs.  ``table`` prints a digest
of single-experiment cases as a Markdown table, one row per ``--n`` and one
column per experiment: each cell gives the wall time and the gates that
failed (a named error is the gate named after it), or the usage error.

``census`` runs each row of ``CENSUS``, one config over a range of seeds,
and writes a compact digest: per row the seeds run, each failing seed with
its failing gates and their values (a named error is the gate named after
it, with value 1; a run that wrote no summary gives its exit code), and per
gate the worst margin over the seeds where it passed, in decades
log10(tol/value) as the benchmark scores it (16 at most, and tolerance
gates only).  ``diff`` of two census
digests lists each seed whose failing gates differ.  The census reports
failures; it gates nothing.

Every digest records its environment: the numpy version, the BLAS thread
variables and the CPU count.  ``diff`` prints one line when the two
environments differ; a digest made before they were recorded has none.

Run the same list in two checkouts (say a commit and its parent) and diff
the two digests: a claim that a change keeps every result cites that diff.
The package is imported from the ``src`` directory of the checkout this file
sits in, and the benchmark ops from its ``perfbench/run.py``.  BLAS runs on
one thread whatever the environment says, as in the benchmark: at two, some
gate values move at rounding level, so digests made on hosts with different
defaults would differ.
"""

from __future__ import annotations

import os

# Set before numpy is imported, whatever the environment says.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from biflow import cli  # noqa: E402
from run import WORKLOADS, _margin  # noqa: E402  (perfbench/run.py)

# The per-op command lines of the three benchmark workloads, without --seed:
# flow-n4, factorize-n8 and the five of checks-n8.
BENCHMARK_OPS = [" ".join(call) for calls in WORKLOADS.values() for call in calls]

# Each case is a command line without --out.
CASES = {
    # The cases a change that claims identical results must keep identical:
    # the battery over sizes and seeds, the per-op configs of the three
    # benchmark workloads, and the cases at the top of the size range that
    # end in a named error or take the most time.
    "equivalence": [
        *(f"all --n {n} --t 0.2 --seed {seed}" for n in (3, 4, 8, 12, 16) for seed in (1, 7)),
        *(f"{op} --seed 7" for op in BENCHMARK_OPS),
        "lemma41 --n 33 --seed 7",
        "flow --n 48 --t 0.2 --seed 7",
        "commute --n 32 --seed 7",
        "commute --n 64 --seed 7",
    ],
    # The benchmark ops at the op seeds 7000-7009 of a run with --seed 7.
    "seeds": [f"{op} --seed {seed}" for seed in range(7000, 7010) for op in BENCHMARK_OPS],
    # Every experiment at every size of the Baseline table, up to cli.MAX_N.
    "ladder": [
        f"{experiment} --n {n} --seed 7" + (" --t 0.2" if "t_final" in cli.READS[experiment] else "")
        for n in (4, 8, 12, 16, 24, 32, 48, 64)
        for experiment in cli.EXPERIMENTS
    ],
}

# The census rows: a command line without --seed, and the seeds it runs at.
CENSUS = {
    "factorize --n 8 --k 2 --l 0 --t 0.5": range(2000),  # the factorize-n8 op
    "factorize --n 8 --t 1": range(300),
    "factorize --n 16 --t 0.5": range(200),
    "flow --n 4 --k 2 --l 0 --t 0.25 --h 1e-3": range(1000),  # the flow-n4 op
    "flow --n 8 --t 0.2": range(300),
    "flow --n 10 --t 0.2": range(200),
    "flow --n 12 --t 0.2": range(100),
    "findim --n 8": range(500),
    "commute --n 8": range(500),
    "pde --n 8": range(200),
    "lemma41 --n 8": range(200),
    "invariants --n 12": range(200),
}


def environment() -> dict:
    """What a digest's gate values may depend on besides the code."""
    return {
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpus": os.cpu_count(),
    }


def _execute(case: str) -> tuple[int, str, float, dict[str, bytes]]:
    """Run one command line in-process: its exit code, stderr, wall time
    and the bytes of each file it wrote."""
    err = io.StringIO()
    # A fresh warnings registry per case, so that a case warns as it would
    # in a process of its own, whatever ran before it.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        out = Path(tmp) / "out"
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*case.split(), "--out", str(out)])
        wall = time.perf_counter() - start
        outputs = {path.name: path.read_bytes() for path in sorted(out.glob("*"))}
    return code, err.getvalue(), wall, outputs


def _summaries(outputs: dict[str, bytes]) -> list[dict]:
    return [json.loads(data) for name, data in outputs.items() if name.endswith(".json")]


def run_case(case: str) -> dict:
    """The digest entry of one command line."""
    code, stderr, wall, outputs = _execute(case)
    files, gates = {}, {}
    for name, data in outputs.items():
        if name.endswith(".csv"):
            data = data.partition(b"\n")[2]  # the version line may differ
        files[name] = hashlib.sha256(data).hexdigest()
    for summary in _summaries(outputs):
        for gate in summary["gates"]:
            gates[f"{summary['experiment']}:{gate['name']}"] = [gate["value"], gate["pass"]]
    return {"exit": code, "stderr": stderr, "files": files, "gates": gates, "wall_s": round(wall, 3)}


def run_cases(cases: list[str], progress=None) -> dict:
    """The digest of a list of command lines: one entry per case, in order."""
    digest = {}
    for case in cases:
        digest[case] = entry = run_case(case)
        if progress:
            print(f"{entry['exit']}  {entry['wall_s']:8.3f} s  {case}", file=progress, flush=True)
    return digest


def census_row(config: str, seeds: range) -> dict:
    """The census entry of one command line over a range of seeds."""
    failing, margins = {}, {}
    for seed in seeds:
        code, _, _, outputs = _execute(f"{config} --seed {seed}")
        failed = {}
        for summary in _summaries(outputs):
            tolerances = set(summary["config"]["tolerances"].values())
            for gate in summary["gates"]:
                name = f"{summary['experiment']}:{gate['name']}"
                if not gate["pass"]:
                    failed[name] = gate["value"]
                elif gate["tol"] in tolerances:  # a tolerance gate; an exact one has no margin
                    margins[name] = min(margins.get(name, 16.0), _margin(gate["value"], gate["tol"]))
        if code != 0 and not failed:
            failed = {"exit": code}
        if failed:
            failing[str(seed)] = failed
    return {
        "first_seed": seeds.start,
        "seeds": len(seeds),
        "failing": failing,
        "margins": {name: round(margin, 3) for name, margin in margins.items()},
    }


def run_census(rows: dict[str, range], progress=None) -> dict:
    """The census digest of some rows: one entry per row, in order."""
    census = {}
    for config, seeds in rows.items():
        start = time.perf_counter()
        census[config] = row = census_row(config, seeds)
        if progress:
            wall = time.perf_counter() - start
            print(f"{len(row['failing']):4d} of {row['seeds']:4d} failing  {wall:7.1f} s  {config}",
                  file=progress, flush=True)
    return census


def _text(value) -> str:
    return json.dumps(value, sort_keys=True)  # NaN compares equal to itself as text


def _move(before: float, after: float) -> tuple[float, str]:
    """A gate value's move in decades, and how to print it."""
    ratio = abs(after) / abs(before) if before else math.inf
    if not 0 < ratio < math.inf:  # to or from 0, or a value that is not finite
        return math.inf, f"{before!r} -> {after!r}"
    move = abs(math.log10(ratio))
    return move, f"{move:.3g}"


def diff(a: dict, b: dict) -> list[str]:
    """One line per difference between two digests, wall times aside.

    After the cases, one line per gate name whose value moved: its largest
    move over the cases, in decades.
    """
    lines, moves = [], {}
    for case in [*a, *(c for c in b if c not in a)]:
        if case not in a or case not in b:
            lines.append(f"{case}: only in {'the second' if case in b else 'the first'} digest")
            continue
        old, new = a[case], b[case]
        for key in ("exit", "stderr", "files"):
            if _text(old[key]) != _text(new[key]):
                lines.append(f"{case}: {key} {old[key]!r} -> {new[key]!r}")
        for name in [*old["gates"], *(g for g in new["gates"] if g not in old["gates"])]:
            before, after = old["gates"].get(name), new["gates"].get(name)
            if _text(before) != _text(after):
                lines.append(f"{case}: gate {name} {before} -> {after}")
            if before and after and _text(before[0]) != _text(after[0]):
                move = _move(before[0], after[0])
                moves[name] = max(moves.get(name, move), move, key=lambda m: m[0])
    if moves:
        lines.append("largest move per gate, in decades |log10(after/before)|:")
        lines += [f"  {name}  {text}" for name, (_, text) in moves.items()]
    return lines


def census_diff(a: dict, b: dict) -> list[str]:
    """One line per census row or seed whose failures differ between two census digests."""
    lines = []
    for config in [*a, *(c for c in b if c not in a)]:
        if config not in a or config not in b:
            lines.append(f"{config}: only in {'the second' if config in b else 'the first'} digest")
            continue
        old, new = a[config], b[config]
        ran = [(row["first_seed"], row["seeds"]) for row in (old, new)]
        if ran[0] != ran[1]:
            lines.append(f"{config}: seeds (first, count) {ran[0]} -> {ran[1]}")
        for seed in sorted({*old["failing"], *new["failing"]}, key=int):
            before, after = old["failing"].get(seed), new["failing"].get(seed)
            if _text(before) != _text(after):
                lines.append(f"{config} --seed {seed}: {before or 'passes'} -> {after or 'passes'}")
    return lines


def _cell(entry: dict) -> str:
    cell = f"{entry['wall_s']:.3g} s"
    failed = [name.partition(":")[2] for name, (_, passed) in entry["gates"].items() if not passed]
    if entry["exit"] == 2:
        return f"{cell}, usage error"
    if len(failed) > 3:
        return f"{cell}, {', '.join(failed[:3])} and {len(failed) - 3} more"
    return ", ".join([cell, *failed])


def table(digest: dict) -> list[str]:
    """The Markdown lines of a digest's table: one row per --n, one column per
    experiment, one case per cell."""
    cells = {}
    for case, entry in digest.items():
        words = case.split()
        if words[0] not in cli.EXPERIMENTS or "--n" not in words:
            raise ValueError(f"not a single experiment at one size: {case}")
        key = int(words[words.index("--n") + 1]), words[0]
        if key in cells:
            raise ValueError(f"two cases of {key[1]} at n = {key[0]}")
        cells[key] = _cell(entry)
    lines = ["| n | " + " | ".join(cli.EXPERIMENTS) + " |", "|---" * (1 + len(cli.EXPERIMENTS)) + "|"]
    for n in sorted({n for n, _ in cells}):
        lines.append(f"| {n} | " + " | ".join(cells.get((n, e), "") for e in cli.EXPERIMENTS) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a case list and write its digest")
    run.add_argument("cases", choices=sorted(CASES))
    run.add_argument("digest", type=Path)
    cmp = sub.add_parser("diff", help="list the cases that differ between two digests")
    cmp.add_argument("first", type=Path)
    cmp.add_argument("second", type=Path)
    tab = sub.add_parser("table", help="print a digest as a table of sizes by experiments")
    tab.add_argument("digest", type=Path)
    cen = sub.add_parser("census", help="run every census row and write its digest")
    cen.add_argument("digest", type=Path)
    args = parser.parse_args(argv)
    if args.command in ("run", "census"):
        if args.command == "run":
            kind, body = "cases", run_cases(CASES[args.cases], progress=sys.stdout)
        else:
            kind, body = "census", run_census(CENSUS, progress=sys.stdout)
        args.digest.write_text(json.dumps({"env": environment(), kind: body}, indent=1) + "\n")
        return 0
    if args.command == "table":
        try:
            print("\n".join(table(json.loads(args.digest.read_text())["cases"])))
        except ValueError as err:
            parser.error(str(err))
        return 0
    docs = [json.loads(p.read_text()) for p in (args.first, args.second)]
    kinds = [next(kind for kind in ("cases", "census") if kind in doc) for doc in docs]
    if kinds[0] != kinds[1]:
        parser.error(f"cannot compare a {kinds[0]} digest with a {kinds[1]} digest")
    envs = [doc.get("env") for doc in docs]  # None in a digest made before it was recorded
    if None not in envs and envs[0] != envs[1]:
        print(f"environments differ: {_text(envs[0])} -> {_text(envs[1])}")
    lines = (diff if kinds[0] == "cases" else census_diff)(*(doc[kinds[0]] for doc in docs))
    print("\n".join(lines) if lines else "no difference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
