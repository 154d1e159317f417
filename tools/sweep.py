#!/usr/bin/env python3
"""Run a named list of biflow command lines and digest what each produced.

    python3 tools/sweep.py run equivalence digest.json   # or seeds, ladder
    python3 tools/sweep.py diff before.json after.json
    python3 tools/sweep.py table digest.json             # of a ladder digest

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

Run the same list in two checkouts (say a commit and its parent) and diff
the two digests: a claim that a change keeps every result cites that diff.
The package is imported from the ``src`` directory of the checkout this file
sits in.
"""

from __future__ import annotations

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from biflow import cli  # noqa: E402

# The per-op command lines of the three benchmark workloads (perfbench/run.py),
# without --seed: flow-n4, factorize-n8 and the five of checks-n8.
BENCHMARK_OPS = [
    "flow --n 4 --k 2 --l 0 --t 0.25 --h 1e-3",
    "factorize --n 8 --k 2 --l 0 --t 0.5",
    *(f"{experiment} --n 8" for experiment in ("invariants", "commute", "lemma41", "findim", "pde")),
]

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


def run_case(case: str) -> dict:
    """The digest entry of one command line."""
    err = io.StringIO()
    # A fresh warnings registry per case, so that a case warns as it would
    # in a process of its own, whatever ran before it.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        out = Path(tmp) / "out"
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*case.split(), "--out", str(out)])
        wall = time.perf_counter() - start
        files, gates = {}, {}
        for path in sorted(out.glob("*")):
            data = path.read_bytes()
            if path.suffix == ".csv":
                data = data.partition(b"\n")[2]  # the version line may differ
            files[path.name] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".json":
                summary = json.loads(data)
                for gate in summary["gates"]:
                    gates[f"{summary['experiment']}:{gate['name']}"] = [gate["value"], gate["pass"]]
    return {
        "exit": code, "stderr": err.getvalue(), "files": files, "gates": gates, "wall_s": round(wall, 3)
    }


def run_cases(cases: list[str], progress=None) -> dict:
    """The digest of a list of command lines: one entry per case, in order."""
    digest = {}
    for case in cases:
        digest[case] = entry = run_case(case)
        if progress:
            print(f"{entry['exit']}  {entry['wall_s']:8.3f} s  {case}", file=progress, flush=True)
    return digest


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
    args = parser.parse_args(argv)
    if args.command == "run":
        digest = run_cases(CASES[args.cases], progress=sys.stdout)
        args.digest.write_text(json.dumps({"cases": digest}, indent=1) + "\n")
        return 0
    if args.command == "table":
        try:
            print("\n".join(table(json.loads(args.digest.read_text())["cases"])))
        except ValueError as err:
            parser.error(str(err))
        return 0
    lines = diff(*(json.loads(p.read_text())["cases"] for p in (args.first, args.second)))
    print("\n".join(lines) if lines else "no difference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
