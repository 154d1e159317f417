import importlib
from pathlib import Path

import pytest

from biflow import cli

CASES = ["invariants --n 3 --seed 1", "flow --n 3 --t 0.1 --seed 2"]


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    return importlib.import_module("sweep")


def test_two_runs_of_a_list_agree(sweep, monkeypatch):
    first = sweep.run_cases(CASES)
    monkeypatch.setattr(cli, "__version__", "0+other")  # only the CSV version line changes
    second = sweep.run_cases(CASES)
    second[CASES[0]]["wall_s"] += 1.0
    assert sweep.diff(first, second) == []
    assert list(first) == CASES
    flow = first[CASES[1]]
    assert flow["exit"] == 0 and flow["stderr"] == ""
    assert set(flow["files"]) == {"flow.csv", "flow.json"}
    assert "flow:drift_H_2_0" in flow["gates"]
    assert all(passed for _, passed in flow["gates"].values())


def test_diff_lists_every_change(sweep, monkeypatch):
    first = sweep.run_cases(CASES)
    monkeypatch.setitem(cli.TOLERANCES, "drift", 1e-18)
    second = sweep.run_cases(CASES)
    lines = sweep.diff(first, second)
    assert f"{CASES[1]}: exit 0 -> 1" in lines
    assert any(line.startswith(f"{CASES[1]}: gate flow:drift_H_2_0 ") for line in lines)
    # The invariants summary records the tolerance table, so it changes too.
    assert any(line.startswith(f"{CASES[0]}: files ") for line in lines)
    del second[CASES[0]]
    assert sweep.diff(first, second)[0] == f"{CASES[0]}: only in the first digest"


def test_usage_error_case_has_no_outputs(sweep):
    entry = sweep.run_case("flow --n 3 --k 5 --seed 1")
    assert entry["exit"] == 2 and "usage error:" in entry["stderr"]
    assert entry["files"] == {} and entry["gates"] == {}


def test_named_lists_parse(sweep):
    assert {"equivalence", "seeds", "ladder"} <= set(sweep.CASES)
    assert len(sweep.CASES["ladder"]) == 8 * len(cli.EXPERIMENTS)
    for case in [case for cases in sweep.CASES.values() for case in cases]:
        args = cli._build_parser().parse_args([*case.split(), "--out", "x"])
        assert args.command in (*cli.EXPERIMENTS, "all")


def test_diff_gives_the_largest_move_per_gate(sweep):
    def entry(**values):
        gates = {name: [value, True] for name, value in values.items()}
        return {"exit": 0, "stderr": "", "files": {}, "gates": gates, "wall_s": 0.1}

    first = {"a": entry(g=1e-9, z=0.0, same=1.0), "b": entry(g=1e-9, z=1.0)}
    second = {"a": entry(g=1e-8, z=2e-12, same=1.0), "b": entry(g=1e-6, z=0.0)}
    lines = sweep.diff(first, second)
    assert len(lines) == 4 + 3
    assert lines[4:] == [
        "largest move per gate, in decades |log10(after/before)|:",
        "  g  3",
        "  z  0.0 -> 2e-12",
    ]
    assert sweep.diff(first, first) == []
