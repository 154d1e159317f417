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


def test_table_has_a_row_per_size_and_a_column_per_experiment(sweep):
    def entry(code, wall, gates):
        return {"exit": code, "stderr": "", "files": {}, "gates": gates, "wall_s": wall}

    digest = {
        "flow --n 4 --seed 7 --t 0.2": entry(0, 0.026, {"flow:drift_H_2_0": [1e-15, True]}),
        "lemma41 --n 4 --seed 7": entry(1, 0.0071, {
            "lemma41:witness_rank": [9, False],
            "lemma41:cancellation": [0.0, True],
            "lemma41:generic_rank_hits": [0, False],
        }),
        "flow --n 16 --seed 7 --t 0.2": entry(1, 0.2874, {f"flow:drift_H_{i}_0": [1.0, False] for i in range(5)}),
        "invariants --n 48 --seed 7": entry(1, 0.094, {"invariants:InterpolationError": [None, False]}),
        "pde --n 48 --seed 7 --t 1e9": entry(2, 0.0, {}),
    }
    assert sweep.table(digest) == [
        "| n | flow | invariants | commute | factorize | findim | pde | lemma41 |",
        "|---|---|---|---|---|---|---|---|",
        "| 4 | 0.026 s |  |  |  |  |  | 0.0071 s, witness_rank, generic_rank_hits |",
        "| 16 | 0.287 s, drift_H_0_0, drift_H_1_0, drift_H_2_0 and 2 more |  |  |  |  |  |  |",
        "| 48 |  | 0.094 s, InterpolationError |  |  |  | 0 s, usage error |  |",
    ]
    ran = sweep.table(sweep.run_cases([CASES[0]]))
    assert ran[2].startswith("| 3 |  | ") and ran[2].count(" s |") == 1
    with pytest.raises(ValueError, match="not a single experiment"):
        sweep.table({"all --n 4 --seed 7": entry(0, 0.1, {})})
    with pytest.raises(ValueError, match="two cases of flow at n = 4"):
        sweep.table({**digest, "flow --n 4 --seed 8 --t 0.2": entry(0, 0.1, {})})
