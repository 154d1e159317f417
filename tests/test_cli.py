import importlib
import json
from pathlib import Path
from types import FunctionType

import numpy as np
import numpy.testing as npt
import pytest

from biflow import cli
from biflow.cli import Gate, main
from biflow.flows import BlowupError, integrate
from biflow.invariants import IntegralIndex


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def rk4_runs(monkeypatch):
    """The step count of every `integrate` run the CLI makes, in order."""
    steps = []

    def counting_integrate(*args):
        traj = integrate(*args)
        steps.append(len(traj.times) - 1)
        return traj

    monkeypatch.setattr(cli, "integrate", counting_integrate)
    return steps


def assert_usage_error(code, capsys, out_dir):
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error:" in err and "Traceback" not in err
    assert not out_dir.exists()


class TestFlowExperiment:
    def test_passes_and_writes_outputs(self, tmp_path):
        code = run_cli(
            ["flow", "--n", 3, "--k", 2, "--l", 0, "--t", 0.5, "--h", 1e-3,
             "--seed", 7, "--out", tmp_path]
        )
        assert code == 0
        summary = json.loads((tmp_path / "flow.json").read_text())
        assert summary["schema"] == 1
        assert summary["pass"] is True
        assert all(g["pass"] for g in summary["gates"])
        csv = (tmp_path / "flow.csv").read_text().splitlines()
        assert csv[1] == "# schema: 1"
        header = csv[3].split(",")
        assert header[0] == "t"
        assert any(c.startswith("H_") for c in header)
        assert any(c.startswith("casimir_") for c in header)
        assert any(c.startswith("I_") for c in header)
        assert any(c.startswith("eig_") for c in header)

    def test_zero_time_single_row(self, tmp_path):
        code = run_cli(["flow", "--n", 3, "--t", 0, "--seed", 3, "--out", tmp_path])
        assert code == 0
        rows = (tmp_path / "flow.csv").read_text().splitlines()[4:]
        assert len(rows) == 1

    def test_deterministic_modulo_version_line(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            assert run_cli(["flow", "--n", 3, "--t", 0.2, "--seed", 5, "--out", d]) == 0
        a = (a_dir / "flow.csv").read_text().splitlines()
        b = (b_dir / "flow.csv").read_text().splitlines()
        assert a[1:] == b[1:]

    def test_tolerance_override_can_fail(self, tmp_path, capsys):
        code = run_cli(
            ["flow", "--n", 3, "--t", 1.0, "--seed", 7, "--out", tmp_path,
             "--tol", "drift=1e-18"]
        )
        assert code == 1
        assert "drift" in capsys.readouterr().err

    def test_inadmissible_index_usage_error(self, tmp_path):
        code = run_cli(["flow", "--n", 3, "--k", 5, "--seed", 1, "--out", tmp_path])
        assert code == 2


class TestOtherExperiments:
    def test_invariants(self, tmp_path):
        assert run_cli(["invariants", "--n", 4, "--seed", 2, "--out", tmp_path]) == 0

    def test_commute(self, tmp_path):
        assert run_cli(["commute", "--n", 4, "--seed", 2, "--out", tmp_path]) == 0

    def test_factorize(self, tmp_path):
        code = run_cli(
            ["factorize", "--n", 3, "--t", 0.5, "--seed", 2, "--out", tmp_path]
        )
        assert code == 0
        summary = json.loads((tmp_path / "factorize.json").read_text())
        names = {g["name"] for g in summary["gates"]}
        assert any(n.startswith("birkhoff_residual") for n in names)
        assert any(n.startswith("ode_gap") for n in names)

    @pytest.mark.parametrize("t", [0, -1])
    def test_nonpositive_time_usage_error(self, tmp_path, capsys, t):
        out = tmp_path / "out"
        code = run_cli(["factorize", "--t", t, "--seed", 7, "--out", out])
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize(
        "args",
        [
            ["all", "--n", 3, "--t", 0, "--seed", 1],
            ["factorize", "--h", 0, "--seed", 1],
            ["all", "--n", 4, "--t", 0.2, "--m", 100, "--seed", 3],
            ["all", "--n", 4, "--t", 0.2, "--j", 0, "--seed", 3],
        ],
    )
    def test_checked_before_any_runner(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert_usage_error(run_cli([*args, "--out", out]), capsys, out)

    def test_h_caps_factorize_reference_step(self, tmp_path, rk4_runs):
        # --h is the coarse step of the pair, capped at 1e-3; at 5e-5 the
        # first pair already reaches the floor of twice the steps of a
        # single run at min(h, 1e-4).
        for h, want in ((1e-3, [200, 400]), (0.05, [200, 400]), (5e-5, [4000, 8000])):
            rk4_runs.clear()
            code = run_cli(
                ["factorize", "--n", 3, "--t", 0.2, "--h", h, "--seed", 2, "--out", tmp_path]
            )
            assert code == 0
            assert rk4_runs == want

    def test_findim(self, tmp_path):
        assert run_cli(["findim", "--n", 3, "--seed", 2, "--out", tmp_path]) == 0

    def test_pde(self, tmp_path):
        assert run_cli(["pde", "--n", 6, "--t", 0.5, "--seed", 2, "--out", tmp_path]) == 0

    def test_lemma41(self, tmp_path):
        assert run_cli(["lemma41", "--n", 4, "--seed", 2, "--out", tmp_path]) == 0

    def test_out_is_a_file_usage_error(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert run_cli(["invariants", "--n", 3, "--seed", 1, "--out", out]) == 2
        assert "usage error:" in capsys.readouterr().err

    def test_seed_required(self, tmp_path):
        assert run_cli(["flow", "--n", 3, "--out", tmp_path]) == 2

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIFLOW_OUT", str(tmp_path / "from-env"))
        assert run_cli(["invariants", "--n", 3, "--seed", 1]) == 0
        assert (tmp_path / "from-env" / "invariants.json").exists()


class TestFactorizeReference:
    # On the sample below, the largest Frobenius distance over the three
    # checkpoints between one RK4 run at step 1e-4 and one at 1e-5.  The
    # extrapolated reference must be no farther from the 1e-5 run.
    SINGLE_RUN_GAP = 4.302e-14

    def test_one_run_matches_separate_runs(self):
        s0, nmat = cli.sample_state(8, 7)
        idx = IntegralIndex(2, 0)
        got = cli._reference_states(s0, nmat, idx, 0.5, 1e-3)
        assert got.shape == (3, 8, 8)
        for t, state in zip((0.125, 0.25, 0.5), got):
            coarse = integrate(s0, nmat, idx, t, 1e-3).states[-1]
            fine = integrate(s0, nmat, idx, t, 5e-4).states[-1]
            npt.assert_array_equal(state, (16 * fine - coarse) / 15)
        tight = integrate(s0, nmat, idx, 0.5, 1e-5).states[[12500, 25000, 50000]]
        assert np.linalg.norm(got - tight, axis=(1, 2)).max() <= self.SINGLE_RUN_GAP

    def test_halves_until_the_estimate_meets_the_budget(self, rk4_runs):
        # The first estimate of the fine run's error, |fine - coarse| / 15 =
        # 8.8e-10, is over the budget 1e-10 |S0|_F = 3.0e-10; the next is not.
        s0, nmat = cli.sample_state(8, 7001)
        idx = IntegralIndex(4, 0)
        got = cli._reference_states(s0, nmat, idx, 0.5, 1e-3)
        assert rk4_runs == [500, 1000, 2000]
        coarse = integrate(s0, nmat, idx, 0.5, 0.5 / 1000).states[[250, 500, 1000]]
        fine = integrate(s0, nmat, idx, 0.5, 0.5 / 2000).states[[500, 1000, 2000]]
        npt.assert_array_equal(got, (16 * fine - coarse) / 15)

    def test_stops_at_the_step_floor(self, rk4_runs):
        # The last estimate is still 28x the budget, but 3200 steps are past
        # twice the 1000 of a single run at 1e-4.
        s0, nmat = cli.sample_state(8, 7)
        cli._reference_states(s0, nmat, IntegralIndex(7, 0), 0.1, 1e-3)
        assert rk4_runs == [100, 200, 400, 800, 1600, 3200]


class TestNumericalFailure:
    def test_aliasing_becomes_failing_gate(self, tmp_path, capsys):
        code = run_cli(
            ["factorize", "--n", 6, "--k", 5, "--l", 4, "--seed", 7, "--out", tmp_path]
        )
        assert code == 1
        summary = json.loads((tmp_path / "factorize.json").read_text())
        assert summary["pass"] is False
        assert [(g["name"], g["pass"]) for g in summary["gates"]] == [("AliasingError", False)]
        err = capsys.readouterr().err
        assert "AliasingError" in err and "Traceback" not in err

    def test_all_mode_continues_after_failure(self, tmp_path, monkeypatch):
        def blows_up(cfg):
            raise BlowupError("state left the admissible region")

        runners = {name: (lambda cfg: [Gate.leq("ok", 0.0, 1.0)]) for name in cli.RUNNERS}
        runners["flow"] = blows_up
        monkeypatch.setattr(cli, "RUNNERS", runners)
        assert run_cli(["all", "--seed", 1, "--out", tmp_path]) == 1
        flow = json.loads((tmp_path / "flow.json").read_text())
        assert [g["name"] for g in flow["gates"]] == ["BlowupError"]
        for name in cli.EXPERIMENTS[1:]:
            assert json.loads((tmp_path / f"{name}.json").read_text())["pass"] is True


class TestAllMode:
    def test_full_battery(self, tmp_path):
        code = run_cli(
            ["all", "--n", 3, "--t", 0.4, "--seed", 9, "--out", tmp_path]
        )
        assert code == 0
        produced = {p.name for p in tmp_path.glob("*.json")}
        assert produced == {
            "flow.json", "invariants.json", "commute.json", "factorize.json",
            "findim.json", "pde.json", "lemma41.json",
        }
        assert run_cli(["report", tmp_path]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pass"] is True and len(payload["experiments"]) == 7


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_tol_does_not_leak_into_the_next_call(self, tmp_path):
        def gate_tols(out):
            summary = json.loads((out / "flow.json").read_text())
            return {g["tol"] for g in summary["gates"]}, summary["config"]["tolerances"]["drift"]

        args = ["flow", "--n", 3, "--t", 0.1, "--seed", 7]
        assert run_cli([*args, "--tol", "drift=1e-3", "--out", tmp_path / "a"]) == 0
        assert run_cli([*args, "--out", tmp_path / "b"]) == 0
        assert gate_tols(tmp_path / "a") == ({1e-3}, 1e-3)
        assert gate_tols(tmp_path / "b") == ({1e-8}, 1e-8)


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "from-config"
        cfg.write_text(json.dumps({"n": 3, "t_final": 0.1, "out_dir": str(out)}))
        code = run_cli(
            ["flow", "--n", 6, "--t", 9.0, "--seed", 4, "--out", tmp_path,
             "--config", cfg]
        )
        assert code == 0
        summary = json.loads((out / "flow.json").read_text())
        assert summary["config"]["n"] == 3
        assert summary["config"]["t_final"] == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run_cli(["flow", "--seed", 4, "--out", tmp_path, "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            {"experiment": "bogus"},
            {"experiment": "factorize"},
            {"out": 5},
            {"out_dir": 5},
            [1],
            {"tolerances": {"bogus": 1}},
            {"tolerances": {"drift": "x"}},
            {"tolerances": [1]},
            {"n": 3.9},
            {"n": True},
            {"h": "1e-3"},
        ],
    )
    def test_malformed_config_usage_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        code = run_cli(["flow", "--n", 3, "--t", 0.1, "--seed", 4, "--out", out, "--config", cfg])
        assert_usage_error(code, capsys, out)


class TestReport:
    def test_empty_dir(self, tmp_path, capsys):
        assert run_cli(["report", tmp_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"schema": 1, "experiments": [], "pass": True, "failures": []}

    def test_single_passing_run(self, tmp_path):
        assert run_cli(["invariants", "--n", 3, "--seed", 1, "--out", tmp_path]) == 0
        assert run_cli(["report", tmp_path]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pass"] is True
        assert payload["experiments"][0]["experiment"] == "invariants"

    def test_mixed_runs_aggregate_failure(self, tmp_path, capsys):
        assert run_cli(["invariants", "--n", 3, "--seed", 1, "--out", tmp_path]) == 0
        assert (
            run_cli(
                ["flow", "--n", 3, "--t", 1.0, "--seed", 7, "--out", tmp_path,
                 "--tol", "drift=1e-18"]
            )
            == 1
        )
        assert run_cli(["report", tmp_path]) == 1
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pass"] is False
        assert any(f.startswith("flow:") for f in payload["failures"])

    def test_corrupt_file(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        assert run_cli(["report", tmp_path]) == 2


def test_tracer_finds_every_runner(monkeypatch):
    """The benchmark's tracer wraps the runners only where biflow.cli defines them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    tracer.Tracer()
    for name in tracer.CLI_NAMES:
        runner = getattr(cli, name)
        assert isinstance(runner, FunctionType) and runner.__module__ == "biflow.cli"
        assert runner in cli.RUNNERS.values()
