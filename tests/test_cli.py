import json

import numpy.testing as npt

from biflow import cli
from biflow.cli import Gate, main
from biflow.flows import BlowupError, integrate
from biflow.invariants import IntegralIndex


def run_cli(args):
    return main([str(a) for a in args])


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

    def test_findim(self, tmp_path):
        assert run_cli(["findim", "--n", 3, "--seed", 2, "--out", tmp_path]) == 0

    def test_pde(self, tmp_path):
        assert run_cli(["pde", "--n", 6, "--t", 0.5, "--seed", 2, "--out", tmp_path]) == 0

    def test_lemma41(self, tmp_path):
        assert run_cli(["lemma41", "--n", 4, "--seed", 2, "--out", tmp_path]) == 0

    def test_seed_required(self, tmp_path):
        assert run_cli(["flow", "--n", 3, "--out", tmp_path]) == 2

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIFLOW_OUT", str(tmp_path / "from-env"))
        assert run_cli(["invariants", "--n", 3, "--seed", 1]) == 0
        assert (tmp_path / "from-env" / "invariants.json").exists()


class TestFactorizeReference:
    def test_one_run_matches_separate_runs(self):
        s0, nmat = cli._sample_state(8, 7)
        idx = IntegralIndex(2, 0)
        got = cli._reference_states(s0, nmat, idx, 0.5)
        for t, state in zip((0.125, 0.25, 0.5), got):
            want = integrate(s0, nmat, idx, t, 1e-4).states[-1]
            npt.assert_array_equal(state.packed, want.packed)


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


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "t_final": 0.1}))
        code = run_cli(
            ["flow", "--n", 6, "--t", 9.0, "--seed", 4, "--out", tmp_path,
             "--config", cfg]
        )
        assert code == 0
        summary = json.loads((tmp_path / "flow.json").read_text())
        assert summary["config"]["n"] == 3
        assert summary["config"]["t_final"] == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run_cli(["flow", "--seed", 4, "--out", tmp_path, "--config", cfg]) == 2


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
