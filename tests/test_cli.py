import importlib
import json
import warnings
from pathlib import Path
from types import FunctionType

import numpy as np
import numpy.testing as npt
import pytest

from biflow import cli, factorization, invariants
from biflow.cli import Gate, main
from biflow.flows import BlowupError, gbs_path, integrate
from biflow.invariants import IntegralIndex


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def gbs_runs(monkeypatch):
    """Every GBS run of the factorize reference, in order: (macro steps, paths kept).

    A run that ends in BlowupError is recorded as (macro, None).
    """
    runs = []

    def recording_gbs_path(rhs, y0, t_final, macro):
        try:
            path = gbs_path(rhs, y0, t_final, macro)
        except BlowupError:
            runs.append((macro, None))
            raise
        runs.append((macro, path))
        return path

    monkeypatch.setattr(cli, "gbs_path", recording_gbs_path)
    return runs


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

    @pytest.mark.parametrize(
        "n, header",
        [
            (
                4,
                "t,H_1_0,H_2_0,H_3_0,H_3_2,casimir_0,casimir_2,"
                "I_0_0,I_1_0,I_2_0,I_2_1,I_3_0,I_3_1,I_4_0,I_4_1,I_4_2,"
                "eig_0,eig_1,eig_2,eig_3",
            ),
            (
                5,
                "t,H_1_0,H_2_0,H_3_0,H_3_2,H_4_0,H_4_2,casimir_0,casimir_2,casimir_4,"
                "I_0_0,I_1_0,I_2_0,I_2_1,I_3_0,I_3_1,I_4_0,I_4_1,I_4_2,I_5_0,I_5_1,I_5_2,"
                "eig_0,eig_1,eig_2,eig_3,eig_4",
            ),
        ],
        ids=["n4", "n5"],
    )
    def test_csv_column_order(self, tmp_path, n, header):
        # The columns are a stable contract: H_k_l in enumerate_indices
        # order, the Casimirs, I_r_k in sorted (r, k) order, the eigenvalues.
        assert run_cli(["flow", "--n", n, "--t", 0.01, "--seed", 1, "--out", tmp_path]) == 0
        assert (tmp_path / "flow.csv").read_text().splitlines()[3] == header

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

    def test_tolerance_override_can_fail(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli.TOLERANCES, "drift", 1e-18)
        code = run_cli(["flow", "--n", 3, "--t", 1.0, "--seed", 7, "--out", tmp_path])
        assert code == 1
        assert "drift" in capsys.readouterr().err
        summary = json.loads((tmp_path / "flow.json").read_text())
        assert summary["config"]["tolerances"]["drift"] == 1e-18

    def test_ill_conditioned_spectral_table_refused_before_the_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(invariants, "COND_CAP", 1.0)
        monkeypatch.setattr(cli, "integrate", lambda *args: pytest.fail("the path was integrated"))
        assert run_cli(["flow", "--n", 4, "--seed", 1, "--out", tmp_path]) == 1
        assert "flow: InterpolationError" in capsys.readouterr().err
        summary = json.loads((tmp_path / "flow.json").read_text())
        assert [g["name"] for g in summary["gates"]] == ["InterpolationError"]
        assert not (tmp_path / "flow.csv").exists()

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
        diagnostics = summary["diagnostics"]
        assert [c["t"] for c in diagnostics["checkpoints"]] == [0.125, 0.25, 0.5]
        for c in diagnostics["checkpoints"]:
            assert 1 <= c["depth"] <= 40
            assert max(c["tail"], c["reality"], c["aliasing"]) <= 1e-10
        assert diagnostics["reference"]["met_budget"] is True
        assert diagnostics["reference"]["estimate"] <= diagnostics["reference"]["budget"]

    def test_negative_part_recorded_and_deterministic(self, tmp_path):
        # The negative-degree part of gamma g_minus, which the Birkhoff
        # condition sets to zero, at every checkpoint of the factorize-n8 config.
        args = ["factorize", "--n", 8, "--k", 2, "--l", 0, "--t", 0.5, "--seed", 7]
        texts = []
        for name in ("a", "b"):
            assert run_cli([*args, "--out", tmp_path / name]) == 0
            texts.append((tmp_path / name / "factorize.json").read_text())
        assert texts[0] == texts[1]
        checkpoints = json.loads(texts[0])["diagnostics"]["checkpoints"]
        assert len(checkpoints) == 3
        for c in checkpoints:
            assert 0.0 <= c["negative_part"] <= factorization.TAIL_TOL

    def test_circle_sup_norms_recorded_and_deterministic(self, tmp_path):
        # Op seed 19203101 of factorize-n8, whose t=0.5 residual fails: its
        # factors grow by more than an order of magnitude over the circle
        # from t/4 to t.  Every loop here keeps g(z) g(-z)^T = I, so each
        # sup norm is at least 1.
        args = ["factorize", "--n", 8, "--k", 2, "--l", 0, "--t", 0.5, "--seed", 19203101]
        texts = []
        for name in ("a", "b"):
            run_cli([*args, "--out", tmp_path / name])
            texts.append((tmp_path / name / "factorize.json").read_text())
        assert texts[0] == texts[1]
        checkpoints = json.loads(texts[0])["diagnostics"]["checkpoints"]
        sups = [[c[f"sup_{x}"] for x in ("gamma", "g_minus", "g_plus")] for c in checkpoints]
        assert min(min(row) for row in sups) >= 1.0
        assert sups[-1][1] > 10 * sups[0][1]

    def test_one_exponential_for_three_checkpoints(self, tmp_path, monkeypatch):
        # The samples at t/2 and t are the squares of those at t/4 and t/2.
        shapes = []
        expm = factorization.expm

        def counting_expm(a, *args, **kwargs):
            shapes.append(a.shape)
            return expm(a, *args, **kwargs)

        monkeypatch.setattr(factorization, "expm", counting_expm)
        assert run_cli(["factorize", "--n", 4, "--t", 0.5, "--seed", 2, "--out", tmp_path]) == 0
        assert shapes == [(256, 4, 4)]

    @pytest.mark.parametrize("t", [0, -1])
    def test_nonpositive_time_usage_error(self, tmp_path, capsys, t):
        out = tmp_path / "out"
        code = run_cli(["factorize", "--t", t, "--seed", 7, "--out", out])
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize(
        "args",
        [
            ["all", "--n", 3, "--t", 0, "--seed", 1],
            ["pde", "--h", 0, "--seed", 1],
            ["all", "--n", 4, "--t", 0.2, "--m", 100, "--seed", 3],
            ["all", "--n", 4, "--t", 0.2, "--j", 0, "--seed", 3],
        ],
    )
    def test_checked_before_any_runner(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert_usage_error(run_cli([*args, "--out", out]), capsys, out)

    def test_h_does_not_steer_the_reference(self, tmp_path):
        # Under the RK4 pair, h = 5e-5 took the reference to 4000 steps.  The
        # factorize subcommand takes no --h, so the config is set directly.
        outputs = []
        for h in (1e-3, 0.05, 5e-5):
            out = tmp_path / str(h)
            cfg = cli.ExperimentConfig("factorize", n=8, t_final=0.5, h=h, seed=7, out_dir=out)
            assert cli.run(cfg) == 0
            summary = json.loads((out / "factorize.json").read_text())
            assert "h" not in summary["config"]
            outputs.append((summary["gates"], summary["diagnostics"]))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_findim(self, tmp_path):
        assert run_cli(["findim", "--n", 3, "--seed", 2, "--out", tmp_path]) == 0

    def test_pde(self, tmp_path):
        assert run_cli(["pde", "--n", 6, "--t", 0.5, "--seed", 2, "--out", tmp_path]) == 0

    def test_lemma41(self, tmp_path):
        assert run_cli(["lemma41", "--n", 4, "--seed", 2, "--out", tmp_path]) == 0

    def test_lemma41_witness_scaling_stays_finite(self, tmp_path):
        # At n=24 the witness entries reach 2^552, and squaring them for the
        # norm overflowed before each matrix was scaled by its largest entry.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gates, _ = cli.run_lemma41(cli.ExperimentConfig("lemma41", n=24, seed=7, out_dir=tmp_path))
        assert all(np.isfinite(g.value) for g in gates)

    def test_lemma41_witness_overflow_is_a_named_gate(self, tmp_path, capsys):
        # From n = 33 the witness table overflows to inf: a numerical failure,
        # so one failing gate with a summary, not a usage error, and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(["lemma41", "--n", 33, "--seed", 7, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == 1
        assert "NumericalError: witness symmetrizers overflow at n=33" in err
        assert "usage error" not in err
        summary = json.loads((tmp_path / "lemma41.json").read_text())
        assert [(g["name"], g["pass"]) for g in summary["gates"]] == [("NumericalError", False)]

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
    def test_one_run_matches_separate_runs(self):
        # An independent reference: the RK4 Richardson pair at 2.5e-4 and
        # 1.25e-4, whose own truncation estimate is 2.0e-15 here.  The gap
        # of 2.6e-14 is rounding, summed over the pair's 6000 steps; the
        # bound leaves room for it and is over 3000x under the budget.
        s0, nmat = cli.sample_state(8, 7)
        idx = IntegralIndex(2, 0)
        got, info = cli._reference_states(s0, nmat, idx, 0.5)
        assert got.shape == (3, 8, 8)
        assert info["steps"] == 16 and info["evals"] == 24 * 43 and info["met_budget"] is True
        coarse = integrate(s0, nmat, idx, 0.5, 2.5e-4)[1][[500, 1000, 2000]]
        fine = integrate(s0, nmat, idx, 0.5, 1.25e-4)[1][[1000, 2000, 4000]]
        assert np.linalg.norm(got - (16 * fine - coarse) / 15, axis=(1, 2)).max() <= 1e-13

    @pytest.mark.parametrize(
        "n, k, l, t, seed", [(8, 2, 0, 0.5, 7), (6, 3, 0, 0.2, 7), (8, 4, 2, 0.2, 7)]
    )
    def test_states_exactly_symmetric(self, gbs_runs, n, k, l, t, seed):
        # No run projects, so every state of every run, and the result, are
        # symmetric through the field alone.
        s0, nmat = cli.sample_state(n, seed)
        got, _ = cli._reference_states(s0, nmat, IntegralIndex(k, l), t)
        assert len(gbs_runs) >= 2
        for path in [*(path for _, path in gbs_runs), got]:
            assert np.array_equal(path, path.swapaxes(-1, -2))

    def test_halves_until_the_estimate_meets_the_budget(self, gbs_runs):
        # The gap of the 8- and 16-step runs is over the budget
        # 1e-10 |S0|_F = 3.0e-10; that of the 16- and 32-step runs is not.
        s0, nmat = cli.sample_state(8, 7001)
        got, info = cli._reference_states(s0, nmat, IntegralIndex(4, 0), 0.5)
        assert [macro for macro, _ in gbs_runs] == [8, 16, 32]
        assert info["steps"] == 32 and info["met_budget"] is True
        assert info["evals"] == 56 * 43
        paths = [path[[m // 4, m // 2, m]] for m, path in gbs_runs]
        assert np.linalg.norm(paths[1] - paths[0], axis=(1, 2)).max() > info["budget"]
        assert info["estimate"] == np.linalg.norm(paths[2] - paths[1], axis=(1, 2)).max()
        assert info["estimate"] <= info["budget"]
        npt.assert_array_equal(got, paths[2])

    def test_stops_at_the_cap(self, tmp_path, monkeypatch):
        # At t=4 the budget needs 32 macro steps; capped at 16 the run
        # still ends, and the diagnostics say the budget was missed.
        monkeypatch.setattr(cli, "REFERENCE_MACRO_CAP", 16)
        assert run_cli(["factorize", "--t", 4, "--seed", 3, "--out", tmp_path]) == 1
        reference = json.loads((tmp_path / "factorize.json").read_text())["diagnostics"]["reference"]
        assert reference["steps"] == 16 and reference["met_budget"] is False
        assert reference["estimate"] > reference["budget"]

    def test_blowup_below_the_cap_doubles_macro(self, gbs_runs, monkeypatch):
        # This stiff flow leaves the admissible region within one macro
        # step of 8 or 16 per unit time; the runs of 32 and 64 converge.
        s0, nmat = cli.sample_state(8, 10)
        idx = IntegralIndex(6, 2)
        monkeypatch.setattr(cli, "REFERENCE_MACRO_CAP", 64)
        _, info = cli._reference_states(s0, nmat, idx, 0.1)
        assert [(m, path is None) for m, path in gbs_runs] == [
            (8, True), (16, True), (32, False), (64, False)
        ]
        assert info["steps"] == 64 and np.isfinite(info["estimate"])
        monkeypatch.setattr(cli, "REFERENCE_MACRO_CAP", 16)
        with pytest.raises(BlowupError):  # at the cap it ends the experiment
            cli._reference_states(s0, nmat, idx, 0.1)

    def test_stiff_flow_raises_no_runtime_warning(self):
        s0, nmat = cli.sample_state(8, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, info = cli._reference_states(s0, nmat, IntegralIndex(6, 2), 0.1)
        assert info["steps"] == cli.REFERENCE_MACRO_CAP and info["met_budget"] is False


class TestNumericalFailure:
    def test_named_error_leaves_no_stale_csv(self, tmp_path, monkeypatch):
        # An earlier run's CSV stayed beside the summary of a run that wrote none.
        (tmp_path / "flow.csv").write_text("# an earlier run\n")

        def blowup(*args):
            raise BlowupError("state left the admissible region")

        monkeypatch.setattr(cli, "integrate", blowup)
        assert run_cli(["flow", "--n", 3, "--t", 0.1, "--seed", 1, "--out", tmp_path]) == 1
        assert not (tmp_path / "flow.csv").exists()
        summary = json.loads((tmp_path / "flow.json").read_text())
        assert [(g["name"], g["pass"]) for g in summary["gates"]] == [("BlowupError", False)]

    def test_usage_error_in_a_runner_leaves_no_stale_outputs(self, tmp_path, capsys):
        assert run_cli(["flow", "--n", 3, "--t", 0.1, "--seed", 1, "--out", tmp_path]) == 0
        assert run_cli(["flow", "--n", 3, "--k", 5, "--seed", 1, "--out", tmp_path]) == 2
        assert "usage error: index (5,0) not admissible" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_flow_warns_nothing(self, tmp_path, capsys):
        # A stage of this (7, 0) flow overflows in the symmetrizer sweep before
        # the step's state reaches the guard; numpy used to warn twice first.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(["flow", "--n", 8, "--k", 7, "--l", 0, "--t", 0.1, "--seed", 10, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == 1
        assert "BlowupError" in err and "Warning" not in err and "Traceback" not in err
        summary = json.loads((tmp_path / "flow.json").read_text())
        assert [(g["name"], g["pass"]) for g in summary["gates"]] == [("BlowupError", False)]

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

    def test_undersampled_circle_becomes_failing_gate(self, tmp_path, capsys):
        code = run_cli(["all", "--n", 3, "--t", 0.4, "--seed", 9, "--m", 8, "--out", tmp_path])
        assert code == 1
        assert {p.stem for p in tmp_path.glob("*.json")} == set(cli.EXPERIMENTS)
        summary = json.loads((tmp_path / "factorize.json").read_text())
        assert [(g["name"], g["pass"]) for g in summary["gates"]] == [("AliasingError", False)]
        err = capsys.readouterr().err
        assert "failed gates: factorize:AliasingError\n" in err and "Traceback" not in err

    def test_all_mode_continues_after_failure(self, tmp_path, monkeypatch):
        def blows_up(cfg):
            raise BlowupError("state left the admissible region")

        runners = {name: (lambda cfg: ([Gate.leq("ok", 0.0, 1.0)], None)) for name in cli.RUNNERS}
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
        # Each summary records the fields its experiment reads, and the
        # tolerances, from which perfbench scores gate margins.
        values = {"n": 3, "seed": 9, "k": 2, "l": 0, "t_final": 0.4, "h": 1e-3, "m_samples": 256, "depth": 40}
        for path in tmp_path.glob("*.json"):
            config = json.loads(path.read_text())["config"]
            reads = {name: values[name] for name in cli.READS[path.stem]}
            assert config == {"experiment": path.stem, **reads, "tolerances": cli.TOLERANCES}
        assert run_cli(["report", tmp_path]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pass"] is True and len(payload["experiments"]) == 7


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()


class TestNonFiniteTimeOrStep:
    # Only the sign used to be checked: --t inf escaped as an OverflowError,
    # a NaN time became a FactorizationError gate, and --h inf took one step
    # and failed every drift gate.
    @pytest.mark.parametrize(
        "args",
        [
            ["flow", "--n", 4, "--t", "inf", "--seed", 1],
            ["factorize", "--n", 4, "--t", "nan", "--seed", 1],
            ["flow", "--n", 4, "--h", "inf", "--seed", 1],
            ["flow", "--n", 4, "--h", "nan", "--seed", 1],
            ["all", "--n", 3, "--t", "nan", "--seed", 1],
            ["pde", "--n", 4, "--h", "nan", "--seed", 1],
        ],
    )
    def test_flag_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert_usage_error(run_cli([*args, "--out", out]), capsys, out)


class TestStepCap:
    # The step count t / h overflowed int() in rk4_path, or asked np.empty
    # for the whole path; now it is refused before any runner starts.
    @pytest.mark.parametrize("command", ["flow", "pde", "all"])
    @pytest.mark.parametrize(
        "t, h", [(1e306, 1e-3), (1.0, 1e-320), (1e9, 1e-3)], ids=["t-overflow", "h-overflow", "t-huge"]
    )
    def test_usage_error(self, tmp_path, capsys, command, t, h):
        out = tmp_path / "out"
        code = run_cli([command, "--n", 4, "--t", t, "--h", h, "--seed", 1, "--out", out])
        assert_usage_error(code, capsys, out)

    def test_factorize_does_not_step_with_h(self, tmp_path):
        # The step cap is for the runners that step with h; factorize never reads it.
        cfg = cli.ExperimentConfig("factorize", n=4, t_final=0.2, h=1e-9, seed=2, out_dir=tmp_path)
        assert cli.run(cfg) == 0


class TestSampleCap:
    # --m was checked only for being a power of two; a huge one went on to
    # circle_points and expm with that many samples.  Now it is refused
    # before any runner starts.
    @pytest.mark.parametrize("command", ["factorize", "all"])
    @pytest.mark.parametrize("m", [2 * cli.MAX_SAMPLES, 2**40])
    def test_usage_error(self, tmp_path, capsys, command, m):
        out = tmp_path / "out"
        code = run_cli([command, "--n", 4, "--t", 0.2, "--m", m, "--seed", 1, "--out", out])
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize("m", [1024, cli.MAX_SAMPLES])
    def test_largest_counts_run(self, tmp_path, m):
        assert run_cli(["factorize", "--n", 4, "--t", 0.2, "--m", m, "--seed", 2, "--out", tmp_path]) == 0


class TestDimensionCap:
    # Nothing bounded --n: factorize at n = 65, k = 64 ended in a failing
    # WindowOverflowError gate, and the symmetrizer tables grow as n^4.  Now
    # a larger n is refused before any runner starts.
    @pytest.mark.parametrize("command", ["factorize", "all"])
    def test_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = run_cli([command, "--n", cli.MAX_N + 1, "--k", 64, "--t", 0.1, "--seed", 1, "--out", out])
        assert_usage_error(code, capsys, out)

    @pytest.mark.parametrize("command", ["findim", "commute"])
    def test_largest_n_runs(self, tmp_path, command):
        assert cli.MAX_N == 64
        assert run_cli([command, "--n", cli.MAX_N, "--seed", 1, "--out", tmp_path]) == 0


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

    def test_mixed_runs_aggregate_failure(self, tmp_path, capsys, monkeypatch):
        assert run_cli(["invariants", "--n", 3, "--seed", 1, "--out", tmp_path]) == 0
        monkeypatch.setitem(cli.TOLERANCES, "drift", 1e-18)
        assert run_cli(["flow", "--n", 3, "--t", 1.0, "--seed", 7, "--out", tmp_path]) == 1
        assert run_cli(["report", tmp_path]) == 1
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pass"] is False
        assert any(f.startswith("flow:") for f in payload["failures"])

    def test_corrupt_file(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        assert run_cli(["report", tmp_path]) == 2

    @pytest.mark.parametrize(
        "content",
        [b"[]", b'{"experiment": "flow", "gates": [1]}', b'{"experiment": "flow", "gates": {}}',
         b'{"experiment": "flow", "gates": [{"value": 1}]}', b"3", b"\xff\xfe{"],
    )
    def test_file_that_is_not_a_summary(self, tmp_path, capsys, content):
        # A summary is an object with a list of named gate objects.  Anything
        # else, or bytes that are not UTF-8, is a report error, not a
        # traceback with exit 1, the code of a failed gate.
        (tmp_path / "x.json").write_bytes(content)
        assert run_cli(["report", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "report error:" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


def test_every_runner_returns_gates_and_diagnostics(tmp_path):
    for name, runner in cli.RUNNERS.items():
        gates, diagnostics = runner(cli.ExperimentConfig(name, n=3, seed=9, t_final=0.1, out_dir=tmp_path))
        assert gates and all(isinstance(g, Gate) for g in gates)
        assert (diagnostics is not None) == (name == "factorize")


def test_tracer_finds_every_runner(monkeypatch):
    """The benchmark's tracer wraps the runners only where biflow.cli defines them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    tracer.Tracer()
    for name in tracer.CLI_NAMES:
        runner = getattr(cli, name)
        assert isinstance(runner, FunctionType) and runner.__module__ == "biflow.cli"
        assert runner in cli.RUNNERS.values()


def test_csv_rows_match_per_value_repr(tmp_path):
    """Each CSV row is written from one tolist(); the bytes are those of repr(float(v)) per value."""
    rows = np.array(
        [[0.0, -0.0, 5e-324, 2.2250738585072014e-308], [1.0, 3.0, -7.0, 0.1], [1e300, -1e-300, 1 / 3, 2.5]]
    )
    mixed = [[0, -0.0, 5e-324, np.float64(2.2250738585072014e-308)], [1, 3, -7, np.float64(0.1)], rows[2]]
    for case in (rows, mixed, list(zip(*rows.T))):
        cfg = cli.ExperimentConfig("flow", n=4, seed=0, out_dir=tmp_path)
        cli._write_csv(cfg, ["a", "b", "c", "d"], case)
        body = (tmp_path / "flow.csv").read_text().splitlines()[4:]
        assert body == [",".join(repr(float(v)) for v in row) for row in case]
        assert body[0] == "0.0,-0.0,5e-324,2.2250738585072014e-308" and body[1] == "1.0,3.0,-7.0,0.1"
