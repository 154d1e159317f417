"""Acceptance gates for the whole laboratory.

Each test is one gate: it runs the experiment at the pinned tolerance,
prints one [PASS]/[FAIL] line (visible with ``pytest -s``), and enforces
the stated wall-clock budget.  Criteria 2, 3, 4, 6, 7, 8 and 10 run the
command line's experiment runners (``commute``, ``invariants``, ``flow``,
``factorize``, ``lemma41``, ``findim`` and ``pde``) over a grid of
configurations and assert their gates, so both share one definition of
each experiment.  What no runner checks stays here: criteria 1, 5 and 9,
criterion 7's cancellation sweep up to degree 8 and criterion 10's
reduced (u, v) system.  Run with:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from biflow.blockpde import rhs_reduced
from biflow.cli import RUNNERS, ExperimentConfig, sample_state
from biflow.flows import bi_rhs, flow_commutation, m_rhs, rk4_path
from biflow.invariants import IntegralIndex, enumerate_indices
from biflow.matcore import SplitMix64, random_matrix, random_sym
from biflow.symmetrizer import SymmetrizerTable


def gate(num, description, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({detail}; {elapsed:.1f}s/{budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def runner_gates(name, tmp_path, configs):
    """Every gate of the command line's ``name`` runner, run once per config.

    Each config is a dict of :class:`ExperimentConfig` fields.  A runner
    returns its gates and its diagnostics; only the gates are kept.
    """
    gates = []
    for fields in configs:
        gates += RUNNERS[name](ExperimentConfig(name, out_dir=tmp_path, **fields))[0]
    return gates


def worst(gates, prefix=""):
    """Largest value among the gates whose names start with ``prefix``."""
    return max(g.value for g in gates if g.name.startswith(prefix))


def test_criterion_1_integral_count():
    start = time.time()
    ok = all(len(enumerate_indices(n)) == n * n // 4 for n in range(2, 13))
    gate(1, "integral count equals floor(n^2/4) for n=2..12", ok,
         "exact integer identity", time.time() - start, 1.0)


def test_criterion_2_pairwise_commutation(tmp_path):
    start = time.time()
    configs = [{"n": n, "seed": 100 * n + s} for n in range(2, 6) for s in range(10)]
    gates = runner_gates("commute", tmp_path, configs)
    gate(2, "all Poisson brackets vanish (n<=5, 10 seeds)", all(g.passed for g in gates),
         f"max relative bracket {worst(gates):.3e} <= 1e-10", time.time() - start, 10.0)


def test_criterion_3_generic_independence(tmp_path):
    start = time.time()
    ok = True
    detail = []
    rest = []  # the integral-count and spectral-evenness gates, which must all pass
    for n in range(3, 7):
        configs = [{"n": n, "seed": 1000 * n + s} for s in range(20)]
        gates = runner_gates("invariants", tmp_path, configs)
        hits = sum(g.passed for g in gates if g.name == "independence_rank")
        rest += [g for g in gates if g.name != "independence_rank"]
        detail.append(f"n={n}: {hits}/20")
        ok = ok and hits >= 19
    gate(3, "vector-field rank floor(n^2/4) in >=19/20 seeds, count and evenness in all "
         "(n=3..6)", ok and all(g.passed for g in rest),
         ", ".join(detail) + f"; evenness {worst(rest, 'spectral_evenness'):.3e}",
         time.time() - start, 30.0)


def test_criterion_4_conservation(tmp_path):
    start = time.time()
    gates = runner_gates(
        "flow", tmp_path, [{"n": 4, "seed": 42, "k": 2, "l": 0, "t_final": 5.0, "h": 1e-3}]
    )
    top = max(gates, key=lambda g: g.value)
    detail = f"worst {top.name.removeprefix('drift_')}: {top.value:.3e}"
    gate(4, "every invariant drifts <= 1e-8 on the n=4 flow over [0,5]",
         all(g.passed for g in gates), detail, time.time() - start, 60.0)


def test_criterion_5_flow_commutation():
    start = time.time()
    s, k = sample_state(4, seed=11)
    pairs = [
        (IntegralIndex(2, 0), IntegralIndex(3, 2)),
        (IntegralIndex(1, 0), IntegralIndex(3, 0)),
        (IntegralIndex(3, 0), IntegralIndex(3, 2)),
    ]
    worst = max(
        flow_commutation(s, k, i1, i2, s=0.5, t=0.5, h=1e-4) for i1, i2 in pairs
    )
    gate(5, "flow maps commute to 1e-6 (n=4, three index pairs)", worst <= 1e-6,
         f"max defect {worst:.3e}", time.time() - start, 60.0)


def test_criterion_6_factorization_solution(tmp_path):
    start = time.time()
    cfg = {"n": 3, "seed": 21, "k": 2, "l": 0, "t_final": 1.0, "m_samples": 256, "depth": 40}
    gates = runner_gates("factorize", tmp_path, [cfg])
    windings = [int(g.value) for g in gates if g.name.startswith("det_winding")]
    gate(6, "Birkhoff solution matches the ODE reference (n=3, t in {0.25,0.5,1.0})",
         all(g.passed for g in gates),
         f"|dS| {worst(gates, 'ode_gap'):.3e}, residual {worst(gates, 'birkhoff_residual'):.3e}, "
         f"symmetry {worst(gates, 'factor_symmetry'):.3e}, windings {windings}",
         time.time() - start, 60.0)


def test_criterion_7_symmetrizer_identities(tmp_path):
    start = time.time()
    # Commutator cancellation up to degree 8, past the runner's degree 4, at
    # unit scale (the residual is relative to scale; unit-norm inputs make
    # it absolute).
    worst_a = 0.0
    for n in (2, 3, 4, 5):
        for trial in range(3):
            a = random_matrix(n, seed=17 * n + trial)
            b = random_matrix(n, seed=91 * n + trial)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            table = SymmetrizerTable(a, b, 9)
            for i in range(9):
                for j in range(9 - i):
                    worst_a = max(worst_a, table.cancellation(i, j))
    configs = [{"n": n, "seed": 100 * n + s} for n in range(2, 6) for s in range(3)]
    gates = runner_gates("lemma41", tmp_path, configs)
    passed = sum(g.passed for g in gates)
    gate(7, "symmetrizer identity suite (cancellation, parity, dependence, independence)",
         worst_a <= 1e-12 and passed == len(gates),
         f"degree<=8 cancellation {worst_a:.3e}, runner cancellation "
         f"{worst(gates, 'cancellation'):.3e}, dependence {worst(gates, 'degree_reduction'):.3e}, "
         f"{passed}/{len(gates)} gates (n=2..5, 3 seeds)",
         time.time() - start, 30.0)


def test_criterion_8_finite_dimensional_realization(tmp_path):
    start = time.time()
    configs = [{"n": n, "seed": 1000 * n + 30 * s} for n in (3, 4) for s in range(5)]
    gates = runner_gates("findim", tmp_path, configs)
    dims_ok = all(g.passed for g in gates if g.name == "orbit_dimensions")
    gate(8, "3n x 3n realization (group law, Ad* homomorphism, induced flow, orbit dims)",
         all(g.passed for g in gates),
         f"law {worst(gates, 'group_law'):.3e}, homomorphism {worst(gates, 'homomorphism'):.3e}, "
         f"induced {worst(gates, 'induced_flow'):.3e}, dims {dims_ok}",
         time.time() - start, 10.0)


def test_criterion_9_m_equation():
    start = time.time()
    ident = 0.0
    for seed in range(10):
        s, k = sample_state(4, 700 + seed)
        ident = max(
            ident,
            float(np.linalg.norm(m_rhs(s + k) - bi_rhs(s, k))),
        )
    s, k = sample_state(3, seed=77)
    _, path = rk4_path(m_rhs, s + k, t_final=1.0, h=1e-3)
    skew0 = 0.5 * (path[0] - path[0].T)
    skew_drift = max(float(np.linalg.norm(0.5 * (m - m.T) - skew0)) for m in path)
    ok = ident <= 1e-12 and skew_drift <= 1e-10
    gate(9, "full-matrix flow: skew part frozen, velocity equals bi_rhs", ok,
         f"identity {ident:.3e}, skew drift {skew_drift:.3e}", time.time() - start, 10.0)


def test_criterion_10_block_and_pde(tmp_path):
    start = time.time()
    gates = runner_gates("pde", tmp_path, [{"n": 6, "seed": 88, "t_final": 1.0, "h": 1e-3}])
    value = {g.name: g.value for g in gates}
    # The reduced (u, v) system, which no runner integrates, keeps |u|^2 + |v|^2.
    y0 = SplitMix64(88).matrix(2, 4).ravel()
    b = random_sym(4, seed=89)
    _, red_path = rk4_path(
        lambda y: np.concatenate(rhs_reduced(y[:4], y[4:], b)), y0, 1.0, 1e-3
    )
    red_drift = np.abs(np.vecdot(red_path, red_path) - float(y0 @ y0)).max()
    gate(10, "block oracle, a+c conservation, reduced/PDE L2 and parity",
         all(g.passed for g in gates) and red_drift <= 1e-6,
         f"quad {value['block_oracle_quadratic']:.3e}, cubic {value['block_oracle_cubic']:.3e}, "
         f"a+c {value['trace_pair']:.3e}, reduced L2 {red_drift:.3e}, "
         f"PDE L2 {value['l2_drift']:.3e}, parity {value['parity']:.3e}",
         time.time() - start, 60.0)
