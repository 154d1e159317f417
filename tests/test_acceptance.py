"""Acceptance gates for the whole laboratory.

Each test is one gate: it runs the experiment at the pinned tolerance,
prints one [PASS]/[FAIL] line (visible with ``pytest -s``), and enforces
the stated wall-clock budget.  Criteria 2, 4 and 6 call the command
line's experiment runners, so both share one definition of each.  Run with:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from biflow.blockpde import (
    BlockState,
    PDEState,
    embed,
    integrate_block,
    integrate_pde,
    l2_pair,
    n0,
    parity_leakage,
    rhs_cubic,
    rhs_quadratic,
    rhs_reduced,
)
from biflow.cli import ExperimentConfig, run_commute, run_factorize, run_flow, sample_state
from biflow.findim import (
    DualElem,
    GroupElem,
    coadjoint_f,
    group_mul,
    induced_flow_rhs,
    orbit_dimension_f,
)
from biflow.flows import bi_rhs, flow_commutation, integrate_matrix, m_rhs, rk4_path
from biflow.invariants import IntegralIndex, enumerate_indices, integral_independence_rank
from biflow.matcore import (
    SplitMix64,
    commutator,
    numerical_rank,
    random_matrix,
    random_skew_simple,
    random_sym,
)
from biflow.symmetrizer import (
    cayley_hamilton_dependence,
    degree_below,
    generic_independence,
    lemma_a_residual,
    parity_check,
    sym,
    witness_pair,
)


def gate(num, description, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({detail}; {elapsed:.1f}s/{budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


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
    gates = []
    for n in range(2, 6):
        for seed in range(10):
            cfg = ExperimentConfig("commute", n=n, seed=100 * n + seed, out_dir=tmp_path)
            gates += run_commute(cfg)
    gate(2, "all Poisson brackets vanish (n<=5, 10 seeds)", all(g.passed for g in gates),
         f"max relative bracket {worst(gates):.3e} <= 1e-10", time.time() - start, 10.0)


def test_criterion_3_generic_independence():
    start = time.time()
    ok = True
    detail = []
    for n in range(3, 7):
        hits = sum(
            integral_independence_rank(*sample_state(n, 1000 * n + seed)) == n * n // 4
            for seed in range(20)
        )
        detail.append(f"n={n}: {hits}/20")
        ok = ok and hits >= 19
    gate(3, "vector-field rank floor(n^2/4) in >=19/20 seeds (n=3..6)", ok,
         ", ".join(detail), time.time() - start, 30.0)


def test_criterion_4_conservation(tmp_path):
    start = time.time()
    cfg = ExperimentConfig("flow", n=4, seed=42, k=2, l=0, t_final=5.0, h=1e-3, out_dir=tmp_path)
    gates = run_flow(cfg)
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
    cfg = ExperimentConfig(
        "factorize", n=3, seed=21, k=2, l=0, t_final=1.0, m_samples=256, depth=40,
        out_dir=tmp_path,
    )
    gates = run_factorize(cfg)
    windings = [int(g.value) for g in gates if g.name.startswith("det_winding")]
    gate(6, "Birkhoff solution matches RK4 (n=3, t in {0.25,0.5,1.0})",
         all(g.passed for g in gates),
         f"|dS| {worst(gates, 'ode_gap'):.3e}, residual {worst(gates, 'birkhoff_residual'):.3e}, "
         f"symmetry {worst(gates, 'factor_symmetry'):.3e}, windings {windings}",
         time.time() - start, 60.0)


def test_criterion_7_symmetrizer_identities():
    start = time.time()
    # (a) commutator cancellation at unit scale (identity residual is
    # measured relative to scale; unit-norm inputs make that absolute).
    worst_a = 0.0
    for n in (2, 3, 4, 5):
        for trial in range(3):
            a = random_matrix(n, seed=17 * n + trial)
            b = random_matrix(n, seed=91 * n + trial)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            for i in range(9):
                for j in range(9 - i):
                    worst_a = max(worst_a, lemma_a_residual(a, b, i, j))
    # (b) symmetric/skew parity of sym_{ij}(S, N)
    parity_ok = all(
        parity_check(*sample_state(n, 31 * n + t), i, j)
        for n in (3, 4, 5)
        for t in range(3)
        for i in range(4)
        for j in range(4)
    )
    # (c) Cayley-Hamilton dependence of degree-n symmetrizers
    worst_c = max(
        cayley_hamilton_dependence(random_matrix(n, seed=3 * n), random_matrix(n, seed=7 * n))
        for n in (2, 3, 4, 5)
    )
    # (d) geometric-progression witness plus random sampling
    witness_ok = True
    for n in (2, 3, 4, 5):
        aw, bw = witness_pair(n, c=2.0)
        fams = [sym(aw, bw, i, j) for i, j in degree_below(n)]
        fams = [f / np.linalg.norm(f) for f in fams]
        witness_ok = witness_ok and numerical_rank(fams) == n * (n + 1) // 2
    hits = sum(
        generic_independence(*sample_state(4, 5000 + seed)) == 10 for seed in range(20)
    )
    ok = worst_a <= 1e-12 and parity_ok and worst_c <= 1e-8 and witness_ok and hits >= 19
    gate(7, "symmetrizer identity suite (cancellation, parity, dependence, independence)",
         ok,
         f"(a) {worst_a:.3e}, (b) {parity_ok}, (c) {worst_c:.3e}, (d) witness {witness_ok}, "
         f"{hits}/20 seeds", time.time() - start, 30.0)


def test_criterion_8_finite_dimensional_realization():
    start = time.time()
    law = homo = induced = 0.0
    for seed in range(50):
        n = 3 + (seed % 2)
        g1 = GroupElem(*sample_state(n, 300 + seed))
        g2 = GroupElem(*sample_state(n, 400 + seed))
        a = DualElem(*sample_state(n, 500 + seed))
        law = max(law, float(np.linalg.norm(group_mul(g1, g2).full() - g1.full() @ g2.full())))
        lhs = coadjoint_f(group_mul(g1, g2), a)
        rhs = coadjoint_f(g1, coadjoint_f(g2, a))
        homo = max(homo, float(np.linalg.norm(lhs.S.full() - rhs.S.full())))
        induced = max(
            induced,
            float(np.linalg.norm(induced_flow_rhs(a).S.full() - bi_rhs(a.S, a.N).full())),
        )
    dims_ok = all(
        orbit_dimension_f(random_skew_simple(n, 600 + n)) == 2 * (n * n // 4)
        for n in range(2, 7)
    )
    ok = law <= 1e-13 and homo <= 1e-12 and induced <= 1e-12 and dims_ok
    gate(8, "3n x 3n realization (group law, Ad* homomorphism, induced flow, orbit dims)",
         ok,
         f"law {law:.3e}, homomorphism {homo:.3e}, induced {induced:.3e}, dims {dims_ok}",
         time.time() - start, 10.0)


def test_criterion_9_m_equation():
    start = time.time()
    ident = 0.0
    for seed in range(10):
        s, k = sample_state(4, 700 + seed)
        ident = max(
            ident,
            float(np.linalg.norm(m_rhs(s.full() + k.full()) - bi_rhs(s, k).full())),
        )
    s, k = sample_state(3, seed=77)
    _, path = integrate_matrix(s.full() + k.full(), m_rhs, t_final=1.0, h=1e-3)
    skew0 = 0.5 * (path[0] - path[0].T)
    skew_drift = max(float(np.linalg.norm(0.5 * (m - m.T) - skew0)) for m in path)
    ok = ident <= 1e-12 and skew_drift <= 1e-10
    gate(9, "full-matrix flow: skew part frozen, velocity equals bi_rhs", ok,
         f"identity {ident:.3e}, skew drift {skew_drift:.3e}", time.time() - start, 10.0)


def test_criterion_10_block_and_pde():
    start = time.time()
    rng = SplitMix64(88)
    m = 4
    bs = BlockState(
        rng.uniform(), rng.uniform(), rng.uniform(),
        np.array([rng.uniform() for _ in range(m)]),
        np.array([rng.uniform() for _ in range(m)]),
        random_sym(m, seed=89),
    )
    nf = n0(bs.n).full()
    sf = embed(bs).full()
    quad_gap = float(np.abs(embed(rhs_quadratic(bs)).full() - commutator(nf, sf @ sf)).max())
    cubic_gap = float(np.abs(embed(rhs_cubic(bs)).full() - commutator(nf, sf @ sf @ sf)).max())
    _, path = integrate_block(bs, rhs_quadratic, t_final=1.0, h=1e-3)
    trace_gap = max(abs((st.a + st.c) - (bs.a + bs.c)) for st in path)

    dim = bs.u.size
    y0 = np.concatenate([bs.u, bs.v])
    _, red_path = rk4_path(
        lambda y: np.concatenate(rhs_reduced(y[:dim], y[dim:], bs.B)), y0, 1.0, 1e-3
    )
    red_drift = max(abs(float(y @ y) - float(y0 @ y0)) for y in red_path)

    modes = 64
    x = 2.0 * np.pi * np.arange(modes) / modes
    st0 = PDEState.from_fields(
        0.4 * np.sin(x) + 0.2 * np.sin(3 * x), 0.3 * np.sin(2 * x), parity="odd"
    )
    _, pde_path = integrate_pde(st0, t_final=1.0, h=1e-3)
    base = l2_pair(st0)
    l2_drift = max(abs(l2_pair(stt) - base) for stt in pde_path)
    leak = max(parity_leakage(stt) for stt in pde_path)
    ok = (
        quad_gap <= 1e-13
        and cubic_gap <= 1e-12
        and trace_gap <= 1e-10
        and red_drift <= 1e-6
        and l2_drift <= 1e-6
        and leak <= 1e-12
    )
    gate(10, "block oracle, a+c conservation, reduced/PDE L2 and parity", ok,
         f"quad {quad_gap:.3e}, cubic {cubic_gap:.3e}, a+c {trace_gap:.3e}, "
         f"reduced L2 {red_drift:.3e}, PDE L2 {l2_drift:.3e}, parity {leak:.3e}",
         time.time() - start, 60.0)
