import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow import blockpde, cli, flows, invariants, matcore, symmetrizer
from biflow.flows import (
    BLOWUP_NORM,
    BlowupError,
    bi_rhs,
    drift_report,
    flow_commutation,
    gbs_path,
    integrate,
    invariant_series,
    m_rhs,
    rk4_path,
    vector_field,
    vector_field_s_form,
)
from biflow.invariants import IntegralIndex, casimirs, enumerate_indices, spectral_coeffs
from biflow.laurent import BILoop, loop_power
from biflow.matcore import (
    SkewMatrix,
    SymMatrix,
    commutator,
    eigenvalues_sym,
    random_orthogonal,
    random_skew_simple,
    random_sym,
)

N2 = SkewMatrix.from_full(np.array([[0.0, 1.0], [-1.0, 0.0]]))
S2 = SymMatrix.from_full(np.diag([1.0, 2.0]))


def embed2(n):
    """diag(1,2) and the elementary rotation block, padded to dimension n."""
    s = np.zeros((n, n))
    s[0, 0], s[1, 1] = 1.0, 2.0
    k = np.zeros((n, n))
    k[0, 1], k[1, 0] = 1.0, -1.0
    return SymMatrix.from_full(s), SkewMatrix.from_full(k)


class TestVectorField:
    def test_bi_hand_value(self):
        s, n = embed2(3)
        got = vector_field(s, n, IntegralIndex(2, 0)).full()
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = 3.0
        npt.assert_allclose(got, want, atol=1e-14)

    def test_k1_is_rotation_generator(self):
        s = random_sym(4, seed=1)
        n = random_skew_simple(4, seed=2)
        got = vector_field(s, n, IntegralIndex(1, 0)).full()
        npt.assert_allclose(got, commutator(n.full(), s.full()), atol=1e-14)

    def test_commuting_pair_is_fixed_point(self):
        n = random_skew_simple(4, seed=3)
        nf = n.full()
        s = SymMatrix.symmetric_part(nf @ nf)  # polynomial in N commutes with N
        for idx in enumerate_indices(4):
            assert vector_field(s, n, idx).norm() <= 1e-13

    def test_two_forms_agree(self):
        for n_dim in (3, 4, 5, 6):
            for seed in range(20):
                s = random_sym(n_dim, seed=1000 * n_dim + seed)
                k = random_skew_simple(n_dim, seed=2000 * n_dim + seed)
                for idx in enumerate_indices(n_dim):
                    a = vector_field(s, k, idx).full()
                    b = vector_field_s_form(s, k, idx).full()
                    scale = max(1.0, np.linalg.norm(a))
                    npt.assert_allclose(a, b, atol=1e-12 * scale)

    def test_tangent_to_casimir_levels(self):
        s = random_sym(5, seed=4)
        n = random_skew_simple(5, seed=5)
        nf = n.full()
        for idx in enumerate_indices(5):
            v = vector_field(s, n, idx).full()
            for l in range(0, 5, 2):
                val = np.trace(v @ np.linalg.matrix_power(nf, l))
                assert abs(val) <= 1e-12 * max(1.0, np.linalg.norm(v))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_field_bitwise_symmetric(self, n):
        # P + P^T with P = N M is symmetric bit for bit, alone and on a
        # stack, and equals the commutator N M - M N to rounding.
        for seed in (1, 2, 3):
            sf, nf = random_sym(n, seed).full(), random_skew_simple(n, seed + 50).full()
            stack = np.stack([sf, 0.5 * sf])
            for idx in enumerate_indices(n):
                f = flows._field(sf, nf, idx)
                assert np.array_equal(f, f.T), (n, seed, idx)
                fs = flows._field(stack, nf, idx)
                assert np.array_equal(fs, fs.transpose(0, 2, 1)), (n, seed, idx)
                npt.assert_array_equal(fs[0], f)
                m = symmetrizer.sym(sf, nf, idx.k - idx.l, idx.l)
                want = nf @ m - m @ nf
                npt.assert_allclose(f, want, rtol=0, atol=1e-14 * max(1.0, np.abs(want).max()))

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            vector_field(S2, N2, IntegralIndex(2, 0))

    def test_loop_equation_closes_on_window(self):
        # The loop motion [P+(X^k z^-(l+1)), X] stays inside the S + zN
        # window: its z^0 part is the S-velocity, the z^1 part (N-velocity)
        # and everything above cancel through the commutator identity.
        from biflow.invariants import gradient_loop
        from biflow.laurent import BILoop, loop_commutator, proj_plus

        for seed in range(5):
            s = random_sym(4, seed=60 + seed)
            n = random_skew_simple(4, seed=70 + seed)
            x = BILoop(s, n)
            for idx in enumerate_indices(4):
                motion = loop_commutator(proj_plus(gradient_loop(x, idx)), x.loop())
                scale = max(1.0, motion.norm())
                npt.assert_allclose(
                    motion.coeff(0),
                    vector_field(s, n, idx).full(),
                    atol=1e-12 * scale,
                )
                assert motion.lo >= 0
                for d in range(1, motion.hi + 1):
                    assert np.linalg.norm(motion.coeff(d)) <= 1e-12 * scale


class TestBiRhs:
    def test_hand_value(self):
        npt.assert_allclose(
            bi_rhs(S2, N2).full(), np.array([[0.0, 3.0], [3.0, 0.0]]), atol=1e-14
        )

    def test_identity_fixed(self):
        assert bi_rhs(SymMatrix.from_full(np.eye(3)), random_skew_simple(3, seed=6)).norm() == 0.0

    def test_lax_identity(self):
        for seed in range(10):
            s = random_sym(5, seed=10 + seed)
            n = random_skew_simple(5, seed=20 + seed)
            sf, nf = s.full(), n.full()
            lhs = commutator(nf @ sf + sf @ nf, sf)
            rhs = commutator(nf, sf @ sf)
            assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(lhs))

    def test_orthogonal_equivariance(self):
        for seed in range(5):
            s = random_sym(4, seed=30 + seed)
            n = random_skew_simple(4, seed=40 + seed)
            q = random_orthogonal(4, seed=50 + seed)
            inner = bi_rhs(
                SymMatrix.symmetric_part(q.T @ s.full() @ q),
                SkewMatrix.skew_part(q.T @ n.full() @ q),
            ).full()
            outer = q.T @ bi_rhs(s, n).full() @ q
            assert np.linalg.norm(inner - outer) <= 1e-12 * max(1.0, np.linalg.norm(outer))

    def test_matches_bi_index_field(self):
        s = random_sym(4, seed=7)
        n = random_skew_simple(4, seed=8)
        npt.assert_allclose(
            bi_rhs(s, n).full(),
            vector_field(s, n, IntegralIndex(2, 0)).full(),
            atol=1e-13,
        )


class TestIntegrate:
    def test_zero_time(self):
        s = random_sym(3, seed=9)
        n = random_skew_simple(3, seed=10)
        _, states = integrate(s, n, IntegralIndex(2, 0), t_final=0.0, h=1e-2)
        assert len(states) == 1
        npt.assert_array_equal(states[0], s.full())

    def test_commuting_initial_state_constant(self):
        n = random_skew_simple(3, seed=11)
        nf = n.full()
        s = SymMatrix.symmetric_part(nf @ nf)
        _, states = integrate(s, n, IntegralIndex(2, 0), t_final=1.0, h=1e-2)
        assert np.linalg.norm(states[-1] - s.full()) <= 1e-12

    def test_states_exactly_symmetric(self):
        s = random_sym(3, seed=12)
        n = random_skew_simple(3, seed=13)
        _, states = integrate(s, n, IntegralIndex(2, 0), t_final=0.5, h=1e-2)
        assert states.shape == (51, 3, 3)
        assert np.array_equal(states, states.transpose(0, 2, 1))

    @pytest.mark.parametrize("n, k, l", [(6, 3, 0), (8, 4, 2), (8, 7, 0)])
    def test_higher_flow_states_exactly_symmetric(self, n, k, l):
        # No step projects: the field alone keeps every state symmetric.
        s = random_sym(n, seed=12)
        nmat = random_skew_simple(n, seed=13)
        _, states = integrate(s, nmat, IntegralIndex(k, l), t_final=0.05, h=1e-3)
        assert np.array_equal(states, states.transpose(0, 2, 1))

    def test_fourth_order_endpoint(self):
        s = random_sym(3, seed=14)
        n = random_skew_simple(3, seed=15)
        idx = IntegralIndex(2, 0)
        end = {}
        for h in (4e-2, 2e-2, 1e-2):
            end[h] = integrate(s, n, idx, t_final=1.0, h=h)[1][-1]
        e1 = np.linalg.norm(end[4e-2] - end[1e-2])
        e2 = np.linalg.norm(end[2e-2] - end[1e-2])
        # Differences against the shared h reference scale as
        # (4^4 - 1) / (2^4 - 1) = 17 for a fourth-order method; allow 30%.
        ratio = e1 / e2 if e2 > 0 else np.inf
        assert 0.7 * 17.0 <= ratio <= 1.3 * 17.0

    def test_richardson_difference(self):
        s = random_sym(3, seed=16)
        n = random_skew_simple(3, seed=17)
        a = integrate(s, n, IntegralIndex(2, 0), t_final=1.0, h=1e-3)[1][-1]
        b = integrate(s, n, IntegralIndex(2, 0), t_final=1.0, h=5e-4)[1][-1]
        assert np.linalg.norm(a - b) <= 1e-9

    def test_blowup_guard(self):
        with pytest.raises(BlowupError):
            rk4_path(lambda y: y * y, np.array([[1.0]]), t_final=30.0, h=0.5)

    @pytest.mark.parametrize(
        "t_final, h",
        [(np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf), (1.0, np.nan), (-np.inf, 0.1)],
        ids=["t-inf", "t-nan", "h-inf", "h-nan", "t-minus-inf"],
    )
    def test_refuses_non_finite_time_or_step(self, t_final, h):
        with pytest.raises(ValueError, match="must be finite"):
            rk4_path(lambda y: -y, np.ones((2, 2)), t_final=t_final, h=h)

    # One step of length 1 from zero with a constant right-hand side lands
    # on that constant, so each case puts one chosen state before the guard.
    @pytest.mark.parametrize(
        "entries",
        [
            [np.nan, 0.0, 0.0, 0.0],  # a NaN entry
            [np.inf, 0.0, 0.0, 0.0],  # an inf entry
            [3.0 * BLOWUP_NORM, 0.0, 0.0, 0.0],  # the largest entry above the bound
            [0.6 * BLOWUP_NORM] * 4,  # the norm above the bound, every entry below it
            [1e300, 1e300, 0.0, 0.0],  # huge finite entries, whose norm overflows
        ],
        ids=["nan", "inf", "entry", "norm", "huge"],
    )
    def test_blowup_guard_branches(self, entries):
        state = np.array(entries).reshape(2, 2)
        with pytest.raises(BlowupError):
            rk4_path(lambda y: state, np.zeros((2, 2)), t_final=1.0, h=1.0)

    def test_blowup_guard_passes_large_entries_under_the_norm(self):
        state = np.array([[0.9 * BLOWUP_NORM, 0.0], [0.0, 0.3 * BLOWUP_NORM]])
        _, path = rk4_path(lambda y: state, np.zeros((2, 2)), t_final=1.0, h=1.0)
        assert np.array_equal(path[-1], state)

    def test_overflow_inside_a_stage_is_a_blowup(self):
        # No stage checks its state, so an overflow within a step reaches the
        # guard and ends the run as a numerical error, not as bad input, and
        # without a RuntimeWarning (an error under this suite's settings).
        s = SymMatrix(4, 1e200 * random_sym(4, seed=20).packed)
        n = random_skew_simple(4, seed=21)
        with pytest.raises(BlowupError):
            integrate(s, n, IntegralIndex(2, 0), t_final=1.0, h=0.1)

    def test_no_state_check_per_step(self, monkeypatch):
        # The right-hand side runs on bare arrays: integrate checks its input
        # once, where it starts, and never inside the 400 RK4 stages.
        calls = []
        original = matcore.as_stack

        def counting(x):
            calls.append(1)
            return original(x)

        for module in (matcore, symmetrizer, invariants):
            monkeypatch.setattr(module, "as_stack", counting)
        s = random_sym(4, seed=18)
        n = random_skew_simple(4, seed=19)
        for idx in (IntegralIndex(2, 0), IntegralIndex(3, 2)):
            calls.clear()
            _, states = integrate(s, n, idx, t_final=0.1, h=1e-3)
            assert states.shape == (101, 4, 4)
            assert len(calls) <= 2


def per_step_rk4_path(rhs, y0, t_final, h, project=None):
    """Oracle: rk4_path's steps with each new state guarded as it is made."""
    steps = int(round(t_final / h)) or int(t_final > 0)
    dt = t_final / steps if steps else 0.0
    path = np.empty((steps + 1, *np.shape(y0)))
    y = path[0] = np.asarray(y0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if project is not None:
                y = project(y)
            path[i] = flows._guarded(y)
    return np.linspace(0.0, t_final, steps + 1), path


class TestBlockGuard:
    """rk4_path checks its states GUARD_BLOCK steps at a time, with the per-step verdict."""

    @staticmethod
    def ramp(first_bad):
        """From 0 at unit steps, y' = c puts state i at i c, past the guard from step first_bad on."""
        c = np.array([[BLOWUP_NORM / (first_bad - 0.5)]])
        calls = []
        return (lambda y: calls.append(1) or c), calls

    @pytest.mark.parametrize(
        "first_bad, steps",
        [(70, 200), (100, 100), (64, 200), (128, 128), (1, 1), (1, 64)],
        ids=["mid-block", "last-step-of-a-partial-block", "block-boundary", "last-block-boundary",
             "one-step", "first-step"],
    )
    def test_blowup_at_the_first_bad_state(self, first_bad, steps):
        assert flows.GUARD_BLOCK == 64
        rhs, calls = self.ramp(first_bad)
        _, path = per_step_rk4_path(rhs, np.zeros((1, 1)), first_bad - 1.0, 1.0)
        assert np.linalg.norm(path[-1]) <= BLOWUP_NORM
        for integrate_path in (per_step_rk4_path, rk4_path):
            calls.clear()
            with pytest.raises(BlowupError):
                integrate_path(rhs, np.zeros((1, 1)), float(steps), 1.0)
            # The blown-up run stops at the end of the block holding its first bad state.
            assert first_bad * 4 <= len(calls) <= 4 * min(steps, first_bad + 63)

    def test_ends_of_blocks_pass_under_the_bound(self):
        rhs, calls = self.ramp(201)
        want = per_step_rk4_path(rhs, np.zeros((1, 1)), 200.0, 1.0)
        got = rk4_path(rhs, np.zeros((1, 1)), 200.0, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_error_after_a_bad_state_is_that_blowup(self):
        # y' = y^2 in Python floats: the state passes the bound, and within
        # the same block squaring it raises OverflowError.
        def rhs(y):
            return np.array([[float(y[0, 0]) ** 2]])

        with pytest.raises(BlowupError):
            per_step_rk4_path(rhs, np.ones((1, 1)), 30.0, 0.1)
        with pytest.raises(BlowupError):
            rk4_path(rhs, np.ones((1, 1)), 30.0, 0.1)

    def test_error_before_any_bad_state_propagates(self):
        def rhs(y):
            if y[0, 0] > 10.5:
                raise ZeroDivisionError("from the field")
            return np.ones_like(y)

        with pytest.raises(ZeroDivisionError, match="from the field"):
            rk4_path(rhs, np.zeros((1, 1)), 100.0, 1.0)

    @pytest.mark.parametrize(
        "n, k, l, seed, t, h", [(4, 2, 0, 7, 0.25, 1e-3), (8, 4, 2, 13, 0.2, 1e-3), (3, 2, 0, 1, 7.0, 0.05)]
    )
    def test_flow_field_matches_per_step_oracle(self, monkeypatch, n, k, l, seed, t, h):
        s0, nmat = cli.sample_state(n, seed)
        want = None
        for path in (per_step_rk4_path, rk4_path):
            monkeypatch.setattr(flows, "rk4_path", path)
            got = integrate(s0, nmat, IntegralIndex(k, l), t, h)
            assert want is None or all(np.array_equal(a, b) for a, b in zip(got, want))
            want = got

    @pytest.mark.parametrize("h", [1e-3, 2e-3])
    def test_pde_fields_match_per_step_oracle(self, monkeypatch, h):
        # The pde experiment's two RK4 runs: the quadratic block flow and the
        # projected spectral system.
        x = 2.0 * np.pi * np.arange(64) / 64
        st0 = blockpde.PDEState.from_fields(0.4 * np.sin(x) + 0.2 * np.sin(3 * x), 0.3 * np.sin(2 * x), "odd")
        bs0 = blockpde.extract(cli.sample_state(8, 7)[0])
        paths = []
        for path in (per_step_rk4_path, rk4_path):
            monkeypatch.setattr(blockpde, "rk4_path", path)
            times, st = blockpde.integrate_pde(st0, 1.0, h)
            times_b, bs = blockpde.integrate_block(bs0, 2, 1.0, h)
            paths.append([times, st.u_hat, st.v_hat, times_b, bs.a, bs.b, bs.c, bs.u, bs.v])
        assert all(np.array_equal(a, b) for a, b in zip(*paths))

    @pytest.mark.parametrize("power, h", [(2, 1.0), (3, 0.5)])
    def test_block_flow_blowup_matches_per_step_oracle(self, monkeypatch, power, h):
        # At these steps RK4 leaves the admissible region; the block fields
        # square Python floats, which overflow past the guard.
        bs0 = blockpde.extract(cli.sample_state(8, 7)[0])
        for path in (per_step_rk4_path, rk4_path):
            monkeypatch.setattr(blockpde, "rk4_path", path)
            with pytest.raises(BlowupError):
                blockpde.integrate_block(bs0, power, 50.0, h)

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 33, 64])
    def test_field_on_a_matrix_equals_the_one_state_stack(self, n):
        s0, nmat = cli.sample_state(n, 7)
        nf = nmat.full()
        sf = s0.full()
        for idx in (IntegralIndex(2, 0), IntegralIndex(3, 2), IntegralIndex(5, 2)):
            assert np.array_equal(flows._field(sf, nf, idx), flows._field(sf[None], nf, idx)[0])


def sequential_gbs_path(rhs, y0, t_final, macro):
    """Oracle: the GBS macro steps with the six midpoint sequences run one after
    another, one state per ``rhs`` call, and Aitken-Neville by descending j."""
    q = flows.GBS_STAGES
    path = np.empty((macro + 1, *np.shape(y0)))
    y = path[0] = flows._guarded(np.asarray(y0, dtype=float))
    for i in range(1, macro + 1):
        f0, table = rhs(y), []
        for count in range(2, 2 * q + 1, 2):
            h = t_final / (macro * count)
            prev, z = y, y + h * f0
            for _ in range(count - 1):
                prev, z = z, prev + 2.0 * h * rhs(flows._guarded(z))
            table.append(0.5 * (prev + z + h * rhs(flows._guarded(z))))
        for k in range(1, q):
            for j in range(q - 1, k - 1, -1):
                table[j] = table[j] + (table[j] - table[j - 1]) / (((j + 1) / (j + 1 - k)) ** 2 - 1.0)
        y = path[i] = flows._guarded(table[-1])
    return path


class TestGBS:
    def test_twelfth_order_on_halving_the_macro_step(self):
        # A rotation y' = A y: with q = 6 stages the global error falls like
        # H^12, so each halving of H divides it by about 4096.
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        c, s = np.cos(4.0), np.sin(4.0)
        exact = np.array([[c, s], [-s, c]])
        errs = [
            np.linalg.norm(gbs_path(lambda y: a @ y, np.eye(2), 4.0, macro)[-1] - exact)
            for macro in (1, 2, 4)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert 0.9 * 4096 <= coarse / fine <= 1.1 * 4096

    def test_path_shape_and_field_evaluations(self):
        # One call on the start state, then one per substep index s = 1 .. 2q,
        # on a stack of 6, 6, 5, 5, ..., 1, 1 states: 1 + q(q+1) = 43 states
        # in 1 + 2q = 13 calls per macro step.
        stacks = []

        def rhs(y):
            stacks.append(y.shape)
            return -y

        path = gbs_path(rhs, np.ones((2, 2)), 1.0, 3)
        assert path.shape == (4, 2, 2)
        npt.assert_array_equal(path[0], np.ones((2, 2)))
        npt.assert_allclose(path[-1], np.full((2, 2), np.exp(-1.0)), rtol=1e-14)
        q = flows.GBS_STAGES
        assert all(shape[1:] == (2, 2) for shape in stacks)
        assert sum(shape[0] for shape in stacks) == 3 * (1 + q * (q + 1))
        assert len(stacks) == 3 * (1 + 2 * q)
        sizes = [1] + [q - (s - 1) // 2 for s in range(1, 2 * q + 1)]
        assert [shape[0] for shape in stacks] == 3 * sizes

    @pytest.mark.parametrize("macro", [0, -1])
    def test_refuses_no_macro_step(self, macro):
        with pytest.raises(ValueError, match="macro"):
            gbs_path(lambda y: -y, np.ones((2, 2)), 1.0, macro)

    def test_rotation_matches_sequential_oracle(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for macro in (1, 2, 4):
            want = sequential_gbs_path(lambda y: a @ y, np.eye(2), 4.0, macro)
            assert np.array_equal(gbs_path(lambda y: a @ y, np.eye(2), 4.0, macro), want)

    @pytest.mark.parametrize(
        "n, k, l, seed, t, macros",
        [
            (8, 2, 0, 18003, 0.5, (8, 16)),
            (8, 4, 2, 13, 0.2, (8,)),
            (6, 3, 0, 7, 0.2, (8,)),
            (16, 2, 0, 7, 0.2, (8,)),
        ],
    )
    def test_field_matches_sequential_oracle(self, n, k, l, seed, t, macros):
        s0, nmat = cli.sample_state(n, seed)
        nf, idx = nmat.full(), IntegralIndex(k, l)

        def field(y):
            return flows._field(y, nf, idx)

        for macro in macros:
            want = sequential_gbs_path(field, s0.full(), t, macro)
            assert np.array_equal(gbs_path(field, s0.full(), t, macro), want)

    def test_blowup_matches_sequential_oracle(self):
        # The stiff (6, 2) flow leaves the admissible region at 8 and 16
        # macro steps on both forms; at 64 both run through, to the same bits.
        s0, nmat = cli.sample_state(8, 10)
        nf, idx = nmat.full(), IntegralIndex(6, 2)

        def field(y):
            return flows._field(y, nf, idx)

        for macro in (8, 16):
            for path in (sequential_gbs_path, gbs_path):
                with pytest.raises(BlowupError):
                    path(field, s0.full(), 0.1, macro)
        want = sequential_gbs_path(field, s0.full(), 0.1, 64)
        assert np.array_equal(gbs_path(field, s0.full(), 0.1, 64), want)

    def test_stack_guard_bounds_each_state(self):
        # Each of six states has norm 0.6 BLOWUP_NORM, the stack sqrt(6) times that.
        stack = np.full((6, 2, 2), 0.3 * BLOWUP_NORM)
        assert flows._guarded(stack, stacked=True) is stack
        with pytest.raises(BlowupError):
            flows._guarded(stack)  # as one state, the norm is past the bound

    @pytest.mark.parametrize(
        "entries",
        [
            [np.nan, 0.0, 0.0, 0.0],
            [3.0 * BLOWUP_NORM, 0.0, 0.0, 0.0],
            [0.6 * BLOWUP_NORM] * 4,
            [1e300, 1e300, 0.0, 0.0],
        ],
        ids=["nan", "entry", "norm", "huge"],
    )
    def test_stack_guard_refuses_one_state_past_the_bound(self, entries):
        stack = np.zeros((6, 2, 2))
        stack[3] = np.reshape(entries, (2, 2))
        with pytest.raises(BlowupError):
            flows._guarded(stack, stacked=True)

    def test_stacks_under_the_bound_state_by_state_pass(self):
        # With a zero field all six sequences hold the start state, whose norm
        # is 0.6 BLOWUP_NORM; the stacks' joint norms are above the bound.
        y0 = np.full((2, 2), 0.3 * BLOWUP_NORM)
        path = gbs_path(np.zeros_like, y0, 1.0, 2)
        assert np.array_equal(path, np.stack([y0] * 3))

    def test_field_never_sees_a_state_past_the_guard(self):
        # y' = y^2 from 1 leaves every bound before t = 1.
        seen = []

        def rhs(y):
            seen.append(np.abs(y).max())
            return y * y

        with pytest.raises(BlowupError):
            gbs_path(rhs, np.array([[1.0]]), 30.0, 30)
        assert seen and max(seen) <= BLOWUP_NORM

    @pytest.mark.parametrize("start", [np.nan, 3.0 * BLOWUP_NORM])
    def test_start_state_guarded(self, start):
        seen = []
        with pytest.raises(BlowupError):
            gbs_path(seen.append, np.array([[start]]), 1.0, 1)
        assert not seen


class TestDrift:
    def test_constant_trajectory_zero_drift(self):
        n = random_skew_simple(3, seed=18)
        nf = n.full()
        s = SymMatrix.symmetric_part(nf @ nf)
        _, states = integrate(s, n, IntegralIndex(2, 0), t_final=0.2, h=1e-2)
        report = drift_report(invariant_series(states, n))
        assert report and all(v <= 1e-12 for v in report.values())

    def test_bi_conservation_short(self):
        s = random_sym(4, seed=19)
        n = random_skew_simple(4, seed=20)
        _, states = integrate(s, n, IntegralIndex(2, 0), t_final=1.0, h=1e-3)
        report = drift_report(invariant_series(states, n))
        assert all(v <= 1e-8 for v in report.values()), report

    @pytest.mark.parametrize("n", range(2, 7))
    def test_series_matches_per_state_oracles(self, n):
        # Each column of the stacked series against the per-state oracles:
        # the loop_power residue, casimirs, spectral_coeffs and Jacobi.
        s = random_sym(n, seed=40 + n)
        k = random_skew_simple(n, seed=50 + n)
        _, states = integrate(s, k, IntegralIndex(1, 0), t_final=0.05, h=1e-2)
        series = invariant_series(states, k)
        for i, state in enumerate(states):
            sm = SymMatrix.from_full(state)
            x = BILoop(sm, k)
            want = {
                str(idx): np.trace(loop_power(x.loop(), idx.k + 1).coeff(idx.l)) / (idx.k + 1)
                for idx in enumerate_indices(n)
            }
            want.update((f"casimir_{2 * j}", v) for j, v in enumerate(casimirs(sm, k)))
            coeffs = spectral_coeffs(sm, k)[0]
            want.update((f"I_{r}_{kk}", coeffs[r, kk]) for r, kk in sorted(coeffs))
            want.update((f"eig_{j}", v) for j, v in enumerate(eigenvalues_sym(sm)))
            assert list(want) == list(series)
            for name, v in want.items():
                assert abs(series[name][i] - v) <= 1e-12 * max(1.0, abs(v)), name

    @pytest.mark.parametrize("n", range(2, 13))
    def test_hamiltonian_columns_are_single_entry_traces(self, n):
        # The one sweep over the stack keeps the bits of tr sym_{k+1-l,l} / (k+1)
        # taken entry by entry; n = 2 sweeps with no column past l = 0.
        s = random_sym(n, seed=60 + n)
        k = random_skew_simple(n, seed=70 + n)
        higher = enumerate_indices(n)[min(n, 5) - 2]  # H_3_0 at n = 4, then H_3_2
        for idx in dict.fromkeys([IntegralIndex(2, 0) if n > 2 else IntegralIndex(1, 0), higher]):
            _, states = integrate(s, k, idx, t_final=0.01, h=2e-3)
            series = invariant_series(states, k)
            for h in enumerate_indices(n):
                want = np.trace(symmetrizer.sym(states, k.full(), h.k + 1 - h.l, h.l), axis1=1, axis2=2)
                assert np.array_equal(series[str(h)], want / (h.k + 1)), (idx, h)

    def test_report_covers_all_quantities(self):
        s = random_sym(4, seed=21)
        n = random_skew_simple(4, seed=22)
        _, states = integrate(s, n, IntegralIndex(2, 0), t_final=0.1, h=1e-2)
        names = set(drift_report(invariant_series(states, n)))
        assert {"H_1_0", "H_2_0", "H_3_0", "H_3_2"} <= names
        assert {"casimir_0", "casimir_2"} <= names
        assert {"eig_0", "eig_3"} <= names
        assert any(k.startswith("I_") for k in names)


class TestFlowCommutation:
    def test_zero_time_exact(self):
        s = random_sym(3, seed=23)
        n = random_skew_simple(3, seed=24)
        assert flow_commutation(s, n, IntegralIndex(1, 0), IntegralIndex(2, 0), 0.0, 1.0, 1e-2) == 0.0

    def test_same_index(self):
        s = random_sym(3, seed=25)
        n = random_skew_simple(3, seed=26)
        d = flow_commutation(s, n, IntegralIndex(2, 0), IntegralIndex(2, 0), 0.5, 0.5, 1e-3)
        assert d <= 1e-10

    def test_distinct_indices_commute(self):
        s = random_sym(4, seed=27)
        n = random_skew_simple(4, seed=28)
        d = flow_commutation(s, n, IntegralIndex(2, 0), IntegralIndex(3, 2), 0.5, 0.5, 1e-3)
        assert d <= 1e-6


class TestMEquation:
    def test_symmetric_m_is_fixed(self):
        s = random_sym(4, seed=29).full()
        assert np.linalg.norm(m_rhs(s)) <= 1e-12 * max(1.0, np.linalg.norm(s)) ** 3

    def test_matches_bi_rhs(self):
        for seed in range(10):
            s = random_sym(4, seed=100 + seed)
            n = random_skew_simple(4, seed=200 + seed)
            got = m_rhs(s.full() + n.full())
            want = bi_rhs(s, n).full()
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    def test_skew_part_constant_along_flow(self):
        s = random_sym(3, seed=30)
        n = random_skew_simple(3, seed=31)
        m0 = s.full() + n.full()
        _, path = rk4_path(m_rhs, m0, t_final=1.0, h=1e-3)
        skew0 = 0.5 * (path[0] - path[0].T)
        worst = max(np.linalg.norm(0.5 * (m - m.T) - skew0) for m in path)
        assert worst <= 1e-10

    def test_sym_part_tracks_bi_flow(self):
        s = random_sym(3, seed=32)
        n = random_skew_simple(3, seed=33)
        _, path = rk4_path(m_rhs, s.full() + n.full(), t_final=1.0, h=1e-3)
        _, states = integrate(s, n, IntegralIndex(2, 0), t_final=1.0, h=1e-3)
        m_sym = 0.5 * (path[-1] + path[-1].T)
        assert np.linalg.norm(m_sym - states[-1]) <= 1e-9


class TestDriftSweep:
    @settings(derandomize=True, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 10**6))
    def test_bi_flow_passes_every_drift_gate(self, tmp_path_factory, n, seed):
        # Scope: the Bloch-Iserles equation (k=2, l=0), admissible from n=3.
        # Flows with k >= 4 at this step fail drift gates from n=6 on; k = 3
        # passes up to n=8 (ROADMAP item 5).
        cfg = cli.ExperimentConfig(
            "flow", n=n, seed=seed, k=2, l=0, t_final=0.1, h=1e-3,
            out_dir=tmp_path_factory.getbasetemp() / "sweep",
        )
        gates, _ = cli.run_flow(cfg)
        assert gates and [g.name for g in gates if not g.passed] == []
