import numpy as np
import numpy.testing as npt
import pytest

from biflow.factorization import (
    AliasingError,
    FactorizationError,
    birkhoff,
    circle_points,
    circle_symmetry_residual,
    conjugated_states,
    det_winding,
    expm,
    generator,
    sample_exp,
    solve_by_factorization,
)
from biflow.flows import integrate
from biflow.invariants import IntegralIndex, orbit_membership
from biflow.laurent import BILoop
from biflow.matcore import SkewMatrix, SymMatrix, random_matrix, random_skew_simple, random_sym


def bi_state(n, seed, scale=1.0):
    s = SymMatrix(n, scale * random_sym(n, seed).packed)
    k = SkewMatrix(n, scale * random_skew_simple(n, seed + 900).packed)
    return BILoop(s, k)


class TestGenerator:
    def test_k1_l0_form(self):
        x = bi_state(3, seed=1)
        g = generator(x, IntegralIndex(1, 0))
        npt.assert_array_equal(g.coeff(-1), x.S.full())
        npt.assert_array_equal(g.coeff(0), x.N.full())

    def test_k2_l0_expansion(self):
        x = bi_state(3, seed=2)
        s, n = x.S.full(), x.N.full()
        g = generator(x, IntegralIndex(2, 0))
        npt.assert_allclose(g.coeff(-1), s @ s, atol=1e-14)
        npt.assert_allclose(g.coeff(0), s @ n + n @ s, atol=1e-14)
        npt.assert_allclose(g.coeff(1), n @ n, atol=1e-14)

    def test_involution_antisymmetry(self):
        # delta(z) + delta(-z)^T = 0 coefficientwise.
        x = bi_state(3, seed=3)
        for idx in (IntegralIndex(1, 0), IntegralIndex(2, 0)):
            g = generator(x, idx)
            worst = max(
                np.linalg.norm(g.coeff(d) + ((-1.0) ** d) * g.coeff(d).T)
                for d in g.degrees()
            )
            assert worst <= 1e-13

    def test_odd_l_unrepresentable(self):
        # Odd powers are rejected at the index level, before the generator.
        with pytest.raises(ValueError):
            IntegralIndex(3, 1)


class TestExpm:
    def test_zero(self):
        npt.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_against_eig_oracle(self):
        # Oracle: diagonalization of a normal (skew-hermitian) argument.
        k = random_skew_simple(4, seed=5).full().astype(complex)
        w, v = np.linalg.eig(k)
        want = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        npt.assert_allclose(expm(k), want, atol=1e-12)

    def test_inverse_pairing(self):
        a = random_matrix(4, seed=6) * (1.0 + 0.3j)
        npt.assert_allclose(expm(a) @ expm(-a), np.eye(4), atol=1e-12)

    def test_large_norm_scaling(self):
        a = 40.0 * random_matrix(3, seed=7)
        b = a / 8.0
        npt.assert_allclose(
            expm(a),
            np.linalg.matrix_power(expm(b), 8),
            atol=1e-9 * np.linalg.norm(expm(a)),
        )

    def test_stack_matches_each_slice(self):
        # Four scales give four different scaling exponents: every slice
        # keeps its own exponent and its own stopping term.
        scales = [0.1, 0.7, 3.0, 40.0]
        stack = np.stack(
            [c * random_matrix(4, seed=20 + i) * (1.0 + 0.5j) for i, c in enumerate(scales)]
        )
        exponents = {int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 0.5) / 0.5))) for a in stack}
        assert len(exponents) == len(scales)
        got = expm(stack)
        assert got.shape == stack.shape
        for i, a in enumerate(stack):
            npt.assert_array_equal(got[i], expm(a))
        npt.assert_array_equal(expm(stack.reshape(2, 2, 4, 4)), got.reshape(2, 2, 4, 4))

    def test_stack_raises_when_one_slice_diverges(self):
        stack = np.stack([np.zeros((3, 3)), random_matrix(3, seed=9)])
        npt.assert_array_equal(expm(stack[:1], max_terms=2)[0], np.eye(3))
        with pytest.raises(FactorizationError):
            expm(stack, max_terms=2)


class TestSampleExp:
    def test_t_zero_identity(self):
        x = bi_state(3, seed=8)
        loop = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.0, m_samples=64)
        npt.assert_allclose(loop.coeff(0), np.eye(3), atol=1e-14)
        assert loop.aliasing_estimate() <= 1e-14

    def test_loop_symmetry_on_samples(self):
        x = bi_state(3, seed=9)
        loop = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        m = loop.m_samples
        worst = 0.0
        for i in range(m):
            j = (i + m // 2) % m  # z_j = -z_i
            worst = max(
                worst,
                np.linalg.norm(loop.samples[i] @ loop.samples[j].T - np.eye(3)),
            )
        assert worst <= 1e-10

    def test_reality(self):
        x = bi_state(3, seed=10)
        loop = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        assert loop.reality_residual() <= 1e-10

    def test_winding_zero(self):
        x = bi_state(3, seed=11)
        loop = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        assert det_winding(loop) == 0

    def test_aliasing_raises_when_undersampled(self):
        x = bi_state(3, seed=12, scale=2.0)
        gen = generator(x, IntegralIndex(2, 0))
        with pytest.raises((AliasingError, ValueError)):
            sample_exp(gen, t=2.0, m_samples=32)

    def test_sample_count_validation(self):
        x = bi_state(3, seed=13)
        gen = generator(x, IntegralIndex(2, 0))
        with pytest.raises(ValueError):
            sample_exp(gen, t=0.1, m_samples=100)  # not a power of two


class TestWinding:
    def test_constant_loop(self):
        samples = np.stack([np.eye(2, dtype=complex)] * 16)
        coeffs = np.fft.fft(samples, axis=0) / 16
        from biflow.factorization import FourierLoop

        assert det_winding(FourierLoop(samples, coeffs)) == 0

    def test_z_times_identity_winds(self):
        from biflow.factorization import FourierLoop

        zs = circle_points(16)
        samples = np.stack([z * np.eye(2, dtype=complex) for z in zs])
        coeffs = np.fft.fft(samples, axis=0) / 16
        assert det_winding(FourierLoop(samples, coeffs)) == 2


class TestBirkhoff:
    def test_identity_loop(self):
        from biflow.factorization import FourierLoop

        samples = np.stack([np.eye(3, dtype=complex)] * 64)
        coeffs = np.fft.fft(samples, axis=0) / 64
        fac = birkhoff(FourierLoop(samples, coeffs), depth=4)
        npt.assert_allclose(fac.g_minus.coeffs, np.eye(3)[None], atol=1e-13)
        npt.assert_allclose(fac.g_plus.coeffs, np.eye(3)[None], atol=1e-13)
        assert fac.residual <= 1e-12

    def test_plus_loop_untouched(self):
        # exp of z * (skew) is already analytic inside with the symmetry,
        # so uniqueness forces g- = I and g+ = gamma.
        from biflow.factorization import FourierLoop

        k = 0.4 * random_skew_simple(3, seed=15).full()
        zs = circle_points(64)
        samples = np.stack([expm(z * k) for z in zs])
        coeffs = np.fft.fft(samples, axis=0) / 64
        fac = birkhoff(FourierLoop(samples, coeffs), depth=6)
        npt.assert_allclose(fac.g_minus.coeff(0), np.eye(3), atol=1e-11)
        for d in range(1, 7):
            npt.assert_allclose(fac.g_minus.coeff(-d), np.zeros((3, 3)), atol=1e-11)
        for d in fac.g_plus.degrees():
            npt.assert_allclose(fac.g_plus.coeff(d), coeffs[d % 64].real, atol=1e-11)

    def test_bi_generator_run(self):
        x = bi_state(3, seed=16)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        fac = birkhoff(gamma, depth=40)
        assert fac.residual <= 1e-8
        assert fac.tail <= 1e-10
        assert fac.winding == 0
        assert fac.reality <= 1e-10

    def test_factor_symmetry(self):
        x = bi_state(3, seed=17)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        fac = birkhoff(gamma, depth=40)
        assert circle_symmetry_residual(fac.g_minus) <= 1e-8
        assert circle_symmetry_residual(fac.g_plus) <= 1e-8

    def test_uniqueness_under_depth_change(self):
        x = bi_state(3, seed=18)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        f1 = birkhoff(gamma, depth=40)
        f2 = birkhoff(gamma, depth=48)
        for j in range(1, 37):
            npt.assert_allclose(
                f1.g_minus.coeff(-j), f2.g_minus.coeff(-j), atol=1e-9
            )


class TestSolution:
    def test_t_zero(self):
        x = bi_state(3, seed=19)
        npt.assert_array_equal(
            solve_by_factorization(x, IntegralIndex(2, 0), t=0.0).full(), x.S.full()
        )

    def test_commuting_state_is_frozen(self):
        n = random_skew_simple(3, seed=20)
        nf = n.full()
        s = SymMatrix.symmetric_part(nf @ nf)
        x = BILoop(s, n)
        for t in (0.25, 1.0):
            got = solve_by_factorization(x, IntegralIndex(2, 0), t=t)
            npt.assert_allclose(got.full(), s.full(), atol=1e-9)

    def test_matches_rk4(self):
        x = bi_state(3, seed=21)
        idx = IntegralIndex(2, 0)
        for t in (0.25, 0.5, 1.0):
            s_fact = solve_by_factorization(x, idx, t=t, m_samples=256, depth=40)
            s_ode = integrate(x.S, x.N, idx, t_final=t, h=1e-4).states[-1]
            assert np.linalg.norm(s_fact.full() - s_ode.full()) <= 1e-6

    def test_higher_flow_matches_rk4(self):
        x = bi_state(4, seed=22, scale=0.8)
        idx = IntegralIndex(3, 2)
        s_fact = solve_by_factorization(x, idx, t=0.5, m_samples=256, depth=40)
        s_ode = integrate(x.S, x.N, idx, t_final=0.5, h=1e-4).states[-1]
        assert np.linalg.norm(s_fact.full() - s_ode.full()) <= 1e-6

    def test_stays_on_orbit(self):
        x = bi_state(3, seed=23)
        got = solve_by_factorization(x, IntegralIndex(2, 0), t=1.0)
        assert orbit_membership(got, x.S, x.N, tol=1e-7)

    def test_conjugation_forms_agree(self):
        x = bi_state(3, seed=24)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        fac = birkhoff(gamma, depth=40)
        s_minus, s_plus = conjugated_states(fac, x)
        assert np.linalg.norm(s_minus.full() - s_plus.full()) <= 1e-7

    def test_isospectral(self):
        from biflow.matcore import eigenvalues_sym

        x = bi_state(3, seed=25)
        got = solve_by_factorization(x, IntegralIndex(2, 0), t=1.0)
        npt.assert_allclose(eigenvalues_sym(got), eigenvalues_sym(x.S), atol=1e-7)

    def test_semigroup_property(self):
        # Autonomous flow: solving to t+s equals solving to s from the
        # state at t.  Strong consistency check across two factorizations.
        x = bi_state(3, seed=26)
        idx = IntegralIndex(2, 0)
        direct = solve_by_factorization(x, idx, t=0.6)
        half = solve_by_factorization(x, idx, t=0.3)
        relayed = solve_by_factorization(BILoop(half, x.N), idx, t=0.3)
        assert np.linalg.norm(direct.full() - relayed.full()) <= 1e-8

    def test_depth_auto_escalation(self):
        # A depth too shallow for the tail criterion doubles until it fits
        # and lands on the same factors.
        x = bi_state(3, seed=27)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        shallow = birkhoff(gamma, depth=5)
        reference = birkhoff(gamma, depth=40)
        assert shallow.tail <= 1e-10
        for j in range(1, 20):
            npt.assert_allclose(
                shallow.g_minus.coeff(-j), reference.g_minus.coeff(-j), atol=1e-9
            )
