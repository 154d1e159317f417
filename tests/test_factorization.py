import json

import numpy as np
import numpy.testing as npt
import pytest

from biflow import cli, factorization
from biflow.factorization import (
    START_TOL,
    TAIL_TOL,
    AliasingError,
    FactorizationError,
    FourierLoop,
    _circle_values,
    _conjugation_coeffs,
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
from biflow.laurent import BILoop, LaurentLoop, mul
from biflow.matcore import random_matrix, random_skew_simple, random_sym


def bi_state(n, seed, scale=1.0):
    return BILoop(scale * random_sym(n, seed), scale * random_skew_simple(n, seed + 900))


@pytest.fixture
def systems(monkeypatch):
    """Every block-Toeplitz system birkhoff solves, in order (the 2-D solves)."""
    kept = []
    solve = np.linalg.solve

    def keep(a, b):
        if a.ndim == 2:
            kept.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", keep)
    return kept


class TestGenerator:
    def test_k1_l0_form(self):
        x = bi_state(3, seed=1)
        g = generator(x, IntegralIndex(1, 0))
        npt.assert_array_equal(g.coeff(-1), x.S)
        npt.assert_array_equal(g.coeff(0), x.N)

    def test_k2_l0_expansion(self):
        x = bi_state(3, seed=2)
        s, n = x.S, x.N
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
        k = random_skew_simple(4, seed=5).astype(complex)
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
        # keeps its own exponent and its own squarings.
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

    def test_matches_the_adaptive_series(self):
        # Oracle: the adaptive Taylor loop expm ran before its fixed
        # polynomial, with the same scaling and squaring.  It sums until a
        # term's 1-norm is below 1e-18, not 1e-13 as it did, so that its own
        # truncation is below rounding.  The scaled cores agree to a few
        # ulps; s squarings amplify a relative gap in the core up to 2^s.
        def adaptive(stack):
            norms = np.linalg.norm(stack, 1, axis=(1, 2))
            s = np.zeros(len(stack), dtype=int)
            s[norms > 0.5] = np.ceil(np.log2(norms[norms > 0.5] / 0.5))
            b = stack / (2.0 ** s)[:, None, None]
            out = np.broadcast_to(np.eye(stack.shape[-1], dtype=b.dtype), b.shape).copy()
            term, live = out.copy(), np.arange(len(stack))
            for m in range(1, 61):
                term = term @ b[live] / m
                out[live] += term
                going = ~(np.linalg.norm(term, 1, axis=(1, 2)) < 1e-18)
                live, term = live[going], term[going]
                if not live.size:
                    break
            for r in range(s.max(initial=0)):
                out[s > r] = out[s > r] @ out[s > r]
            return out, s

        # Exponents 0 (four of them, the last at 1-norm exactly 1/2), 2, 5 and 9.
        scales = [1e-9, 1e-3, 0.1, 0.4, 3.0, 40.0]
        slices = [c * random_matrix(5, seed=40 + i) * (1.0 - 0.5j) for i, c in enumerate(scales)]
        unit = random_matrix(5, seed=60) * (1.0 + 0.5j)
        slices.insert(3, unit * (0.5 / np.linalg.norm(unit, 1)))
        stack = np.stack(slices)
        assert np.linalg.norm(stack[3], 1) == 0.5
        want, s = adaptive(stack)
        assert s.tolist() == [0, 0, 0, 0, 2, 5, 9]
        got = expm(stack)
        gap = np.linalg.norm(got - want, 1, axis=(1, 2)) / np.linalg.norm(want, 1, axis=(1, 2))
        assert np.all(gap <= 4 * np.finfo(float).eps * 2.0**s), gap
        npt.assert_array_equal(expm(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)


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
        with pytest.raises(AliasingError):
            sample_exp(gen, t=2.0, m_samples=32)

    def test_ladder_equals_direct_call_bit_for_bit(self):
        # The factorize-n8 op: every sample's scaling exponent grows by one
        # per doubling, so squaring the samples at t/2 repeats expm's last
        # squaring, and the loops at t/2 and t come out the same.
        s0, nmat = cli.sample_state(8, 7)
        gen = generator(BILoop(s0, nmat), IntegralIndex(2, 0))
        quarter = sample_exp(gen, 0.125)
        half = sample_exp(gen, 0.25, half=quarter)
        full = sample_exp(gen, 0.5, half=half)
        for got, t in ((half, 0.25), (full, 0.5)):
            want = sample_exp(gen, t)
            npt.assert_array_equal(got.samples, want.samples)
            npt.assert_array_equal(got.coeffs, want.coeffs)

    def test_ladder_near_direct_call(self):
        # Here small samples keep exponent 0 at t/2 and t, so the two ways
        # differ in rounding only.
        s0, nmat = cli.sample_state(6, 7)
        gen = generator(BILoop(s0, nmat), IntegralIndex(3, 0))
        full = sample_exp(gen, 0.2, half=sample_exp(gen, 0.1, half=sample_exp(gen, 0.05)))
        want = sample_exp(gen, 0.2)
        for got, ref in ((full.samples, want.samples), (full.coeffs, want.coeffs)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_ladder_checks_the_floor_at_the_doubled_time(self):
        # At t=4 the floor is 151 of 256 samples; at t=8 it is 303.
        s0, nmat = cli.sample_state(4, 3)
        gen = generator(BILoop(s0, nmat), IntegralIndex(2, 0))
        half = sample_exp(gen, 4.0)
        with pytest.raises(AliasingError, match="floor 303"):
            sample_exp(gen, 8.0, half=half)
        with pytest.raises(AliasingError, match="floor 303"):
            sample_exp(gen, 8.0)

    def test_ladder_needs_the_same_sample_count(self):
        gen = generator(bi_state(3, seed=13), IntegralIndex(2, 0))
        with pytest.raises(ValueError, match="128 samples"):
            sample_exp(gen, 0.2, m_samples=256, half=sample_exp(gen, 0.1, m_samples=128))

    def test_sample_count_validation(self):
        x = bi_state(3, seed=13)
        gen = generator(x, IntegralIndex(2, 0))
        with pytest.raises(ValueError):
            sample_exp(gen, t=0.1, m_samples=100)  # not a power of two


class TestWinding:
    def test_constant_loop(self):
        samples = np.stack([np.eye(2, dtype=complex)] * 16)
        coeffs = np.fft.fft(samples, axis=0) / 16
        assert det_winding(FourierLoop(samples, coeffs)) == 0

    def test_z_times_identity_winds(self):
        zs = circle_points(16)
        samples = np.stack([z * np.eye(2, dtype=complex) for z in zs])
        coeffs = np.fft.fft(samples, axis=0) / 16
        assert det_winding(FourierLoop(samples, coeffs)) == 2


class TestBirkhoff:
    def test_identity_loop(self):
        samples = np.stack([np.eye(3, dtype=complex)] * 64)
        coeffs = np.fft.fft(samples, axis=0) / 64
        fac = birkhoff(FourierLoop(samples, coeffs), depth=4)
        npt.assert_allclose(fac.g_minus.coeffs, np.eye(3)[None], atol=1e-13)
        npt.assert_allclose(fac.g_plus.coeffs, np.eye(3)[None], atol=1e-13)
        assert fac.residual <= 1e-12

    def test_plus_loop_untouched(self):
        # exp of z * (skew) is already analytic inside with the symmetry,
        # so uniqueness forces g- = I and g+ = gamma.
        k = 0.4 * random_skew_simple(3, seed=15)
        zs = circle_points(64)
        samples = np.stack([expm(z * k) for z in zs])
        coeffs = np.fft.fft(samples, axis=0) / 64
        fac = birkhoff(FourierLoop(samples, coeffs), depth=6)
        npt.assert_allclose(fac.g_minus.coeff(0), np.eye(3), atol=1e-11)
        for d in range(1, 7):
            npt.assert_allclose(fac.g_minus.coeff(-d), np.zeros((3, 3)), atol=1e-11)
        for d in fac.g_plus.degrees():
            npt.assert_allclose(fac.g_plus.coeff(d), coeffs[d % 64].real, atol=1e-11)

    def test_system_matches_fancy_index_build(self, systems):
        # The block-Toeplitz system is a copy of strided windows; the old
        # build gathered every block by index and transposed.
        gamma = sample_exp(generator(bi_state(4, seed=21), IntegralIndex(2, 0)), 0.5, 256)
        for depth in (1, 2, 7, 40):
            systems.clear()
            birkhoff(gamma, depth=depth)
            j = systems[0].shape[0] // 4
            rows = np.arange(1, j + 1)
            want = gamma.coeff(rows - rows[:, None]).transpose(0, 2, 1, 3).reshape(4 * j, 4 * j)
            npt.assert_array_equal(systems[0], want)

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

    def test_matches_coefficient_by_coefficient_build(self):
        # The system and its right side are gathered from whole coefficient
        # stacks; g_minus must keep every bit of the block-by-block solve.
        # g_plus is one FFT of the samples of gamma g_minus, which sums in
        # another order than the loop over c_1 .. c_j below.  The FFT's
        # error in a coefficient is O(log2(M) eps) times the largest sample
        # entry, the loop's O((j + n) eps) times the same scale; with
        # log2(M) = 8, j <= 40 and n <= 5, 64 eps covers both.  The gaps
        # seen are at most 1 eps times that scale.
        eps = np.finfo(float).eps
        for n, seed, k in ((3, 20, 2), (4, 21, 3), (5, 22, 2)):
            x = bi_state(n, seed=seed)
            gamma = sample_exp(generator(x, IntegralIndex(k, 0)), t=0.4, m_samples=256)
            fac = birkhoff(gamma, depth=40)
            j = -fac.g_minus.lo
            rows = range(1, j + 1)
            system = np.block([[gamma.coeff(c - r) for c in rows] for r in rows])
            rhs = -np.concatenate([gamma.coeff(-r) for r in rows], axis=0)
            cs = np.linalg.solve(system, rhs).reshape(j, n, n)
            assert np.array_equal(fac.g_minus.coeffs[:j], cs[::-1].real)
            scale = np.abs(gamma.samples @ fac.g_minus.evaluate(circle_points(256))).max()
            assert fac.g_plus.degrees() == range(0, 128 - j + 1)
            for m in fac.g_plus.degrees():
                acc = gamma.coeff(m).copy()
                for jj in rows:
                    acc = acc + gamma.coeff(m + jj) @ cs[jj - 1]
                assert np.abs(fac.g_plus.coeff(m) - acc.real).max() <= 64 * eps * scale

    def test_coefficient_gather_keeps_the_band_check(self):
        x = bi_state(3, seed=23)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.3, m_samples=64)
        idx = np.array([[-32, 5], [0, 32]])
        want = np.stack([gamma.coeff(int(i)) for i in idx.ravel()]).reshape(2, 2, 3, 3)
        assert np.array_equal(gamma.coeff(idx), want)
        for bad in (33, -33, np.array([0, 33]), np.array([[-33], [1]])):
            with pytest.raises(ValueError, match="beyond resolved band"):
                gamma.coeff(bad)

    def test_uniqueness_under_depth_change(self):
        x = bi_state(3, seed=18)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        f1 = birkhoff(gamma, depth=40)
        f2 = birkhoff(gamma, depth=48)
        for j in range(1, 37):
            npt.assert_allclose(
                f1.g_minus.coeff(-j), f2.g_minus.coeff(-j), atol=1e-9
            )


class TestStartDepth:
    """The solve starts one past the deepest Gamma_{-d} above START_TOL,
    capped at the requested depth, and doubles from there."""

    def test_start_is_one_past_the_deepest_coefficient_above_start_tol(self, systems):
        gamma = sample_exp(generator(bi_state(4, seed=21), IntegralIndex(2, 0)), 0.5, 256)
        deepest = max(d for d in range(1, 128) if np.linalg.norm(gamma.coeff(-d)) > START_TOL)
        assert deepest + 1 < 40
        for depth in (1, 4, deepest, deepest + 1, 40, 200):
            systems.clear()
            birkhoff(gamma, depth=depth)
            assert systems[0].shape[0] // 4 == min(depth, deepest + 1)

    def test_zero_shallow_coefficient_does_not_stop_the_search(self, systems):
        # gamma = I - A z^-5 with A^2 = 0 splits as g+ = I, g- = I + A z^-5.
        # Gamma_{-1} is exactly zero: a start at the first coefficient below
        # START_TOL would solve at depth 1, find c_1 = 0 and stop there.
        a = np.zeros((3, 3))
        a[0, 2] = 0.5
        coeffs = np.zeros((64, 3, 3), dtype=complex)
        coeffs[0], coeffs[-5] = np.eye(3), -a
        gamma = FourierLoop(np.fft.ifft(coeffs, axis=0, norm="forward"), coeffs)
        fac = birkhoff(gamma, depth=40)
        assert systems[0].shape[0] // 3 == 6
        npt.assert_allclose(fac.g_minus.coeff(-5), a, atol=1e-15)
        npt.assert_allclose(fac.g_plus.coeff(0), np.eye(3), atol=1e-15)
        assert fac.residual <= 1e-14

    @pytest.mark.parametrize("seed", [7, 16201])
    def test_depth_40_start_gives_the_same_states(self, monkeypatch, systems, seed):
        # The factorize-n8 config (n = 8, (2, 0), t = 0.5, M = 256, --j 40).
        # With START_TOL = 0 every Gamma_{-d} is above it, so each solve
        # starts at depth 40 as it did before the start depth was chosen.
        x0 = BILoop(*cli.sample_state(8, seed))
        gen = generator(x0, IntegralIndex(2, 0))

        def states():
            out, gamma = [], None
            for t in (0.125, 0.25, 0.5):
                gamma = sample_exp(gen, t, 256, half=gamma)
                out += conjugated_states(birkhoff(gamma, 40), x0)
            return np.array(out)

        new = states()
        assert min(a.shape[0] // 8 for a in systems) < 40
        systems.clear()
        monkeypatch.setattr(factorization, "START_TOL", 0.0)
        old = states()
        assert [a.shape[0] // 8 for a in systems] == [40, 40, 40]
        assert np.linalg.norm(new - old, axis=(1, 2)).max() <= 1e-13

    @pytest.mark.parametrize("seed", [7, 16201])
    def test_start_keeps_the_checks_at_rounding_level(self, seed):
        # At the factorize-n8 config the residual and factor symmetry read at
        # most 6.4e-13 from a depth-40 start and from this one.  A start where
        # Gamma_{-d} first falls below TAIL_TOL reads up to 8.0e-10, about
        # two decades of gate margin lost.
        x0 = BILoop(*cli.sample_state(8, seed))
        gamma = None
        for t in (0.125, 0.25, 0.5):
            gamma = sample_exp(generator(x0, IntegralIndex(2, 0)), t, 256, half=gamma)
            fac = birkhoff(gamma, 40)
            symmetry = max(circle_symmetry_residual(g) for g in (fac.g_minus, fac.g_plus))
            assert max(fac.residual, symmetry) <= 1e-11

    def test_j_4_starts_at_4_and_doubles_to_the_tail(self, tmp_path, systems):
        args = ["factorize", "--n", 8, "--t", 0.5, "--seed", 7, "--j", 4, "--out", tmp_path]
        assert cli.main([str(a) for a in args]) == 0
        depths = [a.shape[0] // 8 for a in systems]
        assert depths.count(4) == 3 and set(depths) <= {4, 8, 16, 32, 64, 127}
        summary = json.loads((tmp_path / "factorize.json").read_text())
        for c in summary["diagnostics"]["checkpoints"]:
            assert c["depth"] >= 8 and c["tail"] <= TAIL_TOL


class TestSystemBudget:
    """birkhoff refuses a dense system of j*n above MAX_SYSTEM before building it."""

    def gamma(self):
        s0, nmat = cli.sample_state(8, 7)
        return sample_exp(generator(BILoop(s0, nmat), IntegralIndex(2, 0)), 0.5)

    def test_a_start_depth_above_the_budget_is_refused(self, monkeypatch, systems):
        gamma = self.gamma()
        j = birkhoff(gamma).g_minus.span - 1
        assert [a.shape[0] for a in systems] == [8 * j]
        monkeypatch.setattr(factorization, "MAX_SYSTEM", 8 * j - 1)
        with pytest.raises(FactorizationError, match=rf"j\*n = {8 * j} .* budget {8 * j - 1}"):
            birkhoff(gamma)
        assert len(systems) == 1  # the refused system was never solved
        monkeypatch.setattr(factorization, "MAX_SYSTEM", 8 * j)
        birkhoff(gamma)

    def test_a_doubling_above_the_budget_is_refused(self, monkeypatch, systems):
        # Depth 4 leaves a tail above TAIL_TOL, so birkhoff doubles to 8.
        monkeypatch.setattr(factorization, "MAX_SYSTEM", 8 * 4)
        with pytest.raises(FactorizationError, match=r"j\*n = 64 \(depth 8, n = 8\) above the budget 32"):
            birkhoff(self.gamma(), depth=4)
        assert [a.shape[0] for a in systems] == [32]


class TestCirclePath:
    """Factors on the circle by inverse FFT, g(-z) by a half-turn, and the
    two conjugation coefficients, against the term-by-term forms."""

    @pytest.mark.parametrize(
        "lo, span, m",
        [
            (0, 5, 64),  # a g_plus-like window
            (-40, 41, 256),  # a g_minus-like window
            (-3, 8, 8),  # span = M
            (-7, 19, 8),  # span > M: degrees fold onto each slot
            (5, 40, 16),  # a window away from degree 0, folded too
        ],
    )
    def test_fft_values_equal_evaluate(self, lo, span, m):
        coeffs = np.stack([random_matrix(3, seed=300 + d) for d in range(span)])
        loop = LaurentLoop(lo, coeffs)
        want = loop.evaluate(circle_points(m))
        got = _circle_values(loop, m)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_symmetry_residual_equals_two_evaluations(self):
        x = bi_state(4, seed=31)
        fac = birkhoff(sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5), depth=40)
        skewed = LaurentLoop(-2, [random_matrix(4, seed=32 + d) for d in range(5)])
        for loop, m in ((fac.g_minus, 256), (fac.g_plus, 256), (skewed, 16), (skewed, 4)):
            zs = circle_points(m)
            prods = loop.evaluate(zs) @ loop.evaluate(-zs).transpose(0, 2, 1) - np.eye(4)
            want = max(np.linalg.norm(p) for p in prods)
            assert abs(circle_symmetry_residual(loop, m) - want) <= 1e-14 * max(1.0, want)

    @pytest.mark.parametrize("n, seed, k, t, m", [(4, 31, 2, 0.5, 256), (8, 7, 2, 0.5, 256), (3, 5, 2, 0.2, 64)])
    def test_birkhoff_records_the_symmetry_residual(self, n, seed, k, t, m):
        # birkhoff reads it from the circle samples it already holds; the
        # public wrapper samples each factor again, and both give the same bits.
        fac = birkhoff(sample_exp(generator(bi_state(n, seed=seed), IntegralIndex(k, 0)), t, m), 40)
        want = max(circle_symmetry_residual(fac.g_minus, m), circle_symmetry_residual(fac.g_plus, m))
        assert fac.symmetry == want

    def test_symmetry_residual_needs_an_even_count(self):
        with pytest.raises(ValueError, match="even"):
            circle_symmetry_residual(LaurentLoop.identity(2), 15)

    @pytest.mark.parametrize("n, seed, k", [(3, 33, 2), (5, 34, 3), (8, 7000, 2)])
    def test_conjugation_coeffs_bit_identical_to_full_product(self, n, seed, k):
        x = bi_state(n, seed=seed)
        gamma = sample_exp(generator(x, IntegralIndex(k, 0)), t=0.5, m_samples=256)
        fac = birkhoff(gamma, depth=40)
        for g in (fac.g_minus, fac.g_plus):
            full = mul(mul(g.transpose_flip(), x.loop()), g)
            c0, c1 = _conjugation_coeffs(g, x)
            assert np.array_equal(c0, full.coeff(0))
            assert np.array_equal(c1, full.coeff(1))


class TestSolution:
    def test_t_zero(self):
        x = bi_state(3, seed=19)
        npt.assert_array_equal(
            solve_by_factorization(x, IntegralIndex(2, 0), t=0.0), x.S
        )

    def test_commuting_state_is_frozen(self):
        n = random_skew_simple(3, seed=20)
        s = n @ n
        x = BILoop(s, n)
        for t in (0.25, 1.0):
            got = solve_by_factorization(x, IntegralIndex(2, 0), t=t)
            npt.assert_allclose(got, s, atol=1e-9)

    def test_matches_rk4(self):
        x = bi_state(3, seed=21)
        idx = IntegralIndex(2, 0)
        for t in (0.25, 0.5, 1.0):
            s_fact = solve_by_factorization(x, idx, t=t)
            s_ode = integrate(x.S, x.N, idx, t_final=t, h=1e-4)[1][-1]
            assert np.linalg.norm(s_fact - s_ode) <= 1e-6

    def test_higher_flow_matches_rk4(self):
        x = bi_state(4, seed=22, scale=0.8)
        idx = IntegralIndex(3, 2)
        s_fact = solve_by_factorization(x, idx, t=0.5)
        s_ode = integrate(x.S, x.N, idx, t_final=0.5, h=1e-4)[1][-1]
        assert np.linalg.norm(s_fact - s_ode) <= 1e-6

    def test_stays_on_orbit(self):
        x = bi_state(3, seed=23)
        got = solve_by_factorization(x, IntegralIndex(2, 0), t=1.0)
        assert orbit_membership(got, x.S, x.N, tol=1e-7)

    def test_conjugation_forms_agree(self):
        x = bi_state(3, seed=24)
        gamma = sample_exp(generator(x, IntegralIndex(2, 0)), t=0.5, m_samples=256)
        fac = birkhoff(gamma, depth=40)
        s_minus, s_plus = conjugated_states(fac, x)
        assert np.linalg.norm(s_minus - s_plus) <= 1e-7

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
        assert np.linalg.norm(direct - relayed) <= 1e-8

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
