import itertools

import numpy as np
import numpy.testing as npt
import pytest

from biflow import laurent
from biflow.laurent import (
    BILoop,
    LaurentLoop,
    LoopSymmetryError,
    coadjoint,
    exp_truncated,
    is_sigma_fixed,
    is_sigma_star,
    loop_commutator,
    loop_inverse_by_symmetry,
    loop_power,
    mul,
    pairing,
    proj_minus,
    proj_plus,
    random_dual_loop,
    random_sigma_fixed_loop,
    rbracket,
    rbracket_via_r,
    sigma,
    symmetry_defect,
)
from biflow.matcore import random_matrix, random_skew_simple, random_sym


def bi_loop(n, seed):
    return BILoop(random_sym(n, seed), random_skew_simple(n, seed + 1000)).loop()


class TestLoopBasics:
    def test_canonical_trim(self):
        arr = np.zeros((3, 2, 2))
        arr[1] = np.eye(2)
        x = LaurentLoop(-1, arr)
        assert x.window == (0, 0)

    def test_trim_matches_per_coefficient_scan(self):
        # Zero edge and interior coefficients, and a -0.0 edge, which counts
        # as zero; the window is the one the per-coefficient scan finds.
        arr = np.random.default_rng(3).standard_normal((9, 3, 3))
        arr[[0, 1, 4, 6, 8]] = 0.0
        arr[8, 1, 2] = -0.0
        for lo in (-5, 0, 2):
            x = LaurentLoop(lo, arr)
            nz = [k for k in range(len(arr)) if np.any(arr[k])]
            assert x.window == (lo + nz[0], lo + nz[-1]) == (lo + 2, lo + 7)
            assert type(x.lo) is int
            npt.assert_array_equal(x.coeffs, arr[2:8])
            assert not x.coeff(lo + 4).any()  # an interior zero stays in the window
        assert LaurentLoop(4, -0.0 * arr[:1]).window == (0, 0)

    def test_zero_canonical(self):
        x = LaurentLoop(5, np.zeros((2, 3, 3)))
        assert x.window == (0, 0) and x.is_zero()

    def test_coeff_outside_window(self):
        x = LaurentLoop.identity(2)
        npt.assert_array_equal(x.coeff(7), np.zeros((2, 2)))

    def test_equality_window_independent(self):
        a = LaurentLoop.from_terms({0: np.eye(2), 2: np.zeros((2, 2))})
        b = LaurentLoop.from_terms({0: np.eye(2)})
        assert a.window == b.window

    def test_evaluate(self):
        x = LaurentLoop.from_terms({-1: np.eye(2), 1: 2 * np.eye(2)})
        npt.assert_allclose(x.evaluate(2.0), (0.5 + 4.0) * np.eye(2))

    def test_evaluate_array_matches_points(self):
        # Reference: the term-by-term sum at one numpy complex scalar.
        x = random_sigma_fixed_loop(3, -4, 5, seed=11)
        zs = np.concatenate([np.exp(2j * np.pi * np.arange(16) / 16), [0.5 + 0.3j, -2.0]])
        got = x.evaluate(zs)
        assert got.shape == (len(zs), 3, 3)
        for i, z in enumerate(zs):
            want = np.zeros((3, 3), dtype=complex)
            for d in x.degrees():
                want += x.coeff(d) * (z**d)
            single = x.evaluate(z)
            assert single.shape == (3, 3)
            npt.assert_array_equal(single, want)
            npt.assert_array_equal(got[i], want)

    def test_immutable(self):
        x = LaurentLoop.identity(2)
        with pytest.raises(AttributeError):
            x.lo = 3
        assert not x.coeffs.flags.writeable
        b = BILoop(random_sym(3, 1), random_skew_simple(3, 2))
        with pytest.raises(AttributeError):
            b.S = b.N
        assert not b.S.flags.writeable and not b.N.flags.writeable

    def test_biloop_checks_its_blocks(self):
        s, n = random_sym(3, 1), random_skew_simple(3, 2)
        for s_bad, n_bad, match in [
            (s, random_skew_simple(4, 2), "dimension mismatch"),
            (n, n, "not symmetric"),
            (s, s, "not skew-symmetric"),
            (s, np.where(n, np.inf, 0.0), "finite"),
            (s + 0j, n, "complex"),
        ]:
            with pytest.raises(ValueError, match=match):
                BILoop(s_bad, n_bad)


def mul_by_rows(x, y):
    """The Cauchy product summed row by row, x_i times all of y in order of i."""
    arr = np.zeros((x.span + y.span - 1, x.n, x.n))
    for i, ci in enumerate(x.coeffs):
        arr[i : i + y.span] += np.einsum("ab,kbc->kac", ci, y.coeffs)
    return LaurentLoop(x.lo + y.lo, arr)


class TestMul:
    @pytest.mark.parametrize("n", [3, 8])
    def test_matches_row_by_row_sum(self, n):
        # Either factor may be the shorter one; the sum must keep every bit.
        rng = np.random.default_rng(n)
        for sx, sy in itertools.product((1, 2, 41, 89), repeat=2):
            x = LaurentLoop(-sx // 2, rng.standard_normal((sx, n, n)))
            y = LaurentLoop(3 - sy, rng.standard_normal((sy, n, n)))
            got, want = mul(x, y), mul_by_rows(x, y)
            assert got.window == want.window
            assert np.array_equal(got.coeffs, want.coeffs), (sx, sy)

    def test_identity_neutral(self):
        y = bi_loop(3, seed=1)
        prod = mul(LaurentLoop.identity(3), y)
        assert prod.window == y.window
        npt.assert_array_equal(prod.coeffs, y.coeffs)

    def test_single_term(self):
        a = random_matrix(3, seed=2)
        b = random_matrix(3, seed=3)
        prod = mul(LaurentLoop.monomial(a, 1), LaurentLoop.monomial(b, -1))
        assert prod.window == (0, 0)
        npt.assert_allclose(prod.coeff(0), a @ b)

    def test_bi_square_expansion(self):
        s = random_sym(3, seed=4)
        n = random_skew_simple(3, seed=5)
        # built via from_terms to keep the test independent of BILoop
        x = LaurentLoop.from_terms({0: s, 1: n})
        sq = mul(x, x)
        assert sq.window == (0, 2)
        npt.assert_allclose(sq.coeff(0), s @ s, atol=1e-14)
        npt.assert_allclose(sq.coeff(1), s @ n + n @ s, atol=1e-14)
        npt.assert_allclose(sq.coeff(2), n @ n, atol=1e-14)

    def test_window_cap(self):
        # No cap on the degree span: the product keeps every degree.
        x = LaurentLoop.from_terms({0: np.eye(2), 40: np.eye(2)})
        assert mul(x, x).window == (0, 80)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul(LaurentLoop.identity(2), LaurentLoop.identity(3))


class TestProjections:
    def test_split_example(self):
        a, b, c = (random_matrix(2, seed=s) for s in (6, 7, 8))
        x = LaurentLoop.from_terms({-1: a, 0: b, 1: c})
        plus = proj_plus(x)
        assert plus.window == (0, 1)
        npt.assert_array_equal(plus.coeff(0), b)
        npt.assert_array_equal(plus.coeff(1), c)

    def test_pure_negative(self):
        x = LaurentLoop.monomial(np.eye(2), -3)
        assert proj_plus(x).is_zero()

    def test_sum_reconstructs_exactly(self):
        for seed in range(5):
            x = random_dual_loop(3, -2, 3, seed=seed)
            back = proj_plus(x) + proj_minus(x)
            assert back.window == x.window
            npt.assert_array_equal(back.coeffs, x.coeffs)

    def test_projections_disjoint(self):
        x = random_dual_loop(3, -2, 3, seed=9)
        assert proj_minus(proj_plus(x)).is_zero()

    def test_bi_generator_projection(self):
        # P+ of (S+zN)^2 / z is (SN+NS) + z N^2.
        s = random_sym(3, seed=10)
        n = random_skew_simple(3, seed=11)
        x = LaurentLoop.from_terms({0: s, 1: n})
        gen = proj_plus(mul(x, x).shift(-1))
        npt.assert_allclose(gen.coeff(0), s @ n + n @ s, atol=1e-14)
        npt.assert_allclose(gen.coeff(1), n @ n, atol=1e-14)
        assert gen.window == (0, 1)


class TestSigma:
    def test_skew_constant_fixed(self):
        k = random_skew_simple(3, seed=12)
        x = LaurentLoop.monomial(k, 0)
        npt.assert_array_equal(sigma(x).coeffs, x.coeffs)
        assert is_sigma_fixed(x)

    def test_sym_linear_fixed(self):
        p = random_sym(3, seed=13)
        x = LaurentLoop.monomial(p, 1)
        npt.assert_array_equal(sigma(x).coeffs, x.coeffs)
        assert is_sigma_fixed(x)

    def test_sym_constant_negated(self):
        p = random_sym(3, seed=14)
        x = LaurentLoop.monomial(p, 0)
        npt.assert_array_equal(sigma(x).coeffs, -x.coeffs)
        assert not is_sigma_fixed(x)

    def test_transpose_flip_per_degree(self):
        rng = np.random.default_rng(5)
        for lo, hi in ((-4, 3), (1, 6), (-3, -3)):
            x = LaurentLoop(lo, rng.standard_normal((hi - lo + 1, 3, 3)))
            got = x.transpose_flip()
            assert got.window == x.window
            for d in x.degrees():
                assert np.array_equal(got.coeff(d), (-1.0) ** d * x.coeff(d).T), d

    def test_involution(self):
        x = random_dual_loop(3, -3, 2, seed=15)
        npt.assert_array_equal(sigma(sigma(x)).coeffs, x.coeffs)

    def test_parity_loci(self):
        x = bi_loop(3, seed=16)
        assert is_sigma_star(x)
        assert not is_sigma_fixed(x)
        assert is_sigma_fixed(random_sigma_fixed_loop(3, -2, 2, seed=17))


class TestPairing:
    def test_single_matching_term(self):
        a = random_matrix(3, seed=18)
        b = random_matrix(3, seed=19)
        got = pairing(LaurentLoop.monomial(a, 0), LaurentLoop.monomial(b, -1))
        npt.assert_allclose(got, np.trace(a @ b))

    def test_no_complementary_index(self):
        a = random_matrix(3, seed=20)
        b = random_matrix(3, seed=21)
        assert pairing(LaurentLoop.monomial(a, 0), LaurentLoop.monomial(b, 0)) == 0.0

    def test_ad_invariance(self):
        for seed in range(5):
            z = random_dual_loop(3, -2, 2, seed=3 * seed)
            x = random_dual_loop(3, -2, 2, seed=3 * seed + 1)
            y = random_dual_loop(3, -2, 2, seed=3 * seed + 2)
            total = pairing(loop_commutator(z, x), y) + pairing(x, loop_commutator(z, y))
            assert abs(total) <= 1e-12 * max(1.0, x.norm() * y.norm() * z.norm())

    def test_projection_adjointness_exact(self):
        x = random_dual_loop(3, -3, 3, seed=22)
        y = random_dual_loop(3, -3, 3, seed=23)
        assert pairing(proj_plus(x), y) == pairing(x, proj_minus(y))


class TestRBracket:
    def test_pure_plus_is_plain_bracket(self):
        x = random_dual_loop(3, 0, 2, seed=24)
        y = random_dual_loop(3, 0, 2, seed=25)
        got = rbracket(x, y)
        want = loop_commutator(x, y)
        npt.assert_allclose(got.coeffs, want.coeffs, atol=1e-14)
        assert got.window == want.window

    def test_cross_terms_vanish(self):
        x = random_dual_loop(3, 0, 2, seed=26)
        y = random_dual_loop(3, -3, -1, seed=27)
        assert rbracket(x, y).is_zero()

    def test_two_forms_agree(self):
        for seed in range(10):
            x = random_dual_loop(3, -2, 3, seed=2 * seed)
            y = random_dual_loop(3, -3, 2, seed=2 * seed + 1)
            diff = rbracket(x, y) - rbracket_via_r(x, y)
            scale = max(1.0, x.norm() * y.norm())
            assert diff.norm() <= 1e-13 * scale

    def test_modified_yang_baxter(self):
        def R(x):
            return proj_plus(x) - proj_minus(x)

        for seed in range(10):
            x = random_sigma_fixed_loop(3, -2, 2, seed=5 * seed)
            y = random_sigma_fixed_loop(3, -2, 2, seed=5 * seed + 1)
            lhs = loop_commutator(R(x), R(y)) - R(
                loop_commutator(R(x), y) + loop_commutator(x, R(y))
            )
            rhs = -loop_commutator(x, y)
            scale = max(1.0, x.norm() * y.norm())
            assert (lhs - rhs).norm() <= 1e-12 * scale

    def test_rbracket_jacobi(self):
        for seed in range(5):
            x = random_sigma_fixed_loop(2, -2, 2, seed=7 * seed)
            y = random_sigma_fixed_loop(2, -2, 2, seed=7 * seed + 1)
            z = random_sigma_fixed_loop(2, -2, 2, seed=7 * seed + 2)
            jac = (
                rbracket(x, rbracket(y, z))
                + rbracket(y, rbracket(z, x))
                + rbracket(z, rbracket(x, y))
            )
            assert jac.norm() <= 1e-12 * max(1.0, x.norm() * y.norm() * z.norm())


class TestExpAndInverse:
    def test_exp_zero(self):
        g = exp_truncated(LaurentLoop.zero(3), window=(-4, 0))
        npt.assert_array_equal(g.coeffs, LaurentLoop.identity(3).coeffs)

    def test_exp_truncation_window(self):
        p = random_sym(3, seed=28)
        g = exp_truncated(LaurentLoop.monomial(p, -1), window=(-1, 0))
        npt.assert_allclose(g.coeff(0), np.eye(3))
        npt.assert_allclose(g.coeff(-1), p)
        assert g.window == (-1, 0)

    def test_exp_symmetry(self):
        for seed in range(5):
            x = random_sigma_fixed_loop(3, -2, -1, seed=seed, scale=0.4)
            g = exp_truncated(x, window=(-14, 0))
            assert symmetry_defect(g) <= 1e-12

    def test_exp_plus_side(self):
        x = random_sigma_fixed_loop(3, 0, 2, seed=29, scale=0.4)
        g = exp_truncated(x, window=(0, 14))
        assert symmetry_defect(g) <= 1e-12

    def test_inverse_identity(self):
        inv = loop_inverse_by_symmetry(LaurentLoop.identity(3))
        npt.assert_array_equal(inv.coeffs, LaurentLoop.identity(3).coeffs)

    def test_inverse_of_exponential(self):
        x = random_sigma_fixed_loop(3, -2, -1, seed=30, scale=0.4)
        g = exp_truncated(x, window=(-14, 0))
        inv = loop_inverse_by_symmetry(g)
        resid = mul(g, inv) - LaurentLoop.identity(3)
        assert resid.restrict(-14, 0).norm() <= 1e-12

    def test_inverse_rejects_asymmetric(self):
        with pytest.raises(LoopSymmetryError):
            loop_inverse_by_symmetry(LaurentLoop.monomial(2 * np.eye(2), 0))

    def test_first_order_minus_loop(self, monkeypatch):
        # g = I + P/z with symmetric P: g(-z)^T = I - P/z inverts g within
        # the window [-1, 0]; the -P^2/z^2 leftover falls outside it.
        p = 0.3 * random_sym(3, seed=31)
        g = LaurentLoop.from_terms({0: np.eye(3), -1: p})
        monkeypatch.setattr(laurent, "SYMMETRY_TOL", 1e-12)
        inv = loop_inverse_by_symmetry(g)
        npt.assert_array_equal(inv.coeff(-1), -p)
        prod = mul(g, inv)
        npt.assert_allclose(prod.coeff(0), np.eye(3), atol=1e-15)
        npt.assert_allclose(prod.coeff(-1), np.zeros((3, 3)), atol=1e-15)

    def test_exp_term_cap(self, monkeypatch):
        from biflow.laurent import LoopConvergenceError

        x = LaurentLoop.monomial(3.0 * np.eye(3), -1)
        monkeypatch.setattr(laurent, "EXP_MAX_TERMS", 2)
        with pytest.raises(LoopConvergenceError):
            exp_truncated(x, window=(-30, 0))


def group_pair(n, seed, scale=0.4, depth=10):
    """Truncated-exponential (g+, g-) pair near the identity."""
    g_plus = exp_truncated(
        random_sigma_fixed_loop(n, 0, 2, seed=seed, scale=scale), window=(0, depth)
    )
    g_minus = exp_truncated(
        random_sigma_fixed_loop(n, -2, -1, seed=seed + 1, scale=scale), window=(-depth, 0)
    )
    return g_plus, g_minus


class TestCoadjoint:
    def test_identity_acts_trivially(self):
        x = bi_loop(3, seed=31)
        out = coadjoint(LaurentLoop.identity(3), LaurentLoop.identity(3), x)
        npt.assert_array_equal(out.coeffs, x.coeffs)

    def test_bi_window_and_top_coefficient(self):
        for seed in range(10):
            s = random_sym(3, seed=seed)
            nmat = random_skew_simple(3, seed=seed + 40)
            x = BILoop(s, nmat).loop()
            gp, gm = group_pair(3, seed=100 + 7 * seed)
            out = coadjoint(gp, gm, x)
            assert out.lo >= 0 and out.hi <= 1
            npt.assert_array_equal(out.coeff(1), nmat)

    def test_first_order_formula(self):
        s = random_sym(4, seed=32)
        nmat = random_skew_simple(4, seed=33)
        x = BILoop(s, nmat).loop()
        p = 1e-4 * random_sym(4, seed=34)
        gm = exp_truncated(LaurentLoop.monomial(p, -1), window=(-10, 0))
        out = coadjoint(LaurentLoop.identity(4), gm, x)
        first_order = s + nmat @ p - p @ nmat
        npt.assert_allclose(out.coeff(0), first_order, atol=5e-8)

    def test_window_invariance(self):
        # Windows [-m, n] are preserved for (m, n) in {(0,1), (0,3), (2,3)}.
        trials = 0
        for m, n_deg in ((0, 1), (0, 3), (2, 3)):
            for seed in range(17):
                x = random_dual_loop(3, -m, n_deg, seed=1000 * m + seed)
                gp, gm = group_pair(3, seed=2000 * n_deg + 5 * seed)
                out = coadjoint(gp, gm, x)
                assert out.lo >= -m and out.hi <= n_deg
                trials += 1
        assert trials >= 50

    def test_orbit_affinity(self):
        # The z^0 shift always lies in the range of P -> [N0, P] over symmetric P.
        n = 4
        s0 = random_sym(n, seed=35)
        n0 = random_skew_simple(n, seed=36)
        x = BILoop(s0, n0).loop()
        basis = []
        for i in range(n):
            for j in range(i, n):
                e = np.zeros((n, n))
                e[i, j] = e[j, i] = 1.0
                basis.append((n0 @ e - e @ n0).ravel())
        a_op = np.stack(basis, axis=1)
        for seed in range(10):
            gp, gm = group_pair(n, seed=400 + 3 * seed)
            delta = (coadjoint(gp, gm, x).coeff(0) - s0).ravel()
            if np.linalg.norm(delta) == 0:
                continue
            _, res, _, _ = np.linalg.lstsq(a_op, delta, rcond=None)
            rel = np.sqrt(res[0]) / np.linalg.norm(delta) if res.size else 0.0
            assert rel <= 1e-8

    def test_gradient_parity_for_even_power_shift(self):
        # (S+zN)^k z^-(l+1) is sigma-fixed for even l.
        x = bi_loop(3, seed=37)
        for k in (1, 2, 3):
            for ell in (0, 2):
                grad = loop_power(x, k).shift(-(ell + 1))
                assert is_sigma_fixed(grad, tol=1e-12)

    def test_rejects_bad_factors(self):
        x = bi_loop(3, seed=38)
        with pytest.raises(ValueError):
            coadjoint(LaurentLoop.monomial(np.eye(3), -1), LaurentLoop.identity(3), x)
        with pytest.raises(ValueError):
            coadjoint(LaurentLoop.identity(3), LaurentLoop.monomial(2 * np.eye(3), 0), x)
