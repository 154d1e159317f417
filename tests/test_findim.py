from dataclasses import FrozenInstanceError

import numpy as np
import numpy.testing as npt
import pytest

from biflow.findim import (
    AlgElem,
    DualElem,
    GroupElem,
    adjoint_f,
    alg_bracket,
    coadjoint_f,
    group_inverse,
    group_mul,
    hamiltonian_f,
    induced_flow_rhs,
    orbit_dimension_f,
    pairing_f,
    pairing_f_matrix,
)
from biflow.flows import bi_rhs
from biflow.invariants import casimirs
from biflow.matcore import random_skew_simple, random_sym


def rand_group(n, seed):
    return GroupElem(random_sym(n, seed), random_skew_simple(n, seed + 70))


def rand_alg(n, seed):
    return AlgElem(random_sym(n, seed), random_skew_simple(n, seed + 70))


def rand_dual(n, seed):
    return DualElem(random_sym(n, seed), random_skew_simple(n, seed + 70))


@pytest.mark.parametrize("cls", [GroupElem, AlgElem, DualElem])
class TestBlockData:
    def test_mismatched_sizes_refused(self, cls):
        s, n = random_sym(3, seed=1), random_skew_simple(3, seed=2)
        for s_bad, n_bad, match in [
            (s, random_skew_simple(4, seed=2), "share one dimension"),
            (n, n, "not symmetric"),
            (s, s, "not skew-symmetric"),
            (np.where(s, np.nan, 0.0), n, "finite"),
            (s, n + 0j, "complex"),
        ]:
            with pytest.raises(ValueError, match=match):
                cls(s_bad, n_bad)

    def test_frozen(self, cls):
        x = cls(random_sym(3, seed=1), random_skew_simple(3, seed=2))
        assert x.n == 3
        with pytest.raises(FrozenInstanceError):
            x.S = random_sym(3, seed=3)
        with pytest.raises(FrozenInstanceError):
            x.extra = 0.0

    def test_types_compare_apart(self, cls):
        # The same block data is a group, algebra or dual element, never two.
        s, n = random_sym(3, seed=1), random_skew_simple(3, seed=2)
        assert cls(s, n) == cls(s, n)
        for other in {GroupElem, AlgElem, DualElem} - {cls}:
            assert cls(s, n) != other(s, n)


class TestGroup:
    def test_inverse(self):
        g = rand_group(3, seed=1)
        prod = group_mul(g, group_inverse(g))
        npt.assert_allclose(prod.full(), np.eye(9), atol=1e-15)

    def test_shared_s_adds_skew_parts(self):
        s = random_sym(3, seed=2)
        n1 = random_skew_simple(3, seed=3)
        n2 = random_skew_simple(3, seed=4)
        prod = group_mul(GroupElem(s, n1), GroupElem(s, n2))
        npt.assert_allclose(prod.S, 2.0 * s, atol=1e-15)
        npt.assert_allclose(prod.N, n1 + n2, atol=1e-15)

    def test_block_law_matches_matrix_product(self):
        for seed in range(10):
            g1 = rand_group(3, seed=10 + seed)
            g2 = rand_group(3, seed=40 + seed)
            want = g1.full() @ g2.full()
            got = group_mul(g1, g2).full()
            assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))

    def test_associativity(self):
        for seed in range(10):
            a, b, c = (rand_group(3, seed=100 + 3 * seed + i) for i in range(3))
            lhs = group_mul(group_mul(a, b), c).full()
            rhs = group_mul(a, group_mul(b, c)).full()
            assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(lhs))

    def test_unipotent_shape(self):
        g = rand_group(3, seed=5).full()
        assert np.array_equal(np.tril(g, k=-1), np.zeros_like(g))
        npt.assert_array_equal(np.diag(g), np.ones(9))


class TestAlgebra:
    def test_same_s_commutes(self):
        s = random_sym(3, seed=6)
        x1 = AlgElem(s, random_skew_simple(3, seed=7))
        x2 = AlgElem(s, random_skew_simple(3, seed=8))
        assert not alg_bracket(x1, x2).S.any()
        assert np.linalg.norm(alg_bracket(x1, x2).N) <= 1e-15

    def test_bracket_matches_matrix_commutator(self):
        for seed in range(5):
            x1 = rand_alg(3, seed=20 + seed)
            x2 = rand_alg(3, seed=60 + seed)
            want = x1.full() @ x2.full() - x2.full() @ x1.full()
            got = alg_bracket(x1, x2).full()
            assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))

    def test_two_step_nilpotent(self):
        x1, x2, x3 = (rand_alg(3, seed=200 + i) for i in range(3))
        triple = alg_bracket(alg_bracket(x1, x2), x3)
        assert not triple.S.any() and not triple.N.any()


class TestPairing:
    def test_identity_pair(self):
        n = 4
        x = AlgElem(np.eye(n), np.zeros((n, n)))
        a = DualElem(np.eye(n), np.zeros((n, n)))
        assert pairing_f(x, a) == 2.0 * n

    def test_type_orthogonality(self):
        x = AlgElem(random_sym(3, seed=9), np.zeros((3, 3)))
        a = DualElem(np.zeros((3, 3)), random_skew_simple(3, seed=10))
        assert pairing_f(x, a) == 0.0

    def test_block_vs_matrix_trace(self):
        for seed in range(10):
            x = rand_alg(4, seed=300 + seed)
            a = rand_dual(4, seed=400 + seed)
            got = pairing_f(x, a)
            want = pairing_f_matrix(x, a)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


class TestCoadjoint:
    def test_pure_skew_group_acts_trivially(self):
        g = GroupElem(np.zeros((3, 3)), random_skew_simple(3, seed=11))
        a = rand_dual(3, seed=12)
        out = coadjoint_f(g, a)
        npt.assert_array_equal(out.S, a.S)
        npt.assert_array_equal(out.N, a.N)

    def test_zero_skew_dual_is_fixed(self):
        g = rand_group(3, seed=13)
        a = DualElem(random_sym(3, seed=14), np.zeros((3, 3)))
        out = coadjoint_f(g, a)
        npt.assert_array_equal(out.S, a.S)

    def test_defining_property(self):
        # The closed form is dual to the adjoint action under the trace
        # pairing: (X, Ad*_g A) = (Ad_g X, A).
        for seed in range(10):
            g = rand_group(3, seed=500 + seed)
            a = rand_dual(3, seed=600 + seed)
            x = rand_alg(3, seed=700 + seed)
            lhs = pairing_f(x, coadjoint_f(g, a))
            rhs = float(np.trace(adjoint_f(g, x) @ a.full()))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_homomorphism(self):
        for seed in range(50):
            g1 = rand_group(4, seed=800 + seed)
            g2 = rand_group(4, seed=900 + seed)
            a = rand_dual(4, seed=1000 + seed)
            lhs = coadjoint_f(group_mul(g1, g2), a)
            rhs = coadjoint_f(g1, coadjoint_f(g2, a))
            gap = np.linalg.norm(lhs.S - rhs.S)
            assert gap <= 1e-12 * max(1.0, np.linalg.norm(lhs.S))

    def test_casimir_preservation(self):
        for seed in range(10):
            g = rand_group(4, seed=1100 + seed)
            a = rand_dual(4, seed=1200 + seed)
            out = coadjoint_f(g, a)
            got = np.array(casimirs(out.S, out.N))
            want = np.array(casimirs(a.S, a.N))
            npt.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_matches_loop_coadjoint(self):
        # The z^0 output of the loop-level action of exp(Tz^-1 + ...) is
        # S + [N, T]: identical to the block formula.
        from biflow.laurent import LaurentLoop, coadjoint, exp_truncated

        t_small = 0.3
        g = GroupElem(t_small * random_sym(3, seed=15), random_skew_simple(3, seed=16))
        a = rand_dual(3, seed=17)
        y = LaurentLoop.from_terms(
            {-1: g.S, -2: g.N}
        )
        gm = exp_truncated(y, window=(-12, 0))
        x = LaurentLoop(0, np.stack([a.S, a.N]))
        loop_out = coadjoint(LaurentLoop.identity(3), gm, x)
        block_out = coadjoint_f(g, a)
        npt.assert_allclose(loop_out.coeff(0), block_out.S, atol=1e-13)


class TestInducedFlow:
    def test_matches_bi_rhs(self):
        for seed in range(10):
            a = rand_dual(4, seed=1300 + seed)
            got = induced_flow_rhs(a)
            want = bi_rhs(a.S, a.N)
            assert np.linalg.norm(got.S - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
            assert not got.N.any()

    def test_commuting_state_fixed(self):
        n = random_skew_simple(3, seed=18)
        a = DualElem(n @ n, n)
        assert np.linalg.norm(induced_flow_rhs(a).S) <= 1e-14

    def test_finite_difference_gradient(self):
        # d/de H(A + e dA) at e=0 against the analytic slot gradient S^2.
        a = rand_dual(4, seed=19)
        s2 = a.S @ a.S
        eps = 1e-5
        for seed in range(5):
            d = rand_dual(4, seed=1400 + seed)
            plus = DualElem(a.S + eps * d.S, a.N + eps * d.N)
            minus = DualElem(a.S - eps * d.S, a.N - eps * d.N)
            fd = (hamiltonian_f(plus) - hamiltonian_f(minus)) / (2 * eps)
            analytic = 2.0 * float(np.trace(s2 @ d.S))
            assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))


class TestOrbitDimension:
    def test_zero_n(self):
        assert orbit_dimension_f(np.zeros((4, 4))) == 0

    def test_generic_dimensions(self):
        for n in range(2, 7):
            k = random_skew_simple(n, seed=1500 + n)
            assert orbit_dimension_f(k) == 2 * (n * n // 4)

    def test_n5_value(self):
        assert orbit_dimension_f(random_skew_simple(5, seed=20)) == 12
