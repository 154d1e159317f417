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
from biflow.matcore import SkewMatrix, SymMatrix, random_skew_simple, random_sym


def rand_group(n, seed):
    return GroupElem(random_sym(n, seed), random_skew_simple(n, seed + 70))


def rand_alg(n, seed):
    return AlgElem(random_sym(n, seed), random_skew_simple(n, seed + 70))


def rand_dual(n, seed):
    return DualElem(random_sym(n, seed), random_skew_simple(n, seed + 70))


@pytest.mark.parametrize("cls", [GroupElem, AlgElem, DualElem])
class TestBlockData:
    def test_mismatched_sizes_refused(self, cls):
        with pytest.raises(ValueError, match="block dimensions differ"):
            cls(random_sym(3, seed=1), random_skew_simple(4, seed=2))

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
        npt.assert_allclose(prod.S.full(), 2.0 * s.full(), atol=1e-15)
        npt.assert_allclose(prod.N.full(), n1.full() + n2.full(), atol=1e-15)

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
        assert alg_bracket(x1, x2).S.norm() == 0.0
        assert alg_bracket(x1, x2).N.norm() <= 1e-15

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
        assert triple.S.norm() == 0.0 and triple.N.norm() == 0.0


class TestPairing:
    def test_identity_pair(self):
        n = 4
        x = AlgElem(SymMatrix.from_full(np.eye(n)), SkewMatrix.zero(n))
        a = DualElem(SymMatrix.from_full(np.eye(n)), SkewMatrix.zero(n))
        assert pairing_f(x, a) == 2.0 * n

    def test_type_orthogonality(self):
        x = AlgElem(random_sym(3, seed=9), SkewMatrix.zero(3))
        a = DualElem(SymMatrix.zero(3), random_skew_simple(3, seed=10))
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
        g = GroupElem(SymMatrix.zero(3), random_skew_simple(3, seed=11))
        a = rand_dual(3, seed=12)
        out = coadjoint_f(g, a)
        npt.assert_array_equal(out.S.full(), a.S.full())
        npt.assert_array_equal(out.N.full(), a.N.full())

    def test_zero_skew_dual_is_fixed(self):
        g = rand_group(3, seed=13)
        a = DualElem(random_sym(3, seed=14), SkewMatrix.zero(3))
        out = coadjoint_f(g, a)
        npt.assert_array_equal(out.S.full(), a.S.full())

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
            gap = np.linalg.norm(lhs.S.full() - rhs.S.full())
            assert gap <= 1e-12 * max(1.0, np.linalg.norm(lhs.S.full()))

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
        from biflow.laurent import BILoop, LaurentLoop, coadjoint, exp_truncated

        t_small = 0.3
        g = GroupElem(
            SymMatrix(3, t_small * random_sym(3, seed=15).packed),
            random_skew_simple(3, seed=16),
        )
        a = rand_dual(3, seed=17)
        y = LaurentLoop.from_terms(
            {-1: g.S.full(), -2: g.N.full()}
        )
        gm = exp_truncated(y, window=(-12, 0))
        x = BILoop(a.S, a.N).loop()
        loop_out = coadjoint(LaurentLoop.identity(3), gm, x)
        block_out = coadjoint_f(g, a)
        npt.assert_allclose(loop_out.coeff(0), block_out.S.full(), atol=1e-13)


class TestInducedFlow:
    def test_matches_bi_rhs(self):
        for seed in range(10):
            a = rand_dual(4, seed=1300 + seed)
            got = induced_flow_rhs(a)
            want = bi_rhs(a.S, a.N)
            assert np.linalg.norm(got.S.full() - want.full()) <= 1e-12 * max(
                1.0, want.norm()
            )
            assert got.N.norm() == 0.0

    def test_commuting_state_fixed(self):
        n = random_skew_simple(3, seed=18)
        nf = n.full()
        a = DualElem(SymMatrix.symmetric_part(nf @ nf), n)
        assert induced_flow_rhs(a).S.norm() <= 1e-14

    def test_finite_difference_gradient(self):
        # d/de H(A + e dA) at e=0 against the analytic slot gradient S^2.
        a = rand_dual(4, seed=19)
        s2 = a.S.full() @ a.S.full()
        eps = 1e-5
        for seed in range(5):
            d = rand_dual(4, seed=1400 + seed)
            plus = DualElem(
                SymMatrix.symmetric_part(a.S.full() + eps * d.S.full()),
                SkewMatrix.skew_part(a.N.full() + eps * d.N.full()),
            )
            minus = DualElem(
                SymMatrix.symmetric_part(a.S.full() - eps * d.S.full()),
                SkewMatrix.skew_part(a.N.full() - eps * d.N.full()),
            )
            fd = (hamiltonian_f(plus) - hamiltonian_f(minus)) / (2 * eps)
            analytic = 2.0 * float(np.trace(s2 @ d.S.full()))
            assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))


class TestOrbitDimension:
    def test_zero_n(self):
        assert orbit_dimension_f(SkewMatrix.zero(4)) == 0

    def test_generic_dimensions(self):
        for n in range(2, 7):
            k = random_skew_simple(n, seed=1500 + n)
            assert orbit_dimension_f(k) == 2 * (n * n // 4)

    def test_n5_value(self):
        assert orbit_dimension_f(random_skew_simple(5, seed=20)) == 12
