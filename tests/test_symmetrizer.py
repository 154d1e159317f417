from math import comb

import numpy as np
import numpy.testing as npt
import pytest

from biflow.matcore import numerical_rank, random_matrix, random_skew_simple, random_sym
from biflow.symmetrizer import (
    SymmetrizerTable,
    cayley_hamilton_dependence,
    degree_below,
    generic_independence,
    lemma_a_residual,
    parity_check,
    sym,
    sym_enumerated,
    witness_pair,
)


class TestSym:
    def test_low_order_closed_forms(self):
        a = random_matrix(3, seed=1)
        b = random_matrix(3, seed=2)
        npt.assert_array_equal(sym(a, b, 0, 0), np.eye(3))
        npt.assert_array_equal(sym(a, b, 1, 0), a)
        npt.assert_array_equal(sym(a, b, 0, 1), b)
        npt.assert_allclose(sym(a, b, 1, 1), a @ b + b @ a, atol=1e-14)
        npt.assert_allclose(sym(a, b, 2, 0), a @ a, atol=1e-14)

    def test_sym_21_matches_enumeration(self):
        a = random_matrix(3, seed=3)
        b = random_matrix(3, seed=4)
        want = a @ a @ b + a @ b @ a + b @ a @ a
        npt.assert_allclose(sym(a, b, 2, 1), want, atol=1e-13)
        npt.assert_allclose(sym_enumerated(a, b, 2, 1), want, atol=1e-13)

    def test_recursion_vs_enumeration(self):
        a = random_matrix(3, seed=5)
        b = random_matrix(3, seed=6)
        table = SymmetrizerTable(a, b, 6)
        for i in range(7):
            for j in range(7 - i):
                got = table.get(i, j)
                want = sym_enumerated(a, b, i, j)
                scale = max(1.0, np.linalg.norm(want))
                npt.assert_allclose(got, want, atol=1e-12 * scale)

    def test_untabled_matches_table(self):
        a = random_matrix(4, seed=9)
        b = random_matrix(4, seed=10)
        for d in range(6):
            table = SymmetrizerTable(a, b, d)
            for i in range(d + 1):
                npt.assert_array_equal(sym(a, b, i, d - i), table.get(i, d - i))
        with pytest.raises(ValueError):
            sym(a, b, -1, 2)
        with pytest.raises(ValueError):
            sym(a, np.eye(3), 1, 1)

    def test_word_count(self):
        # Number of words in sym_{ij} is C(i+j, i): check through the trace
        # of the all-ones evaluation A = B = I.
        eye = np.eye(3)
        for i in range(4):
            for j in range(4):
                npt.assert_allclose(sym(eye, eye, i, j), comb(i + j, i) * eye)

    def test_left_right_recursions_agree(self):
        a = random_matrix(4, seed=7)
        b = random_matrix(4, seed=8)
        table = SymmetrizerTable(a, b, 6)
        for i in range(7):
            for j in range(7 - i):
                left = table.get(i, j)
                right = table.right_recursion(i, j)
                scale = max(1.0, np.linalg.norm(left))
                npt.assert_allclose(left, right, atol=1e-13 * scale)

    def test_argument_swap_symmetry(self):
        a = random_matrix(3, seed=9)
        b = random_matrix(3, seed=10)
        ta = SymmetrizerTable(a, b, 5)
        tb = SymmetrizerTable(b, a, 5)
        for i in range(6):
            for j in range(6 - i):
                npt.assert_array_equal(ta.get(i, j), tb.get(j, i))


class TestLemmaA:
    def test_base_case_exact(self):
        a = random_matrix(3, seed=11)
        b = random_matrix(3, seed=12)
        assert lemma_a_residual(a, b, 0, 0) == 0.0

    def test_random_4x4(self):
        a = random_matrix(4, seed=13)
        b = random_matrix(4, seed=14)
        scale = max(1.0, np.linalg.norm(a) + np.linalg.norm(b)) ** 4
        assert lemma_a_residual(a, b, 2, 1) <= 1e-12 * scale

    def test_5x5_higher_degree(self):
        a = random_matrix(5, seed=15)
        b = random_matrix(5, seed=16)
        assert lemma_a_residual(a, b, 3, 2) <= 1e-11

    def test_sweep_small_degrees(self):
        for n in (2, 3, 4, 5):
            for trial in range(5):
                a = random_matrix(n, seed=100 * n + trial)
                b = random_matrix(n, seed=100 * n + trial + 50)
                for i in range(4):
                    for j in range(4 - i):
                        assert lemma_a_residual(a, b, i, j) <= 1e-12 * max(
                            1.0, (np.linalg.norm(a) + np.linalg.norm(b)) ** (i + j + 2)
                        )


class TestParity:
    def test_s_squared_symmetric(self):
        s = random_sym(4, seed=17)
        n = random_skew_simple(4, seed=18)
        assert parity_check(s, n, 2, 0)

    def test_anticommutator_skew(self):
        s = random_sym(4, seed=19)
        n = random_skew_simple(4, seed=20)
        assert parity_check(s, n, 1, 1)

    def test_mixed_even(self):
        s = random_sym(4, seed=21)
        n = random_skew_simple(4, seed=22)
        assert parity_check(s, n, 1, 2)

    def test_all_small_indices(self):
        s = random_sym(5, seed=23)
        n = random_skew_simple(5, seed=24)
        for i in range(4):
            for j in range(4):
                assert parity_check(s, n, i, j)


class TestCayleyHamiltonDependence:
    def test_pure_powers(self):
        # l = 0 and l = n are the plain Cayley-Hamilton statements.
        a = random_matrix(3, seed=25)
        b = random_matrix(3, seed=26)
        assert cayley_hamilton_dependence(a, b) <= 1e-8

    def test_n4_random(self):
        a = random_matrix(4, seed=27)
        b = random_matrix(4, seed=28)
        assert cayley_hamilton_dependence(a, b) <= 1e-8

    def test_n5_random(self):
        a = random_matrix(5, seed=29)
        b = random_matrix(5, seed=30)
        assert cayley_hamilton_dependence(a, b) <= 1e-8

    def test_symmetric_skew_pairs(self):
        for n in (2, 3, 4, 5):
            s = random_sym(n, seed=31 + n).full()
            k = random_skew_simple(n, seed=41 + n).full()
            assert cayley_hamilton_dependence(s, k) <= 1e-8


class TestWitnessPair:
    def test_n2_rank3(self):
        a, b = witness_pair(2, c=2.0)
        npt.assert_array_equal(a, np.diag([2.0, 4.0]))
        npt.assert_array_equal(b, np.array([[0.0, 0.0], [1.0, 0.0]]))
        fams = [sym(a, b, i, j) for i, j in degree_below(2)]
        assert numerical_rank(fams) == 3

    def test_n3_rank6(self):
        a, b = witness_pair(3, c=2.0)
        fams = [sym(a, b, i, j) for i, j in degree_below(3)]
        assert numerical_rank(fams) == 6

    def test_full_rank_small_n(self):
        # Independence is scale-invariant; normalize members so the Gram
        # instrument is not dominated by the geometric growth of A*^k.
        for n in (2, 3, 4, 5):
            a, b = witness_pair(n, c=2.0)
            fams = [sym(a, b, i, j) for i, j in degree_below(n)]
            fams = [m / np.linalg.norm(m) for m in fams]
            assert numerical_rank(fams) == n * (n + 1) // 2

    def test_c_one_degenerate(self):
        a, b = witness_pair(3, c=1.0)
        fams = [sym(a, b, i, j) for i, j in degree_below(3)]
        assert numerical_rank(fams) < 6


class TestGenericIndependence:
    def test_n2_random(self):
        s = random_sym(2, seed=50)
        n = random_skew_simple(2, seed=51)
        assert generic_independence(s, n) == 3

    def test_identity_s_degenerate(self):
        n = 4
        s_id = random_sym(n, seed=52)
        s_id = type(s_id).from_full(np.eye(n))
        k = random_skew_simple(n, seed=53)
        full = n * (n + 1) // 2
        assert generic_independence(s_id, k) < full

    def test_n4_20_seeds(self):
        hits = 0
        for seed in range(20):
            s = random_sym(4, seed=200 + seed)
            k = random_skew_simple(4, seed=300 + seed)
            if generic_independence(s, k) == 10:
                hits += 1
        assert hits >= 19

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SymmetrizerTable(np.eye(2), np.eye(3), 2)
