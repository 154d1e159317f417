from math import comb

import numpy as np
import numpy.testing as npt
import pytest

from biflow.cli import sample_state
from biflow.matcore import commutator, numerical_rank, random_matrix, random_skew_simple, random_sym
from biflow.symmetrizer import (
    SymmetrizerTable,
    _sweep,
    cayley_hamilton_dependence,
    degree_below,
    generic_independence,
    sym,
    sym_enumerated,
    witness_pair,
)


def seeded_sym(a, b, i, j):
    """The row-by-row recursion seeded with sym_00 = I, products as in the table."""
    row = [np.eye(a.shape[-1])]
    for _ in range(j):
        row.append(b @ row[-1])
    for _ in range(i):
        nxt = [a @ row[0]]
        for c in range(1, j + 1):
            nxt.append(a @ row[c] + b @ nxt[c - 1])
        row = nxt
    return row[j]


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

    def test_kernel_matches_identity_seeded_recursion(self):
        # The sweep starts its recursion from A and B where seeded_sym starts
        # from I; every entry must keep its bits, on matrices and on stacks.
        for n in range(2, 13):
            a = random_matrix(n, seed=100 + n)
            b = random_matrix(n, seed=200 + n)
            stack = np.stack([random_matrix(n, seed=300 + n + 50 * t) for t in range(3)])
            table = SymmetrizerTable(a, b, 6)
            for d in range(1, 7):
                for i in range(d + 1):
                    j = d - i
                    want = seeded_sym(a, b, i, j)
                    assert np.array_equal(want, table.get(i, j))
                    assert np.array_equal(_sweep(a, b, i, j), want)
                    assert np.array_equal(sym(a, b, i, j), want)
                    want = seeded_sym(stack, b, i, j)
                    assert np.array_equal(_sweep(stack, b, i, j), want)
                    assert np.array_equal(sym(stack, b, i, j), want)
                    assert np.array_equal(sym(b, stack, j, i), seeded_sym(b, stack, j, i))
            # Degree-bounded sweeps hand keep each row r = 0..i_max, holding
            # sym_rc for c <= j_max, r + c <= i_max (row[0] is None at r = 0).
            for i_max, j_max in ((6, 6), (6, 3), (4, 4), (4, 2), (3, 0), (1, 1)):
                for left in (a, stack):
                    rows = []
                    _sweep(left, b, i_max, j_max, lambda r, row: rows.append(row))
                    assert [len(row) for row in rows] == [1 + min(j_max, i_max - r) for r in range(i_max + 1)]
                    assert rows[0][0] is None
                    for r, row in enumerate(rows):
                        for c in range(r == 0, len(row)):
                            assert np.array_equal(row[c], seeded_sym(left, b, r, c))

    def test_public_sym_checks_its_input(self):
        a = random_matrix(3, seed=11)
        bad = a.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            sym(bad, a, 2, 1)
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            sym(a, bad, 2, 1)
        with pytest.raises(ValueError, match="square"):
            sym(a[:, :2], a, 1, 1)
        with pytest.raises(ValueError, match="square"):
            sym(a, np.ones(3), 1, 1)
        with pytest.raises(ValueError, match="dimension"):
            sym(a, np.eye(4), 2, 2)
        with pytest.raises(ValueError, match="dimension"):
            sym(np.stack([a, a]), np.eye(2), 1, 1)

    def test_degree_one_is_a_copy(self):
        a = random_matrix(3, seed=12)
        b = random_matrix(3, seed=13)
        table = SymmetrizerTable(a, b, 2)
        pairs = ((sym(a, b, 1, 0), a), (sym(a, b, 0, 1), b), (table.get(1, 0), table.a), (table.get(0, 1), table.b))
        for got, want in pairs:
            assert got is not want and np.array_equal(got, want)
            got[0, 0] += 1.0
            assert not np.array_equal(got, want)

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
        assert SymmetrizerTable(a, b, 1).cancellation(0, 0) == 0.0

    def test_random_4x4(self):
        a = random_matrix(4, seed=13)
        b = random_matrix(4, seed=14)
        scale = max(1.0, np.linalg.norm(a) + np.linalg.norm(b)) ** 4
        assert SymmetrizerTable(a, b, 4).cancellation(2, 1) <= 1e-12 * scale

    def test_5x5_higher_degree(self):
        a = random_matrix(5, seed=15)
        b = random_matrix(5, seed=16)
        assert SymmetrizerTable(a, b, 6).cancellation(3, 2) <= 1e-11

    def test_sweep_small_degrees(self):
        for n in (2, 3, 4, 5):
            for trial in range(5):
                a = random_matrix(n, seed=100 * n + trial)
                b = random_matrix(n, seed=100 * n + trial + 50)
                table = SymmetrizerTable(a, b, 4)
                for i in range(4):
                    for j in range(4 - i):
                        assert table.cancellation(i, j) <= 1e-12 * max(
                            1.0, (np.linalg.norm(a) + np.linalg.norm(b)) ** (i + j + 2)
                        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_table_serves_every_residual(self, n):
        # lemma41 reads every residual at i + j <= 4 from one table of degree
        # 5: each has the bits of the smallest table's that holds it, and of
        # the entries sym builds.
        a = random_matrix(n, seed=400 + n)
        b = random_matrix(n, seed=500 + n)
        table = SymmetrizerTable(a, b, 5)
        for i in range(5):
            for j in range(5 - i):
                resid = commutator(sym(a, b, i, j + 1), a) + commutator(sym(a, b, i + 1, j), b)
                want = float(np.linalg.norm(resid))
                assert table.cancellation(i, j) == SymmetrizerTable(a, b, i + j + 1).cancellation(i, j) == want


class TestParity:
    def test_s_squared_symmetric(self):
        s = random_sym(4, seed=17)
        n = random_skew_simple(4, seed=18)
        assert SymmetrizerTable(s, n, 2).has_parity(2, 0)

    def test_anticommutator_skew(self):
        s = random_sym(4, seed=19)
        n = random_skew_simple(4, seed=20)
        assert SymmetrizerTable(s, n, 2).has_parity(1, 1)

    def test_mixed_even(self):
        s = random_sym(4, seed=21)
        n = random_skew_simple(4, seed=22)
        assert SymmetrizerTable(s, n, 3).has_parity(1, 2)

    def test_all_small_indices(self):
        for dim in (3, 4, 5):
            s = random_sym(dim, seed=23)
            n = random_skew_simple(dim, seed=24)
            table = SymmetrizerTable(s, n, 6)
            for i in range(4):
                for j in range(4):
                    assert table.has_parity(i, j)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_one_table_serves_every_entry(self, dim):
        # lemma41 reads the entries i, j <= 2 of one state from one table of degree 4.
        s = random_sym(dim, seed=600 + dim)
        n = random_skew_simple(dim, seed=700 + dim)
        table = SymmetrizerTable(s, n, 4)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(table.get(i, j), sym(s.full(), n.full(), i, j))
                assert table.has_parity(i, j) and SymmetrizerTable(s, n, i + j).has_parity(i, j)

    def test_wrong_parity_refused(self):
        # With B symmetric, sym_{ij} is symmetric for every j, so odd j fails.
        a = random_sym(4, seed=25).full()
        b = random_sym(4, seed=26).full()
        table = SymmetrizerTable(a, b, 4)
        got = [table.has_parity(i, j) for i, j in ((0, 1), (1, 1), (0, 2), (1, 3))]
        assert got == [False, False, True, False]

    @pytest.mark.parametrize("states", [4, 3])
    def test_stacked_table_refused(self, states):
        # Parity is a statement about one matrix; on a stack of as many states
        # as rows, transposing every axis would read a wrong verdict.
        pairs = [sample_state(4, seed) for seed in range(7, 7 + states)]
        assert all(SymmetrizerTable(s, n, 2).has_parity(2, 0) for s, n in pairs)
        stacked = SymmetrizerTable(*(np.stack([m.full() for m in ms]) for ms in zip(*pairs)), 2)
        with pytest.raises(ValueError, match="expected a square matrix"):
            stacked.has_parity(2, 0)


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

    @pytest.mark.parametrize("n", [4, 8])
    def test_stacked_ranks_equal_per_sample_ranks(self, n):
        # lemma41's 20 samples as one stack and one batched SVD, against a
        # table and a rank per sample; at n = 8 some ranks fall short.
        pairs = [(random_sym(n, seed=107 + t), random_skew_simple(n, seed=10_107 + t)) for t in range(20)]
        s = np.stack([p.full() for p, _ in pairs])
        k = np.stack([q.full() for _, q in pairs])
        stacked = SymmetrizerTable(s, k, n - 1)
        ranks = generic_independence(s, k)
        assert ranks.shape == (20,)
        for t, (p, q) in enumerate(pairs):
            table = SymmetrizerTable(p, q, n - 1)
            family = [table.get(i, j) for i, j in degree_below(n)]
            assert all(np.array_equal(stacked.get(i, j)[t], m) for (i, j), m in zip(degree_below(n), family))
            assert ranks[t] == numerical_rank(family) == generic_independence(p, q)
        assert (n == 4) == all(ranks == n * (n + 1) // 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SymmetrizerTable(np.eye(2), np.eye(3), 2)
