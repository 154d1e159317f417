import numpy as np
import numpy.testing as npt
import pytest

from biflow.matcore import (
    JacobiConvergenceError,
    SplitMix64,
    SymMatrix,
    as_skew,
    as_stack,
    as_sym,
    char_poly,
    commutator,
    eigenvalues_sym,
    eval_poly,
    numerical_rank,
    random_matrix,
    random_orthogonal,
    random_skew_simple,
    random_sym,
    skew_spectrum_is_simple,
)

N2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestStorage:
    def test_sym_exact_by_storage(self):
        s = random_sym(5, seed=1)
        assert np.array_equal(s, s.T)

    def test_skew_exact_by_storage(self):
        k = random_skew_simple(5, seed=1)
        assert np.array_equal(k, -k.T)
        assert np.array_equal(np.diag(k), np.zeros(5))

    def test_checked_arrays_mirror_the_lower_triangle(self):
        a = np.array([[1.0, 2.0 + 1e-13], [2.0, -0.0]])
        s = as_sym(a)
        assert s is not a and s.flags.c_contiguous
        assert np.array_equal(s, [[1.0, 2.0], [2.0, 0.0]]) and np.signbit(s[1, 1])
        k = as_skew(np.array([[1e-13, -3.0], [3.0, 0.0]]))
        assert np.array_equal(k, [[0.0, -3.0], [3.0, 0.0]]) and not np.signbit(k[0, 0])
        assert np.array_equal(as_sym(s), s) and np.array_equal(as_skew(k), k)

    def test_from_full_rejects_asymmetric(self):
        asym = np.array([[1.0, 2.0], [0.0, 1.0]])
        for check in (SymMatrix.from_full, as_sym, as_skew):
            with pytest.raises(ValueError, match="symmetric"):
                check(asym)
        with pytest.raises(ValueError, match="not symmetric"):
            as_sym(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match="not skew-symmetric"):
            as_skew(np.eye(2))

    def test_rejects_nonfinite(self):
        for check in (SymMatrix.from_full, as_sym, as_skew):
            for bad in (np.inf, np.nan):
                with pytest.raises(ValueError, match="finite"):
                    check(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_complex(self):
        # The cast to float would drop the imaginary part: char_poly of
        # diag(i, 1) read [-0, -1, 1] in place of [i, -1 - i, 1].
        for x in ([[1j, 0], [0, 1]], np.eye(2, dtype=complex), np.zeros((3, 2, 2), dtype=np.complex64)):
            with pytest.raises(ValueError, match="complex"):
                as_stack(x)
        for check in (char_poly, as_sym, as_skew):
            with pytest.raises(ValueError, match="complex"):
                check([[1j, 0], [0, 1]])

    def test_real_input_cast_as_before(self):
        ints = [[1, 2], [2, 3]]
        got = as_stack(ints)
        assert got.dtype == float and np.array_equal(got, np.array(ints, dtype=float))
        x = np.ones((2, 2))
        assert as_stack(x) is x


class TestCommutator:
    def test_self_commutes(self):
        a = random_matrix(4, seed=2)
        npt.assert_array_equal(commutator(a, a), np.zeros((4, 4)))

    def test_identity_central(self):
        b = random_matrix(3, seed=3)
        npt.assert_array_equal(commutator(np.eye(3), b), np.zeros((3, 3)))

    def test_2x2_bloch_iserles_rhs(self):
        # [N, S^2] for N = [[0,1],[-1,0]], S = diag(1,2): direct arithmetic.
        s2 = np.diag([1.0, 4.0])
        npt.assert_allclose(commutator(N2, s2), np.array([[0.0, 3.0], [3.0, 0.0]]), atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_antisymmetry_and_jacobi(self):
        for seed in range(20):
            a = random_matrix(4, seed=3 * seed)
            b = random_matrix(4, seed=3 * seed + 1)
            c = random_matrix(4, seed=3 * seed + 2)
            scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c))
            npt.assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-13 * scale)
            jac = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert np.linalg.norm(jac) <= 1e-13 * scale

    def test_skew_with_sym_square_is_symmetric(self):
        for seed in range(10):
            k = random_skew_simple(5, seed=seed)
            p = random_sym(5, seed=seed + 100)
            r = commutator(k, p @ p)
            assert np.linalg.norm(r - r.T) <= 1e-14 * max(1.0, np.linalg.norm(r))


class TestCharPoly:
    def test_diag_example(self):
        # det(diag(1,2) - wI) = (1-w)(2-w) = w^2 - 3w + 2.
        npt.assert_allclose(char_poly(np.diag([1.0, 2.0])), [2.0, -3.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        for n in (1, 2, 3, 5):
            coeffs = char_poly(np.zeros((n, n)))
            expect = np.zeros(n + 1)
            expect[n] = (-1.0) ** n
            npt.assert_array_equal(coeffs, expect)

    def test_matches_eigenvalue_oracle(self):
        # Oracle: numpy's general eigensolver, independent of the recursion.
        a = random_matrix(3, seed=7)
        eig = np.linalg.eigvals(a)
        oracle = np.real(np.poly1d(eig, r=True).coeffs[::-1])  # monic, ascending
        npt.assert_allclose(char_poly(a), -oracle, atol=1e-12 * max(1.0, np.abs(oracle).max()))

    def test_cayley_hamilton_residual(self):
        for n in range(2, 7):
            for seed in range(5):
                a = random_matrix(n, seed=1000 * n + seed)
                residual = np.linalg.norm(eval_poly(char_poly(a), a))
                assert residual <= 1e-10 * max(1.0, np.linalg.norm(a)) ** n

    def test_equals_two_product_recursion(self):
        # Oracle: the recursion with a fresh product A M_k for each trace; the
        # kept product is the same one, so the coefficients agree bit for bit.
        def two_products(a):
            n = a.shape[-1]
            c = np.zeros(a.shape[:-2] + (n + 1,))
            c[..., 0] = 1.0
            m = np.zeros_like(a)
            for k in range(1, n + 1):
                m = a @ m + c[..., k - 1, None, None] * np.eye(n)
                c[..., k] = -np.trace(a @ m, axis1=-2, axis2=-1) / k
            return (-1.0 if n % 2 else 1.0) * c[..., ::-1]

        rng = SplitMix64(31)
        for n in range(1, 13):
            for batch in ((), (1,), (4,), (2, 3)):
                a = 3.0 * rng.matrix(int(np.prod(batch)) * n, n).reshape(*batch, n, n)
                assert np.array_equal(char_poly(a), two_products(a))


class TestEigenvaluesSym:
    def test_diag(self):
        npt.assert_allclose(eigenvalues_sym(np.diag([2.0, 1.0])), [1.0, 2.0])

    def test_2x2_closed_form(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        npt.assert_allclose(eigenvalues_sym(s), [-1.0, 1.0], atol=1e-12)

    def test_orthogonal_conjugation_invariance(self):
        for seed in range(10):
            s = random_sym(5, seed=seed)
            q = random_orthogonal(5, seed=seed + 50)
            npt.assert_allclose(
                eigenvalues_sym(q.T @ s @ q),
                eigenvalues_sym(s),
                atol=1e-10,
            )

    def test_matches_numpy_oracle(self):
        s = random_sym(6, seed=11)
        npt.assert_allclose(eigenvalues_sym(s), np.linalg.eigvalsh(s), atol=1e-11)

    def test_termination_quality(self):
        s = random_sym(8, seed=12)
        vals = eigenvalues_sym(s, tol=1e-12)
        assert np.all(np.diff(vals) >= 0)

    def test_sweep_cap_raises(self):
        with pytest.raises(JacobiConvergenceError):
            eigenvalues_sym(random_sym(6, seed=13), max_sweeps=0)


class TestNumericalRank:
    def test_proportional(self):
        assert numerical_rank([np.eye(3), 2 * np.eye(3)]) == 1

    def test_orthogonal_units(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        e22 = np.zeros((2, 2))
        e22[1, 1] = 1.0
        assert numerical_rank([e11, e22]) == 2

    def test_empty(self):
        assert numerical_rank([]) == 0

    def test_zero_family(self):
        assert numerical_rank([np.zeros((3, 3))]) == 0

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="share one dimension"):
            numerical_rank([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize(
        "family",
        [[np.ones((2, 3))], [np.ones(3)], [np.ones(1)], [np.ones((2, 2, 2))], np.ones((2, 3, 3, 3))],
    )
    def test_non_square_rejected(self, family):
        with pytest.raises(ValueError, match="square"):
            numerical_rank(family)

    def test_non_finite_rejected(self):
        bad = np.eye(3)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            numerical_rank([np.eye(3), bad])

    def test_stack_equals_list(self):
        fam = np.stack([random_matrix(4, seed) for seed in range(5)] + [np.zeros((4, 4))])
        assert numerical_rank(fam) == numerical_rank(list(fam)) == 5
        assert numerical_rank(np.zeros((0, 3, 3))) == 0


class TestRandomGeneration:
    def test_determinism(self):
        npt.assert_array_equal(random_sym(4, seed=9), random_sym(4, seed=9))
        npt.assert_array_equal(
            random_skew_simple(4, seed=9), random_skew_simple(4, seed=9)
        )

    def test_splitmix_reference_values(self):
        # First outputs for seed 0 of the standard SplitMix64 sequence.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
    def test_matrix_is_the_uniform_stream(self, seed):
        # Reference: the nested per-entry loop the vectorized draw replaced.
        for n, m in ((1, 1), (3, None), (4, 7), (8, None), (5, 2)):
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            got = fast.matrix(n, m)
            want = np.array([[slow.uniform() for _ in range(n if m is None else m)] for _ in range(n)])
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert fast.next_u64() == slow.next_u64()

    def test_uniform_range(self):
        rng = SplitMix64(42)
        draws = [rng.uniform() for _ in range(1000)]
        assert min(draws) >= -1.0 and max(draws) < 1.0

    def test_n2_any_nonzero_skew_is_simple(self):
        for seed in range(20):
            k = random_skew_simple(2, seed=seed)
            assert skew_spectrum_is_simple(k)

    def test_n4_accepted_samples_have_distinct_pairs(self):
        # Oracle: singular values from numpy's SVD come in doubled pairs.
        for seed in range(100):
            k = random_skew_simple(4, seed=seed)
            svals = np.linalg.svd(k, compute_uv=False)
            lam = svals[::2][:2]
            assert lam[0] - lam[1] > 1e-6 and lam[1] > 1e-6

    def test_orthogonal_is_orthogonal(self):
        q = random_orthogonal(5, seed=3)
        npt.assert_allclose(q.T @ q, np.eye(5), atol=1e-13)

    def test_resample_cap(self, monkeypatch):
        from biflow import matcore
        from biflow.matcore import ResampleCapError

        monkeypatch.setattr(matcore, "MAX_RESAMPLES", 0)
        with pytest.raises(ResampleCapError):
            random_skew_simple(4, seed=1)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_sym(1, seed=1)
        with pytest.raises(ValueError):
            random_skew_simple(1, seed=1)
