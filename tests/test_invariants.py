import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biflow import invariants
from biflow.cli import ExperimentConfig, run_commute, sample_state
from biflow.invariants import (
    IntegralIndex,
    casimirs,
    enumerate_indices,
    gradient_loop,
    hamiltonian,
    integral_independence_rank,
    is_admissible,
    orbit_membership,
    poisson_bracket,
    poisson_matrix,
    spectral_coeffs,
)
from biflow.laurent import BILoop, LaurentLoop, is_sigma_fixed, loop_power, pairing, rbracket
from biflow.matcore import (
    as_skew,
    as_sym,
    char_poly,
    commutator,
    random_matrix,
    random_orthogonal,
    random_skew_simple,
    random_sym,
)
from biflow.symmetrizer import sym

N2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_biloop(n, seed):
    return BILoop(random_sym(n, seed), random_skew_simple(n, seed + 5000))


class TestEnumerate:
    def test_n2(self):
        assert enumerate_indices(2) == [IntegralIndex(1, 0)]

    def test_n4_membership(self):
        got = {(i.k, i.l) for i in enumerate_indices(4)}
        assert got == {(1, 0), (2, 0), (3, 0), (3, 2)}

    def test_n6_count(self):
        assert len(enumerate_indices(6)) == 9

    def test_count_identity(self):
        for n in range(2, 13):
            assert len(enumerate_indices(n)) == n * n // 4

    def test_odd_l_rejected(self):
        with pytest.raises(ValueError):
            IntegralIndex(2, 1)

    def test_admissibility(self):
        assert is_admissible(IntegralIndex(3, 2), 4)
        assert not is_admissible(IntegralIndex(2, 2), 4)
        assert not is_admissible(IntegralIndex(4, 0), 4)


class TestHamiltonian:
    def test_h10_diag(self):
        x = BILoop(np.diag([1.0, 2.0]), N2)
        npt.assert_allclose(hamiltonian(x, IntegralIndex(1, 0)), 2.5)

    def test_h20_diag(self):
        s = np.diag([1.0, 2.0, 0.0])
        n = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        npt.assert_allclose(hamiltonian(BILoop(s, n), IntegralIndex(2, 0)), 3.0)

    def test_matches_loop_power_residue(self):
        # Oracle: the residue definition, tr of the z^l coefficient of the
        # Laurent power X(z)^(k+1), over k+1.
        for n in range(2, 7):
            x = random_biloop(n, seed=20 + n)
            for idx in enumerate_indices(n):
                want = np.trace(loop_power(x.loop(), idx.k + 1).coeff(idx.l)) / (idx.k + 1)
                npt.assert_allclose(hamiltonian(x, idx), want, atol=1e-12 * max(1.0, abs(want)))

    def test_matches_symmetrizer_trace(self):
        # Oracle: the z^l coefficient of tr X^(k+1) is the trace of the
        # (k+1-l, l) symmetrizer, evaluated here by explicit word sums.
        from biflow.symmetrizer import sym_enumerated

        x = random_biloop(4, seed=1)
        for idx in enumerate_indices(4):
            want = np.trace(
                sym_enumerated(x.S, x.N, idx.k + 1 - idx.l, idx.l)
            ) / (idx.k + 1)
            npt.assert_allclose(hamiltonian(x, idx), want, atol=1e-12 * max(1.0, abs(want)))

    def test_inadmissible_rejected(self):
        x = random_biloop(3, seed=2)
        with pytest.raises(ValueError):
            hamiltonian(x, IntegralIndex(3, 0))

    def test_orthogonal_conjugation_invariance(self):
        for seed in range(5):
            x = random_biloop(4, seed=10 + seed)
            q = random_orthogonal(4, seed=90 + seed)
            xc = BILoop(q.T @ x.S @ q, q.T @ x.N @ q)
            for idx in enumerate_indices(4):
                h0 = hamiltonian(x, idx)
                h1 = hamiltonian(xc, idx)
                assert abs(h0 - h1) <= 1e-11 * max(1.0, abs(h0))


class TestGradient:
    def test_k1_l0_form(self):
        x = random_biloop(3, seed=3)
        g = gradient_loop(x, IntegralIndex(1, 0))
        assert g.window == (-1, 0)
        npt.assert_array_equal(g.coeff(-1), x.S)
        npt.assert_array_equal(g.coeff(0), x.N)

    def test_k2_l0_matches_generator(self):
        x = random_biloop(3, seed=4)
        s, n = x.S, x.N
        g = gradient_loop(x, IntegralIndex(2, 0))
        npt.assert_allclose(g.coeff(-1), s @ s, atol=1e-14)
        npt.assert_allclose(g.coeff(0), s @ n + n @ s, atol=1e-14)
        npt.assert_allclose(g.coeff(1), n @ n, atol=1e-14)

    def test_window_and_parity(self):
        for n in (3, 4, 5):
            x = random_biloop(n, seed=20 + n)
            for idx in enumerate_indices(n):
                g = gradient_loop(x, idx)
                assert g.lo >= -(idx.l + 1) and g.hi <= idx.k - idx.l - 1
                assert is_sigma_fixed(g, tol=1e-12)


class TestPoissonBracket:
    def test_same_index_exact_zero(self):
        x = random_biloop(4, seed=5)
        assert poisson_bracket(x, IntegralIndex(2, 0), IntegralIndex(2, 0)) == 0.0

    def test_n4_pair(self):
        x = random_biloop(4, seed=6)
        i1, i2 = IntegralIndex(1, 0), IntegralIndex(3, 2)
        scale = max(
            1.0, gradient_loop(x, i1).norm() * gradient_loop(x, i2).norm() * x.loop().norm()
        )
        assert abs(poisson_bracket(x, i1, i2)) <= 1e-10 * scale

    def test_n5_all_pairs_ten_seeds(self):
        worst = 0.0
        for seed in range(10):
            x = random_biloop(5, seed=100 + seed)
            idxs = enumerate_indices(5)
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    worst = max(worst, abs(poisson_bracket(x, idxs[a], idxs[b])))
        assert worst <= 1e-9

    def test_antisymmetry(self):
        x = random_biloop(4, seed=7)
        idxs = enumerate_indices(4)
        for a in range(len(idxs)):
            for b in range(len(idxs)):
                lhs = poisson_bracket(x, idxs[a], idxs[b])
                rhs = -poisson_bracket(x, idxs[b], idxs[a])
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def commute_gate(tmp_path, n, seed):
    (gate,), _ = run_commute(ExperimentConfig("commute", n=n, seed=seed, out_dir=tmp_path))
    return gate


class TestPoissonMatrix:
    def test_matches_oracle_every_ordered_pair(self):
        for n in range(2, 7):
            idxs = enumerate_indices(n)
            for seed in range(5):
                s, k = sample_state(n, 40 * n + seed)
                brackets, scale = poisson_matrix(s, k)
                x = BILoop(s, k)
                for a, ia in enumerate(idxs):
                    for b, ib in enumerate(idxs):
                        gap = abs(brackets[a, b] - poisson_bracket(x, ia, ib))
                        assert gap <= 1e-15 * scale[a, b]

    def test_pairing_sees_only_residue_coefficients(self):
        # The identity behind the matrix, on loops whose brackets are far from
        # zero: for X = S + zN and any loops A, B, (X, [A, B]_R) equals
        # -tr(N [A_-1, B_-1]).
        for n in (2, 4, 6):
            s, k = random_matrix(n, seed=n), random_matrix(n, seed=n + 50)
            x = LaurentLoop(0, np.stack([s, k]))
            a = LaurentLoop(-3, np.stack([random_matrix(n, seed=10 * n + j) for j in range(6)]))
            b = LaurentLoop(-2, np.stack([random_matrix(n, seed=20 * n + j) for j in range(5)]))
            want = pairing(x, rbracket(a, b))
            a1, b1 = a.coeff(-1), b.coeff(-1)
            assert abs(want) > 1e-2
            npt.assert_allclose(-np.trace(k @ (a1 @ b1 - b1 @ a1)), want, rtol=1e-12)

    def test_contraction_is_the_trace_pairing(self, monkeypatch):
        # Oracle: -tr(F_a M_b) pair by pair, on stacks far from commuting and
        # with M not symmetric, so a lost sign or transpose shows.
        s, k = sample_state(5, 11)
        table = invariants._hamiltonian_fields(s, k)[0]
        m = np.stack([random_matrix(5, seed=300 + a) for a in range(6)])
        f = np.stack([random_matrix(5, seed=400 + a) for a in range(6)])
        monkeypatch.setattr(invariants, "_hamiltonian_fields", lambda s, n: (table, m, f))
        brackets, _ = poisson_matrix(s, k)
        raw = np.array([[-np.trace(f[a] @ m[b]) for b in range(6)] for a in range(6)])
        npt.assert_allclose(brackets, 0.5 * (raw - raw.T), rtol=0, atol=1e-14 * np.abs(raw).max())

    def test_scale_matches_gradient_norms(self):
        # The scaled states put the largest loop coefficient on N, and every
        # product under the floor of 1.
        s, k = random_sym(5, seed=41), random_skew_simple(5, seed=42)
        for cs, ck in [(1.0, 1.0), (1.0, 10.0), (0.01, 0.01)]:
            x = BILoop(cs * s, ck * k)
            _, scale = poisson_matrix(x.S, x.N)
            grad = [gradient_loop(x, idx).norm() for idx in enumerate_indices(5)]
            want = np.maximum(1.0, np.outer(grad, grad) * x.loop().norm())
            npt.assert_allclose(scale, want, rtol=1e-13)

    def test_exactly_antisymmetric(self):
        for n in range(2, 10):
            brackets, scale = poisson_matrix(*sample_state(n, n))
            assert brackets.shape == scale.shape == (n * n // 4, n * n // 4)
            npt.assert_array_equal(brackets, -brackets.T)
            npt.assert_array_equal(scale, scale.T)

    def test_n2_has_no_pairs(self, tmp_path):
        brackets, _ = poisson_matrix(*sample_state(2, 3))
        npt.assert_array_equal(brackets, [[0.0]])
        assert commute_gate(tmp_path, 2, 3).value == 0.0

    def test_wrong_skew_in_commutator_fails_gate(self, tmp_path, monkeypatch):
        fields = invariants._hamiltonian_fields

        def wrong_skew(s, n):
            table, m, _ = fields(s, n)
            other = random_skew_simple(len(s), seed=99)
            return table, m, other @ m - m @ other

        assert commute_gate(tmp_path, 6, 1).passed
        monkeypatch.setattr(invariants, "_hamiltonian_fields", wrong_skew)
        gate = commute_gate(tmp_path, 6, 1)
        assert not gate.passed and gate.value > 1e-3


class TestCommuteSizes:
    @pytest.mark.parametrize("n", [12, 16, 24])
    def test_passes_at_promised_sizes(self, tmp_path, n):
        assert commute_gate(tmp_path, n, 7).passed

    @settings(derandomize=True, deadline=None)
    @given(n=st.integers(3, 16), seed=st.integers(0, 10**6))
    def test_sweep(self, tmp_path_factory, n, seed):
        assert commute_gate(tmp_path_factory.getbasetemp() / "commute", n, seed).passed


class TestSpectralCoeffs:
    def test_zero_n_reduces_to_char_poly(self):
        s = random_sym(4, seed=8)
        table = spectral_coeffs(s, np.zeros((4, 4)))[0]
        coeffs = char_poly(s)
        for r in range(5):
            npt.assert_allclose(table[r, 0], coeffs[4 - r], atol=1e-10)
            for k in range(1, r // 2 + 1):
                assert abs(table[r, k]) <= 1e-10

    def test_pure_n_coefficients_ignore_s(self):
        n = random_skew_simple(5, seed=9)
        t1 = spectral_coeffs(random_sym(5, seed=10), n)[0]
        t2 = spectral_coeffs(random_sym(5, seed=11), n)[0]
        scale = max(1.0, np.max(np.abs(list(t1.values()))))
        for k in range(1, 3):
            assert abs(t1[2 * k, k] - t2[2 * k, k]) <= 1e-10 * scale

    def test_even_in_z(self):
        for seed in range(5):
            s = random_sym(5, seed=30 + seed)
            n = random_skew_simple(5, seed=40 + seed)
            assert spectral_coeffs(s, n)[1] <= 1e-10

    def test_evaluates_determinant(self):
        # Oracle: direct determinant evaluation at an arbitrary (z, w) point.
        s = random_sym(4, seed=12)
        n = random_skew_simple(4, seed=13)
        table = spectral_coeffs(s, n)[0]
        z, w = 0.7, -0.3
        want = np.linalg.det(s + z * n - w * np.eye(4))
        got = sum(table[r, k] * z ** (2 * k) * w ** (4 - r) for r, k in table)
        npt.assert_allclose(got, want, atol=1e-10 * max(1.0, abs(want)))


class TestCasimirs:
    def test_trace_example(self):
        vals = casimirs(np.diag([1.0, 2.0]), N2)
        npt.assert_allclose(vals[0], 3.0)
        assert len(vals) == 1

    def test_count(self):
        for n in (2, 3, 4, 5, 6):
            s = random_sym(n, seed=n)
            k = random_skew_simple(n, seed=n + 100)
            assert len(casimirs(s, k)) == (n + 1) // 2

    def test_orbit_shift_invariance(self):
        for seed in range(10):
            s = random_sym(4, seed=50 + seed)
            n = random_skew_simple(4, seed=60 + seed)
            p = random_sym(4, seed=70 + seed)
            shifted = s + n @ p - p @ n
            got = np.array(casimirs(shifted, n))
            want = np.array(casimirs(s, n))
            npt.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_odd_power_traces_vanish_identically(self):
        # tr(S N^l) for odd l is minus itself under transposition, so the
        # excluded odd exponents carry no information.
        s = random_sym(5, seed=80)
        n = random_skew_simple(5, seed=81)
        for l in (1, 3):
            val = np.trace(s @ np.linalg.matrix_power(n, l))
            assert abs(val) <= 1e-14 * max(1.0, np.linalg.norm(s) * np.linalg.norm(n) ** l)

    def test_interpolation_guard(self, monkeypatch):
        from biflow.invariants import InterpolationError

        s = random_sym(4, seed=82)
        n = random_skew_simple(4, seed=83)
        monkeypatch.setattr(invariants, "COND_CAP", 1.0)
        with pytest.raises(InterpolationError):
            spectral_coeffs(s, n)

    def test_node_system_refused_from_n_33(self):
        from biflow.invariants import InterpolationError, spectral_nodes

        assert len(spectral_nodes(32)) == 33
        with pytest.raises(InterpolationError):
            spectral_nodes(33)

    def test_membership(self):
        s = random_sym(4, seed=14)
        n = random_skew_simple(4, seed=15)
        assert orbit_membership(s, s, n, tol=1e-12)
        p = random_sym(4, seed=16)
        shifted = s + n @ p - p @ n
        assert orbit_membership(shifted, s, n, tol=1e-10)
        off = s + np.eye(4)
        assert not orbit_membership(off, s, n, tol=1e-6)


class TestIndependenceRank:
    def test_n2(self):
        assert integral_independence_rank(random_sym(2, seed=17), random_skew_simple(2, seed=18)) == 1

    def test_zero_s(self):
        assert integral_independence_rank(np.zeros((4, 4)), random_skew_simple(4, seed=19)) == 0

    def test_s_commuting_with_n_has_no_fields(self):
        # S = N^2 makes every sym_{k-l,l}(S, N) a polynomial in N, so every
        # field [N, M] vanishes; integer entries keep the products exact.
        k = np.diag([1.0, 2.0, 3.0], 1)
        k = k - k.T
        assert integral_independence_rank(k @ k, k) == 0

    def test_n4_20_seeds(self):
        hits = sum(
            integral_independence_rank(
                random_sym(4, seed=200 + s), random_skew_simple(4, seed=300 + s)
            )
            == 4
            for s in range(20)
        )
        assert hits >= 19

    def test_casimir_gradient_family(self):
        # The even powers N^l are independent for a simple-spectrum N and
        # span the kernel complement footprint: ceil(n/2) directions.
        from biflow.matcore import numerical_rank

        for n in (2, 3, 4, 5, 6):
            k = random_skew_simple(n, seed=400 + n)
            fam = [np.linalg.matrix_power(k, l) for l in range(0, n, 2)]
            assert numerical_rank(fam) == (n + 1) // 2


def random_stack(n, seeds):
    return np.stack([random_matrix(n, seed) for seed in seeds])


class TestStacks:
    """One implementation serves one matrix and a stack: each slice is bit-identical."""

    def test_char_poly_per_slice(self):
        for n in range(2, 13):
            a = random_stack(n, range(100 * n, 100 * n + 5))
            got = char_poly(a)
            assert got.shape == (5, n + 1)
            for ai, gi in zip(a, got):
                npt.assert_array_equal(gi, char_poly(ai))

    def test_sym_per_slice(self):
        for n in range(2, 13):
            a = random_stack(n, range(100 * n, 100 * n + 5))
            b = random_matrix(n, seed=7 * n)
            for i, j in [(1, 0), (2, 1), (1, 2), (3, 2)]:
                got = sym(a, b, i, j)
                for ai, gi in zip(a, got):
                    npt.assert_array_equal(gi, sym(ai, b, i, j))

    def test_casimirs_per_slice(self):
        for n in range(2, 13):
            states = np.stack([random_sym(n, seed) for seed in range(10 * n, 10 * n + 4)])
            k = random_skew_simple(n, seed=n + 500)
            got = casimirs(states, k)
            for s, gi in zip(states, got):
                npt.assert_array_equal(gi, casimirs(s, k))

    def test_matrix_only_functions_reject_stacks(self):
        a = random_stack(3, range(2))
        with pytest.raises(ValueError):
            commutator(a, a)
        for check in (as_sym, as_skew):
            with pytest.raises(ValueError):
                check(a + a.transpose(0, 2, 1))
