import itertools

import numpy as np
import numpy.testing as npt
import pytest

from biflow.blockpde import (
    BlockState,
    PDEState,
    _block_kernel,
    embed,
    extract,
    integrate_block,
    integrate_pde,
    l2_pair,
    n0,
    parity_leakage,
    pde_rhs,
    rhs_cubic,
    rhs_quadratic,
    rhs_reduced,
)
from biflow.flows import integrate, rk4_path
from biflow.invariants import IntegralIndex, casimirs
from biflow.matcore import SplitMix64, commutator, random_sym


def random_block(n, seed, zero_trace_corner=False, zero_corner=False):
    rng = SplitMix64(seed)
    m = n - 2
    a, b, c = rng.uniform(), rng.uniform(), rng.uniform()
    if zero_trace_corner:
        c = -a
    if zero_corner:
        a = b = c = 0.0
    u = np.array([rng.uniform() for _ in range(m)])
    v = np.array([rng.uniform() for _ in range(m)])
    core = random_sym(m, seed + 5000) if m > 1 else [[rng.uniform()]]
    return BlockState(a, b, c, u, v, core)


def oracle_blocks(bs, power):
    s = embed(bs)
    nf = n0(bs.n)
    return extract_rhs(commutator(nf, np.linalg.matrix_power(s, power)), bs.n)


def extract_rhs(mat, n):
    return {
        "a": mat[0, 0],
        "b": mat[0, 1],
        "c": mat[1, 1],
        "u": mat[0, 2:],
        "v": mat[1, 2:],
        "B": mat[2:, 2:],
    }


def assert_matches_oracle(got: BlockState, want: dict, atol: float):
    npt.assert_allclose(got.a, want["a"], atol=atol)
    npt.assert_allclose(got.b, want["b"], atol=atol)
    npt.assert_allclose(got.c, want["c"], atol=atol)
    npt.assert_allclose(got.u, want["u"], atol=atol)
    npt.assert_allclose(got.v, want["v"], atol=atol)
    npt.assert_allclose(got.B, want["B"], atol=atol)


class TestEmbed:
    def test_zero_state(self):
        bs = BlockState(0.0, 0.0, 0.0, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert not embed(bs).any()

    def test_round_trip(self):
        bs = random_block(6, seed=1)
        back = extract(embed(bs))
        npt.assert_array_equal(back.u, bs.u)
        npt.assert_array_equal(back.v, bs.v)
        assert (back.a, back.b, back.c) == (bs.a, bs.b, bs.c)
        npt.assert_array_equal(back.B, bs.B)

    def test_malformed_block_refused(self):
        u, b = np.zeros(3), random_sym(3, seed=2)
        for core, match in [
            (b + np.triu(np.ones((3, 3)), 1), "not symmetric"),
            (np.where(b, np.inf, 0.0), "finite"),
            (b + 0j, "complex"),
            (random_sym(4, seed=2), "B dimension must match"),
        ]:
            with pytest.raises(ValueError, match=match):
                BlockState(0.0, 0.0, 0.0, u, u, core)

    def test_n0_shape(self):
        k = n0(5)
        assert k[0, 1] == 1.0 and k[1, 0] == -1.0
        assert np.count_nonzero(k) == 2


class TestQuadraticRHS:
    def test_zero_vectors_zero_corner(self):
        bs = BlockState(0.0, 0.0, 0.0, np.zeros(3), np.zeros(3), random_sym(3, seed=2))
        d = rhs_quadratic(bs)
        assert d.a == d.b == d.c == 0.0
        npt.assert_allclose(d.u, np.zeros(3), atol=0)
        npt.assert_allclose(d.v, np.zeros(3), atol=0)

    def test_displayed_formulas_on_invariant_slice(self):
        # With a + c = 0 the scalar equations reduce to the inner products.
        bs = random_block(6, seed=3, zero_trace_corner=True)
        d = rhs_quadratic(bs)
        npt.assert_allclose(d.a, 2.0 * bs.u @ bs.v, atol=1e-14)
        npt.assert_allclose(d.b, bs.v @ bs.v - bs.u @ bs.u, atol=1e-14)
        assert d.c == -d.a

    def test_equal_vectors_on_slice(self):
        bs = random_block(6, seed=4, zero_trace_corner=True)
        bs = BlockState(bs.a, bs.b, bs.c, bs.u, bs.u, bs.B)
        d = rhs_quadratic(bs)
        npt.assert_allclose(d.b, 0.0, atol=1e-14)
        npt.assert_allclose(d.a, 2.0 * bs.u @ bs.u, atol=1e-14)

    def test_matrix_oracle(self):
        for n, seed in itertools.product(range(3, 11), range(10)):
            bs = random_block(n, seed=10 + seed)
            assert_matches_oracle(rhs_quadratic(bs), oracle_blocks(bs, 2), atol=1e-13)

    def test_c_dot_is_minus_a_dot(self):
        bs = random_block(7, seed=5)
        d = rhs_quadratic(bs)
        assert d.c == -d.a


class TestCubicRHS:
    def test_zero_everything(self):
        bs = BlockState(0.0, 0.0, 0.0, np.zeros(4), np.zeros(4), np.zeros((4, 4)))
        d = rhs_cubic(bs)
        assert d.a == d.b == 0.0
        npt.assert_allclose(d.u, np.zeros(4), atol=0)

    def test_zero_corner_scalar_equations(self):
        bs = random_block(6, seed=6, zero_corner=True)
        d = rhs_cubic(bs)
        bf = bs.B
        npt.assert_allclose(d.a, 2.0 * bs.u @ (bf @ bs.v), atol=1e-13)
        npt.assert_allclose(
            d.b, bs.v @ (bf @ bs.v) - bs.u @ (bf @ bs.u), atol=1e-13
        )

    def test_matrix_oracle(self):
        for n, seed in itertools.product(range(3, 11), range(10)):
            bs = random_block(n, seed=30 + seed)
            assert_matches_oracle(rhs_cubic(bs), oracle_blocks(bs, 3), atol=1e-12)

    def test_parity_sector_freezes_scalars(self):
        # B exchanging two orthogonal sectors and same-parity u, v keep the
        # corner at zero: <u, B v> = <v, B v> = 0.
        rng = SplitMix64(7)
        m = 2
        cblk = rng.matrix(m)
        b = np.zeros((2 * m, 2 * m))
        b[:m, m:] = cblk
        b[m:, :m] = cblk.T
        u = np.concatenate([rng.matrix(1, m)[0], np.zeros(m)])
        v = np.concatenate([rng.matrix(1, m)[0], np.zeros(m)])
        d = rhs_cubic(BlockState(0.0, 0.0, 0.0, u, v, b))
        assert abs(d.a) <= 1e-12 and abs(d.b) <= 1e-12


class TestReduced:
    def test_zero(self):
        du, dv = rhs_reduced(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert not du.any() and not dv.any()

    def test_matches_cubic_at_zero_corner(self):
        bs = random_block(6, seed=8, zero_corner=True)
        d = rhs_cubic(bs)
        du, dv = rhs_reduced(bs.u, bs.v, bs.B)
        npt.assert_allclose(du, d.u, atol=1e-14)
        npt.assert_allclose(dv, d.v, atol=1e-14)

    def test_l2_cancellation_per_evaluation(self):
        bs = random_block(7, seed=9, zero_corner=True)
        du, dv = rhs_reduced(bs.u, bs.v, bs.B)
        ddt = 2.0 * (bs.u @ du + bs.v @ dv)
        assert abs(ddt) <= 1e-12 * max(1.0, bs.u @ bs.u + bs.v @ bs.v)

    def test_printed_variant_breaks_l2(self):
        # The paper's printed sign of <u,u> u, on the spectral system: per
        # evaluation d/dt (<u,u> + <v,v>) = 4 <u,u> <u,v>, where the sign the
        # cubic block flow forces gives 0.
        st = PDEState.from_fields(*SplitMix64(10).matrix(2, 16), "odd")
        u, v = st.u_hat, st.v_hat
        du, dv = plain_pde_rhs(u, v, True)
        ddt = 4.0 * np.pi * (np.vdot(u, du) + np.vdot(v, dv)).real
        uu, uv = 2.0 * np.pi * np.vdot(u, u).real, 2.0 * np.pi * np.vdot(u, v).real
        npt.assert_allclose(ddt, 4.0 * uu * uv, rtol=1e-12)
        assert abs(ddt) > 1e-6


def pack_block(bs):
    return np.concatenate([[bs.a, bs.b, bs.c], bs.u, bs.v])


def unpack_block(y, b):
    m = len(b)
    return BlockState(y[0], y[1], y[2], y[3 : 3 + m], y[3 + m :], b)


def block_at(path, i):
    """State i of a block path."""
    return BlockState(path.a[i], path.b[i], path.c[i], path.u[i], path.v[i], path.B)


def rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestPackedRHS:
    """The integrators step on packed arrays; each must equal its public form."""

    def test_block_packed_equals_public(self):
        for seed in range(20):
            bs = random_block(4 + seed % 6, seed=400 + seed)
            y = pack_block(bs)
            for power, rhs in ((2, rhs_quadratic), (3, rhs_cubic)):
                want = rhs(unpack_block(y, bs.B))
                assert np.array_equal(_block_kernel(bs.B, power)(y), pack_block(want))
                assert not want.B.any()

    def test_block_step_equals_public_step(self):
        for seed in range(10):
            bs = random_block(4 + seed % 6, seed=500 + seed)
            for power, rhs in ((2, rhs_quadratic), (3, rhs_cubic)):
                _, path = integrate_block(bs, power, t_final=0.01, h=0.01)

                def public(y):
                    return pack_block(rhs(unpack_block(y, bs.B)))

                want = rk4_step(public, pack_block(bs), 0.01)
                assert np.array_equal(pack_block(block_at(path, 1)), want)
                assert np.array_equal(path.B, bs.B)

    def test_pde_step_equals_public_step(self):
        rng = SplitMix64(7)
        for k in (5, 8, 16):
            for parity in (None, "odd"):
                u = np.array([rng.uniform() for _ in range(k)])
                v = np.array([rng.uniform() for _ in range(k)])
                st = PDEState.from_fields(u, v, parity)

                def f(y):
                    d = pde_rhs(PDEState(y[:k], y[k:], parity))
                    return np.concatenate([d.u_hat, d.v_hat])

                y = rk4_step(f, np.concatenate([st.u_hat, st.v_hat]), 1e-3)
                halves = [0.5 * (p + np.conj(np.roll(p[::-1], 1))) for p in (y[:k], y[k:])]
                _, path = integrate_pde(st, t_final=1e-3, h=1e-3)
                assert np.array_equal(path.u_hat[1], halves[0])
                assert np.array_equal(path.v_hat[1], halves[1])
                assert path.parity == parity


def reference_quadratic(y, bf):
    """The quadratic block kernel as a fresh-array function: a new coefficient
    matrix and two concatenations per call."""
    a, b, c = y[:3].tolist()
    w = y[3:].reshape(2, -1)
    (uu, uv), (_, vv) = w.dot(w.T).tolist()
    da = 2.0 * (b * (a + c) + uv)
    db = c ** 2 - a ** 2 + vv - uu
    dw = np.array([[b, c, 0.0, 1.0], [-a, -b, -1.0, 0.0]]).dot(np.concatenate([w, w.dot(bf)]))
    return np.concatenate([[da, db, -da], dw.ravel()])


def reference_cubic(y, bf):
    """The cubic block kernel as a fresh-array function."""
    a, b, c = y[:3].tolist()
    w = y[3:].reshape(2, -1)
    wb = w.dot(bf)
    x = np.concatenate([w, wb, wb.dot(bf)])
    (uu, uv, ubu, ubv), (_, vv, _, vbv) = w.dot(x[:4].T).tolist()
    t11 = a ** 2 + b ** 2 + uu
    t12 = b * (a + c) + uv
    t22 = b ** 2 + c ** 2 + vv
    da = 2.0 * (b * t11 + c * t12 + a * uv + b * vv + ubv)
    s3_22 = b * t12 + c * t22 + b * uv + c * vv + vbv
    s3_11 = a * t11 + b * t12 + a * uu + b * uv + ubu
    db = s3_22 - s3_11
    coef = np.array([[t12, t22, b, c, 0.0, 1.0], [-t11, -t12, -a, -b, -1.0, 0.0]])
    return np.concatenate([[da, db, -da], coef.dot(x).ravel()])


class TestBlockKernel:
    """The reusable kernel against the fresh-array reference, bit for bit."""

    @pytest.mark.parametrize("m", [1, 6, 14])
    @pytest.mark.parametrize("power, reference", [(2, reference_quadratic), (3, reference_cubic)])
    def test_path_equals_reference(self, m, power, reference):
        bs = random_block(m + 2, seed=600 + m)
        bf = bs.B
        times, path = integrate_block(bs, power, t_final=0.5, h=1e-3)
        want_times, want = rk4_path(lambda y: reference(y, bf), pack_block(bs), 0.5, 1e-3)
        assert np.array_equal(times, want_times)
        assert np.array_equal(np.column_stack([path.a, path.b, path.c, path.u, path.v]), want)

    @pytest.mark.parametrize("power", [2, 3])
    def test_calls_return_fresh_arrays(self, power):
        bs = random_block(8, seed=700 + power)
        kernel = _block_kernel(bs.B, power)
        y = pack_block(bs)
        first = kernel(y)
        kept = first.copy()
        second = kernel(2.0 * y)
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)


class TestBlockIntegration:
    def test_zero_data_constant(self):
        bs = BlockState(0.0, 0.0, 0.0, np.zeros(3), np.zeros(3), random_sym(3, seed=11))
        _, path = integrate_block(bs, 2, t_final=0.5, h=1e-2)
        assert not path.a.any() and not path.u.any()

    def test_a_plus_c_conserved(self):
        for power in (2, 3):
            bs = random_block(6, seed=12)
            _, path = integrate_block(bs, power, t_final=1.0, h=1e-3)
            drift = np.abs(path.a + path.c - (bs.a + bs.c)).max()
            assert drift <= 1e-10

    def test_embedded_casimirs_conserved(self):
        bs = random_block(6, seed=13)
        nmat = n0(6)
        times, path = integrate_block(bs, 2, t_final=1.0, h=1e-3)
        base = np.array(casimirs(embed(bs), nmat))
        worst = max(
            np.max(np.abs(np.array(casimirs(embed(block_at(path, i)), nmat)) - base))
            for i in range(len(times))
        )
        assert worst <= 1e-8

    def test_block_cubic_matches_matrix_flow(self):
        # Dual representation: the block cubic flow against the matrix-level
        # S' = [N, S^3] integrated with the same scheme.
        bs = random_block(6, seed=14)
        _, path = integrate_block(bs, 3, t_final=1.0, h=1e-3)
        _, states = integrate(embed(bs), n0(6), IntegralIndex(3, 0), t_final=1.0, h=1e-3)
        gap = np.linalg.norm(embed(block_at(path, -1)) - states[-1])
        assert gap <= 1e-9

    @pytest.mark.parametrize("power", [1, 4])
    def test_refuses_other_powers(self, power):
        with pytest.raises(ValueError, match="power 2 or 3"):
            integrate_block(random_block(5, seed=16), power, t_final=0.1, h=1e-2)

    def test_block_quadratic_matches_matrix_flow(self):
        bs = random_block(5, seed=15)
        _, path = integrate_block(bs, 2, t_final=1.0, h=1e-3)
        _, states = integrate(embed(bs), n0(5), IntegralIndex(2, 0), t_final=1.0, h=1e-3)
        gap = np.linalg.norm(embed(block_at(path, -1)) - states[-1])
        assert gap <= 1e-9


def mode_state(k_modes, spec_u, spec_v, parity):
    """Build a PDEState from {mode: amplitude} cosine or sine tables."""
    x = 2.0 * np.pi * np.arange(k_modes) / k_modes
    fn = np.cos if parity == "even" else np.sin
    u = sum(amp * fn(k * x) for k, amp in spec_u.items())
    v = sum(amp * fn(k * x) for k, amp in spec_v.items())
    return PDEState.from_fields(u, v, parity)


class TestPDE:
    def test_zero_state(self):
        st = PDEState(np.zeros(8, complex), np.zeros(8, complex))
        d = pde_rhs(st)
        assert not d.u_hat.any() and not d.v_hat.any()

    def test_single_even_mode_stays_even(self):
        st = mode_state(32, {1: 0.5}, {2: 0.3}, "even")
        d = pde_rhs(st)
        assert parity_leakage(d) <= 1e-14

    def test_inner_products_match_quadrature(self):
        # Oracle: trapezoidal quadrature on the physical grid is exact for
        # band-limited fields.
        st = mode_state(64, {1: 0.4, 3: 0.2}, {2: 0.7}, "even")
        u, v = st.fields()
        dx = 2.0 * np.pi / 64
        npt.assert_allclose(l2_pair(st), (u @ u + v @ v) * dx, atol=1e-12)

    def test_l2_drift_unit_time(self):
        st = mode_state(64, {1: 0.4, 3: 0.2}, {1: 0.1, 2: 0.3}, "even")
        _, path = integrate_pde(st, t_final=1.0, h=1e-3)
        base = l2_pair(st)
        drift = np.abs(l2_pair(path) - base).max()
        assert drift <= 1e-6

    def test_odd_parity_preserved(self):
        st = mode_state(64, {1: 0.5, 2: 0.2}, {3: 0.4}, "odd")
        _, path = integrate_pde(st, t_final=1.0, h=1e-3)
        worst = parity_leakage(path).max()
        assert worst <= 1e-12

    def test_fields_stay_real(self):
        st = mode_state(32, {1: 0.5}, {2: 0.4}, "even")
        _, path = integrate_pde(st, t_final=0.5, h=1e-3)
        assert path.conj_symmetry_residual().max() <= 1e-13

    def test_mode_support_frozen(self):
        # scalar * field nonlinearity cannot create new modes.
        st = mode_state(32, {1: 0.5}, {3: 0.4}, "even")
        _, path = integrate_pde(st, t_final=0.3, h=1e-3)
        live = {1, 3, 31, 29}  # +-1 and +-3 in fft layout
        every = len(path.u_hat) // 5
        for arr in (path.u_hat[::every], path.v_hat[::every]):
            dead = np.delete(np.abs(arr), sorted(live | {0}), axis=-1)
            assert dead.max() <= 1e-13

    def test_printed_variant_drifts(self):
        # Over t = 1 of the same RK4, the L2 pair stays put under the sign the
        # cubic block flow forces and leaves it (here it blows up) under the
        # paper's printed sign.
        from biflow.flows import BlowupError

        st = mode_state(32, {1: 0.6}, {1: 0.3, 2: 0.4}, "even")

        def drift(printed):
            field = lambda y: np.concatenate(plain_pde_rhs(y[:32], y[32:], printed))
            try:
                _, path = rk4_path(field, np.concatenate([st.u_hat, st.v_hat]), t_final=1.0, h=1e-3)
            except BlowupError:
                return np.inf
            return abs(l2_pair(PDEState(path[-1, :32], path[-1, 32:])) - l2_pair(st))

        assert drift(False) <= 1e-6
        assert drift(True) > 1e-4


def plain_pde_rhs(u, v, printed_variant):
    """The spectral system on complex coefficients, one term at a time."""
    k = len(u)
    wavenumber = np.array([j if j <= k // 2 else j - k for j in range(k)], dtype=float)
    uu, vv, uv = (2.0 * np.pi * np.sum(a * np.conj(b)).real for a, b in ((u, u), (v, v), (u, v)))
    du = uv * u + vv * v + wavenumber**2 * v
    dv = (uu if printed_variant else -uu) * u - uv * v - wavenumber**2 * u
    return du, dv


class TestPDERHS:
    @pytest.mark.parametrize("k", [5, 8, 16, 64])
    @pytest.mark.parametrize("variant", [False, True])
    def test_matches_plain_formula(self, k, variant):
        rng = SplitMix64(200 + k)
        real_fields = PDEState.from_fields(*rng.matrix(2, k), "odd")
        complex_modes = PDEState(*(rng.matrix(2, k) + 1j * rng.matrix(2, k)))
        for st in (real_fields, complex_modes):
            d = pde_rhs(st)
            du, dv = plain_pde_rhs(st.u_hat, st.v_hat, variant)
            if variant:  # the printed sign differs in the one term 2 <u,u> u of v'
                dv = dv - 4.0 * np.pi * np.vdot(st.u_hat, st.u_hat).real * st.u_hat
            scale = np.abs(np.concatenate([du, dv])).max()
            npt.assert_allclose(d.u_hat, du, rtol=0, atol=1e-14 * scale)
            npt.assert_allclose(d.v_hat, dv, rtol=0, atol=1e-14 * scale)
            assert d.parity == st.parity and d.u_hat.shape == d.v_hat.shape == (k,)


class TestPathDiagnostics:
    """On an integrate_pde path each diagnostic equals, bit for bit, the
    per-state value: that of the same function on one state, and the
    formula it had as a per-state function."""

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 16, 64])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_path_equals_per_state(self, k, parity):
        rng = SplitMix64(100 + k)
        u, v = (np.array([rng.uniform() for _ in range(k)]) for _ in range(2))
        times, path = integrate_pde(PDEState.from_fields(u, v, parity), t_final=0.05, h=1e-3)
        l2, leak, real = l2_pair(path), parity_leakage(path), path.conj_symmetry_residual()
        assert l2.shape == leak.shape == real.shape == times.shape
        mirror = -np.arange(k) % k
        sgn = 1.0 if parity == "even" else -1.0
        for i in range(len(times)):
            st = PDEState(path.u_hat[i], path.v_hat[i], parity)
            parts = (st.u_hat, st.v_hat)
            want_l2 = sum(float(2.0 * np.pi * np.real(np.vdot(x, x))) for x in parts)
            want_leak = max(float(np.abs(0.5 * (x - sgn * x[mirror])).max()) for x in parts)
            want_real = float(max(np.abs(x - np.conj(x[mirror])).max() for x in parts))
            assert (l2_pair(st), parity_leakage(st), st.conj_symmetry_residual()) == (
                want_l2, want_leak, want_real
            )
            assert (l2[i], leak[i], real[i]) == (want_l2, want_leak, want_real)
            values = (l2_pair(st), parity_leakage(st), st.conj_symmetry_residual())
            assert all(isinstance(x, float) and np.ndim(x) == 0 for x in values)
