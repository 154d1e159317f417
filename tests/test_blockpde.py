import itertools

import numpy as np
import numpy.testing as npt
import pytest

from biflow.blockpde import (
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
    """A packed block state (a, b, c, u, v) and its core B, for dimension n."""
    rng = SplitMix64(seed)
    m = n - 2
    a, b, c = rng.uniform(), rng.uniform(), rng.uniform()
    if zero_trace_corner:
        c = -a
    if zero_corner:
        a = b = c = 0.0
    u = np.array([rng.uniform() for _ in range(m)])
    v = np.array([rng.uniform() for _ in range(m)])
    core = random_sym(m, seed + 5000) if m > 1 else np.array([[rng.uniform()]])
    return np.concatenate([[a, b, c], u, v]), core


def split(y):
    """The a, b, c, u, v of a packed block state, or of each state of a path."""
    m = (y.shape[-1] - 3) // 2
    return y[..., 0], y[..., 1], y[..., 2], y[..., 3 : 3 + m], y[..., 3 + m :]


def oracle_blocks(y, core, power):
    """[N, S^power] by matrix arithmetic: its packed corner and border, and its core block."""
    mat = commutator(n0(len(core) + 2), np.linalg.matrix_power(embed(y, core), power))
    return np.concatenate([[mat[0, 0], mat[0, 1], mat[1, 1]], mat[0, 2:], mat[1, 2:]]), mat[2:, 2:]


def assert_matches_oracle(got, want, atol: float):
    packed, core = want
    for g, w in zip(split(got), split(packed)):
        npt.assert_allclose(g, w, atol=atol)
    npt.assert_allclose(np.zeros_like(core), core, atol=atol)


class TestEmbed:
    def test_zero_state(self):
        assert not embed(np.zeros(9), np.zeros((3, 3))).any()

    def test_round_trip(self):
        y, core = random_block(6, seed=1)
        back, back_core = extract(embed(y, core))
        npt.assert_array_equal(back, y)
        npt.assert_array_equal(back_core, core)

    def test_n0_shape(self):
        k = n0(5)
        assert k[0, 1] == 1.0 and k[1, 0] == -1.0
        assert np.count_nonzero(k) == 2


class TestQuadraticRHS:
    def test_zero_vectors_zero_corner(self):
        d = rhs_quadratic(np.zeros(9), random_sym(3, seed=2))
        npt.assert_array_equal(d, np.zeros(9))

    def test_displayed_formulas_on_invariant_slice(self):
        # With a + c = 0 the scalar equations reduce to the inner products.
        y, core = random_block(6, seed=3, zero_trace_corner=True)
        _, _, _, u, v = split(y)
        da, db, dc, _, _ = split(rhs_quadratic(y, core))
        npt.assert_allclose(da, 2.0 * u @ v, atol=1e-14)
        npt.assert_allclose(db, v @ v - u @ u, atol=1e-14)
        assert dc == -da

    def test_equal_vectors_on_slice(self):
        y, core = random_block(6, seed=4, zero_trace_corner=True)
        _, _, _, u, v = split(y)
        v[:] = u
        da, db, _, _, _ = split(rhs_quadratic(y, core))
        npt.assert_allclose(db, 0.0, atol=1e-14)
        npt.assert_allclose(da, 2.0 * u @ u, atol=1e-14)

    def test_matrix_oracle(self):
        for n, seed in itertools.product(range(3, 11), range(10)):
            y, core = random_block(n, seed=10 + seed)
            assert_matches_oracle(rhs_quadratic(y, core), oracle_blocks(y, core, 2), atol=1e-13)

    def test_c_dot_is_minus_a_dot(self):
        d = rhs_quadratic(*random_block(7, seed=5))
        assert d[2] == -d[0]


class TestCubicRHS:
    def test_zero_everything(self):
        d = rhs_cubic(np.zeros(11), np.zeros((4, 4)))
        npt.assert_array_equal(d, np.zeros(11))

    def test_zero_corner_scalar_equations(self):
        y, bf = random_block(6, seed=6, zero_corner=True)
        _, _, _, u, v = split(y)
        da, db, _, _, _ = split(rhs_cubic(y, bf))
        npt.assert_allclose(da, 2.0 * u @ (bf @ v), atol=1e-13)
        npt.assert_allclose(db, v @ (bf @ v) - u @ (bf @ u), atol=1e-13)

    def test_matrix_oracle(self):
        for n, seed in itertools.product(range(3, 11), range(10)):
            y, core = random_block(n, seed=30 + seed)
            assert_matches_oracle(rhs_cubic(y, core), oracle_blocks(y, core, 3), atol=1e-12)

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
        d = rhs_cubic(np.concatenate([np.zeros(3), u, v]), b)
        assert abs(d[0]) <= 1e-12 and abs(d[1]) <= 1e-12


class TestReduced:
    def test_zero(self):
        du, dv = rhs_reduced(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert not du.any() and not dv.any()

    def test_matches_cubic_at_zero_corner(self):
        y, core = random_block(6, seed=8, zero_corner=True)
        _, _, _, u, v = split(y)
        _, _, _, want_u, want_v = split(rhs_cubic(y, core))
        du, dv = rhs_reduced(u, v, core)
        npt.assert_allclose(du, want_u, atol=1e-14)
        npt.assert_allclose(dv, want_v, atol=1e-14)

    def test_l2_cancellation_per_evaluation(self):
        y, core = random_block(7, seed=9, zero_corner=True)
        _, _, _, u, v = split(y)
        du, dv = rhs_reduced(u, v, core)
        ddt = 2.0 * (u @ du + v @ dv)
        assert abs(ddt) <= 1e-12 * max(1.0, u @ u + v @ v)

    def test_printed_variant_breaks_l2(self):
        # The paper's printed sign of <u,u> u, on the spectral system: per
        # evaluation d/dt (<u,u> + <v,v>) = 4 <u,u> <u,v>, where the sign the
        # cubic block flow forces gives 0.
        u, v = modes_of(*SplitMix64(10).matrix(2, 16))
        du, dv = plain_pde_rhs(u, v, True)
        ddt = 4.0 * np.pi * (np.vdot(u, du) + np.vdot(v, dv)).real
        uu, uv = 2.0 * np.pi * np.vdot(u, u).real, 2.0 * np.pi * np.vdot(u, v).real
        npt.assert_allclose(ddt, 4.0 * uu * uv, rtol=1e-12)
        assert abs(ddt) > 1e-6


def rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestPackedRHS:
    """Each integrator's first step is one RK4 step of its public right-hand side."""

    def test_block_step_equals_public_step(self):
        for seed in range(10):
            y, core = random_block(4 + seed % 6, seed=500 + seed)
            for power, rhs in ((2, rhs_quadratic), (3, rhs_cubic)):
                _, path = integrate_block(y, core, power, t_final=0.01, h=0.01)
                want = rk4_step(lambda x: rhs(x, core), y, 0.01)
                assert np.array_equal(path[1], want)

    def test_pde_step_equals_public_step(self):
        rng = SplitMix64(7)
        for k in (5, 8, 16):
            for _ in range(2):
                u = np.array([rng.uniform() for _ in range(k)])
                v = np.array([rng.uniform() for _ in range(k)])
                st = modes_of(u, v)
                y = rk4_step(pde_rhs, st, 1e-3)
                halves = [0.5 * (p + np.conj(np.roll(p[::-1], 1))) for p in y]
                _, path = integrate_pde(st, t_final=1e-3, h=1e-3)
                assert np.array_equal(path[1], halves)


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
        y, bf = random_block(m + 2, seed=600 + m)
        times, path = integrate_block(y, bf, power, t_final=0.5, h=1e-3)
        want_times, want = rk4_path(lambda x: reference(x, bf), y, 0.5, 1e-3)
        assert np.array_equal(times, want_times)
        assert np.array_equal(path, want)

    @pytest.mark.parametrize("power", [2, 3])
    def test_calls_return_fresh_arrays(self, power):
        y, core = random_block(8, seed=700 + power)
        kernel = _block_kernel(core, power)
        first = kernel(y)
        kept = first.copy()
        second = kernel(2.0 * y)
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)


class TestBlockIntegration:
    def test_zero_data_constant(self):
        _, path = integrate_block(np.zeros(9), random_sym(3, seed=11), 2, t_final=0.5, h=1e-2)
        assert not path.any()

    def test_a_plus_c_conserved(self):
        for power in (2, 3):
            y, core = random_block(6, seed=12)
            _, path = integrate_block(y, core, power, t_final=1.0, h=1e-3)
            drift = np.abs(path[:, 0] + path[:, 2] - (y[0] + y[2])).max()
            assert drift <= 1e-10

    def test_embedded_casimirs_conserved(self):
        y, core = random_block(6, seed=13)
        nmat = n0(6)
        _, path = integrate_block(y, core, 2, t_final=1.0, h=1e-3)
        base = np.array(casimirs(embed(y, core), nmat))
        worst = max(np.max(np.abs(np.array(casimirs(embed(yt, core), nmat)) - base)) for yt in path)
        assert worst <= 1e-8

    def test_block_cubic_matches_matrix_flow(self):
        # Dual representation: the block cubic flow against the matrix-level
        # S' = [N, S^3] integrated with the same scheme.
        y, core = random_block(6, seed=14)
        _, path = integrate_block(y, core, 3, t_final=1.0, h=1e-3)
        _, states = integrate(embed(y, core), n0(6), IntegralIndex(3, 0), t_final=1.0, h=1e-3)
        gap = np.linalg.norm(embed(path[-1], core) - states[-1])
        assert gap <= 1e-9

    @pytest.mark.parametrize("power", [1, 4])
    def test_refuses_other_powers(self, power):
        with pytest.raises(ValueError, match="power 2 or 3"):
            integrate_block(*random_block(5, seed=16), power, t_final=0.1, h=1e-2)

    def test_block_quadratic_matches_matrix_flow(self):
        y, core = random_block(5, seed=15)
        _, path = integrate_block(y, core, 2, t_final=1.0, h=1e-3)
        _, states = integrate(embed(y, core), n0(5), IntegralIndex(2, 0), t_final=1.0, h=1e-3)
        gap = np.linalg.norm(embed(path[-1], core) - states[-1])
        assert gap <= 1e-9


def modes_of(u, v):
    """The (2, k) modes (u_hat, v_hat) of real fields sampled at k points of [0, 2pi)."""
    k = len(u)
    return np.stack([np.fft.fft(u) / k, np.fft.fft(v) / k])


def mode_state(k_modes, spec_u, spec_v, parity):
    """Modes of the fields given by {mode: amplitude} cosine ('even') or sine ('odd') tables."""
    x = 2.0 * np.pi * np.arange(k_modes) / k_modes
    fn = np.cos if parity == "even" else np.sin
    u = sum(amp * fn(k * x) for k, amp in spec_u.items())
    v = sum(amp * fn(k * x) for k, amp in spec_v.items())
    return modes_of(u, v)


def conj_symmetry_residual(y):
    """Largest |x_j - conj(x_-j)| over both fields: zero exactly when the fields are real."""
    mirror = -np.arange(y.shape[-1]) % y.shape[-1]
    return np.abs(y - np.conj(y[..., mirror])).max(axis=(-2, -1))


class TestPDE:
    def test_malformed_modes_refused(self):
        st = mode_state(8, {1: 0.5}, {2: 0.3}, "odd")
        path = np.stack([st, st])
        for entry, bad, match in [
            (l2_pair, st[0], "expected modes"),
            (pde_rhs, path, "expected modes"),
            (lambda y: integrate_pde(y, 0.1, 0.1), path, "expected modes"),
            (lambda y: parity_leakage(y, "odd"), np.stack([st, st, st], axis=-2), "expected modes"),
            (lambda y: parity_leakage(y, None), st, "parity must be"),
        ]:
            with pytest.raises(ValueError, match=match):
                entry(bad)

    def test_zero_state(self):
        assert not pde_rhs(np.zeros((2, 8), complex)).any()

    def test_single_even_mode_stays_even(self):
        st = mode_state(32, {1: 0.5}, {2: 0.3}, "even")
        assert parity_leakage(pde_rhs(st), "even") <= 1e-14

    def test_inner_products_match_quadrature(self):
        # Oracle: trapezoidal quadrature on the physical grid is exact for
        # band-limited fields.
        st = mode_state(64, {1: 0.4, 3: 0.2}, {2: 0.7}, "even")
        u, v = np.fft.ifft(st * 64).real
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
        worst = parity_leakage(path, "odd").max()
        assert worst <= 1e-12

    def test_fields_stay_real(self):
        st = mode_state(32, {1: 0.5}, {2: 0.4}, "even")
        _, path = integrate_pde(st, t_final=0.5, h=1e-3)
        assert conj_symmetry_residual(path).max() <= 1e-13

    def test_mode_support_frozen(self):
        # scalar * field nonlinearity cannot create new modes.
        st = mode_state(32, {1: 0.5}, {3: 0.4}, "even")
        _, path = integrate_pde(st, t_final=0.3, h=1e-3)
        live = {1, 3, 31, 29}  # +-1 and +-3 in fft layout
        dead = np.delete(np.abs(path[:: len(path) // 5]), sorted(live | {0}), axis=-1)
        assert dead.max() <= 1e-13

    def test_printed_variant_drifts(self):
        # Over t = 1 of the same RK4, the L2 pair stays put under the sign the
        # cubic block flow forces and leaves it (here it blows up) under the
        # paper's printed sign.
        from biflow.flows import BlowupError

        st = mode_state(32, {1: 0.6}, {1: 0.3, 2: 0.4}, "even")

        def drift(printed):
            field = lambda y: np.stack(plain_pde_rhs(*y, printed))
            try:
                _, path = rk4_path(field, st, t_final=1.0, h=1e-3)
            except BlowupError:
                return np.inf
            return abs(l2_pair(path[-1]) - l2_pair(st))

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
        real_fields = modes_of(*rng.matrix(2, k))
        complex_modes = rng.matrix(2, k) + 1j * rng.matrix(2, k)
        for st in (real_fields, complex_modes):
            u, v = st
            du, dv = plain_pde_rhs(u, v, variant)
            if variant:  # the printed sign differs in the one term 2 <u,u> u of v'
                dv = dv - 4.0 * np.pi * np.vdot(u, u).real * u
            scale = np.abs(np.concatenate([du, dv])).max()
            d = pde_rhs(st)
            assert d.shape == (2, k)
            npt.assert_allclose(d[0], du, rtol=0, atol=1e-14 * scale)
            npt.assert_allclose(d[1], dv, rtol=0, atol=1e-14 * scale)


class TestPathDiagnostics:
    """On an integrate_pde path each diagnostic equals, bit for bit, the
    per-state value: that of the same function on one state, and the
    formula it had as a per-state function."""

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 16, 64])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_path_equals_per_state(self, k, parity):
        rng = SplitMix64(100 + k)
        u, v = (np.array([rng.uniform() for _ in range(k)]) for _ in range(2))
        times, path = integrate_pde(modes_of(u, v), t_final=0.05, h=1e-3)
        l2, leak = l2_pair(path), parity_leakage(path, parity)
        assert path.shape == (len(times), 2, k)
        assert l2.shape == leak.shape == times.shape
        mirror = -np.arange(k) % k
        sgn = 1.0 if parity == "even" else -1.0
        for i, st in enumerate(path):
            want_l2 = sum(float(2.0 * np.pi * np.real(np.vdot(x, x))) for x in st)
            want_leak = max(float(np.abs(0.5 * (x - sgn * x[mirror])).max()) for x in st)
            values = (l2_pair(st), parity_leakage(st, parity))
            assert values == (want_l2, want_leak)
            assert (l2[i], leak[i]) == (want_l2, want_leak)
            assert all(isinstance(x, float) and np.ndim(x) == 0 for x in values)
