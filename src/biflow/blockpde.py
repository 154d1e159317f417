"""Rank-two reductions of the flow: block ODEs and an integro-differential PDE.

For the skew generator with a single rotation block in the first two
coordinates, a symmetric matrix splits as scalars (a, b, c), coupling
vectors (u, v) and a frozen symmetric block B.  The quadratic and cubic
flows S' = [N, S^2] and S' = [N, S^3] close on these block variables; the
right-hand sides here are the exact block extraction of the matrix
commutator (the matrix form is authoritative and doubles as the per-call
oracle), including the b(a+c)- and (c^2-a^2)-type terms that vanish on
the invariant slice a + c = 0.  In all cases c' = -a' and B' = 0.

At a = b = c = 0 the cubic flow closes further on (u, v) alone; promoting
B^2 to -d^2/dx^2 on [0, 2pi) gives the spectral system

    u_t =  <u,v> u + <v,v> v - v_xx,
    v_t = -<u,u> u - <u,v> v + u_xx,

whose inner products are plain L^2 scalars, so the nonlinearity is a
scalar multiple of the field: coefficients couple only through those
scalars, mode support never grows, and <u,u> + <v,v> is conserved.  The
sign of the <u,u> u term is the one forced by the cubic block flow (it is
what conserves the L^2 pair); the opposite sign, as printed in the paper,
breaks that conservation.

The integrators step on packed arrays, and the public right-hand sides
call the same kernels, so the two forms agree bit for bit.  A block state
is the vector (a, b, c, u, v): its scalars are read once as floats, (u, v)
is a (2, m) view, one Gram product gives every inner product and one
product with a 2-row coefficient matrix gives (u', v').  The block kernel is
built once per run around B: it keeps that matrix and the rows it multiplies
in its own buffers and returns each derivative in a new array.  A PDE state
is the (2, 2k) float view of the stacked (u_hat, v_hat), each row
interleaving real and imaginary parts: 2 pi Y Y^T holds the three L^2
products, and the projection onto real fields acts on the same view.

An integrator returns its path as one state with a leading time axis on each
field; a diagnostic takes one state or a path and gives a float or a (T,) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import rk4_path
from .matcore import SkewMatrix, SymMatrix

__all__ = [
    "BlockState",
    "PDEState",
    "embed",
    "extract",
    "n0",
    "rhs_quadratic",
    "rhs_cubic",
    "rhs_reduced",
    "pde_rhs",
    "integrate_block",
    "integrate_pde",
    "parity_leakage",
    "l2_pair",
]


@dataclass(frozen=True)
class BlockState:
    """Block coordinates (a, b, c, u, v, B) of one symmetric matrix or of a path."""

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    u: np.ndarray
    v: np.ndarray
    B: SymMatrix

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim not in (1, 2):
            raise ValueError("u and v must be vectors, or stacks of them, of equal length")
        if self.B.n != u.shape[-1]:
            raise ValueError("B dimension must match the vectors")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.shape[-1] + 2


def embed(bs: BlockState) -> SymMatrix:
    """Symmetric matrix with corner [[a, b], [b, c]], border (u, v), core B."""
    n = bs.n
    s = np.zeros((n, n))
    s[0, 0], s[0, 1], s[1, 1] = bs.a, bs.b, bs.c
    s[1, 0] = bs.b
    s[0, 2:] = bs.u
    s[2:, 0] = bs.u
    s[1, 2:] = bs.v
    s[2:, 1] = bs.v
    s[2:, 2:] = bs.B.full()
    return SymMatrix.from_full(s)


def extract(s: SymMatrix) -> BlockState:
    """Inverse of :func:`embed`."""
    f = s.full()
    if s.n < 3:
        raise ValueError("block splitting needs dimension at least 3")
    return BlockState(
        float(f[0, 0]),
        float(f[0, 1]),
        float(f[1, 1]),
        f[0, 2:].copy(),
        f[1, 2:].copy(),
        SymMatrix.from_full(f[2:, 2:]),
    )


def n0(n: int) -> SkewMatrix:
    """The rank-two skew generator: a single rotation in coordinates 1, 2."""
    if n < 3:
        raise ValueError("block splitting needs dimension at least 3")
    k = np.zeros((n, n))
    k[0, 1], k[1, 0] = 1.0, -1.0
    return SkewMatrix.from_full(k)


def _pack(bs: BlockState) -> np.ndarray:
    return np.concatenate([[bs.a, bs.b, bs.c], bs.u, bs.v])


def _unpack(y: np.ndarray, b: SymMatrix) -> BlockState:
    return BlockState(*y[..., :3].T, y[..., 3 : 3 + b.n], y[..., 3 + b.n :], b)


def _block_kernel(bf: np.ndarray, power: int):
    """[N, S^power], power 2 or 3, as a function from the packed (a, b, c, u, v)
    to a new array of the packed (a', b', c', u', v').

    The kernel owns its buffers: x holds the rows u, v, B u, B v (then B^2 u,
    B^2 v for the cubic), and (u', v') = coef x, where the last two columns of
    coef hold the constants [[0, 1], [-1, 0]] and each call writes only the
    leading ones.  B is symmetric, so the row w B of w = (u, v) holds B u, B v.
    """
    if power not in (2, 3):
        raise ValueError(f"block flows have power 2 or 3, got {power!r}")
    m = len(bf)
    x = np.empty((2 * power, m))
    coef = np.zeros((2, 2 * power))
    coef[0, -1], coef[1, -2] = 1.0, -1.0
    top, bottom = coef[0], coef[1]

    def quadratic(y: np.ndarray) -> np.ndarray:
        a, b, c = y[:3].tolist()
        w = y[3:].reshape(2, -1)  # rows u, v
        x[:2] = w
        w.dot(bf, out=x[2:])
        (uu, uv), (_, vv) = w.dot(w.T).tolist()
        da = 2.0 * (b * (a + c) + uv)
        # u' = b u + c v + B v,  v' = -(a u + b v + B u)
        top[0], top[1], bottom[0], bottom[1] = b, c, -a, -b
        out = np.empty(3 + 2 * m)
        out[0], out[1], out[2] = da, c ** 2 - a ** 2 + vv - uu, -da
        coef.dot(x, out=out[3:].reshape(2, m))
        return out

    def cubic(y: np.ndarray) -> np.ndarray:
        a, b, c = y[:3].tolist()
        w = y[3:].reshape(2, -1)  # rows u, v
        x[:2] = w
        w.dot(bf, out=x[2:4])
        x[2:4].dot(bf, out=x[4:])
        (uu, uv, ubu, ubv), (_, vv, _, vbv) = w.dot(x[:4].T).tolist()
        t11 = a ** 2 + b ** 2 + uu
        t12 = b * (a + c) + uv
        t22 = b ** 2 + c ** 2 + vv
        da = 2.0 * (b * t11 + c * t12 + a * uv + b * vv + ubv)
        s3_22 = b * t12 + c * t22 + b * uv + c * vv + vbv
        s3_11 = a * t11 + b * t12 + a * uu + b * uv + ubu
        # u' = t12 u + t22 v + b B u + c B v + B^2 v,  v' = -(t11 u + t12 v + a B u + b B v + B^2 u)
        top[0], top[1], top[2], top[3] = t12, t22, b, c
        bottom[0], bottom[1], bottom[2], bottom[3] = -t11, -t12, -a, -b
        out = np.empty(3 + 2 * m)
        out[0], out[1], out[2] = da, s3_22 - s3_11, -da
        coef.dot(x, out=out[3:].reshape(2, m))
        return out

    return quadratic if power == 2 else cubic


def rhs_quadratic(bs: BlockState) -> BlockState:
    """Block extraction of [N, S^2]."""
    return _unpack(_block_kernel(bs.B.full(), 2)(_pack(bs)), SymMatrix.zero(bs.B.n))


def rhs_cubic(bs: BlockState) -> BlockState:
    """Block extraction of [N, S^3]."""
    return _unpack(_block_kernel(bs.B.full(), 3)(_pack(bs)), SymMatrix.zero(bs.B.n))


def rhs_reduced(u: np.ndarray, v: np.ndarray, b: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Closed (u, v) system at a = b = c = 0.

    The sign -<u,u> u in v' is the one inherited from the cubic block flow
    and conserves <u,u> + <v,v>.
    """
    bf = b.full()
    uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
    du = uv * u + vv * v + bf @ (bf @ v)
    dv = -uu * u - uv * v - bf @ (bf @ u)
    return du, dv


@dataclass(frozen=True)
class PDEState:
    """Fourier data of real fields u, v on [0, 2pi), or a (T, k) path of them.

    Coefficients follow numpy's FFT layout divided by the mode count, so
    u(x) = sum_k u_hat[k] exp(i k x); conjugate symmetry keeps the fields
    real.  ``parity`` marks an even (cosine) or odd (sine) sector and is
    carried, not enforced: the flow itself preserves it.
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    parity: str | None = None

    def __post_init__(self):
        u = np.asarray(self.u_hat, dtype=complex)
        v = np.asarray(self.v_hat, dtype=complex)
        if u.shape != v.shape or u.ndim not in (1, 2):
            raise ValueError("u_hat and v_hat must be equal-shape vectors or stacks of them")
        if self.parity not in (None, "even", "odd"):
            raise ValueError("parity must be None, 'even' or 'odd'")
        object.__setattr__(self, "u_hat", u)
        object.__setattr__(self, "v_hat", v)

    @property
    def modes(self) -> int:
        return self.u_hat.shape[-1]

    @classmethod
    def from_fields(cls, u: np.ndarray, v: np.ndarray, parity: str | None = None):
        k = len(u)
        return cls(np.fft.fft(u) / k, np.fft.fft(v) / k, parity)

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        k = self.modes
        return np.fft.ifft(self.u_hat * k).real, np.fft.ifft(self.v_hat * k).real

    def conj_symmetry_residual(self) -> float | np.ndarray:
        mirror = _mirror(self.modes)
        parts = (np.abs(x - np.conj(x[..., mirror])).max(axis=-1) for x in (self.u_hat, self.v_hat))
        return np.maximum(*parts)


def _wavenumbers(k: int) -> np.ndarray:
    return np.fft.fftfreq(k, d=1.0 / k)


def _mirror(k: int) -> np.ndarray:
    return -np.arange(k) % k  # gather index taking mode j to mode -j


def _inner(a_hat: np.ndarray, b_hat: np.ndarray) -> float | np.ndarray:
    """L^2 inner product on [0, 2pi) of the real fields behind the modes, per state."""
    return 2.0 * np.pi * np.vecdot(b_hat, a_hat).real


def l2_pair(st: PDEState) -> float | np.ndarray:
    """Conserved quantity <u,u> + <v,v>."""
    return _inner(st.u_hat, st.u_hat) + _inner(st.v_hat, st.v_hat)


def pde_rhs(st: PDEState) -> PDEState:
    """Spectral right-hand side; scalar inner products via Parseval.

    The nonlinearity is scalar * field, so the evaluation is alias-free:
    no padding is needed and the mode support of (u, v) never grows.
    """
    y = np.stack([st.u_hat, st.v_hat]).view(float)
    d = _pde(y, _signed_ksq(st.modes)).view(complex)
    return PDEState(d[0], d[1], st.parity)


_TWO_PI_ROW_SIGNS = np.array([[2.0 * np.pi], [-2.0 * np.pi]])


def _signed_ksq(k: int) -> np.ndarray:
    """J k^2 on the float view, as the (2, 2k) rows k^2 and -k^2 that multiply the swapped rows."""
    ksq = np.repeat(_wavenumbers(k) ** 2, 2)
    return np.stack([ksq, -ksq])


def _pde(y: np.ndarray, signed_ksq: np.ndarray) -> np.ndarray:
    """:func:`pde_rhs` on Y, the (2, 2k) float view of the stacked (u_hat, v_hat).

    Each row of Y interleaves the real and imaginary parts of its field, so
    G = 2 pi Y Y^T holds every L^2 product (Parseval) and the derivative is
    J (G Y + k^2 Y) with J = [[0, 1], [-1, 0]]:
    u' = <u,v> u + <v,v> v - v_xx and v' = -<u,u> u - <u,v> v + u_xx.
    """
    g = y.dot(y.T)  # G / (2 pi)
    # J M is M with its rows swapped and the new second row negated
    return (g[::-1] * _TWO_PI_ROW_SIGNS).dot(y) + signed_ksq * y[::-1]


def integrate_block(
    bs0: BlockState, power: int, t_final: float, h: float
) -> tuple[np.ndarray, BlockState]:
    """RK4 for S' = [N, S^power], power 2 or 3, on the packed (a, b, c, u, v);
    the path has (T,) a, b, c, (T, m) u, v and the frozen ``bs0.B``."""
    times, path = rk4_path(_block_kernel(bs0.B.full(), power), _pack(bs0), t_final, h)
    return times, _unpack(path, bs0.B)


def integrate_pde(st0: PDEState, t_final: float, h: float) -> tuple[np.ndarray, PDEState]:
    """RK4 on the (2, 2k) float view of (u_hat, v_hat), projected to real fields each step;
    a (T, k) path."""
    k = st0.modes
    signed_ksq = _signed_ksq(k)
    # conj(x[-j]) on the float view: gather the mirrored pair, negate its imaginary part
    flip = (2 * _mirror(k)[:, None] + [0, 1]).ravel()
    imag_sign = np.tile([1.0, -1.0], k)
    times, path = rk4_path(
        lambda y: _pde(y, signed_ksq),
        np.stack([st0.u_hat, st0.v_hat]).view(float),
        t_final,
        h,
        project=lambda y: 0.5 * (y + y.take(flip, axis=1) * imag_sign),
    )
    path = path.view(complex)
    return times, PDEState(path[:, 0], path[:, 1], st0.parity)


def parity_leakage(st: PDEState) -> float | np.ndarray:
    """Largest coefficient mass in the sector opposite the declared parity.

    Even fields have u_hat[k] = u_hat[-k]; odd fields flip the sign.  The
    constant mode belongs to the even sector.  Only the modes 0 .. k//2 are
    read: for s = +-1, x_j - s x_-j = -s (x_-j - s x_j) exactly, so a mode and
    its mirror have the same leakage to the bit.
    """
    if st.parity is None:
        raise ValueError("state carries no parity flag")
    sgn = 1.0 if st.parity == "even" else -1.0
    half = st.modes // 2 + 1
    mirror = _mirror(st.modes)[:half]
    parts = (
        np.abs(0.5 * (x[..., :half] - sgn * x[..., mirror])).max(axis=-1) for x in (st.u_hat, st.v_hat)
    )
    return np.maximum(*parts)
