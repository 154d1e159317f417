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

States are plain arrays, and the right-hand sides and integrators take and
return them.  A block state is the packed vector y = (a, b, c, u, v) of
length 3 + 2m, with the frozen m x m core B beside it: its scalars are read
once as floats, (u, v) is a (2, m) view, one Gram product gives every inner
product and one product with a 2-row coefficient matrix gives (u', v').  The
block kernel is built once per call around B: it keeps that matrix and the
rows it multiplies in its own buffers and returns each derivative in a new
array.  A PDE state is the complex (2, k) array of (u_hat, v_hat), in
numpy's FFT layout divided by the mode count, so u(x) = sum_j u_hat[j]
exp(i j x); conjugate symmetry keeps the fields real.  The kernel steps on
its (2, 2k) float view, each row interleaving real and imaginary parts:
2 pi Y Y^T holds the three L^2 products, and the projection onto real fields
acts on the same view.

An integrator returns the times and the path, the states stacked on a
leading time axis: (T, 3 + 2m) for a block flow, (T, 2, k) for the PDE.  A
diagnostic takes one state or a path and gives a float or a (T,) array.
"""

from __future__ import annotations

import numpy as np

from .flows import rk4_path
from .matcore import as_sym

__all__ = [
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


def _block(y, b) -> tuple[np.ndarray, np.ndarray]:
    """A packed block state y = (a, b, c, u, v) and its core B, checked to match."""
    y, b = np.asarray(y, dtype=float), as_sym(b)
    if y.shape != (3 + 2 * len(b),):
        raise ValueError(f"packed state of shape {y.shape} does not match a {len(b)} x {len(b)} core B")
    return y, b


def embed(y, b) -> np.ndarray:
    """Symmetric matrix with corner [[a, b], [b, c]], border (u, v), core B."""
    y, core = _block(y, b)
    m = len(core)
    s = np.zeros((m + 2, m + 2))
    s[0, 0], s[0, 1], s[1, 1] = y[:3]
    s[1, 0] = y[1]
    s[0, 2:] = y[3 : 3 + m]
    s[2:, 0] = y[3 : 3 + m]
    s[1, 2:] = y[3 + m :]
    s[2:, 1] = y[3 + m :]
    s[2:, 2:] = core
    return s


def extract(s) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`embed`: the packed (a, b, c, u, v) and the core B."""
    f = as_sym(s)
    if len(f) < 3:
        raise ValueError("block splitting needs dimension at least 3")
    return np.concatenate([[f[0, 0], f[0, 1], f[1, 1]], f[0, 2:], f[1, 2:]]), f[2:, 2:]


def n0(n: int) -> np.ndarray:
    """The rank-two skew generator: a single rotation in coordinates 1, 2."""
    if n < 3:
        raise ValueError("block splitting needs dimension at least 3")
    k = np.zeros((n, n))
    k[0, 1], k[1, 0] = 1.0, -1.0
    return k


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


def rhs_quadratic(y, b) -> np.ndarray:
    """Block extraction of [N, S^2]: the packed (a', b', c', u', v'); B' = 0."""
    y, core = _block(y, b)
    return _block_kernel(core, 2)(y)


def rhs_cubic(y, b) -> np.ndarray:
    """Block extraction of [N, S^3]: the packed (a', b', c', u', v'); B' = 0."""
    y, core = _block(y, b)
    return _block_kernel(core, 3)(y)


def rhs_reduced(u: np.ndarray, v: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed (u, v) system at a = b = c = 0.

    The sign -<u,u> u in v' is the one inherited from the cubic block flow
    and conserves <u,u> + <v,v>.
    """
    bf = as_sym(b)
    uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
    du = uv * u + vv * v + bf @ (bf @ v)
    dv = -uu * u - uv * v - bf @ (bf @ u)
    return du, dv


def _modes(y, ndims=(2, 3)) -> np.ndarray:
    """A PDE state (2, k) of (u_hat, v_hat), or a (T, 2, k) path of them, as complex."""
    y = np.asarray(y, dtype=complex)
    if y.ndim not in ndims or y.shape[-2] != 2:
        path = " or a (T, 2, k) path" if 3 in ndims else ""
        raise ValueError(f"expected modes of shape (2, k){path}, got {y.shape}")
    return y


def _wavenumbers(k: int) -> np.ndarray:
    return np.fft.fftfreq(k, d=1.0 / k)


def _mirror(k: int) -> np.ndarray:
    return -np.arange(k) % k  # gather index taking mode j to mode -j


def _inner(a_hat: np.ndarray, b_hat: np.ndarray) -> float | np.ndarray:
    """L^2 inner product on [0, 2pi) of the real fields behind the modes, per state."""
    return 2.0 * np.pi * np.vecdot(b_hat, a_hat).real


def l2_pair(y) -> float | np.ndarray:
    """Conserved quantity <u,u> + <v,v>."""
    y = _modes(y)
    u, v = y[..., 0, :], y[..., 1, :]
    return _inner(u, u) + _inner(v, v)


def pde_rhs(y) -> np.ndarray:
    """Spectral right-hand side of one state (2, k); scalar inner products via Parseval.

    The nonlinearity is scalar * field, so the evaluation is alias-free:
    no padding is needed and the mode support of (u, v) never grows.
    """
    y = np.ascontiguousarray(_modes(y, (2,)))
    return _pde(y.view(float), _signed_ksq(y.shape[-1])).view(complex)


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


def integrate_block(y0, b, power: int, t_final: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for S' = [N, S^power], power 2 or 3, on the packed (a, b, c, u, v)
    with the core B frozen; the path is (T, 3 + 2m)."""
    y0, core = _block(y0, b)
    return rk4_path(_block_kernel(core, power), y0, t_final, h)


def integrate_pde(y0, t_final: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on the (2, 2k) float view of (u_hat, v_hat), projected to real fields each step;
    a (T, 2, k) path."""
    y0 = np.ascontiguousarray(_modes(y0, (2,)))
    k = y0.shape[-1]
    signed_ksq = _signed_ksq(k)
    # conj(x[-j]) on the float view: gather the mirrored pair, negate its imaginary part
    flip = (2 * _mirror(k)[:, None] + [0, 1]).ravel()
    imag_sign = np.tile([1.0, -1.0], k)
    times, path = rk4_path(
        lambda y: _pde(y, signed_ksq),
        y0.view(float),
        t_final,
        h,
        project=lambda y: 0.5 * (y + y.take(flip, axis=1) * imag_sign),
    )
    return times, path.view(complex)


def parity_leakage(y, parity: str) -> float | np.ndarray:
    """Largest coefficient mass in the sector opposite ``parity``, 'even' or 'odd'.

    Even fields have u_hat[k] = u_hat[-k]; odd fields flip the sign.  The
    constant mode belongs to the even sector.  Only the modes 0 .. k//2 are
    read: for s = +-1, x_j - s x_-j = -s (x_-j - s x_j) exactly, so a mode and
    its mirror have the same leakage to the bit.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    y = _modes(y)
    sgn = 1.0 if parity == "even" else -1.0
    k = y.shape[-1]
    half = k // 2 + 1
    mirror = _mirror(k)[:half]
    u, v = y[..., 0, :], y[..., 1, :]
    parts = (np.abs(0.5 * (x[..., :half] - sgn * x[..., mirror])).max(axis=-1) for x in (u, v))
    return np.maximum(*parts)
