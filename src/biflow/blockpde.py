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
what conserves the L^2 pair); the opposite printed variant is available
behind a flag for comparison.

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


def _quadratic(a, b, c, u, v, bf: np.ndarray) -> np.ndarray:
    """[N, S^2] on the block variables, packed as (a', b', c', u', v')."""
    da = 2.0 * (b * (a + c) + float(u @ v))
    db = c ** 2 - a ** 2 + float(v @ v) - float(u @ u)
    du = b * u + c * v + bf @ v
    dv = -(a * u + b * v + bf @ u)
    return np.concatenate([[da, db, -da], du, dv])


def _cubic(a, b, c, u, v, bf: np.ndarray) -> np.ndarray:
    """[N, S^3] on the block variables, packed as (a', b', c', u', v')."""
    bu, bv = bf @ u, bf @ v
    uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
    t11 = a ** 2 + b ** 2 + uu
    t12 = b * (a + c) + uv
    t22 = b ** 2 + c ** 2 + vv
    da = 2.0 * (b * t11 + c * t12 + a * uv + b * vv + float(u @ bv))
    s3_22 = b * t12 + c * t22 + b * uv + c * vv + float(v @ bv)
    s3_11 = a * t11 + b * t12 + a * uu + b * uv + float(u @ bu)
    db = s3_22 - s3_11
    du = t12 * u + t22 * v + b * bu + c * bv + bf @ bv
    dv = -(t11 * u + t12 * v + a * bu + b * bv + bf @ bu)
    return np.concatenate([[da, db, -da], du, dv])


def _unpack(y: np.ndarray, b: SymMatrix) -> BlockState:
    return BlockState(*y[..., :3].T, y[..., 3 : 3 + b.n], y[..., 3 + b.n :], b)


def rhs_quadratic(bs: BlockState) -> BlockState:
    """Block extraction of [N, S^2]."""
    return _unpack(_quadratic(bs.a, bs.b, bs.c, bs.u, bs.v, bs.B.full()), SymMatrix.zero(bs.B.n))


def rhs_cubic(bs: BlockState) -> BlockState:
    """Block extraction of [N, S^3]."""
    return _unpack(_cubic(bs.a, bs.b, bs.c, bs.u, bs.v, bs.B.full()), SymMatrix.zero(bs.B.n))


def rhs_reduced(
    u: np.ndarray, v: np.ndarray, b: SymMatrix, printed_variant: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Closed (u, v) system at a = b = c = 0.

    The default sign -<u,u> u in v' is the one inherited from the cubic
    block flow and conserves <u,u> + <v,v>; ``printed_variant`` flips that
    one term for side-by-side comparison.
    """
    bf = b.full()
    uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
    du = uv * u + vv * v + bf @ (bf @ v)
    sign = 1.0 if printed_variant else -1.0
    dv = sign * uu * u - uv * v - bf @ (bf @ u)
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


def pde_rhs(st: PDEState, printed_variant: bool = False) -> PDEState:
    """Spectral right-hand side; scalar inner products via Parseval.

    The nonlinearity is scalar * field, so the evaluation is alias-free:
    no padding is needed and the mode support of (u, v) never grows.
    """
    d = _pde(st.u_hat, st.v_hat, _wavenumbers(st.modes) ** 2, printed_variant)
    return PDEState(d[: st.modes], d[st.modes :], st.parity)


def _pde(u: np.ndarray, v: np.ndarray, ksq: np.ndarray, printed_variant: bool) -> np.ndarray:
    """:func:`pde_rhs` on bare coefficient arrays, packed as (u_hat', v_hat')."""
    uu, vv, uv = _inner(u, u), _inner(v, v), _inner(u, v)
    du = uv * u + vv * v + ksq * v
    sign = 1.0 if printed_variant else -1.0
    dv = sign * uu * u - uv * v - ksq * u
    return np.concatenate([du, dv])


def integrate_block(
    bs0: BlockState, power: int, t_final: float, h: float
) -> tuple[np.ndarray, BlockState]:
    """RK4 for S' = [N, S^power], power 2 or 3, on the packed (a, b, c, u, v);
    the path has (T,) a, b, c, (T, m) u, v and the frozen ``bs0.B``."""
    packed = {2: _quadratic, 3: _cubic}.get(power)
    if packed is None:
        raise ValueError(f"block flows have power 2 or 3, got {power!r}")
    nb, bf = bs0.B.n, bs0.B.full()
    times, path = rk4_path(
        lambda y: packed(y[0], y[1], y[2], y[3 : 3 + nb], y[3 + nb :], bf),
        np.concatenate([[bs0.a, bs0.b, bs0.c], bs0.u, bs0.v]),
        t_final,
        h,
    )
    return times, _unpack(path, bs0.B)


def integrate_pde(
    st0: PDEState, t_final: float, h: float, printed_variant: bool = False
) -> tuple[np.ndarray, PDEState]:
    """RK4 on the packed (u_hat, v_hat), projected to real fields each step; a (T, k) path."""
    k = st0.modes
    ksq = _wavenumbers(k) ** 2
    mirror = np.concatenate([_mirror(k), k + _mirror(k)])
    times, path = rk4_path(
        lambda y: _pde(y[:k], y[k:], ksq, printed_variant),
        np.concatenate([st0.u_hat, st0.v_hat]),
        t_final,
        h,
        project=lambda y: 0.5 * (y + np.conj(y[mirror])),
    )
    return times, PDEState(path[:, :k], path[:, k:], st0.parity)


def parity_leakage(st: PDEState) -> float | np.ndarray:
    """Largest coefficient mass in the sector opposite the declared parity.

    Even fields have u_hat[k] = u_hat[-k]; odd fields flip the sign.  The
    constant mode belongs to the even sector.
    """
    if st.parity is None:
        raise ValueError("state carries no parity flag")
    sgn = 1.0 if st.parity == "even" else -1.0
    mirror = _mirror(st.modes)
    parts = (np.abs(0.5 * (x - sgn * x[..., mirror])).max(axis=-1) for x in (st.u_hat, st.v_hat))
    return np.maximum(*parts)
