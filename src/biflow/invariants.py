"""Conserved quantities of the hierarchy on the loop S + zN.

The Hamiltonian attached to an admissible index (k, l) is 1/(k+1) times the
coefficient of z^l in tr((S + zN)^(k+1)); since the loop is polynomial the
contour integral is plain residue extraction, never quadrature.  Gradients
are the loops (S + zN)^k z^-(l+1), the Poisson bracket is the residue
pairing against the factorization bracket of two gradients, and Casimirs
are the traces tr(S N^l) for even l.  Spectral-curve coefficients I_rk come
from det(S + zN - wI) by characteristic polynomials at Chebyshev nodes in z
followed by exact-degree interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .laurent import BILoop, LaurentLoop, loop_power, pairing, rbracket
from .matcore import NumericalError, SkewMatrix, SymMatrix, char_poly, numerical_rank
from .symmetrizer import SymmetrizerTable

__all__ = [
    "IntegralIndex",
    "SpectralTable",
    "InterpolationError",
    "enumerate_indices",
    "is_admissible",
    "hamiltonian",
    "gradient_loop",
    "poisson_bracket",
    "spectral_coeffs",
    "casimirs",
    "casimir_exponents",
    "orbit_membership",
    "integral_independence_rank",
]


class InterpolationError(NumericalError):
    """Spectral-curve interpolation is too ill-conditioned to trust."""


@dataclass(frozen=True)
class IntegralIndex:
    """Label (k, l) of one commuting integral.

    Admissible for dimension n when 1 <= k <= n-1 and l is even with
    0 <= l <= min(k-1, n-2); that restriction makes the family count
    exactly floor(n^2/4).
    """

    k: int
    l: int

    def __post_init__(self):
        if self.k < 1 or self.l < 0:
            raise ValueError(f"invalid index ({self.k}, {self.l})")
        if self.l % 2 != 0:
            raise ValueError(f"index power l must be even, got {self.l}")

    def __str__(self):
        return f"H_{self.k}_{self.l}"


def is_admissible(idx: IntegralIndex, n: int) -> bool:
    return 1 <= idx.k <= n - 1 and idx.l <= min(idx.k - 1, n - 2)


def enumerate_indices(n: int) -> list[IntegralIndex]:
    """All admissible indices for dimension n; exactly floor(n^2/4) of them."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    out = [
        IntegralIndex(k, l)
        for k in range(1, n)
        for l in range(0, min(k - 1, n - 2) + 1, 2)
    ]
    assert len(out) == n * n // 4
    return out


def _require_admissible(idx: IntegralIndex, n: int):
    if not is_admissible(idx, n):
        raise ValueError(f"index ({idx.k},{idx.l}) not admissible for n={n}")


def hamiltonian(x: BILoop, idx: IntegralIndex) -> float:
    """Value of the integral: residue of tr(X(z)^(k+1)) / z^(l+1), over k+1."""
    _require_admissible(idx, x.n)
    power = loop_power(x.loop(), idx.k + 1)
    return float(np.trace(power.coeff(idx.l))) / (idx.k + 1)


def gradient_loop(x: BILoop, idx: IntegralIndex) -> LaurentLoop:
    """Gradient of the integral: the loop X(z)^k z^-(l+1)."""
    _require_admissible(idx, x.n)
    return loop_power(x.loop(), idx.k).shift(-(idx.l + 1))


def poisson_bracket(x: BILoop, idx1: IntegralIndex, idx2: IntegralIndex) -> float:
    """Lie-Poisson bracket of two integrals at x.

    Evaluates (X, [dH1, dH2]) with the factorization bracket; antisymmetric
    by construction and zero (to rounding) on every admissible pair.
    """
    if idx1 == idx2:
        return 0.0
    g1 = gradient_loop(x, idx1)
    g2 = gradient_loop(x, idx2)
    return pairing(x.loop(), rbracket(g1, g2))


@dataclass(frozen=True)
class SpectralTable:
    """Coefficients I_rk of det(S + zN - wI) = sum I_rk z^(2k) w^(n-r).

    ``odd_z_residual`` is the largest interpolated coefficient of an odd
    power of z, relative to the table scale; the determinant is an even
    function of z so this measures numerical noise only.
    """

    n: int
    table: dict[tuple[int, int], float]
    odd_z_residual: float

    def value(self, r: int, k: int) -> float:
        return self.table[(r, k)]

    def values(self) -> np.ndarray:
        return np.array([self.table[key] for key in sorted(self.table)])

    def keys(self) -> list[tuple[int, int]]:
        return sorted(self.table)


def spectral_coeffs(s: SymMatrix, n: SkewMatrix, cond_cap: float = 1e12) -> SpectralTable:
    """Spectral-curve coefficient table from Chebyshev-node interpolation.

    det(S + zN - wI) has degree <= n in both z and w; n+1 real Chebyshev
    nodes and a characteristic polynomial per node determine every
    coefficient exactly up to rounding.
    """
    dim = s.n
    nodes = np.cos(np.pi * (2 * np.arange(dim + 1) + 1) / (2 * (dim + 1)))
    vand = np.vander(nodes, dim + 1, increasing=True)
    if np.linalg.cond(vand) > cond_cap:
        raise InterpolationError("z-node system too ill-conditioned")
    sf = s.full()
    nf = n.full()
    wcoeffs = np.stack([char_poly(sf + z * nf) for z in nodes])  # (node, w-degree)
    table: dict[tuple[int, int], float] = {}
    odd_resid = 0.0
    for m in range(dim + 1):
        zpoly = npoly.polyfit(nodes, wcoeffs[:, m], dim)
        r = dim - m
        for k in range(r // 2 + 1):
            table[(r, k)] = float(zpoly[2 * k])
        odd_resid = max(odd_resid, float(np.max(np.abs(zpoly[1::2]), initial=0.0)))
    scale = max(1.0, max(abs(v) for v in table.values()))
    return SpectralTable(dim, table, odd_resid / scale)


def casimir_exponents(n: int) -> list[int]:
    """Even exponents l with tr(S N^l) constant on every orbit."""
    return list(range(0, n, 2))


def casimirs(s: SymMatrix, n: SkewMatrix) -> list[float]:
    """Orbit invariants tr(S N^l) for even l below n.

    Odd exponents are excluded: tr(S N^l) = -tr(S N^l) by transposition, so
    those traces vanish identically.
    """
    sf = s.full()
    nf = n.full()
    out = []
    power = np.eye(s.n)
    for l in range(s.n):
        if l % 2 == 0:
            out.append(float(np.trace(sf @ power)))
        power = power @ nf
    return out


def orbit_membership(s: SymMatrix, s0: SymMatrix, n0: SkewMatrix, tol: float) -> bool:
    """True iff s sits on the coadjoint orbit through (s0, n0) within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    got = np.array(casimirs(s, n0))
    want = np.array(casimirs(s0, n0))
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def integral_independence_rank(s: SymMatrix, n: SkewMatrix, tol: float = 1e-8) -> int:
    """Rank of the admissible family of Hamiltonian vector fields at (s, n).

    Each field is -[sym_{k-l,l}(S, N), N]; generic points give floor(n^2/4).
    """
    dim = s.n
    table = SymmetrizerTable(s.full(), n.full(), dim - 1)
    nf = n.full()
    fields = []
    for idx in enumerate_indices(dim):
        m = table.get(idx.k - idx.l, idx.l)
        fields.append(nf @ m - m @ nf)
    return numerical_rank(fields, tol)
