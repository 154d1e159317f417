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

from .laurent import LaurentLoop, loop_power, pairing, rbracket
from .matcore import NumericalError, as_skew, as_stack, as_sym, char_poly, numerical_rank
from .symmetrizer import SymmetrizerTable, sym

__all__ = [
    "IntegralIndex",
    "InterpolationError",
    "enumerate_indices",
    "is_admissible",
    "hamiltonian",
    "gradient_loop",
    "poisson_bracket",
    "poisson_matrix",
    "spectral_coeffs",
    "spectral_nodes",
    "casimirs",
    "casimir_exponents",
    "orbit_membership",
    "integral_independence_rank",
]


COND_CAP = 1e12  # largest condition number of the z-node system spectral_nodes accepts


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


def _checked(s, n, idx: IntegralIndex | None = None) -> tuple[np.ndarray, np.ndarray]:
    """S and N checked symmetric and skew, of one dimension for which idx, if given, is admissible.

    The one check of every public entry that takes a single state (S, N).
    """
    s, n = as_sym(s), as_skew(n)
    if s.shape != n.shape:
        raise ValueError("S and N must share one dimension")
    if idx is not None:
        _require_admissible(idx, len(s))
    return s, n


def hamiltonian(s, n, idx: IntegralIndex) -> float:
    """The z^l coefficient of tr(X(z)^(k+1)), X = S + zN, which is tr sym_{k+1-l,l}(S, N), over k+1."""
    s, n = _checked(s, n, idx)
    return float(np.trace(sym(s, n, idx.k + 1 - idx.l, idx.l))) / (idx.k + 1)


def gradient_loop(s, n, idx: IntegralIndex) -> LaurentLoop:
    """Gradient of the integral: the loop X(z)^k z^-(l+1), X = S + zN.

    ``IntegralIndex`` enforces even l, which makes this loop fixed by the
    involution, delta(z) + delta(-z)^T = 0; that is what gives exp(-t delta)
    the loop symmetry g(z) g(-z)^T = I the Birkhoff factorization relies on.
    """
    s, n = _checked(s, n, idx)
    return loop_power(LaurentLoop(0, np.stack([s, n])), idx.k).shift(-(idx.l + 1))


def poisson_bracket(s, n, idx1: IntegralIndex, idx2: IntegralIndex) -> float:
    """Lie-Poisson bracket of two integrals at X = S + zN.

    Evaluates (X, [dH1, dH2]) with the factorization bracket; antisymmetric
    by construction and zero (to rounding) on every admissible pair.
    """
    s, n = _checked(s, n)
    if idx1 == idx2:
        return 0.0
    g1 = gradient_loop(s, n, idx1)
    g2 = gradient_loop(s, n, idx2)
    return pairing(LaurentLoop(0, np.stack([s, n])), rbracket(g1, g2))


def _hamiltonian_fields(s: np.ndarray, n: np.ndarray):
    """Symmetrizer table up to degree n-1, and the (P, n, n) stacks M and [N, M].

    M_a = sym_{k-l,l}(S, N) is the z^-1 coefficient of the gradient of the
    a-th admissible integral, and [N, M_a] its Hamiltonian vector field.
    """
    s, n = _checked(s, n)
    table = SymmetrizerTable(s, n, len(s) - 1)
    m = np.stack([table.get(idx.k - idx.l, idx.l) for idx in enumerate_indices(len(s))])
    nf = table.b
    return table, m, nf @ m - m @ nf


def poisson_matrix(s: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every bracket {H_a, H_b} of the admissible family and its gate scale, (P, P) each.

    X = S + zN pairs only with the z^-1 and z^-2 coefficients of the
    factorization bracket of two gradients, and only [A-, B-] reaches them:
    {H_a, H_b} = -tr(N [M_a, M_b]) = -tr([N, M_a] M_b), made exactly
    antisymmetric.  The scale is max(1, |grad H_a| |grad H_b| |X|) in the
    largest coefficient Frobenius norm; grad H_a has coefficients
    sym_{k-j,j}(S, N), j = 0..k.  Rows follow :func:`enumerate_indices`.
    """
    table, m, fields = _hamiltonian_fields(s, n)
    # tr(F_a M_b) is the dot product of the flattened F_a and M_b^T: one BLAS product
    dim, p = len(table.a), len(m)
    brackets = -(fields.reshape(p, -1) @ m.transpose(0, 2, 1).reshape(p, -1).T)
    brackets = 0.5 * (brackets - brackets.T)
    power_norm = [
        max(np.linalg.norm(table.get(k - j, j)) for j in range(k + 1)) for k in range(dim)
    ]
    grad = np.array([power_norm[idx.k] for idx in enumerate_indices(dim)])
    xnorm = max(np.linalg.norm(table.a), np.linalg.norm(table.b))
    return brackets, np.maximum(1.0, np.outer(grad, grad) * xnorm)


def spectral_coeffs(s, n: np.ndarray) -> tuple[dict, float | np.ndarray]:
    """Coefficients I_rk of det(S + zN - wI) = sum I_rk z^(2k) w^(n-r), and the odd-z residual.

    det(S + zN - wI) has degree <= n in both z and w; n+1 real Chebyshev
    nodes and a characteristic polynomial per node determine every
    coefficient exactly up to rounding.  The coefficients are a dict keyed
    (r, k).  The residual is the largest interpolated coefficient of an odd
    power of z, relative to the table scale; the determinant is even in z,
    so it measures numerical noise only.  ``s`` is one symmetric state or a
    (..., n, n) stack of them, and then every value is an array over it.
    """
    sf, nf = as_stack(s), as_skew(n)
    dim = len(nf)
    nodes = spectral_nodes(dim)
    wcoeffs = char_poly(sf[..., None, :, :] + nodes[:, None, None] * nf)  # (..., node, w)
    batch = wcoeffs.shape[:-2]
    table = {}
    odd = np.zeros(batch)
    for m in range(dim + 1):
        # One fit per w-degree over all states; fitting every w-degree in one
        # lstsq would round a single state's table differently.
        y = np.moveaxis(wcoeffs[..., m], -1, 0).reshape(dim + 1, -1)
        zpoly = npoly.polyfit(nodes, y, dim).reshape(dim + 1, *batch)
        r = dim - m
        for k in range(r // 2 + 1):
            table[(r, k)] = zpoly[2 * k]
        odd = np.maximum(odd, np.max(np.abs(zpoly[1::2]), axis=0, initial=0.0))
    scale = np.maximum(1.0, np.max(np.abs(np.stack(list(table.values()))), axis=0))
    return table, odd / scale


def spectral_nodes(dim: int) -> np.ndarray:
    """The dim+1 Chebyshev nodes in z of :func:`spectral_coeffs` for dim x dim states.

    Raises InterpolationError when their Vandermonde system is conditioned
    past ``COND_CAP`` (from dim = 33).  That depends on dim alone, so a
    caller can refuse a dimension before it computes any state.
    """
    nodes = np.cos(np.pi * (2 * np.arange(dim + 1) + 1) / (2 * (dim + 1)))
    if np.linalg.cond(np.vander(nodes, dim + 1, increasing=True)) > COND_CAP:
        raise InterpolationError("z-node system too ill-conditioned")
    return nodes


def casimir_exponents(n: int) -> list[int]:
    """Even exponents l with tr(S N^l) constant on every orbit."""
    return list(range(0, n, 2))


def casimirs(s, n: np.ndarray) -> np.ndarray:
    """Orbit invariants tr(S N^l) for even l below n, in the last axis.

    ``s`` is one symmetric state or a (..., n, n) stack of them.  Odd
    exponents are excluded: tr(S N^l) = -tr(S N^l) by transposition, so
    those traces vanish identically.
    """
    sf, nf = as_stack(s), as_skew(n)
    out = []
    power = np.eye(len(nf))
    for l in range(len(nf)):
        if l % 2 == 0:
            out.append(np.trace(sf @ power, axis1=-2, axis2=-1))
        power = power @ nf
    return np.stack(out, axis=-1)


def orbit_membership(s: np.ndarray, s0: np.ndarray, n0: np.ndarray, tol: float) -> bool:
    """True iff s sits on the coadjoint orbit through (s0, n0) within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    got = casimirs(s, n0)
    want = casimirs(s0, n0)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def integral_independence_rank(s: np.ndarray, n: np.ndarray) -> int:
    """Rank of the admissible family of Hamiltonian vector fields at (s, n).

    Each field is -[sym_{k-l,l}(S, N), N]; generic points give floor(n^2/4).
    """
    return numerical_rank(_hamiltonian_fields(s, n)[2])
