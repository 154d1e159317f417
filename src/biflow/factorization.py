"""Numerical Birkhoff factorization and the closed-form flow solution.

The flow of the integral (k, l), for even l, is solved without time
stepping: sample gamma(t, z) = exp(-t X0(z)^k z^-(l+1)) on the unit circle,
split it as gamma = g+ g-^-1 with g- = I + c_1/z + ... + c_J/z^J by solving
one block-Toeplitz linear system in the Fourier coefficients, and read off

    S(t) = z^0 coefficient of g-(-z)^T X0(z) g-(z).

Loops built this way satisfy gamma(z) gamma(-z)^T = I, which forces a
trivial diagonal factor, a unique splitting, factors with the same
symmetry, and zero winding of det gamma; those properties are checked
numerically on every run.

Discretization is spectral: gamma is entire in z and 1/z away from the
circle, so its Fourier coefficients decay superexponentially and modest
M already leaves the top frequencies at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import IntegralIndex, gradient_loop, is_admissible
from .laurent import BILoop, LaurentLoop, mul
from .matcore import NumericalError, SymMatrix

__all__ = [
    "FourierLoop",
    "BirkhoffFactors",
    "FactorizationError",
    "AliasingError",
    "generator",
    "expm",
    "sample_exp",
    "det_winding",
    "birkhoff",
    "circle_symmetry_residual",
    "conjugated_states",
    "solve_by_factorization",
]


class FactorizationError(NumericalError):
    """Birkhoff splitting failed or fell outside its validity checks."""


class AliasingError(FactorizationError):
    """Top Fourier coefficients too large; increase the sample count."""


def generator(x0: BILoop, idx: IntegralIndex) -> LaurentLoop:
    """Exponent loop X0(z)^k z^-(l+1) of the factorization problem.

    Only even l is allowed: that parity makes the generator fixed by the
    involution, delta(z) + delta(-z)^T = 0, which is what guarantees the
    loop symmetry of exp(-t * generator).
    """
    if idx.l % 2 != 0:
        raise ValueError("factorization generators need an even power l")
    if not is_admissible(idx, x0.n):
        raise ValueError(f"index ({idx.k},{idx.l}) not admissible for n={x0.n}")
    return gradient_loop(x0, idx)


def expm(a: np.ndarray, tol: float = 1e-13, max_terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    ``a`` is one (n, n) matrix or a stack (..., n, n).  Each matrix is
    scaled by its own 2^-s until its 1-norm is at most 1/2, its series is
    summed until its own term norm falls below tol, and the result is
    squared s times.  A stack does per matrix exactly the arithmetic of a
    single call, so each slice equals the exponential of that slice alone.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    norms = np.linalg.norm(stack, 1, axis=(1, 2))
    big = norms > 0.5
    s = np.zeros(len(stack), dtype=int)
    s[big] = np.ceil(np.log2(norms[big] / 0.5))
    b = stack / (2.0 ** s)[:, None, None]
    out = np.broadcast_to(np.eye(n, dtype=b.dtype), b.shape).copy()
    term = out.copy()
    live = np.arange(len(stack))  # matrices whose series has not converged
    for m in range(1, max_terms + 1):
        term = term @ b[live] / m
        out[live] += term
        going = ~(np.linalg.norm(term, 1, axis=(1, 2)) < tol)
        live, term = live[going], term[going]
        if not live.size:
            break
    else:
        raise FactorizationError("matrix exponential series did not converge")
    for r in range(s.max(initial=0)):
        sq = out[s > r]
        out[s > r] = sq @ sq
    return out.reshape(a.shape)


@dataclass(frozen=True)
class FourierLoop:
    """Unit-circle samples of a loop together with its Fourier coefficients.

    ``samples[m]`` is the value at z_m = exp(2*pi*i*m/M); ``coeff(j)`` is
    the trapezoidal Fourier coefficient for any |j| <= M/2.  Loops sampled
    here satisfy the reality condition, so coefficients are real up to the
    recorded residual; the aliasing estimate is the size of the two top
    frequencies.
    """

    samples: np.ndarray  # (M, n, n) complex
    coeffs: np.ndarray  # (M, n, n) complex, index j mod M

    @property
    def m_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    def coeff(self, j: int) -> np.ndarray:
        if abs(j) > self.m_samples // 2:
            raise ValueError(f"coefficient {j} beyond resolved band {self.m_samples // 2}")
        return self.coeffs[j % self.m_samples]

    def aliasing_estimate(self) -> float:
        top = self.m_samples // 2
        return float(
            max(np.linalg.norm(self.coeff(top)), np.linalg.norm(self.coeff(-top + 1)))
        )

    def reality_residual(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag)))


def circle_points(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def sample_exp(
    gen: LaurentLoop, t: float, m_samples: int = 256, aliasing_tol: float = 1e-10
) -> FourierLoop:
    """Sample exp(-t * gen(z)) on the unit circle and take its DFT.

    ``m_samples`` must be a power of two and clear the heuristic floor
    4 * span * max(1, t * ||gen||); an aliasing estimate above tol raises
    :class:`AliasingError` (increase the sample count).
    """
    if m_samples < 4 or (m_samples & (m_samples - 1)) != 0:
        raise ValueError("sample count must be a power of two, at least 4")
    floor = 4 * gen.span * max(1.0, abs(t) * gen.norm())
    if m_samples < floor:
        raise ValueError(f"sample count {m_samples} below heuristic floor {floor:.0f}")
    samples = expm(-t * gen.evaluate(circle_points(m_samples)))
    coeffs = np.fft.fft(samples, axis=0) / m_samples
    loop = FourierLoop(samples, coeffs)
    if loop.aliasing_estimate() > aliasing_tol:
        raise AliasingError(
            f"aliasing estimate {loop.aliasing_estimate():.3e} above {aliasing_tol:.1e}"
        )
    return loop


def det_winding(gamma: FourierLoop) -> int:
    """Winding number of det(gamma) around the origin along the samples."""
    dets = np.linalg.det(gamma.samples)
    if np.any(np.abs(dets) == 0.0):
        raise FactorizationError("singular sample; winding undefined")
    closed = np.concatenate([dets, dets[:1]])
    turns = np.sum(np.angle(closed[1:] / closed[:-1])) / (2.0 * np.pi)
    winding = int(np.rint(turns))
    if abs(turns - winding) > 1e-6:
        raise FactorizationError(f"winding estimate {turns:.3e} far from an integer")
    return winding


@dataclass(frozen=True)
class BirkhoffFactors:
    """Result of one splitting gamma ~ g_plus * g_minus^-1.

    ``g_minus`` has window [-J, 0] with unit constant term, ``g_plus``
    window [0, M/2 - J]; ``residual`` is the largest sample norm of
    gamma - g_plus g_minus^-1, and ``tail`` the norm of the deepest kept
    g_minus coefficient.
    """

    g_minus: LaurentLoop
    g_plus: LaurentLoop
    residual: float
    tail: float
    winding: int
    reality: float


def _real_part(arr: np.ndarray, tol: float, what: str) -> np.ndarray:
    imag = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
    if imag > tol:
        raise FactorizationError(f"{what} not real (imaginary mass {imag:.3e})")
    return arr.real.copy()


def birkhoff(
    gamma: FourierLoop,
    depth: int = 40,
    tail_tol: float = 1e-10,
    residual_tol: float = 1e-6,
    reality_tol: float = 1e-10,
    max_depth: int = 256,
) -> BirkhoffFactors:
    """Split gamma into analytic factors with trivial diagonal part.

    Writing g- = I + sum_{j=1..J} c_j z^-j, the defining condition that
    gamma * g- has no negative Fourier coefficients down to depth J is the
    block-Toeplitz system  sum_j Gamma_{m+j} c_j = -Gamma_m, m = -1..-J,
    solved densely by LU with partial pivoting.  If the deepest computed
    coefficient is above ``tail_tol`` the depth is doubled (up to
    ``max_depth``); a singular system means the loop left the factorizable
    cell, which the loop symmetry rules out for healthy inputs.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    winding = det_winding(gamma)
    if winding != 0:
        raise FactorizationError(f"det winding {winding} != 0; diagonal factor nontrivial")
    n = gamma.n
    j_cap = gamma.m_samples // 2 - 1
    j = min(depth, j_cap)
    while True:
        blocks = [[gamma.coeff(col - row) for col in range(1, j + 1)] for row in range(1, j + 1)]
        system = np.block(blocks)
        rhs = -np.concatenate([gamma.coeff(-row) for row in range(1, j + 1)], axis=0)
        try:
            stacked = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError("block-Toeplitz system singular") from exc
        cs = [stacked[(jj - 1) * n : jj * n] for jj in range(1, j + 1)]
        tail = float(np.linalg.norm(cs[-1]))
        if tail <= tail_tol or j >= min(max_depth, j_cap):
            break
        j = min(2 * j, max_depth, j_cap)
    if tail > tail_tol:
        raise FactorizationError(f"g_minus tail {tail:.3e} above {tail_tol:.1e} at depth {j}")

    reality = max(float(np.max(np.abs(c.imag))) for c in cs)
    g_minus_arr = np.zeros((j + 1, n, n))
    g_minus_arr[j] = np.eye(n)
    for jj, c in enumerate(cs, start=1):
        g_minus_arr[j - jj] = _real_part(c, reality_tol, "g_minus coefficient")
    g_minus = LaurentLoop(-j, g_minus_arr)

    j_plus = gamma.m_samples // 2 - j
    plus_terms = {}
    for m in range(0, j_plus + 1):
        acc = gamma.coeff(m).astype(complex)
        for jj, c in enumerate(cs, start=1):
            acc = acc + gamma.coeff(m + jj) @ c
        plus_terms[m] = _real_part(acc, max(reality_tol, 10 * gamma.reality_residual()), "g_plus coefficient")
    g_plus = LaurentLoop.from_terms(plus_terms, n)

    zs = circle_points(gamma.m_samples)
    gm_t = g_minus.evaluate(zs).transpose(0, 2, 1)
    gp_t = g_plus.evaluate(zs).transpose(0, 2, 1)
    approx = np.linalg.solve(gm_t, gp_t).transpose(0, 2, 1)  # g_plus @ inv(g_minus)
    residual = _max_norm(gamma.samples - approx)
    if residual > residual_tol:
        raise FactorizationError(f"factorization residual {residual:.3e} above {residual_tol:.1e}")
    return BirkhoffFactors(g_minus, g_plus, residual, tail, winding, reality)


def circle_symmetry_residual(loop: LaurentLoop, m_samples: int = 256) -> float:
    """Max over circle samples of ||g(z) g(-z)^T - I||."""
    zs = circle_points(m_samples)
    vals = loop.evaluate(zs) @ loop.evaluate(-zs).transpose(0, 2, 1) - np.eye(loop.n)
    return _max_norm(vals)


def _max_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over a nonempty stack of complex matrices.

    Squares are summed by the dot products np.linalg.norm uses on one
    matrix, so the result equals the largest per-matrix norm bit for bit.
    """
    flat = stack.reshape(len(stack), -1)
    sq = np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)
    return float(np.sqrt(sq).max())


def conjugated_states(
    factors: BirkhoffFactors, x0: BILoop, n_tol: float = 1e-8, agree_tol: float = 1e-7
) -> tuple[SymMatrix, SymMatrix]:
    """Flowed state from each factor: z^0 coefficient of g^-1 X0 g.

    Inverses go through the loop symmetry g^-1(z) = g(-z)^T.  The z^1
    coefficient must reproduce the frozen N and the two factors must agree;
    both checks raise :class:`FactorizationError` on failure.
    """
    out = []
    for g in (factors.g_minus, factors.g_plus):
        cap = 2 * g.span + 4
        conj = mul(mul(g.transpose_flip(), x0.loop(), cap), g, cap)
        n_err = np.linalg.norm(conj.coeff(1) - x0.N.full())
        if n_err > n_tol:
            raise FactorizationError(f"z^1 coefficient drifted from N by {n_err:.3e}")
        c0 = conj.coeff(0)
        sym_err = np.linalg.norm(c0 - c0.T)
        if sym_err > n_tol:
            raise FactorizationError(f"flowed state asymmetric by {sym_err:.3e}")
        out.append(SymMatrix.symmetric_part(c0))
    s_minus, s_plus = out
    gap = np.linalg.norm(s_minus.full() - s_plus.full())
    if gap > agree_tol:
        raise FactorizationError(f"factor conjugations disagree by {gap:.3e}")
    return s_minus, s_plus


def solve_by_factorization(
    x0: BILoop,
    idx: IntegralIndex,
    t: float,
    m_samples: int = 256,
    depth: int = 40,
) -> SymMatrix:
    """State of the (k, l) flow at time t by Birkhoff factorization."""
    if t == 0.0:
        return x0.S
    gen = generator(x0, idx)
    gamma = sample_exp(gen, t, m_samples)
    factors = birkhoff(gamma, depth)
    s_minus, _ = conjugated_states(factors, x0)
    return s_minus
