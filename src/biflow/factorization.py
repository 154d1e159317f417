"""Numerical Birkhoff factorization and the closed-form flow solution.

The flow of the integral (k, l), for even l, is solved without time
stepping: sample gamma(t, z) = exp(-t X0(z)^k z^-(l+1)) on the unit circle,
split it as gamma = g+ g-^-1 with g- = I + c_1/z + ... + c_J/z^J by solving
one block-Toeplitz linear system in the Fourier coefficients, and read off

    S(t) = z^0 coefficient of g-(-z)^T X0(z) g-(z).

The depth J starts one past the deepest negative coefficient of gamma
above rounding level (``START_TOL``), at most the caller's depth, and
doubles while the deepest c_J is above ``TAIL_TOL``.  g+ is the
nonnegative part of gamma g-, taken by one FFT of its circle samples.

Loops built this way satisfy gamma(z) gamma(-z)^T = I, which forces a
trivial diagonal factor, a unique splitting, factors with the same
symmetry, and zero winding of det gamma; those properties are checked
numerically on every run.

Discretization is spectral: gamma is entire in z and 1/z away from the
circle, so its Fourier coefficients decay superexponentially and modest
M already leaves the top frequencies at rounding level.  The factors are
evaluated on the circle by one inverse FFT each, g(-z) is the same samples
rolled by a half-turn, and the conjugation forms only the z^0 and z^1
coefficients that the checks read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import IntegralIndex, gradient_loop
from .laurent import BILoop, LaurentLoop, mul
from .matcore import NumericalError

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


EXPM_TOL = 1e-13  # 1-norm of the last Taylor term summed by expm
EXPM_MAX_TERMS = 60  # Taylor terms expm sums before it gives up
ALIASING_TOL = 1e-10  # largest top-frequency coefficient sample_exp accepts
TAIL_TOL = 1e-10  # largest deepest g_minus coefficient birkhoff accepts
START_TOL = 1e-15  # gamma coefficients above this set birkhoff's start depth
RESIDUAL_TOL = 1e-6  # largest sample norm of gamma - g_plus g_minus^-1
REALITY_TOL = 1e-10  # largest imaginary part of a factor coefficient
MAX_DEPTH = 256  # deepest g_minus window birkhoff doubles up to
N_TOL = 1e-8  # drift of the z^1 coefficient from N, and asymmetry of S(t)
AGREE_TOL = 1e-7  # gap between the states conjugated by g_minus and g_plus


def generator(x0: BILoop, idx: IntegralIndex) -> LaurentLoop:
    """Exponent loop X0(z)^k z^-(l+1) of the factorization problem.

    ``IntegralIndex`` enforces even l: that parity makes the generator fixed
    by the involution, delta(z) + delta(-z)^T = 0, which is what guarantees
    the loop symmetry of exp(-t * generator).
    """
    return gradient_loop(x0, idx)  # which rejects an index not admissible for n


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    ``a`` is one (n, n) matrix or a stack (..., n, n).  Each matrix is
    scaled by its own 2^-s until its 1-norm is at most 1/2, its series is
    summed until its own term norm falls below ``EXPM_TOL`` (in at most
    ``EXPM_MAX_TERMS`` terms), and the result is squared s times.  A stack
    does per matrix exactly the arithmetic of a single call, so each slice
    equals the exponential of that slice alone.
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
    live, b_live = slice(None), b  # the series not yet converged: all, ungathered, at first
    for m in range(1, EXPM_MAX_TERMS + 1):
        term = term @ b_live / m
        out[live] += term
        going = ~(np.linalg.norm(term, 1, axis=(1, 2)) < EXPM_TOL)
        if going.all() and going.size:
            continue  # the live set is unchanged: gather nothing
        live = np.arange(len(stack))[live][going]
        if not live.size:
            break
        b_live, term = b[live], term[going]
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

    def coeff(self, j) -> np.ndarray:
        """Coefficient j, or the stack of them for an integer array j."""
        if np.max(np.abs(j)) > self.m_samples // 2:
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
    gen: LaurentLoop, t: float, m_samples: int = 256, half: FourierLoop | None = None
) -> FourierLoop:
    """Sample exp(-t * gen(z)) on the unit circle and take its DFT.

    ``m_samples`` must be a power of two.  A count below the heuristic floor
    4 * span * max(1, t * ||gen||), or an aliasing estimate above
    ``ALIASING_TOL``, raises :class:`AliasingError` (increase the count).

    ``half`` is this loop already sampled at t/2, from the same ``gen`` and
    ``m_samples``.  The loops exp(-t gen) form a one-parameter group, so each
    sample at t is the square of the sample at t/2, and no exponential is
    taken.  Where every sample's scaling exponent in :func:`expm` grows by
    one from t/2 to t, the direct call runs the same Taylor core and one
    squaring more, so both ways give the same bits.
    """
    if m_samples < 4 or (m_samples & (m_samples - 1)) != 0:
        raise ValueError("sample count must be a power of two, at least 4")
    if half is not None and half.m_samples != m_samples:
        raise ValueError(f"half-time loop has {half.m_samples} samples, not {m_samples}")
    floor = 4 * gen.span * max(1.0, abs(t) * gen.norm())
    if m_samples < floor:
        raise AliasingError(f"sample count {m_samples} below heuristic floor {floor:.0f}")
    if half is None:
        samples = expm(-t * gen.evaluate(circle_points(m_samples)))
    else:
        samples = half.samples @ half.samples
    coeffs = np.fft.fft(samples, axis=0) / m_samples
    loop = FourierLoop(samples, coeffs)
    if loop.aliasing_estimate() > ALIASING_TOL:
        raise AliasingError(
            f"aliasing estimate {loop.aliasing_estimate():.3e} above {ALIASING_TOL:.1e}"
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
    gamma - g_plus g_minus^-1, ``tail`` the norm of the deepest kept
    g_minus coefficient, ``negative_part`` the largest norm of the
    coefficients of gamma g_minus at degrees -1 .. -J, which the Birkhoff
    condition sets to zero, and ``symmetry`` the larger
    :func:`circle_symmetry_residual` of the two factors on gamma's circle.
    """

    g_minus: LaurentLoop
    g_plus: LaurentLoop
    residual: float
    tail: float
    winding: int
    reality: float
    negative_part: float
    symmetry: float


def _real_part(arr: np.ndarray, tol: float, what: str) -> np.ndarray:
    imag = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
    if imag > tol:
        raise FactorizationError(f"{what} not real (imaginary mass {imag:.3e})")
    return arr.real.copy()


def birkhoff(gamma: FourierLoop, depth: int = 40) -> BirkhoffFactors:
    """Split gamma into analytic factors with trivial diagonal part.

    Writing g- = I + sum_{j=1..J} c_j z^-j, the defining condition that
    gamma * g- has no negative Fourier coefficients down to depth J is the
    block-Toeplitz system  sum_j Gamma_{m+j} c_j = -Gamma_m, m = -1..-J,
    solved densely by LU with partial pivoting.  J starts at one past the
    deepest d <= M/2 - 1 with |Gamma_{-d}|_F above ``START_TOL``, capped at
    ``depth``; the deepest such d, not the first d below it, so that a zero
    Gamma_{-d} at small d does not stop the search.  If the deepest computed
    coefficient is above ``TAIL_TOL`` the depth is doubled (up to
    ``MAX_DEPTH``); a singular system means the loop left the factorizable
    cell, which the loop symmetry rules out for healthy inputs.

    g_plus is degrees 0 .. M/2 - J of gamma g_minus, from one FFT of the
    product of their circle samples; the circle samples of both factors
    serve the residual and symmetry checks.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    winding = det_winding(gamma)
    if winding != 0:
        raise FactorizationError(f"det winding {winding} != 0; diagonal factor nontrivial")
    n, m_samples = gamma.n, gamma.m_samples
    j_cap = m_samples // 2 - 1
    norms = np.linalg.norm(gamma.coeff(-np.arange(1, j_cap + 1)), axis=(1, 2))  # |Gamma_{-d}|_F
    above = np.flatnonzero(norms > START_TOL)  # index d - 1 of each Gamma_{-d} above
    j = min(depth, j_cap, int(above[-1]) + 2 if above.size else 1)
    while True:
        # System block (r, c) is Gamma_{c-r}, r, c = 1..j; rhs block r is -Gamma_{-r}.
        # Block row r is window r of the degrees j-1 .. -(j-1), read backwards.
        band = gamma.coeff(np.arange(j - 1, -j, -1))
        rows = np.lib.stride_tricks.sliding_window_view(band, j, axis=0)[..., ::-1]
        system = rows.transpose(0, 1, 3, 2).reshape(j * n, j * n)
        rhs = -gamma.coeff(-np.arange(1, j + 1)).reshape(j * n, n)
        try:
            stacked = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError("block-Toeplitz system singular") from exc
        cs = stacked.reshape(j, n, n)  # cs[jj - 1] = c_jj
        tail = float(np.linalg.norm(cs[-1]))
        if tail <= TAIL_TOL or j >= min(MAX_DEPTH, j_cap):
            break
        j = min(2 * j, MAX_DEPTH, j_cap)
    if tail > TAIL_TOL:
        raise FactorizationError(f"g_minus tail {tail:.3e} above {TAIL_TOL:.1e} at depth {j}")

    reality = float(np.max(np.abs(cs.imag)))
    g_minus_arr = _real_part(cs[::-1], REALITY_TOL, "g_minus coefficient")
    g_minus = LaurentLoop(-j, np.concatenate([g_minus_arr, np.eye(n)[None]]))

    gm = _circle_values(g_minus, m_samples)
    product = np.fft.fft(gamma.samples @ gm, axis=0) / m_samples  # degree d in slot d mod M
    negative_part = _max_norm(product[-j:])
    tol = max(REALITY_TOL, 10 * gamma.reality_residual())
    g_plus = LaurentLoop(0, _real_part(product[: m_samples // 2 - j + 1], tol, "g_plus coefficient"))

    gp = _circle_values(g_plus, m_samples)
    approx = np.linalg.solve(gm.transpose(0, 2, 1), gp.transpose(0, 2, 1)).transpose(0, 2, 1)
    residual = _max_norm(gamma.samples - approx)  # approx = g_plus @ inv(g_minus)
    if residual > RESIDUAL_TOL:
        raise FactorizationError(f"factorization residual {residual:.3e} above {RESIDUAL_TOL:.1e}")
    symmetry = max(_symmetry_residual(gm), _symmetry_residual(gp))
    return BirkhoffFactors(g_minus, g_plus, residual, tail, winding, reality, negative_part, symmetry)


def _circle_values(loop: LaurentLoop, m_samples: int) -> np.ndarray:
    """Values of a loop at ``circle_points(m_samples)``, by one inverse FFT.

    At the M-th roots of unity z^d depends only on d mod M, so coefficient d
    goes into slot d mod M and the sum is exact for any window.  A window
    wider than M folds in chunks of M degrees, whose slots are distinct.
    """
    slots = np.zeros((m_samples, loop.n, loop.n), dtype=complex)
    where = np.arange(loop.lo, loop.hi + 1) % m_samples
    for k in range(0, loop.span, m_samples):
        slots[where[k : k + m_samples]] += loop.coeffs[k : k + m_samples]
    return np.fft.ifft(slots, axis=0, norm="forward")


def circle_symmetry_residual(loop: LaurentLoop, m_samples: int = 256) -> float:
    """Max over circle samples of ||g(z) g(-z)^T - I||.

    ``m_samples`` must be even: then -z_m = z_{m + M/2}, so g(-z) is the
    samples of g rolled by a half-turn.
    """
    if m_samples % 2:
        raise ValueError(f"sample count must be even, got {m_samples}")
    return _symmetry_residual(_circle_values(loop, m_samples))


def _symmetry_residual(vals: np.ndarray) -> float:
    """Max ||g(z) g(-z)^T - I|| over an even count of circle samples of g."""
    flipped = np.roll(vals, -(len(vals) // 2), axis=0)
    return _max_norm(vals @ flipped.transpose(0, 2, 1) - np.eye(vals.shape[1]))


def _max_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over a nonempty stack of complex matrices.

    Squares are summed by the dot products np.linalg.norm uses on one
    matrix, so the result equals the largest per-matrix norm bit for bit.
    """
    flat = stack.reshape(len(stack), -1)
    sq = np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)
    return float(np.sqrt(sq).max())


def _conjugation_coeffs(g: LaurentLoop, x0: BILoop) -> np.ndarray:
    """The z^0 and z^1 coefficients of g(-z)^T X0(z) g(z), stacked (2, n, n).

    With P = g(-z)^T X0, each c_d = sum_i P_i G_{d-i} takes the products of
    all its pairs in one stacked einsum and adds them onto +0.0 in order of
    i, as :func:`~biflow.laurent.mul` sums them, so it equals the
    coefficient of the full product bit for bit.
    """
    p = mul(g.transpose_flip(), x0.loop())
    c = np.zeros((2, x0.n, x0.n))
    for d in (0, 1):
        lo, hi = max(p.lo, d - g.hi), min(p.hi, d - g.lo)  # degrees i of P that reach c_d
        if lo <= hi:
            i = np.arange(lo, hi + 1)
            terms = np.einsum("kab,kbc->kac", p.coeffs[i - p.lo], g.coeffs[d - i - g.lo])
            c[d] = np.add.reduce(terms, axis=0, initial=0.0)
    return c


def conjugated_states(factors: BirkhoffFactors, x0: BILoop) -> tuple[np.ndarray, np.ndarray]:
    """Flowed state from each factor: z^0 coefficient of g^-1 X0 g.

    Inverses go through the loop symmetry g^-1(z) = g(-z)^T, and only the
    two coefficients the checks read are formed.  The z^1 coefficient must
    reproduce the frozen N and the two factors must agree; both checks
    raise :class:`FactorizationError` on failure.
    """
    out = []
    for g in (factors.g_minus, factors.g_plus):
        c0, c1 = _conjugation_coeffs(g, x0)
        n_err = np.linalg.norm(c1 - x0.N)
        if n_err > N_TOL:
            raise FactorizationError(f"z^1 coefficient drifted from N by {n_err:.3e}")
        sym_err = np.linalg.norm(c0 - c0.T)
        if sym_err > N_TOL:
            raise FactorizationError(f"flowed state asymmetric by {sym_err:.3e}")
        out.append(0.5 * (c0 + c0.T))
    s_minus, s_plus = out
    gap = np.linalg.norm(s_minus - s_plus)
    if gap > AGREE_TOL:
        raise FactorizationError(f"factor conjugations disagree by {gap:.3e}")
    return s_minus, s_plus


def solve_by_factorization(x0: BILoop, idx: IntegralIndex, t: float) -> np.ndarray:
    """State of the (k, l) flow at time t by Birkhoff factorization.

    The circle sampling and the start depth are the defaults of
    :func:`sample_exp` and :func:`birkhoff`.
    """
    if t == 0.0:
        return x0.S
    factors = birkhoff(sample_exp(generator(x0, idx), t))
    return conjugated_states(factors, x0)[0]
