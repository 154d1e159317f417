"""Dense real matrix foundation.

Symmetric and skew-symmetric value types with exact-by-storage structure,
commutators, characteristic polynomials by the Faddeev-LeVerrier
recursion, a cyclic Jacobi eigensolver, Gram-matrix numerical rank, and a
reproducible counter-based random generator.

Everything here is desk scale (n <= 64, dense, float64).  Values are
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "SymMatrix",
    "SkewMatrix",
    "SplitMix64",
    "NumericalError",
    "JacobiConvergenceError",
    "ResampleCapError",
    "as_stack",
    "as_matrix",
    "commutator",
    "char_poly",
    "eval_poly",
    "eigenvalues_sym",
    "numerical_rank",
    "skew_spectrum_is_simple",
    "random_matrix",
    "random_orthogonal",
    "random_sym",
    "random_skew_simple",
]

_U64 = (1 << 64) - 1

STRUCTURE_TOL = 1e-12  # relative asymmetry (or skew defect) from_full accepts
RANK_TOL = 1e-8  # singular values counted by numerical_rank, relative to the largest
SIMPLE_GAP = 1e-6  # least separation of the skew spectrum values read as simple
MAX_RESAMPLES = 100  # draws random_skew_simple makes before it gives up


class NumericalError(RuntimeError):
    """A computation left the region where its result can be trusted.

    Base class of every numerical failure in the package; the command line
    reports one as a failing gate named after the error class.
    """


class JacobiConvergenceError(NumericalError):
    """Jacobi sweeps exhausted before the off-diagonal norm target."""


class ResampleCapError(NumericalError):
    """Rejection sampling failed to produce an admissible matrix."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@cache
def _tril(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(n, k), built once per (n, k) and shared read-only."""
    rows, cols = np.tril_indices(n, k)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def as_stack(x) -> np.ndarray:
    """Coerce a SymMatrix/SkewMatrix/array-like to finite float matrices (..., n, n).

    Complex input is refused, not cast: the cast would drop its imaginary part.
    """
    if isinstance(x, (SymMatrix, SkewMatrix)):
        return x.full()
    a = np.asarray(x)
    if a.dtype != float:
        if a.dtype.kind == "c":
            raise ValueError("expected real matrices, got complex entries")
        a = a.astype(float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix(x) -> np.ndarray:
    """Coerce a SymMatrix/SkewMatrix/array-like to a square float ndarray."""
    a = as_stack(x)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix stored by its lower triangle.

    Materialization writes the stored triangle into both halves, so the
    full matrix satisfies ``P == P.T`` exactly, not merely to rounding.
    """

    n: int
    packed: np.ndarray  # lower triangle, row-major, length n*(n+1)/2

    def __post_init__(self):
        packed = _freeze(self.packed).ravel()
        if packed.size != self.n * (self.n + 1) // 2:
            raise ValueError("packed length does not match dimension")
        if not np.isfinite(packed).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_full(cls, a) -> "SymMatrix":
        """Build from a full matrix that is already symmetric within ``STRUCTURE_TOL``."""
        a = as_matrix(a)
        dev = np.linalg.norm(a - a.T)
        if dev > STRUCTURE_TOL * max(1.0, np.linalg.norm(a)):
            raise ValueError(f"matrix is not symmetric (deviation {dev:.3e})")
        return cls(a.shape[0], a[_tril(a.shape[0])])

    @classmethod
    def symmetric_part(cls, a) -> "SymMatrix":
        """Project a full matrix onto its symmetric part (A + A^T)/2."""
        a = as_matrix(a)
        s = 0.5 * (a + a.T)
        return cls(a.shape[0], s[_tril(a.shape[0])])

    @classmethod
    def zero(cls, n: int) -> "SymMatrix":
        return cls(n, np.zeros(n * (n + 1) // 2))

    def full(self) -> np.ndarray:
        p = np.zeros((self.n, self.n))
        il = _tril(self.n)
        p[il] = self.packed
        p.T[il] = self.packed
        return p

    def norm(self) -> float:
        return float(np.linalg.norm(self.full()))


@dataclass(frozen=True)
class SkewMatrix:
    """Real skew-symmetric matrix stored by its strict lower triangle.

    Materialization gives ``K == -K.T`` exactly, with an exactly zero
    diagonal.
    """

    n: int
    packed: np.ndarray  # strict lower triangle, row-major, length n*(n-1)/2

    def __post_init__(self):
        packed = _freeze(self.packed).ravel()
        if packed.size != self.n * (self.n - 1) // 2:
            raise ValueError("packed length does not match dimension")
        if not np.isfinite(packed).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_full(cls, a) -> "SkewMatrix":
        """Build from a full matrix that is already skew within ``STRUCTURE_TOL``."""
        a = as_matrix(a)
        dev = np.linalg.norm(a + a.T)
        if dev > STRUCTURE_TOL * max(1.0, np.linalg.norm(a)):
            raise ValueError(f"matrix is not skew-symmetric (deviation {dev:.3e})")
        return cls(a.shape[0], a[_tril(a.shape[0], -1)])

    @classmethod
    def skew_part(cls, a) -> "SkewMatrix":
        """Project a full matrix onto its skew part (A - A^T)/2."""
        a = as_matrix(a)
        k = 0.5 * (a - a.T)
        return cls(a.shape[0], k[_tril(a.shape[0], -1)])

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
        return cls(n, np.zeros(n * (n - 1) // 2))

    def full(self) -> np.ndarray:
        k = np.zeros((self.n, self.n))
        il = _tril(self.n, -1)
        k[il] = self.packed
        return k - k.T

    def norm(self) -> float:
        return float(np.linalg.norm(self.full()))


def commutator(a, b) -> np.ndarray:
    """Matrix commutator AB - BA."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def char_poly(a) -> np.ndarray:
    """Coefficients of det(A - w*I), ascending in w, for one matrix or a stack.

    Computed by the Faddeev-LeVerrier recursion, one matrix product per
    step.  The result has shape (..., n+1) with leading coefficient (-1)^n.
    """
    a = as_stack(a)
    n = a.shape[-1]
    if n < 1:
        raise ValueError("dimension must be at least 1")
    # det(wI - A) = sum_k c[k] w^(n-k) with c[0] = 1, from M_k = A M_{k-1} + c[k-1] I
    # and c[k] = -tr(A M_k) / k; am holds A M_k, which also gives M_{k+1}.
    c = np.zeros(a.shape[:-2] + (n + 1,))
    c[..., 0] = 1.0
    am = np.zeros_like(a)
    for k in range(1, n + 1):
        am = a @ (am + c[..., k - 1, None, None] * np.eye(n))
        c[..., k] = -np.trace(am, axis1=-2, axis2=-1) / k
    sign = -1.0 if n % 2 else 1.0
    return sign * c[..., ::-1]


def eval_poly(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Evaluate an ascending-coefficient polynomial at a matrix argument."""
    a = as_matrix(a)
    out = np.zeros_like(a)
    for ck in coeffs[::-1]:
        out = out @ a + ck * np.eye(a.shape[0])
    return out


def eigenvalues_sym(s, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    Terminates once the off-diagonal Frobenius norm falls below
    ``tol * ||S||_F``.  Raises :class:`JacobiConvergenceError` after
    ``max_sweeps`` full sweeps, which signals pathological input.
    """
    a = as_matrix(s) if not isinstance(s, SymMatrix) else s.full()
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    a = 0.5 * (a + a.T)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n)

    def off_norm(m):
        return np.linalg.norm(m - np.diag(np.diag(m)))

    for _ in range(max_sweeps):
        if off_norm(a) <= tol * scale:
            return np.sort(a.diagonal())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                rot_p = a[:, p].copy()
                rot_q = a[:, q].copy()
                a[:, p] = c * rot_p - sn * rot_q
                a[:, q] = sn * rot_p + c * rot_q
                rot_p = a[p, :].copy()
                rot_q = a[q, :].copy()
                a[p, :] = c * rot_p - sn * rot_q
                a[q, :] = sn * rot_p + c * rot_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    if off_norm(a) <= tol * scale:
        return np.sort(a.diagonal())
    raise JacobiConvergenceError(f"off-diagonal norm {off_norm(a):.3e} after {max_sweeps} sweeps")


def numerical_rank(mats) -> int:
    """Rank of a family of matrices under the trace inner product.

    Forms the Gram matrix G_ij = tr(A_i^T A_j) of the vectorized inputs and
    counts its singular values above ``RANK_TOL`` times the largest one.
    The family is a (P, n, n) stack or a sequence of n x n arrays, checked
    as one stack; a 4-D stack is refused.  :func:`_gram_ranks` counts over leading batch axes.
    """
    if len(mats) == 0:
        return 0
    if len({np.shape(m) for m in mats}) != 1:
        raise ValueError("all matrices must share one dimension")
    v = as_stack(mats)
    if v.ndim != 3:
        raise ValueError(f"expected a family of square matrices, got shape {v.shape}")
    return int(_gram_ranks(v.reshape(len(v), -1)))


def _gram_ranks(v: np.ndarray) -> np.ndarray:
    """Rank of the rows of each (P, k) matrix in a (..., P, k) stack, as numerical_rank counts it."""
    svals = np.linalg.svd(v @ v.swapaxes(-1, -2), compute_uv=False)
    return np.sum(svals > RANK_TOL * svals[..., :1], axis=-1)


class SplitMix64:
    """Counter-based 64-bit generator (SplitMix64).

    The state advances by the golden-ratio increment 0x9E3779B97F4A7C15 and
    each output is a fixed avalanche of the counter, so sequences are
    reproducible on any platform independent of numpy's RNG internals.
    """

    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * self._MIX1) & _U64
        z = ((z ^ (z >> 27)) * self._MIX2) & _U64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [-1, 1) from the top 53 bits."""
        return -1.0 + 2.0 * ((self.next_u64() >> 11) / float(1 << 53))

    def matrix(self, n: int, m: int | None = None) -> np.ndarray:
        """n x m uniforms in [-1, 1), row by row: the next n*m values of :meth:`uniform`.

        Entry i mixes the counter state + (i+1)*GAMMA in wrapping uint64
        arithmetic; the state then advances by n*m increments at once.
        """
        m = n if m is None else m
        count = n * m
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(self._GAMMA)
        z = np.uint64(self._state) + steps
        z = (z ^ (z >> np.uint64(30))) * np.uint64(self._MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(self._MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * self._GAMMA) & _U64
        return (-1.0 + 2.0 * ((z >> np.uint64(11)).astype(float) / float(1 << 53))).reshape(n, m)


def random_matrix(n: int, seed: int) -> np.ndarray:
    """n x n matrix with i.i.d. uniform entries in [-1, 1)."""
    return SplitMix64(seed).matrix(n)


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Random orthogonal matrix from the QR factor of a uniform sample."""
    q, r = np.linalg.qr(random_matrix(n, seed))
    return q * np.sign(np.diag(r))


def random_sym(n: int, seed: int) -> SymMatrix:
    """Symmetrized uniform random matrix."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return SymMatrix.symmetric_part(random_matrix(n, seed))


def random_skew_simple(n: int, seed: int) -> SkewMatrix:
    """Antisymmetrized uniform random matrix with simple spectrum.

    A real skew matrix has eigenvalues in pairs +-i*lambda_j; its singular
    values are those lambda_j, each doubled.  Up to ``MAX_RESAMPLES`` samples
    are drawn until the distinct pair values are separated by more than
    ``SIMPLE_GAP`` and the smallest exceeds it, the numerical proxy for a
    simple spectrum.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = SplitMix64(seed)
    for _ in range(MAX_RESAMPLES):
        k = SkewMatrix.skew_part(rng.matrix(n))
        if skew_spectrum_is_simple(k):
            return k
    raise ResampleCapError(f"no simple-spectrum sample in {MAX_RESAMPLES} draws")


def skew_spectrum_is_simple(k: SkewMatrix | np.ndarray) -> bool:
    """True when the +-i*lambda pairs of a skew matrix are separated by ``SIMPLE_GAP``."""
    svals = np.linalg.svd(as_matrix(k), compute_uv=False)
    lams = svals[::2][: svals.size // 2]
    return bool(lams.size and lams[-1] > SIMPLE_GAP and np.all(-np.diff(lams) > SIMPLE_GAP))
