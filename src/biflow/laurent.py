"""Finite matrix Laurent series and the loop-algebra operations on them.

A loop is a finite sum X(z) = sum_j X_j z^j of real n x n coefficient
matrices.  This module supplies the Cauchy product, the splitting into
nonnegative/negative degree parts, the involution sigma(X)(z) = -X(-z)^T
with its fixed-locus and dual-locus parity tests, the residue pairing
(X, Y) = sum_j tr(X_j Y_{-j-1}), the factorization (R-) bracket, truncated
exponentials for generating group elements near the identity, inversion
through the loop-group symmetry g(z) g(-z)^T = I, and the coadjoint action
built from those pieces.

All arithmetic is exact on finite windows, and loops are immutable after
construction.
"""

from __future__ import annotations

import numpy as np

from .matcore import NumericalError, SkewMatrix, SplitMix64, SymMatrix, as_matrix

__all__ = [
    "LaurentLoop",
    "BILoop",
    "LoopSymmetryError",
    "LoopConvergenceError",
    "mul",
    "loop_commutator",
    "loop_power",
    "symmetry_defect",
    "proj_plus",
    "proj_minus",
    "sigma",
    "is_sigma_fixed",
    "is_sigma_star",
    "pairing",
    "rbracket",
    "rbracket_via_r",
    "exp_truncated",
    "loop_inverse_by_symmetry",
    "coadjoint",
    "random_sigma_fixed_loop",
    "random_dual_loop",
]

EXP_TOL = 1e-14  # largest norm of the last term exp_truncated sums
EXP_MAX_TERMS = 500  # terms exp_truncated sums before it gives up
SYMMETRY_TOL = 1e-10  # largest defect of g(z) g(-z)^T = I an inverse accepts


class LoopSymmetryError(ValueError):
    """Loop does not satisfy g(z) g(-z)^T = I within tolerance."""


class LoopConvergenceError(NumericalError):
    """Truncated exponential failed to converge within the term cap."""


class LaurentLoop:
    """Immutable finite Laurent series with matrix coefficients.

    Zero coefficients at the window edges are trimmed on construction, so
    equal loops have identical windows regardless of how they were built.
    The zero loop is canonically stored with window [0, 0].
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs):
        arr = np.array(coeffs, dtype=float, order="C")  # one layout, however the stack was built
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"coefficients must be stacked square matrices, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        nz = np.flatnonzero(arr.reshape(len(arr), -1).any(axis=1))
        if not nz.size:
            lo, arr = 0, np.zeros((1, arr.shape[1], arr.shape[2]))
        else:
            lo, arr = lo + int(nz[0]), arr[nz[0] : nz[-1] + 1]
        arr.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentLoop is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentLoop":
        return cls(0, np.zeros((1, n, n)))

    @classmethod
    def identity(cls, n: int) -> "LaurentLoop":
        return cls(0, np.eye(n)[None])

    @classmethod
    def monomial(cls, mat, degree: int) -> "LaurentLoop":
        return cls(degree, as_matrix(mat)[None])

    @classmethod
    def from_terms(cls, terms: dict[int, np.ndarray], n: int | None = None) -> "LaurentLoop":
        if not terms:
            if n is None:
                raise ValueError("empty loop needs an explicit dimension")
            return cls.zero(n)
        lo, hi = min(terms), max(terms)
        dim = as_matrix(next(iter(terms.values()))).shape[0]
        arr = np.zeros((hi - lo + 1, dim, dim))
        for deg, mat in terms.items():
            arr[deg - lo] = as_matrix(mat)
        return cls(lo, arr)

    # -- basic structure -------------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @property
    def span(self) -> int:
        return self.hi - self.lo + 1

    def coeff(self, degree: int) -> np.ndarray:
        """Coefficient of z^degree (zeros outside the window)."""
        if self.lo <= degree <= self.hi:
            return self.coeffs[degree - self.lo]
        return np.zeros((self.n, self.n))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def norm(self) -> float:
        """Largest coefficient Frobenius norm."""
        return float(max(np.linalg.norm(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def evaluate(self, z) -> np.ndarray:
        """Value of the loop at one point of C*, or at each of an array of points.

        A scalar ``z`` gives an (n, n) matrix; an array of shape (M,) gives
        the (M, n, n) stack of values.
        """
        zs = np.asarray(z, dtype=complex)
        out = np.zeros(zs.shape + (self.n, self.n), dtype=complex)
        for k, deg in enumerate(self.degrees()):
            # np.power, not **: on arrays the operator computes the exponents
            # -1 and 2 by other routines, which round differently.
            out += self.coeffs[k] * np.power(zs, deg)[..., None, None]
        return out

    def restrict(self, lo: int, hi: int) -> "LaurentLoop":
        """Keep only degrees in [lo, hi]."""
        terms = {d: self.coeff(d) for d in self.degrees() if lo <= d <= hi}
        return LaurentLoop.from_terms(terms, self.n)

    def shift(self, k: int) -> "LaurentLoop":
        """Multiply by z^k."""
        return LaurentLoop(self.lo + k, self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "LaurentLoop") -> "LaurentLoop":
        self._check_dim(other)
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        arr = np.zeros((hi - lo + 1, self.n, self.n))
        arr[self.lo - lo : self.hi - lo + 1] += self.coeffs
        arr[other.lo - lo : other.hi - lo + 1] += other.coeffs
        return LaurentLoop(lo, arr)

    def __sub__(self, other: "LaurentLoop") -> "LaurentLoop":
        return self + (-other)

    def __neg__(self) -> "LaurentLoop":
        return LaurentLoop(self.lo, -self.coeffs)

    def __rmul__(self, scalar: float) -> "LaurentLoop":
        return LaurentLoop(self.lo, float(scalar) * self.coeffs)

    def transpose_flip(self) -> "LaurentLoop":
        """The loop z -> X(-z)^T, coefficient j -> (-1)^j X_j^T."""
        signs = np.where(np.arange(self.lo, self.hi + 1) % 2, -1.0, 1.0)
        return LaurentLoop(self.lo, signs[:, None, None] * self.coeffs.transpose(0, 2, 1))

    def _check_dim(self, other: "LaurentLoop"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        return f"LaurentLoop(window=[{self.lo},{self.hi}], n={self.n})"


class BILoop:
    """The dual-space loop S + z N with exact symmetric/skew coefficients."""

    __slots__ = ("S", "N")

    def __init__(self, S: SymMatrix, N: SkewMatrix):
        if S.n != N.n:
            raise ValueError(f"dimension mismatch: {S.n} vs {N.n}")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "N", N)

    def __setattr__(self, name, value):
        raise AttributeError("BILoop is immutable")

    @property
    def n(self) -> int:
        return self.S.n

    def loop(self) -> LaurentLoop:
        return LaurentLoop(0, np.stack([self.S.full(), self.N.full()]))

    def __repr__(self):
        return f"BILoop(n={self.n})"


def mul(x: LaurentLoop, y: LaurentLoop) -> LaurentLoop:
    """Cauchy product of two loops.

    The result window is the sum of the factor windows.  One stacked
    product per coefficient of the shorter factor: x_i times all of y in
    order of i, or all of x times y_j from the last j to the first.  Either
    way each coefficient is the sum of x_i y_{m-i} in increasing order of
    i, so both give the same bits.
    """
    x._check_dim(y)
    lo = x.lo + y.lo
    hi = x.hi + y.hi
    arr = np.zeros((hi - lo + 1, x.n, x.n))
    lx, ly = len(x.coeffs), len(y.coeffs)
    if lx <= ly:
        for i, ci in enumerate(x.coeffs):
            arr[i : i + ly] += np.einsum("ab,kbc->kac", ci, y.coeffs)
    else:
        for j in range(ly - 1, -1, -1):
            arr[j : j + lx] += np.einsum("kab,bc->kac", x.coeffs, y.coeffs[j])
    return LaurentLoop(lo, arr)


def loop_commutator(x: LaurentLoop, y: LaurentLoop) -> LaurentLoop:
    return mul(x, y) - mul(y, x)


def loop_power(x: LaurentLoop, k: int) -> LaurentLoop:
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = LaurentLoop.identity(x.n)
    for _ in range(k):
        out = mul(out, x)
    return out


def proj_plus(x: LaurentLoop) -> LaurentLoop:
    """Keep degrees >= 0."""
    return x.restrict(0, max(x.hi, 0))


def proj_minus(x: LaurentLoop) -> LaurentLoop:
    """Keep degrees < 0."""
    return x.restrict(min(x.lo, -1), -1)


def sigma(x: LaurentLoop) -> LaurentLoop:
    """The involution (sigma X)(z) = -X(-z)^T."""
    return -x.transpose_flip()


def is_sigma_fixed(x: LaurentLoop, tol: float = 0.0) -> bool:
    """Fixed-locus parity: even-degree coefficients skew, odd symmetric."""
    return _parity_holds(x, even_skew=True, tol=tol)


def is_sigma_star(x: LaurentLoop, tol: float = 0.0) -> bool:
    """Dual-locus parity: even-degree coefficients symmetric, odd skew."""
    return _parity_holds(x, even_skew=False, tol=tol)


def _parity_holds(x: LaurentLoop, even_skew: bool, tol: float) -> bool:
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    for d in x.degrees():
        c = x.coeff(d)
        skew_here = (d % 2 == 0) == even_skew
        dev = np.linalg.norm(c + c.T) if skew_here else np.linalg.norm(c - c.T)
        if dev > tol * max(1.0, np.linalg.norm(c)):
            return False
    return True


def pairing(x: LaurentLoop, y: LaurentLoop) -> float:
    """Residue pairing (X, Y) = sum_j tr(X_j Y_{-j-1}); exact finite sum."""
    x._check_dim(y)
    total = 0.0
    for d in x.degrees():
        e = -d - 1
        if y.lo <= e <= y.hi:
            total += float(np.trace(x.coeff(d) @ y.coeff(e)))
    return total


def rbracket(x: LaurentLoop, y: LaurentLoop) -> LaurentLoop:
    """Factorization bracket [P+X, P+Y] - [P-X, P-Y]."""
    plus = loop_commutator(proj_plus(x), proj_plus(y))
    minus = loop_commutator(proj_minus(x), proj_minus(y))
    return plus - minus


def rbracket_via_r(x: LaurentLoop, y: LaurentLoop) -> LaurentLoop:
    """Same bracket as ([RX, Y] + [X, RY]) / 2 with R = P+ - P-."""
    rx = proj_plus(x) - proj_minus(x)
    ry = proj_plus(y) - proj_minus(y)
    return 0.5 * (loop_commutator(rx, y) + loop_commutator(x, ry))


def exp_truncated(x: LaurentLoop, window: tuple[int, int]) -> LaurentLoop:
    """Partial sum of exp(X) restricted to a degree window.

    X must be one-sided (all degrees negative, or all nonnegative) so that
    coefficients dropped outside the window can never flow back in; the sum
    stops once the window-restricted norm of the next term drops below
    ``EXP_TOL``, and raises :class:`LoopConvergenceError` after
    ``EXP_MAX_TERMS`` terms.
    """
    lo_w, hi_w = window
    if lo_w > hi_w:
        raise ValueError("empty window")
    if not (0 >= lo_w and 0 <= hi_w):
        raise ValueError("window must contain degree zero (exp has unit constant term)")
    if not (x.hi <= -1 or x.lo >= 0) and not x.is_zero():
        raise ValueError("exponent must be one-sided in degree")
    out = LaurentLoop.identity(x.n)
    term = LaurentLoop.identity(x.n)
    for m in range(1, EXP_MAX_TERMS + 1):
        term = (1.0 / m) * mul(term, x)
        term = term.restrict(lo_w, hi_w)
        if term.is_zero() or term.norm() < EXP_TOL:
            if not term.is_zero():
                out = out + term
            return out
        out = out + term
    raise LoopConvergenceError(f"exponential did not converge in {EXP_MAX_TERMS} terms")


def symmetry_defect(g: LaurentLoop) -> float:
    """Deviation of g(z) g(-z)^T from the identity on g's own degree window.

    Outside that window a truncated group element cannot cancel its own
    dropped tail, so only in-window degrees are meaningful.
    """
    prod = mul(g, g.transpose_flip()) - LaurentLoop.identity(g.n)
    prod = prod.restrict(min(g.lo, 0), max(g.hi, 0))
    return 0.0 if prod.is_zero() else prod.norm()


def loop_inverse_by_symmetry(g: LaurentLoop) -> LaurentLoop:
    """Inverse z -> g(-z)^T of a loop satisfying g(z) g(-z)^T = I.

    Raises :class:`LoopSymmetryError` when the symmetry fails beyond
    ``SYMMETRY_TOL`` on the loop's own window.
    """
    defect = symmetry_defect(g)
    if defect > SYMMETRY_TOL:
        raise LoopSymmetryError(f"loop symmetry violated (defect {defect:.3e})")
    return g.transpose_flip()


def coadjoint(g_plus: LaurentLoop, g_minus: LaurentLoop, x: LaurentLoop) -> LaurentLoop:
    """Coadjoint action P-(g+^-1 X g+) + P+(g-^-1 X g-).

    Inverses are taken through the loop symmetry.  Both factors must hold
    it, and g- its unit constant term, to ``SYMMETRY_TOL``.  Because g+
    carries only nonnegative degrees and g- only nonpositive ones with unit
    constant term, the output window is contained in that of X by
    construction.
    """
    if g_plus.lo < 0:
        raise ValueError("g_plus must have nonnegative degrees")
    if g_minus.hi > 0 or np.linalg.norm(g_minus.coeff(0) - np.eye(g_minus.n)) > SYMMETRY_TOL:
        raise ValueError("g_minus must have nonpositive degrees and unit constant term")
    gp_inv = loop_inverse_by_symmetry(g_plus)
    gm_inv = loop_inverse_by_symmetry(g_minus)
    part_minus = proj_minus(mul(mul(gp_inv, x), g_plus))
    part_plus = proj_plus(mul(mul(gm_inv, x), g_minus))
    return part_minus + part_plus


def random_sigma_fixed_loop(
    n: int, lo: int, hi: int, seed: int, scale: float = 1.0
) -> LaurentLoop:
    """Random loop in the fixed locus: even degrees skew, odd symmetric."""
    rng = SplitMix64(seed)
    terms = {}
    for d in range(lo, hi + 1):
        a = scale * rng.matrix(n)
        terms[d] = 0.5 * (a - a.T) if d % 2 == 0 else 0.5 * (a + a.T)
    return LaurentLoop.from_terms(terms, n)


def random_dual_loop(n: int, lo: int, hi: int, seed: int, scale: float = 1.0) -> LaurentLoop:
    """Random loop in the dual locus: even degrees symmetric, odd skew."""
    rng = SplitMix64(seed)
    terms = {}
    for d in range(lo, hi + 1):
        a = scale * rng.matrix(n)
        terms[d] = 0.5 * (a + a.T) if d % 2 == 0 else 0.5 * (a - a.T)
    return LaurentLoop.from_terms(terms, n)
