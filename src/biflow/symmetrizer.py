"""The two-letter symmetrizer calculus.

sym_{ij}(A, B) is the sum of all words of length i+j containing i copies of
A and j copies of B.  The production path is the memoized two-sided
recursion

    sym_{i+1,j+1} = A sym_{i,j+1} + B sym_{i+1,j}
                  = sym_{i,j+1} A + sym_{i+1,j} B,

which costs O(i*j) matrix products; explicit word enumeration is kept as a
small-degree oracle.  On top of the table sit the executable identities the
hierarchy rests on: the commutator cancellation

    [sym_{i,j+1}, A] + [sym_{i+1,j}, B] = 0,

the symmetric/skew parity of sym_{ij}(S, N), the Cayley-Hamilton dependence
of the degree-n symmetrizers on lower degrees, and the generic linear
independence of all symmetrizers of degree below n (with an explicit
geometric-progression witness pair).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .matcore import SkewMatrix, SymMatrix, as_matrix, as_stack, commutator, numerical_rank

__all__ = [
    "SymmetrizerTable",
    "sym",
    "sym_enumerated",
    "lemma_a_residual",
    "parity_check",
    "cayley_hamilton_dependence",
    "witness_pair",
    "generic_independence",
]


class SymmetrizerTable:
    """Memoized table of sym_{ij}(A, B) for i + j up to a degree cap."""

    def __init__(self, a, b, degree_cap: int):
        self.a = as_matrix(a)
        self.b = as_matrix(b)
        if self.a.shape != self.b.shape:
            raise ValueError("A and B must share one dimension")
        if degree_cap < 0:
            raise ValueError("degree cap must be nonnegative")
        self.degree_cap = degree_cap
        n = self.a.shape[0]
        self._table: dict[tuple[int, int], np.ndarray] = {(0, 0): np.eye(n)}
        for d in range(1, degree_cap + 1):
            for i in range(d + 1):
                j = d - i
                if i == 0:
                    val = self.b @ self._table[(0, j - 1)]
                elif j == 0:
                    val = self.a @ self._table[(i - 1, 0)]
                else:
                    val = self.a @ self._table[(i - 1, j)] + self.b @ self._table[(i, j - 1)]
                self._table[(i, j)] = val

    def get(self, i: int, j: int) -> np.ndarray:
        if i < 0 or j < 0:
            raise ValueError("indices must be nonnegative")
        if i + j > self.degree_cap:
            raise ValueError(f"degree {i + j} beyond table cap {self.degree_cap}")
        return self._table[(i, j)]

    def right_recursion(self, i: int, j: int) -> np.ndarray:
        """sym_{ij} rebuilt from the right-sided recursion (consistency probe)."""
        if i + j == 0:
            return self.get(0, 0)
        if i == 0:
            return self.get(0, j - 1) @ self.b
        if j == 0:
            return self.get(i - 1, 0) @ self.a
        return self.get(i - 1, j) @ self.a + self.get(i, j - 1) @ self.b


def sym(a, b, i: int, j: int, table: SymmetrizerTable | None = None) -> np.ndarray:
    """sym_{ij}(A, B) via the memoized recursion.

    Without a table only the (i+1) x (j+1) rectangle of entries that
    sym_{ij} depends on is built, row by row in i, with the products of
    :class:`SymmetrizerTable`.  A and B may be stacks of shape (..., n, n)
    that broadcast against each other.
    """
    if table is not None:
        return table.get(i, j)
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    a = as_stack(a)
    b = as_stack(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("A and B must share one dimension")
    if i + j <= 1:  # sym_{00} = I; a copy, since the kernel returns A or B itself
        return np.eye(a.shape[-1]) if i + j == 0 else (a if i else b).copy()
    return _sym(a, b, i, j)


def _sym(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """Unchecked sym_{ij}(A, B), i + j >= 1: the recursion of :func:`sym` started
    from A and B, not I.  X @ I is an exact copy of X, so the bits agree."""
    row = [b]  # row[c - 1] = sym_{r,c}, here for r = 0
    for _ in range(j - 1):
        row.append(b @ row[-1])
    for r in range(i):
        col = a @ col if r else a  # sym_{r+1,0}
        nxt = [col]
        for c in range(j):
            nxt.append(a @ row[c] + b @ nxt[-1])
        row = nxt[1:]
    return row[-1] if j else col


def sym_enumerated(a, b, i: int, j: int) -> np.ndarray:
    """Oracle: sum over all C(i+j, i) explicit words.  Exponential cost."""
    a = as_matrix(a)
    b = as_matrix(b)
    n = a.shape[0]
    total = np.zeros((n, n))
    length = i + j
    if length == 0:
        return np.eye(n)
    for positions in combinations(range(length), i):
        word = np.eye(n)
        pos = set(positions)
        for slot in range(length):
            word = word @ (a if slot in pos else b)
        total += word
    return total


def lemma_a_residual(a, b, i: int, j: int) -> float:
    """Norm of [sym_{i,j+1}, A] + [sym_{i+1,j}, B]; zero in exact arithmetic."""
    table = SymmetrizerTable(a, b, i + j + 1)
    resid = commutator(table.get(i, j + 1), table.a) + commutator(table.get(i + 1, j), table.b)
    return float(np.linalg.norm(resid))


def parity_check(s: SymMatrix, n: SkewMatrix, i: int, j: int, tol: float = 1e-13) -> bool:
    """True iff sym_{ij}(S, N) is symmetric for even j and skew for odd j."""
    m = sym(s.full(), n.full(), i, j)
    scale = max(1.0, np.linalg.norm(m))
    if j % 2 == 0:
        return bool(np.linalg.norm(m - m.T) <= tol * scale)
    return bool(np.linalg.norm(m + m.T) <= tol * scale)


def cayley_hamilton_dependence(a, b) -> float:
    """Worst relative misfit of degree-n symmetrizers against lower degrees.

    Each sym_{n-l,l} is a linear combination of the symmetrizers of degree
    below n (Cayley-Hamilton applied to A + z B, collected by powers of z).
    Returns the largest least-squares relative residual over l = 0..n.
    """
    a = as_matrix(a)
    n = a.shape[0]
    table = SymmetrizerTable(a, b, n)
    basis = np.stack(
        [table.get(r, s).ravel() for d in range(n) for r in range(d + 1) for s in [d - r]],
        axis=1,
    )
    worst = 0.0
    for ell in range(n + 1):
        target = table.get(n - ell, ell).ravel()
        tnorm = np.linalg.norm(target)
        if tnorm == 0.0:
            continue
        coef, _, _, _ = np.linalg.lstsq(basis, target, rcond=None)
        rel = np.linalg.norm(basis @ coef - target) / tnorm
        worst = max(worst, float(rel))
    return worst


def witness_pair(n: int, c: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Explicit pair with independent symmetrizers of degree below n.

    A* is diagonal with entries in geometric progression c, c^2, ..., c^n
    and B* carries ones on the first subdiagonal, so sym_{k-l,l}(A*, B*) is
    supported on the single subdiagonal r - s = l with entries in geometric
    progression; independence reduces to distinct ratios, which holds for
    any c > 0, c != 1.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    a = np.diag([float(c) ** k for k in range(1, n + 1)])
    b = np.zeros((n, n))
    for r in range(1, n):
        b[r, r - 1] = 1.0
    return a, b


def degree_below(n: int) -> list[tuple[int, int]]:
    """All symmetrizer indices (i, j) with i + j < n."""
    return [(r, d - r) for d in range(n) for r in range(d + 1)]


def generic_independence(s: SymMatrix, n: SkewMatrix, tol: float = 1e-8) -> int:
    """Rank of the family of all symmetrizers of degree below n.

    Equals n(n+1)/2 for generic (S, N); collapses on degenerate pairs such
    as S proportional to the identity.
    """
    dim = s.n
    table = SymmetrizerTable(s.full(), n.full(), dim - 1)
    family = [table.get(i, j) for i, j in degree_below(dim)]
    return numerical_rank(family, tol)
