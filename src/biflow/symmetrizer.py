"""The two-letter symmetrizer calculus.

sym_{ij}(A, B) is the sum of all words of length i+j containing i copies of
A and j copies of B.  Every path runs one row sweep of the two-sided recursion

    sym_{i+1,j+1} = A sym_{i,j+1} + B sym_{i+1,j}
                  = sym_{i,j+1} A + sym_{i+1,j} B,

over matrices or stacks, holding one row of the table at a time: O(i*j)
products for one entry, O(d^2) for a table to degree d.  Explicit word
enumeration is a small-degree oracle.  On top sit the executable identities the
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

from .matcore import _gram_ranks, as_matrix, as_stack, commutator

__all__ = [
    "SymmetrizerTable",
    "sym",
    "sym_enumerated",
    "cayley_hamilton_dependence",
    "witness_pair",
    "generic_independence",
]

PARITY_TOL = 1e-13  # relative asymmetry (or skew defect) has_parity accepts


class SymmetrizerTable:
    """Every sym_{ij}(A, B) with i + j up to a degree cap, from one row sweep.

    A and B may be stacks (..., n, n) of one shape; each entry is then a stack."""

    def __init__(self, a, b, degree_cap: int):
        self.a = as_stack(a)
        self.b = as_stack(b)
        if self.a.shape != self.b.shape:
            raise ValueError("A and B must share one dimension")
        if degree_cap < 0:
            raise ValueError("degree cap must be nonnegative")
        self.degree_cap = degree_cap
        # rows[i][j] = sym_{ij}; copies, as the sweep stores the A and B it gets
        rows = self._rows = [[np.zeros_like(self.a) + np.eye(self.a.shape[-1])]]
        if degree_cap:
            keep = lambda r, row: rows.append(row) if r else rows[0].extend(row[1:])
            _sweep(self.a.copy(), self.b.copy(), degree_cap, degree_cap, keep)

    def get(self, i: int, j: int) -> np.ndarray:
        if i < 0 or j < 0:
            raise ValueError("indices must be nonnegative")
        if i + j > self.degree_cap:
            raise ValueError(f"degree {i + j} beyond table cap {self.degree_cap}")
        return self._rows[i][j]

    def right_recursion(self, i: int, j: int) -> np.ndarray:
        """sym_{ij} rebuilt from the right-sided recursion (consistency probe)."""
        if i + j == 0:
            return self.get(0, 0)
        if i == 0:
            return self.get(0, j - 1) @ self.b
        if j == 0:
            return self.get(i - 1, 0) @ self.a
        return self.get(i - 1, j) @ self.a + self.get(i, j - 1) @ self.b

    def cancellation(self, i: int, j: int) -> float:
        """Norm of [sym_{i,j+1}, A] + [sym_{i+1,j}, B] for matrices; zero in exact arithmetic."""
        resid = commutator(self.get(i, j + 1), self.a) + commutator(self.get(i + 1, j), self.b)
        return float(np.linalg.norm(resid))

    def has_parity(self, i: int, j: int) -> bool:
        """For matrices, True iff sym_{ij} is symmetric for even j and skew for odd j, to ``PARITY_TOL``."""
        m = as_matrix(self.get(i, j))
        defect = m - m.T if j % 2 == 0 else m + m.T
        return bool(np.linalg.norm(defect) <= PARITY_TOL * max(1.0, np.linalg.norm(m)))


def sym(a, b, i: int, j: int) -> np.ndarray:
    """sym_{ij}(A, B) by the row sweep over the (i+1) x (j+1) rectangle it needs.

    A and B may be stacks (..., n, n) that broadcast against each other."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    a = as_stack(a)
    b = as_stack(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("A and B must share one dimension")
    if i + j <= 1:  # sym_{00} = I; a copy, since the sweep returns A or B itself
        return np.eye(a.shape[-1]) if i + j == 0 else (a if i else b).copy()
    return _sweep(a, b, i, j)


def _sweep(a: np.ndarray, b: np.ndarray, i: int, j: int, keep=None, dot=np.matmul) -> np.ndarray:
    """Unchecked sym_{ij}(A, B), i + j >= 1, from rows r = 0..i of the table.

    Only the last row is held, unless ``keep(r, row)`` takes each row as made,
    row[c] = sym_{rc} (None at r = c = 0), cut to r + c <= i (j <= i; the return
    is then unused).  The recursion starts from A and B, not I; X @ I is an
    exact copy of X, so the bits agree with the identity-seeded table.
    ``dot`` is the matrix product; ``np.ndarray.dot`` gives the same bits on
    matrices, without numpy's dispatch."""
    row = [b]  # row[c - 1] = sym_{r,c}, here for r = 0
    for _ in range(j - 1):
        row.append(dot(b, row[-1]))
    if keep is not None:
        keep(0, [None, *row[:j]])
        j = min(j, i - 1)  # the width of row 1
    for r in range(i):
        col = dot(a, col) if r else a  # sym_{r+1,0}
        nxt = [col]
        for c in range(j):
            nxt.append(dot(a, row[c]) + dot(b, nxt[-1]))
        row = nxt[1:]
        if keep is not None:
            keep(r + 1, nxt)
            j = min(j, i - r - 2)  # the width of row r + 2
    return row[-1] if row else col


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


def cayley_hamilton_dependence(a, b) -> float:
    """Worst relative misfit of degree-n symmetrizers against lower degrees.

    Each sym_{n-l,l} is a linear combination of the symmetrizers of degree
    below n (Cayley-Hamilton applied to A + z B, collected by powers of z).
    Returns the largest least-squares relative residual over l = 0..n.
    """
    a = as_matrix(a)
    n = a.shape[0]
    table = SymmetrizerTable(a, b, n)
    basis = np.stack([table.get(i, j).ravel() for i, j in degree_below(n)], axis=1)
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


def generic_independence(s, n) -> int | np.ndarray:
    """Rank of the family of all symmetrizers of degree below n.

    Equals n(n+1)/2 for generic (S, N); collapses on degenerate pairs such
    as S proportional to the identity.  S and N may also be arrays (B, n, n)
    with a leading batch axis of states: then the B ranks, from one batched SVD.
    """
    table = SymmetrizerTable(s, n, as_stack(s).shape[-1] - 1)
    family = as_stack(np.stack([table.get(i, j) for i, j in degree_below(table.degree_cap + 1)], axis=-3))
    ranks = _gram_ranks(family.reshape(*family.shape[:-2], -1))
    return ranks if ranks.ndim else int(ranks)
