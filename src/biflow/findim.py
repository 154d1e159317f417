"""Finite-dimensional realization of the flow on a nilpotent matrix group.

The unipotent group of 3n x 3n block matrices

    g(S, N) = [[I, S, S^2/2 + N],
               [0, I, S       ],
               [0, 0, I       ]]

multiplies by g(S, N) g(T, M) = g(S + T, N + M + [S, T]/2).  Its Lie
algebra and dual are realized by strictly triangular block matrices
X(S, N) and A(S~, N~), paired by the plain matrix trace, which evaluates
blockwise to 2 tr(S S~) + 2 tr(N N~).  The coadjoint action moves only the
symmetric slot, A -> A(S~ + [N~, T], N~), and the cubic-trace Hamiltonian
H(A) = (2/3) tr(S~^3) induces exactly the Bloch-Iserles motion
S~' = [N~, S~^2] there; the 2/3 normalizes the factor 2 in the pairing.

Block data (S, N) is the stored representation, as arrays checked symmetric
and skew; the 3n x 3n matrices are materialized only for oracle-style
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import _checked
from .matcore import as_skew, commutator, numerical_rank

__all__ = [
    "GroupElem",
    "AlgElem",
    "DualElem",
    "group_mul",
    "group_inverse",
    "alg_bracket",
    "pairing_f",
    "pairing_f_matrix",
    "adjoint_f",
    "coadjoint_f",
    "hamiltonian_f",
    "induced_flow_rhs",
    "orbit_dimension_f",
]


def _blocks(n: int, rows) -> np.ndarray:
    out = np.zeros((3 * n, 3 * n))
    for (i, j), val in rows.items():
        out[i * n : (i + 1) * n, j * n : (j + 1) * n] = val
    return out


@dataclass(frozen=True)
class _BlockPair:
    """Block data (S, N) of one dimension n, as the three element types store it."""

    S: np.ndarray
    N: np.ndarray

    def __eq__(self, other):
        """The same element type and the same block data, entry for entry."""
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.S, other.S) and np.array_equal(self.N, other.N)

    def __post_init__(self):
        s, n = _checked(self.S, self.N)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "N", n)

    @property
    def n(self) -> int:
        return len(self.S)


@dataclass(frozen=True, eq=False)
class GroupElem(_BlockPair):
    """Group element g(S, N) stored by its block data."""

    def full(self) -> np.ndarray:
        n, s = self.n, self.S
        return _blocks(
            n,
            {
                (0, 0): np.eye(n),
                (1, 1): np.eye(n),
                (2, 2): np.eye(n),
                (0, 1): s,
                (1, 2): s,
                (0, 2): 0.5 * s @ s + self.N,
            },
        )


@dataclass(frozen=True, eq=False)
class AlgElem(_BlockPair):
    """Lie algebra element X(S, N): strictly upper block triangular."""

    def full(self) -> np.ndarray:
        s = self.S
        return _blocks(self.n, {(0, 1): s, (1, 2): s, (0, 2): self.N})


@dataclass(frozen=True, eq=False)
class DualElem(_BlockPair):
    """Dual element A(S~, N~): strictly lower block triangular."""

    def full(self) -> np.ndarray:
        s = self.S
        return _blocks(self.n, {(1, 0): s, (2, 1): s, (2, 0): 2.0 * self.N})


def group_mul(g1: GroupElem, g2: GroupElem) -> GroupElem:
    """Closed-form product g(S+T, N+M+[S,T]/2)."""
    if g1.n != g2.n:
        raise ValueError("dimension mismatch")
    s, n = g1.S + g2.S, g1.N + g2.N + 0.5 * commutator(g1.S, g2.S)
    return GroupElem(0.5 * (s + s.T), 0.5 * (n - n.T))


def group_inverse(g: GroupElem) -> GroupElem:
    """g(-S, -N); the commutator term cancels since [S, -S] = 0."""
    return GroupElem(-g.S, -g.N)


def alg_bracket(x1: AlgElem, x2: AlgElem) -> AlgElem:
    """[X(S1, N1), X(S2, N2)] = X(0, [S1, S2]); two-step nilpotent."""
    if x1.n != x2.n:
        raise ValueError("dimension mismatch")
    n = commutator(x1.S, x2.S)
    return AlgElem(np.zeros_like(n), 0.5 * (n - n.T))


def pairing_f(x: AlgElem, a: DualElem) -> float:
    """Block form of the trace pairing: 2 tr(S S~) + 2 tr(N N~)."""
    if x.n != a.n:
        raise ValueError("dimension mismatch")
    return 2.0 * float(np.trace(x.S @ a.S)) + 2.0 * float(np.trace(x.N @ a.N))


def pairing_f_matrix(x: AlgElem, a: DualElem) -> float:
    """Oracle form of the pairing: the literal 3n x 3n trace tr(X A)."""
    return float(np.trace(x.full() @ a.full()))


def adjoint_f(g: GroupElem, x: AlgElem) -> np.ndarray:
    """Materialized adjoint action g X g^-1 (oracle use only)."""
    return g.full() @ x.full() @ group_inverse(g).full()


def coadjoint_f(g: GroupElem, a: DualElem) -> DualElem:
    """Coadjoint action: only the symmetric slot moves, by [N~, T]."""
    if g.n != a.n:
        raise ValueError("dimension mismatch")
    s = a.S + commutator(a.N, g.S)
    return DualElem(0.5 * (s + s.T), a.N)


def hamiltonian_f(a: DualElem) -> float:
    """Cubic-trace Hamiltonian (2/3) tr(S~^3) of the induced flow."""
    s = a.S
    return (2.0 / 3.0) * float(np.trace(s @ s @ s))


def induced_flow_rhs(a: DualElem) -> DualElem:
    """Velocity of the Hamiltonian flow: S~' = [N~, S~^2], N~' = 0.

    The pairing gradient of :func:`hamiltonian_f` has symmetric slot S~^2
    and empty skew slot, so the coadjoint motion reproduces the
    Bloch-Iserles right-hand side exactly.
    """
    vel = commutator(a.N, a.S @ a.S)
    return DualElem(0.5 * (vel + vel.T), np.zeros_like(vel))


def orbit_dimension_f(n: np.ndarray) -> int:
    """Rank of T -> [N, T] on symmetric T: the coadjoint orbit dimension.

    Equals 2*floor(n^2/4) whenever N has simple spectrum.
    """
    nf = as_skew(n)
    dim = len(nf)
    images = []
    for i in range(dim):
        for j in range(i, dim):
            e = np.zeros((dim, dim))
            e[i, j] = e[j, i] = 1.0
            images.append(commutator(nf, e))
    return numerical_rank(images)
