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

Block data (S, N) is the stored representation; the 3n x 3n matrices are
materialized only for oracle-style checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import SkewMatrix, SymMatrix, commutator, numerical_rank

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

    S: SymMatrix
    N: SkewMatrix

    def __post_init__(self):
        if self.S.n != self.N.n:
            raise ValueError("block dimensions differ")

    @property
    def n(self) -> int:
        return self.S.n


@dataclass(frozen=True)
class GroupElem(_BlockPair):
    """Group element g(S, N) stored by its block data."""

    def full(self) -> np.ndarray:
        n = self.n
        s = self.S.full()
        return _blocks(
            n,
            {
                (0, 0): np.eye(n),
                (1, 1): np.eye(n),
                (2, 2): np.eye(n),
                (0, 1): s,
                (1, 2): s,
                (0, 2): 0.5 * s @ s + self.N.full(),
            },
        )


@dataclass(frozen=True)
class AlgElem(_BlockPair):
    """Lie algebra element X(S, N): strictly upper block triangular."""

    def full(self) -> np.ndarray:
        s = self.S.full()
        return _blocks(self.n, {(0, 1): s, (1, 2): s, (0, 2): self.N.full()})


@dataclass(frozen=True)
class DualElem(_BlockPair):
    """Dual element A(S~, N~): strictly lower block triangular."""

    def full(self) -> np.ndarray:
        s = self.S.full()
        return _blocks(self.n, {(1, 0): s, (2, 1): s, (2, 0): 2.0 * self.N.full()})


def group_mul(g1: GroupElem, g2: GroupElem) -> GroupElem:
    """Closed-form product g(S+T, N+M+[S,T]/2)."""
    if g1.n != g2.n:
        raise ValueError("dimension mismatch")
    s1, s2 = g1.S.full(), g2.S.full()
    s = SymMatrix.symmetric_part(s1 + s2)
    n = SkewMatrix.skew_part(g1.N.full() + g2.N.full() + 0.5 * commutator(s1, s2))
    return GroupElem(s, n)


def group_inverse(g: GroupElem) -> GroupElem:
    """g(-S, -N); the commutator term cancels since [S, -S] = 0."""
    return GroupElem(
        SymMatrix(g.n, -g.S.packed), SkewMatrix(g.n, -g.N.packed)
    )


def alg_bracket(x1: AlgElem, x2: AlgElem) -> AlgElem:
    """[X(S1, N1), X(S2, N2)] = X(0, [S1, S2]); two-step nilpotent."""
    if x1.n != x2.n:
        raise ValueError("dimension mismatch")
    return AlgElem(
        SymMatrix.zero(x1.n), SkewMatrix.skew_part(commutator(x1.S.full(), x2.S.full()))
    )


def pairing_f(x: AlgElem, a: DualElem) -> float:
    """Block form of the trace pairing: 2 tr(S S~) + 2 tr(N N~)."""
    if x.n != a.n:
        raise ValueError("dimension mismatch")
    return 2.0 * float(np.trace(x.S.full() @ a.S.full())) + 2.0 * float(
        np.trace(x.N.full() @ a.N.full())
    )


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
    shift = commutator(a.N.full(), g.S.full())
    return DualElem(SymMatrix.symmetric_part(a.S.full() + shift), a.N)


def hamiltonian_f(a: DualElem) -> float:
    """Cubic-trace Hamiltonian (2/3) tr(S~^3) of the induced flow."""
    s = a.S.full()
    return (2.0 / 3.0) * float(np.trace(s @ s @ s))


def induced_flow_rhs(a: DualElem) -> DualElem:
    """Velocity of the Hamiltonian flow: S~' = [N~, S~^2], N~' = 0.

    The pairing gradient of :func:`hamiltonian_f` has symmetric slot S~^2
    and empty skew slot, so the coadjoint motion reproduces the
    Bloch-Iserles right-hand side exactly.
    """
    s = a.S.full()
    vel = commutator(a.N.full(), s @ s)
    return DualElem(SymMatrix.symmetric_part(vel), SkewMatrix.zero(a.n))


def orbit_dimension_f(n: SkewMatrix) -> int:
    """Rank of T -> [N, T] on symmetric T: the coadjoint orbit dimension.

    Equals 2*floor(n^2/4) whenever N has simple spectrum.
    """
    dim = n.n
    nf = n.full()
    images = []
    for i in range(dim):
        for j in range(i, dim):
            e = np.zeros((dim, dim))
            e[i, j] = e[j, i] = 1.0
            images.append(commutator(nf, e))
    return numerical_rank(images)
