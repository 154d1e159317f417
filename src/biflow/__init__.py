"""Desk-scale laboratory for the Bloch-Iserles isospectral flow.

The flow S' = [N, S^2] (S symmetric, N skew and frozen) sits inside a
hierarchy of commuting Hamiltonian motions on a coadjoint orbit of a loop
group.  This package verifies that structure numerically: the symmetrizer
identities behind the Lax forms, floor(n^2/4) Poisson-commuting integrals
and their generic independence, conservation along RK4 trajectories, the
closed-form solution by Birkhoff factorization, an equivalent flow on a
finite-dimensional nilpotent matrix group, and the rank-two block and PDE
reductions.

States are plain float arrays: S and N are (n, n), a trajectory is
(T, n, n).  Each public entry that takes S or N checks it once with
:func:`~biflow.matcore.as_sym` or :func:`~biflow.matcore.as_skew`.
"""

from .blockpde import BlockState, PDEState
from .factorization import BirkhoffFactors, FourierLoop, birkhoff, solve_by_factorization
from .findim import AlgElem, DualElem, GroupElem
from .flows import bi_rhs, drift_report, integrate, invariant_series, m_rhs, vector_field
from .invariants import (
    IntegralIndex,
    casimirs,
    enumerate_indices,
    hamiltonian,
    poisson_bracket,
    poisson_matrix,
    spectral_coeffs,
)
from .laurent import BILoop, LaurentLoop

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LaurentLoop",
    "BILoop",
    "IntegralIndex",
    "enumerate_indices",
    "hamiltonian",
    "poisson_bracket",
    "poisson_matrix",
    "casimirs",
    "spectral_coeffs",
    "vector_field",
    "bi_rhs",
    "m_rhs",
    "integrate",
    "drift_report",
    "invariant_series",
    "FourierLoop",
    "BirkhoffFactors",
    "birkhoff",
    "solve_by_factorization",
    "GroupElem",
    "AlgElem",
    "DualElem",
    "BlockState",
    "PDEState",
]
