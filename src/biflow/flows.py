"""Hamiltonian vector fields of the hierarchy and their time integration.

The motion generated by the integral with index (k, l) keeps N frozen and
moves S by

    S' = [sym_{k-l-1, l+1}(S, N), S] = -[sym_{k-l, l}(S, N), N],

the two forms agreeing through the symmetrizer commutator identity.  The
index (2, 0) is the Bloch-Iserles equation S' = [NS + SN, S] = [N, S^2].
Integration is classical fixed-step RK4 with a symmetrization projection
after every step; drift reports evaluate every conserved quantity along a
trajectory.  The companion full-matrix equation

    M' = [(M^T M + M M^T) + M^2, M^T] / 4

restates the flow on M = S + N with the skew part frozen; m_rhs(S + N)
coincides with bi_rhs(S, N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .invariants import (
    IntegralIndex,
    casimir_exponents,
    casimirs,
    enumerate_indices,
    hamiltonian,
    is_admissible,
    spectral_coeffs,
)
from .laurent import BILoop
from .matcore import NumericalError, SkewMatrix, SymMatrix, as_matrix, commutator, eigenvalues_sym
from .symmetrizer import sym

__all__ = [
    "Trajectory",
    "BlowupError",
    "vector_field",
    "vector_field_s_form",
    "bi_rhs",
    "m_rhs",
    "rk4_path",
    "integrate",
    "integrate_matrix",
    "invariant_series",
    "drift_report",
    "flow_commutation",
]

BLOWUP_NORM = 1e8


class BlowupError(NumericalError):
    """State norm exceeded the global guard during integration."""


@dataclass(frozen=True)
class Trajectory:
    """RK4 sample path: one symmetric state per time, N frozen throughout."""

    times: np.ndarray
    states: list[SymMatrix]
    N: SkewMatrix
    idx: IntegralIndex | None

    @property
    def n(self) -> int:
        return self.N.n

    def state(self, i: int) -> SymMatrix:
        return self.states[i]


def vector_field(s: SymMatrix, n: SkewMatrix, idx: IntegralIndex) -> SymMatrix:
    """S-velocity -[sym_{k-l,l}(S, N), N] of the (k, l) flow."""
    if not is_admissible(idx, s.n):
        raise ValueError(f"index ({idx.k},{idx.l}) not admissible for n={s.n}")
    return SymMatrix.symmetric_part(_raw_field(s.full(), n.full(), idx))


def _raw_field(sf: np.ndarray, nf: np.ndarray, idx: IntegralIndex) -> np.ndarray:
    m = sym(sf, nf, idx.k - idx.l, idx.l)
    return nf @ m - m @ nf


def vector_field_s_form(s: SymMatrix, n: SkewMatrix, idx: IntegralIndex) -> SymMatrix:
    """Same velocity written as [sym_{k-l-1, l+1}(S, N), S]."""
    if not is_admissible(idx, s.n):
        raise ValueError(f"index ({idx.k},{idx.l}) not admissible for n={s.n}")
    m = sym(s.full(), n.full(), idx.k - idx.l - 1, idx.l + 1)
    return SymMatrix.symmetric_part(commutator(m, s.full()))


def bi_rhs(s: SymMatrix, n: SkewMatrix) -> SymMatrix:
    """Bloch-Iserles velocity [NS + SN, S]; equals [N, S^2]."""
    sf = s.full()
    nf = n.full()
    return SymMatrix.symmetric_part(commutator(nf @ sf + sf @ nf, sf))


def m_rhs(m) -> np.ndarray:
    """Velocity of the full-matrix restatement on M = S + N.

    Along this flow the skew part of M is constant and the motion of the
    symmetric part is exactly bi_rhs: m_rhs(S + N) == bi_rhs(S, N).
    """
    m = as_matrix(m)
    q = m.T @ m + m @ m.T + m @ m
    return 0.25 * commutator(q, m.T)


def rk4_path(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_final: float,
    h: float,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Classical RK4 with an optional per-step projection; records all steps.

    The step count is round(t_final / h) with the step adjusted to land on
    t_final exactly; a state norm above BLOWUP_NORM or a non-finite entry
    aborts with :class:`BlowupError`.  The entry test comes first: the norm
    of a huge finite state can overflow, and any entry above the bound puts
    the norm above it too.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if t_final < 0:
        raise ValueError("final time must be nonnegative")
    steps = int(round(t_final / h))
    if steps == 0 and t_final > 0:
        steps = 1
    dt = t_final / steps if steps else 0.0
    y = np.array(y0, dtype=y0.dtype if hasattr(y0, "dtype") else float)
    times = np.linspace(0.0, t_final, steps + 1)
    path = [y.copy()]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project is not None:
            y = project(y)
        if (
            not np.isfinite(y).all()
            or np.abs(y).max() > BLOWUP_NORM
            or np.linalg.norm(y) > BLOWUP_NORM
        ):
            raise BlowupError("state left the admissible region")
        path.append(y.copy())
    return times, path


def integrate(
    s0: SymMatrix, n: SkewMatrix, idx: IntegralIndex, t_final: float, h: float
) -> Trajectory:
    """Integrate the (k, l) flow from s0; returns the whole sample path."""
    if not is_admissible(idx, s0.n):
        raise ValueError(f"index ({idx.k},{idx.l}) not admissible for n={s0.n}")
    nf = n.full()

    def rhs(y):
        return _raw_field(y, nf, idx)

    times, path = rk4_path(rhs, s0.full(), t_final, h, project=lambda y: 0.5 * (y + y.T))
    states = [SymMatrix.symmetric_part(y) for y in path]
    return Trajectory(times, states, n, idx)


def integrate_matrix(
    m0, rhs: Callable[[np.ndarray], np.ndarray], t_final: float, h: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """RK4 on a full (not necessarily symmetric) matrix state, no projection."""
    return rk4_path(rhs, as_matrix(m0), t_final, h)


def invariant_series(traj: Trajectory) -> dict[str, np.ndarray]:
    """Every monitored conserved quantity evaluated along the trajectory.

    Keys: H_k_l for each admissible integral, casimir_l for each even l,
    I_r_k for the spectral-curve table, and eig_i for the sorted spectrum.
    """
    n = traj.n
    idxs = enumerate_indices(n)
    exps = casimir_exponents(n)
    spectral_keys = spectral_coeffs(traj.states[0], traj.N).keys()
    names = (
        [str(i) for i in idxs]
        + [f"casimir_{l}" for l in exps]
        + [f"I_{r}_{k}" for r, k in spectral_keys]
        + [f"eig_{i}" for i in range(n)]
    )
    rows = []
    for s in traj.states:
        x = BILoop(s, traj.N)
        row = [hamiltonian(x, i) for i in idxs]
        row += casimirs(s, traj.N)
        table = spectral_coeffs(s, traj.N)
        row += [table.value(r, k) for r, k in spectral_keys]
        row += list(eigenvalues_sym(s))
        rows.append(row)
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(names)}


def drift_report(traj: Trajectory) -> dict[str, float]:
    """Max deviation of each invariant from its start, relative to max(1, |v0|)."""
    if not traj.states:
        raise ValueError("empty trajectory")
    out = {}
    for name, series in invariant_series(traj).items():
        v0 = series[0]
        out[name] = float(np.max(np.abs(series - v0)) / max(1.0, abs(v0)))
    return out


def flow_commutation(
    s0: SymMatrix,
    n: SkewMatrix,
    idx1: IntegralIndex,
    idx2: IntegralIndex,
    s: float,
    t: float,
    h: float,
) -> float:
    """Norm of the commutator defect of the two flow maps at times (s, t)."""
    if s == 0.0 or t == 0.0:
        return 0.0
    a = integrate(integrate(s0, n, idx2, t, h).states[-1], n, idx1, s, h).states[-1]
    b = integrate(integrate(s0, n, idx1, s, h).states[-1], n, idx2, t, h).states[-1]
    return float(np.linalg.norm(a.full() - b.full()))
