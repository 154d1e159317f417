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
    _require_admissible,
    enumerate_indices,
    spectral_coeffs,
)
from .matcore import NumericalError, SkewMatrix, SymMatrix, as_matrix, commutator
from .symmetrizer import _sym, sym

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
    """RK4 sample path: a (T, n, n) array of exactly symmetric states, N frozen."""

    times: np.ndarray
    states: np.ndarray
    N: SkewMatrix

    @property
    def n(self) -> int:
        return self.N.n


def vector_field(s: SymMatrix, n: SkewMatrix, idx: IntegralIndex) -> SymMatrix:
    """S-velocity -[sym_{k-l,l}(S, N), N] of the (k, l) flow."""
    _check_flow(s, n, idx)
    return SymMatrix.symmetric_part(_field(s.full(), n.full(), idx))


def _check_flow(s: SymMatrix, n: SkewMatrix, idx: IntegralIndex) -> None:
    if s.n != n.n:
        raise ValueError("S and N must share one dimension")
    _require_admissible(idx, s.n)


def _field(sf: np.ndarray, nf: np.ndarray, idx: IntegralIndex) -> np.ndarray:
    """-[sym_{k-l,l}(S, N), N] on bare arrays that :func:`_check_flow` vetted."""
    m = _sym(sf, nf, idx.k - idx.l, idx.l)
    return nf @ m - m @ nf


def vector_field_s_form(s: SymMatrix, n: SkewMatrix, idx: IntegralIndex) -> SymMatrix:
    """Same velocity written as [sym_{k-l-1, l+1}(S, N), S]."""
    _check_flow(s, n, idx)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 with an optional per-step projection; records all steps.

    Returns the times and a (steps+1, *y0.shape) array of the states.  The
    step count is round(t_final / h) with the step adjusted to land on
    t_final exactly; a state norm above BLOWUP_NORM or a non-finite entry
    aborts with :class:`BlowupError`.  The guard takes the largest entry
    first: a NaN or inf fails it, and any entry above the bound puts the
    norm above it too.  The norm, which can overflow for a huge finite
    state, is taken only when the entries do not already bound it.
    ``rhs`` checks nothing: callers vet the state where integration starts.
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
    path = np.empty((steps + 1, *y.shape), dtype=y.dtype)
    path[0] = y
    quiet = 0.5 * BLOWUP_NORM / np.sqrt(max(y.size, 1))  # entries <= quiet: norm <= half the bound
    for i in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project is not None:
            y = project(y)
        big = np.abs(y).max()
        if not big <= BLOWUP_NORM or (big > quiet and np.linalg.norm(y) > BLOWUP_NORM):
            raise BlowupError("state left the admissible region")
        path[i] = y
    return times, path


def integrate(
    s0: SymMatrix, n: SkewMatrix, idx: IntegralIndex, t_final: float, h: float
) -> Trajectory:
    """Integrate the (k, l) flow from s0; returns the whole sample path."""
    _check_flow(s0, n, idx)
    nf = n.full()
    times, path = rk4_path(
        lambda y: _field(y, nf, idx), s0.full(), t_final, h, project=lambda y: 0.5 * (y + y.T)
    )
    return Trajectory(times, path, n)


def integrate_matrix(
    m0, rhs: Callable[[np.ndarray], np.ndarray], t_final: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on a full (not necessarily symmetric) matrix state, no projection."""
    return rk4_path(rhs, as_matrix(m0), t_final, h)


def invariant_series(traj: Trajectory) -> dict[str, np.ndarray]:
    """Every monitored conserved quantity evaluated along the trajectory.

    Keys: H_k_l for each admissible integral, casimir_l for each even l,
    I_r_k for the spectral-curve table, and eig_i for the sorted spectrum,
    each computed over the whole stack of states at once.
    """
    states, nf = traj.states, traj.N.full()
    out = {}
    for idx in enumerate_indices(traj.n):
        m = sym(states, nf, idx.k + 1 - idx.l, idx.l)
        out[str(idx)] = np.trace(m, axis1=1, axis2=2) / (idx.k + 1)
    cas = casimirs(states, traj.N)
    out.update((f"casimir_{l}", cas[:, j]) for j, l in enumerate(casimir_exponents(traj.n)))
    table = spectral_coeffs(states, traj.N)
    out.update((f"I_{r}_{k}", table.value(r, k)) for r, k in table.keys())
    eig = np.linalg.eigvalsh(states)
    out.update((f"eig_{i}", eig[:, i]) for i in range(traj.n))
    return out


def drift_report(series: dict[str, np.ndarray]) -> dict[str, float]:
    """Max deviation of each series from its start, relative to max(1, |v0|).

    ``series`` is the mapping that :func:`invariant_series` returns.
    """
    out = {}
    for name, vals in series.items():
        v0 = vals[0]
        out[name] = float(np.max(np.abs(vals - v0)) / max(1.0, abs(v0)))
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
    mid = integrate(s0, n, idx2, t, h).states[-1]
    a = integrate(SymMatrix.symmetric_part(mid), n, idx1, s, h).states[-1]
    mid = integrate(s0, n, idx1, s, h).states[-1]
    b = integrate(SymMatrix.symmetric_part(mid), n, idx2, t, h).states[-1]
    return float(np.linalg.norm(a - b))
