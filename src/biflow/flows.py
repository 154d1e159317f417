"""Hamiltonian vector fields of the hierarchy and their time integration.

The motion generated by the integral with index (k, l) keeps N frozen and
moves S by

    S' = [sym_{k-l-1, l+1}(S, N), S] = -[sym_{k-l, l}(S, N), N],

the two forms agreeing through the symmetrizer commutator identity.  The
index (2, 0) is the Bloch-Iserles equation S' = [NS + SN, S] = [N, S^2].
Integration is fixed-step RK4, or Gragg-Bulirsch-Stoer for references;
the GBS field receives stacks (k, *y0.shape) of independent states, and a
macro step of q = GBS_STAGES sequences makes 1 + q(q+1) evaluations in
1 + 2q calls.
S and N are arrays, checked once where a public entry takes them and never
inside the RK4 or GBS loops.  The field is formed symmetric bit for bit, so
every state is too, with no projection; drift reports evaluate every
conserved quantity along a trajectory.  The companion full-matrix equation

    M' = [(M^T M + M M^T) + M^2, M^T] / 4

restates the flow on M = S + N with the skew part frozen; m_rhs(S + N)
coincides with bi_rhs(S, N).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .invariants import (
    IntegralIndex,
    _checked,
    casimir_exponents,
    casimirs,
    enumerate_indices,
    spectral_coeffs,
)
from .matcore import NumericalError, as_matrix, as_skew, commutator
from .symmetrizer import _sweep, sym

__all__ = [
    "BlowupError",
    "vector_field",
    "vector_field_s_form",
    "bi_rhs",
    "m_rhs",
    "rk4_path",
    "gbs_path",
    "integrate",
    "invariant_series",
    "drift_report",
    "flow_commutation",
]

BLOWUP_NORM = 1e8
GUARD_BLOCK = 64  # rk4_path checks its recorded states against the guard this many steps at a time
GBS_STAGES = 6  # q: each GBS macro step runs 2, 4, ..., 2q midpoint substeps


class BlowupError(NumericalError):
    """State norm exceeded the global guard during integration."""


def vector_field(s: np.ndarray, n: np.ndarray, idx: IntegralIndex) -> np.ndarray:
    """S-velocity -[sym_{k-l,l}(S, N), N] of the (k, l) flow."""
    return _field(*_checked(s, n, idx), idx)


def _field(sf: np.ndarray, nf: np.ndarray, idx: IntegralIndex) -> np.ndarray:
    """-[sym_{k-l,l}(S, N), N] on arrays that :func:`_checked` vetted.

    Admissible l is even, so M = sym_{k-l,l}(S, N) is symmetric, and with N
    skew (N M)^T = -M N.  The field N M - M N is therefore P + P^T for
    P = N M: one product, and a result symmetric bit for bit.
    """
    dot = np.ndarray.dot if sf.ndim == 2 else np.matmul  # the same bits; dot skips dispatch
    p = dot(nf, _sweep(sf, nf, idx.k - idx.l, idx.l, dot=dot))
    return p + p.swapaxes(-1, -2)


def vector_field_s_form(s: np.ndarray, n: np.ndarray, idx: IntegralIndex) -> np.ndarray:
    """Same velocity written as [sym_{k-l-1, l+1}(S, N), S], made symmetric."""
    s, n = _checked(s, n, idx)
    v = commutator(sym(s, n, idx.k - idx.l - 1, idx.l + 1), s)
    return 0.5 * (v + v.T)


def bi_rhs(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Bloch-Iserles velocity [NS + SN, S], made symmetric; equals [N, S^2]."""
    s, n = _checked(s, n)
    v = commutator(n @ s + s @ n, s)
    return 0.5 * (v + v.T)


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
    t_final exactly.  Every new state passes :func:`_guarded`, checked in blocks
    of GUARD_BLOCK = 64 recorded steps.  A blown-up run is reported at its first
    bad state after at most 63 more steps, and an error that ``rhs`` or ``project``
    raises in those steps is reported as that state's :class:`BlowupError`.
    ``rhs`` checks nothing: callers vet the state where integration starts.
    """
    if not (np.isfinite(t_final) and np.isfinite(h)):
        raise ValueError("final time and step size must be finite")
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
    # 0-d arrays: numpy multiplies by them faster than by Python floats, to the same bits
    half, step, sixth, two = (np.array(x) for x in (0.5 * dt, dt, dt / 6.0, 2.0))
    # A stage may overflow before the step's state reaches the guard, which
    # turns the inf or NaN it leaves into BlowupError; numpy need not warn.
    lo = 1  # the first recorded state the guard has not checked
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            try:
                k1 = rhs(y)
                k2 = rhs(y + half * k1)
                k3 = rhs(y + half * k2)
                k4 = rhs(y + step * k3)
                y = y + sixth * (k1 + two * k2 + two * k3 + k4)
                if project is not None:
                    y = project(y)
            except Exception:  # a step from an unchecked bad state may fail (float ** overflows)
                if lo < i:
                    _guarded(path[lo:i], stacked=True)
                raise
            path[i] = y
            if i % GUARD_BLOCK == 0 or i == steps:
                _guarded(path[lo : i + 1], stacked=True)
                lo = i + 1
    return times, path


def gbs_path(
    rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray, t_final: float, macro: int
) -> np.ndarray:
    """Gragg-Bulirsch-Stoer over ``macro`` equal steps; the (macro+1, *y0.shape) states.

    Each macro step runs Gragg's smoothed midpoint rule at 2, 4, ..., 2q
    substeps (q = GBS_STAGES) and extrapolates in h^2 by Aitken-Neville
    (Hairer, Norsett & Wanner, Solving ODEs I, II.9).  The sequences are
    independent, so ``rhs`` receives a stack (k, *y0.shape): the start state,
    then at each substep index s = 1 .. 2q the sequences still running, the
    one of 2j substeps taking its smoothing step at s = 2j and leaving.  A
    macro step is 1 + q(q+1) evaluations in 1 + 2q calls.  Every state passes
    :func:`_guarded` on its own before ``rhs`` sees it.
    """
    if macro < 1:
        raise ValueError("macro must be a positive step count")
    y = _guarded(np.asarray(y0, dtype=float))
    path = np.empty((macro + 1, *y.shape))
    path[0] = y
    col = (-1,) + (1,) * y.ndim  # per-sequence numbers against a stack of states
    h = (t_final / (macro * _GBS_COUNTS)).reshape(col)
    neville = [d.reshape(col) for d in _NEVILLE]
    table = np.empty((GBS_STAGES, *y.shape))
    for i in range(1, macro + 1):
        prev, z = y, y + h * rhs(y[None])
        for s in range(1, 2 * GBS_STAGES + 1):
            first = (s - 1) // 2  # the sequences first, ..., q-1 are running
            f = rhs(_guarded(z, stacked=True))
            if s % 2 == 0:  # sequence `first` took s substeps: smooth it and drop it
                table[first] = 0.5 * (prev[0] + z[0] + h[first] * f[0])
                prev, z, f = prev[1:], z[1:], f[1:]
                first += 1
            prev, z = z, prev + 2.0 * h[first:] * f
        for k, d in enumerate(neville, 1):  # column k from column k-1; entry j took 2j + 2 substeps
            table[k:] = table[k:] + (table[k:] - table[k - 1 : -1]) / d
        y = path[i] = _guarded(table[-1])
    return path


_GBS_COUNTS = np.arange(2, 2 * GBS_STAGES + 1, 2)  # substeps of each midpoint sequence
# Aitken-Neville divisors (n_j / n_{j-k})^2 - 1 of the entries j >= k of columns k = 1 .. q-1
_NEVILLE = [
    np.array([((j + 1) / (j + 1 - k)) ** 2 - 1.0 for j in range(k, GBS_STAGES)]) for k in range(1, GBS_STAGES)
]


def _guarded(y: np.ndarray, stacked: bool = False) -> np.ndarray:
    """``y`` if it is finite with norm at most BLOWUP_NORM, else :class:`BlowupError`.

    With ``stacked``, each ``y[i]`` is a state bounded on its own.  The norms,
    which overflow for huge finite entries, are taken only when the largest
    entry does not already bound them.
    """
    big = np.maximum.reduce(np.abs(y), axis=None)
    size = y.size // len(y) if stacked else y.size
    if big <= 0.5 * BLOWUP_NORM / size**0.5:  # then every norm is at most half the bound
        return y
    if not big <= BLOWUP_NORM or any(np.linalg.norm(x) > BLOWUP_NORM for x in (y if stacked else [y])):
        raise BlowupError("state left the admissible region")
    return y


def integrate(
    s0: np.ndarray, n: np.ndarray, idx: IntegralIndex, t_final: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for the (k, l) flow from s0: the times and the (T, n, n) states, N frozen."""
    s0, n = _checked(s0, n, idx)
    return rk4_path(lambda y: _field(y, n, idx), s0, t_final, h)


def invariant_series(states: np.ndarray, n: np.ndarray) -> dict[str, np.ndarray]:
    """Every monitored conserved quantity along a (T, n, n) stack of states, N = ``n``.

    Keys: H_k_l for each admissible integral, casimir_l for each even l,
    I_r_k for the spectral-curve table in sorted (r, k) order, and eig_i
    for the sorted spectrum, each computed over the whole stack of states at
    once.  The H_k_l are tr sym_{k+1-l,l}(S, N) / (k+1) from one row sweep
    to degree n, l <= n-2.
    """
    nf = as_skew(n)
    dim = len(nf)
    out = dict.fromkeys(map(str, enumerate_indices(dim)))

    def keep(r, row):  # the even l of row r >= 2 are exactly the admissible H_{r+l-1,l}
        for l in range(0, len(row) if r > 1 else 0, 2):
            out[str(IntegralIndex(r + l - 1, l))] = np.trace(row[l], axis1=1, axis2=2) / (r + l)

    _sweep(states, nf, dim, dim - 2, keep)
    cas = casimirs(states, nf)
    out.update((f"casimir_{l}", cas[:, j]) for j, l in enumerate(casimir_exponents(dim)))
    coeffs = spectral_coeffs(states, nf)[0]
    out.update((f"I_{r}_{k}", coeffs[r, k]) for r, k in sorted(coeffs))
    eig = np.linalg.eigvalsh(states)
    out.update((f"eig_{i}", eig[:, i]) for i in range(dim))
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
    s0: np.ndarray,
    n: np.ndarray,
    idx1: IntegralIndex,
    idx2: IntegralIndex,
    s: float,
    t: float,
    h: float,
) -> float:
    """Norm of the commutator defect of the two flow maps at times (s, t)."""
    if s == 0.0 or t == 0.0:
        return 0.0
    a = integrate(integrate(s0, n, idx2, t, h)[1][-1], n, idx1, s, h)[1][-1]
    b = integrate(integrate(s0, n, idx1, s, h)[1][-1], n, idx2, t, h)[1][-1]
    return float(np.linalg.norm(a - b))
