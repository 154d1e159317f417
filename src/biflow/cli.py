"""Batch experiment driver.

Each subcommand runs one experiment against fixed tolerance gates
(:data:`TOLERANCES`), and writes a JSON summary (plus a CSV time series
where the experiment produces one).  A run is configured by its flags
alone, and each subcommand takes only the flags its experiment reads
(:data:`READS`) plus ``--out``; ``all`` takes their union.  Exit
status: 0 when every gate passes, 1 on a gate failure (the failing gate is
named on stderr), 2 on a usage error.
A numerical failure (:class:`~biflow.matcore.NumericalError`) ends only its
own experiment: the summary records it as one failing gate named after the
error class, and the remaining experiments of ``all`` still run.

Output formats are stable contracts: JSON summaries carry ``schema: 1``
and a ``gates`` list of ``{name, value, tol, pass}``.  A summary's
``config`` records the experiment's own fields and the tolerance table.
A runner returns its gates and a ``diagnostics`` object for the summary
(None for none):
``factorize`` records there each solve's depth, tail, negative part,
reality and aliasing estimate, and its reference's error estimate, macro
steps and field evaluations (gates and diagnostics alike are
deterministic).  CSV files start with a version header line (the only
line allowed to differ between releases), a ``# schema: 1`` line, and a
column-documentation comment.  All randomness flows through the explicit
--seed; reruns with the same flags are byte-identical after the version
line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .blockpde import (
    BlockState,
    PDEState,
    embed,
    integrate_block,
    integrate_pde,
    l2_pair,
    n0,
    parity_leakage,
    rhs_cubic,
    rhs_quadratic,
)
from .factorization import birkhoff, conjugated_states, generator, sample_exp
from .findim import (
    DualElem,
    GroupElem,
    coadjoint_f,
    group_mul,
    induced_flow_rhs,
    orbit_dimension_f,
)
from .flows import BlowupError, _field, bi_rhs, drift_report, gbs_path, integrate, invariant_series
from .invariants import (
    IntegralIndex,
    enumerate_indices,
    integral_independence_rank,
    poisson_matrix,
    spectral_coeffs,
    spectral_nodes,
)
from .laurent import BILoop
from .matcore import (
    NumericalError,
    SplitMix64,
    commutator,
    numerical_rank,
    random_skew_simple,
    random_sym,
)
from .symmetrizer import (
    SymmetrizerTable,
    cayley_hamilton_dependence,
    degree_below,
    generic_independence,
    witness_pair,
)

EXPERIMENTS = ("flow", "invariants", "commute", "factorize", "findim", "pde", "lemma41")
# Largest --n: the desk scale of matcore.  The symmetrizer tables of lemma41
# and invariants grow as n^4 floats (4n^4 bytes: 67 MB at n = 64).
MAX_N = 64
# Largest --t / --h of flow and pde, which record every step: it bounds their
# paths, such as flow's steps + 1 states of n x n floats (51 MB at n = 8).
MAX_STEPS = 100_000
# Largest --m: it bounds factorize's circle stacks, each M n x n complex
# samples (4 MiB at n = 8 and 64 MiB at n = 32), of which expm and birkhoff
# hold a few at once.
MAX_SAMPLES = 4096
# Macro steps of the finest factorize reference run; all runs take at most 504.
REFERENCE_MACRO_CAP = 256

# The gate tolerances, recorded in every summary under config.tolerances.
TOLERANCES = {
    "drift": 1e-8,
    "poisson": 1e-10,
    "birkhoff_residual": 1e-8,
    "factor_symmetry": 1e-8,
    "ode_gap": 1e-6,
    "group_law": 1e-13,
    "homomorphism": 1e-12,
    "induced_flow": 1e-12,
    "cancellation": 1e-12,
    "degree_reduction": 1e-8,
    "block_oracle_quadratic": 1e-13,
    "block_oracle_cubic": 1e-12,
    "trace_pair": 1e-10,
    "l2_drift": 1e-6,
    "parity": 1e-12,
    "spectral_evenness": 1e-10,
}


def _param(flag: str, default, help: str, required: bool = False):
    """A run parameter, set by its flag."""
    return field(default=default, metadata={"flag": flag, "help": help, "required": required})


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = _param("--n", 4, "matrix dimension")
    seed: int = _param("--seed", 0, "sampling seed", required=True)
    k: int = _param("--k", 2, "flow index k")
    l: int = _param("--l", 0, "flow index l (even)")
    t_final: float = _param("--t", 1.0, "final time")
    h: float = _param("--h", 1e-3, "RK4 step")
    m_samples: int = _param("--m", 256, "circle samples")
    depth: int = _param("--j", 40, "cap on the start depth of the Birkhoff solve")
    out_dir: Path = field(default_factory=lambda: Path("."))

    def as_dict(self) -> dict:
        """The summary's config: the experiment, the fields it reads and the tolerances."""
        out = {f.name: getattr(self, f.name) for f in params_of(self.experiment)}
        return {"experiment": self.experiment, **out, "tolerances": dict(TOLERANCES)}


PARAMS = [f for f in fields(ExperimentConfig) if "flag" in f.metadata]

# The ExperimentConfig fields each runner reads: its subcommand's flags,
# besides --out.  A field an experiment does not read keeps its default.
READS = {
    "flow": ("n", "seed", "k", "l", "t_final", "h"),
    "invariants": ("n", "seed"),
    "commute": ("n", "seed"),
    "factorize": ("n", "seed", "k", "l", "t_final", "m_samples", "depth"),
    "findim": ("n", "seed"),
    "pde": ("n", "seed", "t_final", "h"),
    "lemma41": ("n", "seed"),
}


def params_of(command: str) -> list:
    """The run parameters an experiment reads; for 'all', those of any experiment."""
    names = EXPERIMENTS if command == "all" else (command,)
    return [f for f in PARAMS if any(f.name in READS[name] for name in names)]


@dataclass
class Gate:
    name: str
    value: float
    tol: float
    passed: bool

    @classmethod
    def leq(cls, name, value, tol):
        return cls(name, float(value), float(tol), bool(value <= tol))

    @classmethod
    def exact(cls, name, value, want):
        return cls(name, float(value), float(want), bool(value == want))


def sample_state(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    return random_sym(n, seed), random_skew_simple(n, seed + 10_000)


def _out_path(cfg: ExperimentConfig, suffix: str) -> Path:
    """Output file of cfg's experiment; the directory is made on first write."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir / f"{cfg.experiment}.{suffix}"


def _write_json(cfg: ExperimentConfig, gates: list[Gate], diagnostics: dict | None) -> None:
    payload = {
        "schema": 1,
        "experiment": cfg.experiment,
        "config": cfg.as_dict(),
        "gates": [
            {"name": g.name, "value": g.value, "tol": g.tol, "pass": g.passed}
            for g in gates
        ],
        "pass": all(g.passed for g in gates),
    }
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    _out_path(cfg, "json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(cfg: ExperimentConfig, columns: list[str], rows) -> None:
    lines = [
        f"# biflow {__version__}",
        "# schema: 1",
        "# columns: " + ", ".join(columns),
        ",".join(columns),
    ]
    lines.extend(",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist())
    _out_path(cfg, "csv").write_text("\n".join(lines) + "\n")


# -- experiments ---------------------------------------------------------------


def run_flow(cfg: ExperimentConfig) -> tuple[list[Gate], None]:
    s0, nmat = sample_state(cfg.n, cfg.seed)
    idx = IntegralIndex(cfg.k, cfg.l)
    spectral_nodes(cfg.n)  # refuse an ill-conditioned spectral table before paying for the path
    times, states = integrate(s0, nmat, idx, cfg.t_final, cfg.h)
    series = invariant_series(states, nmat)
    _write_csv(cfg, ["t", *series], np.column_stack([times, *series.values()]))
    tol = TOLERANCES["drift"]
    return [Gate.leq(f"drift_{name}", d, tol) for name, d in drift_report(series).items()], None


def run_invariants(cfg: ExperimentConfig) -> tuple[list[Gate], None]:
    s, nmat = sample_state(cfg.n, cfg.seed)
    count = len(enumerate_indices(cfg.n))
    rank = integral_independence_rank(s, nmat)
    odd_z_residual = spectral_coeffs(s, nmat)[1]
    return [
        Gate.exact("integral_count", count, cfg.n * cfg.n // 4),
        Gate.exact("independence_rank", rank, cfg.n * cfg.n // 4),
        Gate.leq("spectral_evenness", odd_z_residual, TOLERANCES["spectral_evenness"]),
    ], None


def run_commute(cfg: ExperimentConfig) -> tuple[list[Gate], None]:
    brackets, scale = poisson_matrix(*sample_state(cfg.n, cfg.seed))
    worst = np.max(np.abs(brackets) / scale)  # antisymmetric: the upper triangle's max
    return [Gate.leq("poisson_max_rel", worst, TOLERANCES["poisson"])], None


def run_factorize(cfg: ExperimentConfig) -> tuple[list[Gate], dict]:
    """The factorize gates, and the diagnostics of each solve and of the reference."""
    s0, nmat = sample_state(cfg.n, cfg.seed)
    x0 = BILoop(s0, nmat)
    idx = IntegralIndex(cfg.k, cfg.l)
    times = [cfg.t_final / 4, cfg.t_final / 2, cfg.t_final]
    # Every Birkhoff solve runs before the reference, so that a run the
    # solve rejects ends early.  Each checkpoint doubles the last, so its
    # samples are the last ones squared.
    gen = generator(x0, idx)
    solved, checkpoints, gamma = [], [], None
    for t in times:
        gamma = sample_exp(gen, t, cfg.m_samples, half=gamma)
        fac = birkhoff(gamma, cfg.depth)
        solved.append((fac, conjugated_states(fac, x0)[0]))
        aliasing = gamma.aliasing_estimate()
        checkpoints.append(
            dict(t=t, depth=fac.g_minus.span - 1, tail=fac.tail, negative_part=fac.negative_part,
                 reality=fac.reality, aliasing=aliasing)
        )
    refs, reference = _reference_states(s0, nmat, idx, times[-1])
    gates = []
    for t, (fac, s_fact), s_ode in zip(times, solved, refs):
        gap = float(np.linalg.norm(s_fact - s_ode))
        tag = repr(float(t))
        gates += [
            Gate.leq(f"birkhoff_residual_t={tag}", fac.residual, TOLERANCES["birkhoff_residual"]),
            Gate.leq(f"factor_symmetry_t={tag}", fac.symmetry, TOLERANCES["factor_symmetry"]),
            Gate.exact(f"det_winding_t={tag}", fac.winding, 0),
            Gate.leq(f"ode_gap_t={tag}", gap, TOLERANCES["ode_gap"]),
        ]
    return gates, {"checkpoints": checkpoints, "reference": reference}


def _reference_states(
    s0: np.ndarray, nmat: np.ndarray, idx: IntegralIndex, t_end: float
) -> tuple[np.ndarray, dict]:
    """Gragg-Bulirsch-Stoer reference at t_end/4, t_end/2 and t_end: (3, n, n).

    Runs :func:`~biflow.flows.gbs_path` at 8, 16, 32, ... macro steps.  The
    estimate is the largest Frobenius gap of the last two runs at the
    checkpoints.  While it is above the budget 1e-10 max(1, |S0|_F), or a
    run below REFERENCE_MACRO_CAP steps ends in BlowupError, macro doubles,
    up to that cap.  Returns the last run and its diagnostics.
    """
    budget = 1e-10 * max(1.0, float(np.linalg.norm(s0)))
    evals = 0

    def field(y: np.ndarray) -> np.ndarray:  # y is a stack of states
        nonlocal evals
        evals += len(y)
        return _field(y, nmat, idx)

    macro, fine, estimate = 4, None, np.inf
    while estimate > budget and macro < REFERENCE_MACRO_CAP:
        coarse, macro = fine, 2 * macro
        try:
            fine = gbs_path(field, s0, t_end, macro)[[macro // 4, macro // 2, macro]]
        except BlowupError:  # not converged, unless at the cap
            if macro >= REFERENCE_MACRO_CAP:
                raise
            fine = None
        both = coarse is not None and fine is not None
        estimate = float(np.linalg.norm(fine - coarse, axis=(1, 2)).max()) if both else np.inf
    met = estimate <= budget
    return fine, {"estimate": estimate, "budget": budget, "steps": macro, "met_budget": met, "evals": evals}


def run_findim(cfg: ExperimentConfig) -> tuple[list[Gate], None]:
    rng_seeds = range(cfg.seed, cfg.seed + 10)
    sample = functools.cache(lambda sd: sample_state(cfg.n, sd))  # each seed serves up to three draws
    law = homo = induced = 0.0
    for sd in rng_seeds:
        g1 = GroupElem(*sample(sd + 1))
        g2 = GroupElem(*sample(sd + 2))
        a = DualElem(*sample(sd + 3))
        want, g12 = g1.full() @ g2.full(), group_mul(g1, g2)
        law = max(law, float(np.linalg.norm(g12.full() - want)))
        lhs = coadjoint_f(g12, a)
        rhs = coadjoint_f(g1, coadjoint_f(g2, a))
        homo = max(homo, float(np.linalg.norm(lhs.S - rhs.S)))
        induced = max(induced, float(np.linalg.norm(induced_flow_rhs(a).S - bi_rhs(a.S, a.N))))
    dims_ok = all(
        orbit_dimension_f(random_skew_simple(n, cfg.seed + 20 + n)) == 2 * (n * n // 4)
        for n in range(2, 7)
    )
    return [
        Gate.leq("group_law", law, TOLERANCES["group_law"]),
        Gate.leq("homomorphism", homo, TOLERANCES["homomorphism"]),
        Gate.leq("induced_flow", induced, TOLERANCES["induced_flow"]),
        Gate.exact("orbit_dimensions", 1.0 if dims_ok else 0.0, 1.0),
    ], None


def run_pde(cfg: ExperimentConfig) -> tuple[list[Gate], None]:
    rng = SplitMix64(cfg.seed)
    m = max(cfg.n - 2, 3)
    a, b, c = rng.uniform(), rng.uniform(), rng.uniform()
    bs = BlockState(a, b, c, rng.matrix(1, m)[0], rng.matrix(1, m)[0], random_sym(m, cfg.seed + 30))
    nf, sf = n0(bs.n), embed(bs)
    quad_gap = float(np.abs(embed(rhs_quadratic(bs)) - commutator(nf, sf @ sf)).max())
    cubic_gap = float(np.abs(embed(rhs_cubic(bs)) - commutator(nf, sf @ sf @ sf)).max())

    _, path = integrate_block(bs, 2, cfg.t_final, cfg.h)
    trace_gap = np.abs(path.a + path.c - (bs.a + bs.c)).max()

    modes = 64
    x = 2.0 * np.pi * np.arange(modes) / modes
    st0 = PDEState.from_fields(
        0.4 * np.sin(x) + 0.2 * np.sin(3 * x), 0.3 * np.sin(2 * x), parity="odd"
    )
    times, pde_path = integrate_pde(st0, cfg.t_final, cfg.h)
    l2, leaks = l2_pair(pde_path), parity_leakage(pde_path)
    l2_drift = np.abs(l2 - l2_pair(st0)).max()
    _write_csv(cfg, ["t", "l2_pair", "parity_leakage"], np.column_stack([times, l2, leaks]))
    return [
        Gate.leq("block_oracle_quadratic", quad_gap, TOLERANCES["block_oracle_quadratic"]),
        Gate.leq("block_oracle_cubic", cubic_gap, TOLERANCES["block_oracle_cubic"]),
        Gate.leq("trace_pair", trace_gap, TOLERANCES["trace_pair"]),
        Gate.leq("l2_drift", l2_drift, TOLERANCES["l2_drift"]),
        Gate.leq("parity", leaks.max(), TOLERANCES["parity"]),
    ], None


def run_lemma41(cfg: ExperimentConfig) -> tuple[list[Gate], None]:
    rng = SplitMix64(cfg.seed)
    worst_a = 0.0
    for n in range(2, 6):  # one table per pair serves every i + j <= 4
        table = SymmetrizerTable(rng.matrix(n), rng.matrix(n), 5)
        for i in range(5):
            for j in range(5 - i):
                worst_a = max(worst_a, table.cancellation(i, j))
    parity_ok = all(
        table.has_parity(i, j)
        for table in (SymmetrizerTable(*sample_state(cfg.n, cfg.seed + t), 4) for t in range(3))
        for i in range(3)
        for j in range(3)
    )
    worst_c = max(
        cayley_hamilton_dependence(SplitMix64(cfg.seed + n).matrix(n), SplitMix64(cfg.seed + 50 + n).matrix(n))
        for n in range(2, 6)
    )
    with np.errstate(over="ignore", invalid="ignore"):  # from n = 33 the table overflows
        table = SymmetrizerTable(*witness_pair(cfg.n, c=2.0), cfg.n - 1)
    fams = [table.get(i, j) for i, j in degree_below(cfg.n)]
    if not all(np.isfinite(f).all() for f in fams):
        raise NumericalError(f"witness symmetrizers overflow at n={cfg.n}")
    fams = [f / np.abs(f).max() for f in fams]  # from n = 24 the squares in the norm overflow
    fams = [f / np.linalg.norm(f) for f in fams]
    witness_ok = numerical_rank(fams) == cfg.n * (cfg.n + 1) // 2
    states = [sample_state(cfg.n, cfg.seed + 100 + t) for t in range(20)]
    s, nmat = map(np.stack, zip(*states))
    hits = int(np.sum(generic_independence(s, nmat) == cfg.n * (cfg.n + 1) // 2))
    return [
        Gate.leq("cancellation_identity", worst_a, TOLERANCES["cancellation"]),
        Gate.exact("symmetrizer_parity", 1.0 if parity_ok else 0.0, 1.0),
        Gate.leq("degree_reduction", worst_c, TOLERANCES["degree_reduction"]),
        Gate.exact("witness_rank", 1.0 if witness_ok else 0.0, 1.0),
        Gate.exact("generic_rank_hits", 1.0 if hits >= 19 else 0.0, 1.0),
    ], None


RUNNERS = {
    "flow": run_flow,
    "invariants": run_invariants,
    "commute": run_commute,
    "factorize": run_factorize,
    "findim": run_findim,
    "pde": run_pde,
    "lemma41": run_lemma41,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment (or 'all'); returns the process exit code."""
    names = EXPERIMENTS if cfg.experiment == "all" else (cfg.experiment,)
    if cfg.n > MAX_N:
        raise ValueError(f"--n may be at most {MAX_N}, got {cfg.n!r}")
    if not 0 < cfg.h < np.inf:
        raise ValueError(f"--h must be positive and finite, got {cfg.h!r}")
    if not np.isfinite(cfg.t_final):
        raise ValueError(f"--t must be finite, got {cfg.t_final!r}")
    if not 4 <= cfg.m_samples <= MAX_SAMPLES or cfg.m_samples & (cfg.m_samples - 1):
        raise ValueError(f"--m must be a power of two from 4 to {MAX_SAMPLES}, got {cfg.m_samples!r}")
    if cfg.depth < 1:
        raise ValueError(f"--j must be at least 1, got {cfg.depth!r}")
    if {"flow", "pde"} & set(names) and cfg.t_final / cfg.h > MAX_STEPS:
        raise ValueError(f"--t / --h may be at most {MAX_STEPS} steps, got {cfg.t_final / cfg.h:.3g}")
    if "factorize" in names and cfg.t_final <= 0:
        raise ValueError(f"factorize needs --t > 0, got {cfg.t_final!r}")
    failures = []
    for name in names:
        sub = replace(cfg, experiment=name)
        for suffix in ("csv", "json"):  # in --out, an experiment's outputs are its last run's or none
            (cfg.out_dir / f"{name}.{suffix}").unlink(missing_ok=True)
        try:
            gates, diagnostics = RUNNERS[name](sub)
        except NumericalError as exc:
            kind = type(exc).__name__
            print(f"{name}: {kind}: {exc}", file=sys.stderr)
            gates, diagnostics = [Gate.exact(kind, 1.0, 0.0)], None
        _write_json(sub, gates, diagnostics)
        failures += [f"{name}:{g.name}" for g in gates if not g.passed]
    if failures:
        print("failed gates: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def report(results_dir: Path) -> tuple[dict, int]:
    """Merge every experiment summary in a directory.

    A JSON file that is not an object with a list of named gate objects
    raises ValueError.
    """
    entries = []
    failures = []
    for path in sorted(results_dir.glob("*.json")):
        if path.name == "report.json":
            continue
        data = json.loads(path.read_text())
        gates = data.get("gates", []) if isinstance(data, dict) else None
        if not isinstance(gates, list) or not all(
            isinstance(g, dict) and isinstance(g.get("name"), str) for g in gates
        ):
            raise ValueError(f"{path.name} is not a run summary")
        bad = [g["name"] for g in gates if not g["pass"]]
        entries.append(
            {
                "experiment": data["experiment"],
                "pass": not bad,
                "failures": bad,
                "max_drifts": {g["name"]: g["value"] for g in gates},
            }
        )
        failures += [f"{data['experiment']}:{name}" for name in bad]
    payload = {
        "schema": 1,
        "experiments": entries,
        "pass": not failures,
        "failures": failures,
    }
    (results_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload, 0 if not failures else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``parse_args`` keeps no state."""
    # Without allow_abbrev=False a prefix is a second spelling of a flag:
    # --se would read as --seed, and factorize --h as --help.
    parser = argparse.ArgumentParser(
        prog="biflow", description="isospectral-flow experiment driver", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("all",):
        p = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        for f in params_of(name):
            p.add_argument(
                f.metadata["flag"],
                dest=f.name,
                type=type(f.default),
                default=f.default,
                required=f.metadata["required"],
                help=f.metadata["help"],
            )
        p.add_argument("--out", type=Path, default=None, help="output directory")
    rep = sub.add_parser("report", help="consolidate a directory of run summaries", allow_abbrev=False)
    rep.add_argument("results_dir", type=Path)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The run configuration from the flags; --out defaults to $BIFLOW_OUT, else ./biflow-results."""
    out_dir = args.out
    if out_dir is None:
        out_dir = Path(os.environ.get("BIFLOW_OUT", "biflow-results"))
    values = {f.name: getattr(args, f.name) for f in params_of(args.command)}
    return ExperimentConfig(args.command, out_dir=out_dir, **values)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "report":
        try:
            payload, code = report(args.results_dir)
        except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    try:
        return run(_config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
