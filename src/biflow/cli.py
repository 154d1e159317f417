"""Batch experiment driver.

Each subcommand configures one experiment, runs it against its tolerance
gates, and writes a JSON summary (plus a CSV time series where the
experiment produces one).  Exit status: 0 when every gate passes, 1 on a
gate failure (the failing gate is named on stderr), 2 on a usage error.
A numerical failure (:class:`~biflow.matcore.NumericalError`) ends only its
own experiment: the summary records it as one failing gate named after the
error class, and the remaining experiments of ``all`` still run.

Output formats are stable contracts: JSON summaries carry ``schema: 1``
and a ``gates`` list of ``{name, value, tol, pass}``; CSV files start with
a version header line (the only line allowed to differ between releases),
a ``# schema: 1`` line, and a column-documentation comment.  All
randomness flows through the explicit --seed; reruns with the same config
are byte-identical after the version line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
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
from .factorization import (
    birkhoff,
    circle_symmetry_residual,
    conjugated_states,
    generator,
    sample_exp,
)
from .findim import (
    DualElem,
    GroupElem,
    coadjoint_f,
    group_mul,
    induced_flow_rhs,
    orbit_dimension_f,
)
from .flows import bi_rhs, drift_report, integrate, invariant_series
from .invariants import (
    IntegralIndex,
    enumerate_indices,
    integral_independence_rank,
    poisson_matrix,
    spectral_coeffs,
)
from .laurent import BILoop
from .matcore import (
    NumericalError,
    SplitMix64,
    SymMatrix,
    commutator,
    numerical_rank,
    random_skew_simple,
    random_sym,
)
from .symmetrizer import (
    cayley_hamilton_dependence,
    degree_below,
    generic_independence,
    lemma_a_residual,
    parity_check,
    sym,
    witness_pair,
)

EXPERIMENTS = ("flow", "invariants", "commute", "factorize", "findim", "pde", "lemma41")

DEFAULT_TOLERANCES = {
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
    """A run parameter, set by its flag or by a config-file key of its name."""
    return field(default=default, metadata={"flag": flag, "help": help, "required": required})


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = _param("--n", 4, "matrix dimension")
    seed: int = _param("--seed", 0, "sampling seed", required=True)
    k: int = _param("--k", 2, "flow index k")
    l: int = _param("--l", 0, "flow index l (even)")
    t_final: float = _param("--t", 1.0, "final time")
    h: float = _param(
        "--h",
        1e-3,
        "RK4 step (factorize: the coarse step, at most 1e-3, of its step-doubling reference)",
    )
    m_samples: int = _param("--m", 256, "circle samples")
    depth: int = _param("--j", 40, "factor depth")
    out_dir: Path = field(default_factory=lambda: Path("."))
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["out_dir"]
        out["tolerances"] = {k: self.tol(k) for k in DEFAULT_TOLERANCES}
        return out


PARAMS = [f for f in fields(ExperimentConfig) if "flag" in f.metadata]


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


def sample_state(n: int, seed: int) -> tuple[SymMatrix, "SkewMatrix"]:
    return random_sym(n, seed), random_skew_simple(n, seed + 10_000)


def _out_path(cfg: ExperimentConfig, suffix: str) -> Path:
    """Output file of cfg's experiment; the directory is made on first write."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir / f"{cfg.experiment}.{suffix}"


def _write_json(cfg: ExperimentConfig, gates: list[Gate]) -> Path:
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
    path = _out_path(cfg, "json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(cfg: ExperimentConfig, columns: list[str], rows) -> Path:
    path = _out_path(cfg, "csv")
    lines = [
        f"# biflow {__version__}",
        "# schema: 1",
        "# columns: " + ", ".join(columns),
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


# -- experiments ---------------------------------------------------------------


def run_flow(cfg: ExperimentConfig) -> list[Gate]:
    s0, nmat = sample_state(cfg.n, cfg.seed)
    idx = IntegralIndex(cfg.k, cfg.l)
    traj = integrate(s0, nmat, idx, cfg.t_final, cfg.h)
    series = invariant_series(traj)
    _write_csv(cfg, ["t", *series], np.column_stack([traj.times, *series.values()]))
    tol = cfg.tol("drift")
    return [Gate.leq(f"drift_{name}", d, tol) for name, d in drift_report(series).items()]


def run_invariants(cfg: ExperimentConfig) -> list[Gate]:
    s, nmat = sample_state(cfg.n, cfg.seed)
    count = len(enumerate_indices(cfg.n))
    rank = integral_independence_rank(s, nmat)
    table = spectral_coeffs(s, nmat)
    return [
        Gate.exact("integral_count", count, cfg.n * cfg.n // 4),
        Gate.exact("independence_rank", rank, cfg.n * cfg.n // 4),
        Gate.leq("spectral_evenness", table.odd_z_residual, cfg.tol("spectral_evenness")),
    ]


def run_commute(cfg: ExperimentConfig) -> list[Gate]:
    brackets, scale = poisson_matrix(*sample_state(cfg.n, cfg.seed))
    worst = np.max(np.abs(brackets) / scale)  # antisymmetric: the upper triangle's max
    return [Gate.leq("poisson_max_rel", worst, cfg.tol("poisson"))]


def run_factorize(cfg: ExperimentConfig) -> list[Gate]:
    s0, nmat = sample_state(cfg.n, cfg.seed)
    x0 = BILoop(s0, nmat)
    idx = IntegralIndex(cfg.k, cfg.l)
    times = [cfg.t_final / 4, cfg.t_final / 2, cfg.t_final]
    # Every Birkhoff solve runs before the RK4 reference, which costs the
    # most, so that a run the solve rejects ends early.
    solved = []
    for t in times:
        fac = birkhoff(sample_exp(generator(x0, idx), t, cfg.m_samples), cfg.depth)
        solved.append((fac, conjugated_states(fac, x0)[0]))
    refs = _reference_states(s0, nmat, idx, times[-1], cfg.h)
    gates = []
    for t, (fac, s_fact), s_ode in zip(times, solved, refs):
        gap = float(np.linalg.norm(s_fact.full() - s_ode))
        tag = repr(float(t))
        gates += [
            Gate.leq(f"birkhoff_residual_t={tag}", fac.residual, cfg.tol("birkhoff_residual")),
            Gate.leq(
                f"factor_symmetry_t={tag}",
                max(
                    circle_symmetry_residual(fac.g_minus, cfg.m_samples),
                    circle_symmetry_residual(fac.g_plus, cfg.m_samples),
                ),
                cfg.tol("factor_symmetry"),
            ),
            Gate.exact(f"det_winding_t={tag}", fac.winding, 0),
            Gate.leq(f"ode_gap_t={tag}", gap, cfg.tol("ode_gap")),
        ]
    return gates


def _reference_states(
    s0: SymMatrix, nmat: "SkewMatrix", idx: IntegralIndex, t_end: float, h: float
) -> np.ndarray:
    """RK4 reference at t_end/4, t_end/2 and t_end, extrapolated: (3, n, n).

    Global step doubling (Hairer, Norsett & Wanner, Solving ODEs I, II.4):
    one run at a coarse step near min(h, 1e-3) and one at half that step.
    The estimate is the largest |fine - coarse|_F / 15 over the checkpoints,
    the fine run's error by Richardson's rule.  Above 1e-10 max(1, |S0|_F)
    the step halves and the fine run becomes the coarse one, until the fine
    run has at least twice the steps of one run at min(h, 1e-4).  The result
    is the extrapolation (16 fine - coarse) / 15 (II.9), exactly symmetric.
    Step counts are divisible by 4, so every checkpoint falls on a step.
    """

    def checkpoints(steps: int) -> np.ndarray:
        states = integrate(s0, nmat, idx, t_end, t_end / steps).states
        return states[[steps // 4, steps // 2, steps]]

    def step_count(step: float) -> int:
        return 4 * max(1, round(t_end / (4 * step)))

    steps, most = step_count(min(h, 1e-3)), 2 * step_count(min(h, 1e-4))
    budget = 1e-10 * max(1.0, float(np.linalg.norm(s0.full())))
    fine = checkpoints(steps)
    while True:
        coarse, steps = fine, 2 * steps
        fine = checkpoints(steps)
        estimate = np.linalg.norm(fine - coarse, axis=(1, 2)).max() / 15
        if steps >= most or estimate <= budget:
            return (16 * fine - coarse) / 15


def run_findim(cfg: ExperimentConfig) -> list[Gate]:
    rng_seeds = range(cfg.seed, cfg.seed + 10)
    law = homo = induced = 0.0
    for sd in rng_seeds:
        g1 = GroupElem(*sample_state(cfg.n, sd + 1))
        g2 = GroupElem(*sample_state(cfg.n, sd + 2))
        a = DualElem(*sample_state(cfg.n, sd + 3))
        want = g1.full() @ g2.full()
        law = max(law, float(np.linalg.norm(group_mul(g1, g2).full() - want)))
        lhs = coadjoint_f(group_mul(g1, g2), a)
        rhs = coadjoint_f(g1, coadjoint_f(g2, a))
        homo = max(homo, float(np.linalg.norm(lhs.S.full() - rhs.S.full())))
        induced = max(
            induced,
            float(np.linalg.norm(induced_flow_rhs(a).S.full() - bi_rhs(a.S, a.N).full())),
        )
    dims_ok = all(
        orbit_dimension_f(random_skew_simple(n, cfg.seed + 20 + n)) == 2 * (n * n // 4)
        for n in range(2, 7)
    )
    return [
        Gate.leq("group_law", law, cfg.tol("group_law")),
        Gate.leq("homomorphism", homo, cfg.tol("homomorphism")),
        Gate.leq("induced_flow", induced, cfg.tol("induced_flow")),
        Gate.exact("orbit_dimensions", 1.0 if dims_ok else 0.0, 1.0),
    ]


def run_pde(cfg: ExperimentConfig) -> list[Gate]:
    rng = SplitMix64(cfg.seed)
    m = max(cfg.n - 2, 3)
    a, b, c = rng.uniform(), rng.uniform(), rng.uniform()
    bs = BlockState(a, b, c, rng.matrix(1, m)[0], rng.matrix(1, m)[0], random_sym(m, cfg.seed + 30))
    nf = n0(bs.n).full()
    sf = embed(bs).full()
    quad_gap = float(np.abs(embed(rhs_quadratic(bs)).full() - commutator(nf, sf @ sf)).max())
    cubic_gap = float(np.abs(embed(rhs_cubic(bs)).full() - commutator(nf, sf @ sf @ sf)).max())

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
    _write_csv(cfg, ["t", "l2_pair", "parity_leakage"], zip(times, l2, leaks))
    return [
        Gate.leq("block_oracle_quadratic", quad_gap, cfg.tol("block_oracle_quadratic")),
        Gate.leq("block_oracle_cubic", cubic_gap, cfg.tol("block_oracle_cubic")),
        Gate.leq("trace_pair", trace_gap, cfg.tol("trace_pair")),
        Gate.leq("l2_drift", l2_drift, cfg.tol("l2_drift")),
        Gate.leq("parity", leaks.max(), cfg.tol("parity")),
    ]


def run_lemma41(cfg: ExperimentConfig) -> list[Gate]:
    rng = SplitMix64(cfg.seed)
    worst_a = 0.0
    for n in range(2, 6):
        a = rng.matrix(n)
        b = rng.matrix(n)
        for i in range(5):
            for j in range(5 - i):
                worst_a = max(worst_a, lemma_a_residual(a, b, i, j))
    parity_ok = all(
        parity_check(*sample_state(cfg.n, cfg.seed + t), i, j)
        for t in range(3)
        for i in range(3)
        for j in range(3)
    )
    worst_c = max(
        cayley_hamilton_dependence(SplitMix64(cfg.seed + n).matrix(n), SplitMix64(cfg.seed + 50 + n).matrix(n))
        for n in range(2, 6)
    )
    aw, bw = witness_pair(cfg.n, c=2.0)
    fams = [sym(aw, bw, i, j) for i, j in degree_below(cfg.n)]
    fams = [f / np.linalg.norm(f) for f in fams]
    witness_ok = numerical_rank(fams) == cfg.n * (cfg.n + 1) // 2
    hits = sum(
        generic_independence(*sample_state(cfg.n, cfg.seed + 100 + t))
        == cfg.n * (cfg.n + 1) // 2
        for t in range(20)
    )
    return [
        Gate.leq("cancellation_identity", worst_a, cfg.tol("cancellation")),
        Gate.exact("symmetrizer_parity", 1.0 if parity_ok else 0.0, 1.0),
        Gate.leq("degree_reduction", worst_c, cfg.tol("degree_reduction")),
        Gate.exact("witness_rank", 1.0 if witness_ok else 0.0, 1.0),
        Gate.exact("generic_rank_hits", 1.0 if hits >= 19 else 0.0, 1.0),
    ]


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
    if cfg.h <= 0:
        raise ValueError(f"--h must be positive, got {cfg.h!r}")
    if cfg.m_samples < 4 or cfg.m_samples & (cfg.m_samples - 1):
        raise ValueError(f"--m must be a power of two, at least 4, got {cfg.m_samples!r}")
    if cfg.depth < 1:
        raise ValueError(f"--j must be at least 1, got {cfg.depth!r}")
    if "factorize" in names and cfg.t_final <= 0:
        raise ValueError(f"factorize needs --t > 0, got {cfg.t_final!r}")
    failures = []
    for name in names:
        sub = replace(cfg, experiment=name)
        try:
            gates = RUNNERS[name](sub)
        except NumericalError as exc:
            kind = type(exc).__name__
            print(f"{name}: {kind}: {exc}", file=sys.stderr)
            gates = [Gate.exact(kind, 1.0, 0.0)]
        _write_json(sub, gates)
        failures += [f"{name}:{g.name}" for g in gates if not g.passed]
    if failures:
        print("failed gates: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def report(results_dir: Path) -> tuple[dict, int]:
    """Merge every experiment summary in a directory."""
    entries = []
    failures = []
    for path in sorted(results_dir.glob("*.json")):
        if path.name == "report.json":
            continue
        data = json.loads(path.read_text())
        bad = [g["name"] for g in data.get("gates", []) if not g["pass"]]
        entries.append(
            {
                "experiment": data["experiment"],
                "pass": not bad,
                "failures": bad,
                "max_drifts": {
                    g["name"]: g["value"] for g in data.get("gates", [])
                },
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
    parser = argparse.ArgumentParser(
        prog="biflow", description="isospectral-flow experiment driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("all",):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        for f in PARAMS:
            p.add_argument(
                f.metadata["flag"],
                dest=f.name,
                type=type(f.default),
                default=f.default,
                required=f.metadata["required"],
                help=f.metadata["help"],
            )
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument(
            "--tol",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override one tolerance gate",
        )
        p.add_argument("--config", type=Path, default=None, help="JSON config overriding flags")
    rep = sub.add_parser("report", help="consolidate a directory of run summaries")
    rep.add_argument("results_dir", type=Path)
    return parser


def _tolerance(name: str, raw) -> float:
    """One tolerance override, from ``--tol name=value`` or the config file."""
    if name not in DEFAULT_TOLERANCES:
        raise ValueError(f"unknown tolerance {name!r}")
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"tolerance {name} needs a number, got {raw!r}") from None


def _config_number(key: str, kind: type, val) -> int | float:
    """A config-file value for a numeric parameter: a JSON number, whole for int."""
    whole = not isinstance(val, float) or val.is_integer()
    if isinstance(val, bool) or not isinstance(val, (int, float)) or (kind is int and not whole):
        raise ValueError(f"config key {key!r} needs {kind.__name__}, got {val!r}")
    return kind(val)


def _config_from_args(args) -> ExperimentConfig:
    """The run configuration: flags first, then the config file over them.

    Config-file keys are the field names of :class:`ExperimentConfig` other
    than ``experiment``; every value is checked here, before anything runs.
    """
    values = {f.name: getattr(args, f.name) for f in PARAMS}
    tolerances = {}
    for item in args.tol:
        name, _, raw = item.partition("=")
        tolerances[name] = _tolerance(name, raw)
    out_dir = args.out
    if args.config is not None:
        overrides = json.loads(args.config.read_text())
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in overrides.items():
            if key in values:
                values[key] = _config_number(key, type(values[key]), val)
            elif key == "tolerances" and isinstance(val, dict):
                tolerances.update({name: _tolerance(name, raw) for name, raw in val.items()})
            elif key == "out_dir" and isinstance(val, str):
                out_dir = Path(val)
            else:
                keys = ", ".join([*values, "out_dir", "tolerances"])
                raise ValueError(f"bad config entry {key!r}: {val!r} (keys: {keys})")
    if out_dir is None:
        out_dir = Path(os.environ.get("BIFLOW_OUT", "biflow-results"))
    return ExperimentConfig(args.command, out_dir=out_dir, tolerances=tolerances, **values)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "report":
        try:
            payload, code = report(args.results_dir)
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    try:
        return run(_config_from_args(args))
    except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
