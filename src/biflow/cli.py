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
import json
import os
import sys
from dataclasses import dataclass, field
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
from .flows import bi_rhs, integrate, invariant_series
from .invariants import (
    IntegralIndex,
    enumerate_indices,
    gradient_loop,
    integral_independence_rank,
    poisson_bracket,
    spectral_coeffs,
)
from .laurent import BILoop
from .matcore import (
    NumericalError,
    SplitMix64,
    SymMatrix,
    commutator,
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


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 4
    seed: int = 0
    k: int = 2
    l: int = 0
    t_final: float = 1.0
    h: float = 1e-3
    m_samples: int = 256
    depth: int = 40
    out_dir: Path = field(default_factory=lambda: Path("."))
    tolerances: dict = field(default_factory=dict)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "n": self.n,
            "seed": self.seed,
            "k": self.k,
            "l": self.l,
            "t_final": self.t_final,
            "h": self.h,
            "m_samples": self.m_samples,
            "depth": self.depth,
            "tolerances": {k: self.tol(k) for k in DEFAULT_TOLERANCES},
        }


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


def _sample_state(n: int, seed: int) -> tuple[SymMatrix, "SkewMatrix"]:
    return random_sym(n, seed), random_skew_simple(n, seed + 10_000)


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
    path = cfg.out_dir / f"{cfg.experiment}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(cfg: ExperimentConfig, columns: list[str], rows) -> Path:
    path = cfg.out_dir / f"{cfg.experiment}.csv"
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
    s0, nmat = _sample_state(cfg.n, cfg.seed)
    idx = IntegralIndex(cfg.k, cfg.l)
    traj = integrate(s0, nmat, idx, cfg.t_final, cfg.h)
    series = invariant_series(traj)
    columns = ["t"] + list(series)
    rows = (
        [traj.times[i]] + [series[name][i] for name in series]
        for i in range(len(traj.times))
    )
    _write_csv(cfg, columns, rows)
    tol = cfg.tol("drift")
    gates = []
    for name, vals in series.items():
        drift = float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))
        gates.append(Gate.leq(f"drift_{name}", drift, tol))
    return gates


def run_invariants(cfg: ExperimentConfig) -> list[Gate]:
    s, nmat = _sample_state(cfg.n, cfg.seed)
    count = len(enumerate_indices(cfg.n))
    rank = integral_independence_rank(s, nmat)
    table = spectral_coeffs(s, nmat)
    return [
        Gate.exact("integral_count", count, cfg.n * cfg.n // 4),
        Gate.exact("independence_rank", rank, cfg.n * cfg.n // 4),
        Gate.leq("spectral_evenness", table.odd_z_residual, cfg.tol("spectral_evenness")),
    ]


def run_commute(cfg: ExperimentConfig) -> list[Gate]:
    s, nmat = _sample_state(cfg.n, cfg.seed)
    x = BILoop(s, nmat)
    idxs = enumerate_indices(cfg.n)
    worst = 0.0
    xnorm = x.loop().norm()
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            scale = max(
                1.0,
                gradient_loop(x, idxs[a]).norm() * gradient_loop(x, idxs[b]).norm() * xnorm,
            )
            worst = max(worst, abs(poisson_bracket(x, idxs[a], idxs[b])) / scale)
    return [Gate.leq("poisson_max_rel", worst, cfg.tol("poisson"))]


def run_factorize(cfg: ExperimentConfig) -> list[Gate]:
    s0, nmat = _sample_state(cfg.n, cfg.seed)
    x0 = BILoop(s0, nmat)
    idx = IntegralIndex(cfg.k, cfg.l)
    times = _factorize_times(cfg.t_final)
    # Every Birkhoff solve runs before the RK4 reference, which costs the
    # most, so that a run the solve rejects ends early.
    solved = []
    for t in times:
        fac = birkhoff(sample_exp(generator(x0, idx), t, cfg.m_samples), cfg.depth)
        solved.append((fac, conjugated_states(fac, x0)[0]))
    refs = _reference_states(s0, nmat, idx, times[-1])
    gates = []
    for t, (fac, s_fact), s_ode in zip(times, solved, refs):
        gap = float(np.linalg.norm(s_fact.full() - s_ode.full()))
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


def _factorize_times(t_final: float) -> list[float]:
    if t_final <= 0:
        return [0.25, 0.5, 1.0]
    return [0.25 * t_final, 0.5 * t_final, t_final]


def _reference_states(
    s0: SymMatrix, nmat: "SkewMatrix", idx: IntegralIndex, t_end: float
) -> list[SymMatrix]:
    """RK4 states at t_end/4, t_end/2 and t_end, all from one run.

    The step count is divisible by 4, so the first two checkpoints fall on
    steps; the step stays near 1e-4.
    """
    steps = 4 * max(1, round(t_end / 4e-4))
    states = integrate(s0, nmat, idx, t_end, t_end / steps).states
    return [states[steps // 4], states[steps // 2], states[steps]]


def run_findim(cfg: ExperimentConfig) -> list[Gate]:
    rng_seeds = range(cfg.seed, cfg.seed + 10)
    law = homo = induced = 0.0
    for sd in rng_seeds:
        g1 = GroupElem(*_sample_state(cfg.n, sd + 1))
        g2 = GroupElem(*_sample_state(cfg.n, sd + 2))
        a = DualElem(*_sample_state(cfg.n, sd + 3))
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
    bs = BlockState(
        rng.uniform(),
        rng.uniform(),
        rng.uniform(),
        np.array([rng.uniform() for _ in range(m)]),
        np.array([rng.uniform() for _ in range(m)]),
        random_sym(m, cfg.seed + 30),
    )
    nmat = n0(bs.n)
    sf = embed(bs).full()
    nf = nmat.full()
    dq = rhs_quadratic(bs)
    dc = rhs_cubic(bs)
    quad_gap = _block_gap(dq, commutator(nf, sf @ sf))
    cubic_gap = _block_gap(dc, commutator(nf, sf @ sf @ sf))

    _, path = integrate_block(bs, rhs_quadratic, cfg.t_final, cfg.h)
    trace_gap = max(abs((st.a + st.c) - (bs.a + bs.c)) for st in path)

    modes = 64
    x = 2.0 * np.pi * np.arange(modes) / modes
    st0 = PDEState.from_fields(
        0.4 * np.sin(x) + 0.2 * np.sin(3 * x), 0.3 * np.sin(2 * x), parity="odd"
    )
    times, pde_path = integrate_pde(st0, cfg.t_final, cfg.h)
    base = l2_pair(st0)
    l2_drift = max(abs(l2_pair(stt) - base) for stt in pde_path)
    leak = max(parity_leakage(stt) for stt in pde_path)
    _write_csv(
        cfg,
        ["t", "l2_pair", "parity_leakage"],
        (
            [times[i], l2_pair(pde_path[i]), parity_leakage(pde_path[i])]
            for i in range(len(times))
        ),
    )
    return [
        Gate.leq("block_oracle_quadratic", quad_gap, cfg.tol("block_oracle_quadratic")),
        Gate.leq("block_oracle_cubic", cubic_gap, cfg.tol("block_oracle_cubic")),
        Gate.leq("trace_pair", trace_gap, cfg.tol("trace_pair")),
        Gate.leq("l2_drift", l2_drift, cfg.tol("l2_drift")),
        Gate.leq("parity", leak, cfg.tol("parity")),
    ]


def _block_gap(d: BlockState, oracle: np.ndarray) -> float:
    got = np.zeros_like(oracle)
    got[0, 0], got[0, 1], got[1, 1] = d.a, d.b, d.c
    got[1, 0] = d.b
    got[0, 2:] = d.u
    got[2:, 0] = d.u
    got[1, 2:] = d.v
    got[2:, 1] = d.v
    got[2:, 2:] = d.B.full()
    return float(np.abs(got - oracle).max())


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
        parity_check(*_sample_state(cfg.n, cfg.seed + t), i, j)
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
    from .matcore import numerical_rank

    witness_ok = numerical_rank(fams) == cfg.n * (cfg.n + 1) // 2
    hits = sum(
        generic_independence(*_sample_state(cfg.n, cfg.seed + 100 + t))
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
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    names = EXPERIMENTS if cfg.experiment == "all" else (cfg.experiment,)
    failures = []
    for name in names:
        sub = ExperimentConfig(**{**cfg.__dict__, "experiment": name})
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biflow", description="isospectral-flow experiment driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("all",):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--n", type=int, default=4, help="matrix dimension")
        p.add_argument("--seed", type=int, required=True, help="sampling seed")
        p.add_argument("--k", type=int, default=2, help="flow index k")
        p.add_argument("--l", type=int, default=0, help="flow index l (even)")
        p.add_argument("--t", type=float, default=1.0, dest="t_final", help="final time")
        p.add_argument("--h", type=float, default=1e-3, help="RK4 step")
        p.add_argument("--m", type=int, default=256, dest="m_samples", help="circle samples")
        p.add_argument("--j", type=int, default=40, dest="depth", help="factor depth")
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


def _config_from_args(args) -> ExperimentConfig:
    values = {
        "experiment": args.command,
        "n": args.n,
        "seed": args.seed,
        "k": args.k,
        "l": args.l,
        "t_final": args.t_final,
        "h": args.h,
        "m_samples": args.m_samples,
        "depth": args.depth,
    }
    tolerances = {}
    for item in args.tol:
        name, _, raw = item.partition("=")
        if not raw or name not in DEFAULT_TOLERANCES:
            raise ValueError(f"bad tolerance override {item!r}")
        tolerances[name] = float(raw)
    out_dir = args.out
    if args.config is not None:
        overrides = json.loads(args.config.read_text())
        tolerances.update(overrides.pop("tolerances", {}))
        if "out" in overrides:
            out_dir = Path(overrides.pop("out"))
        for key, val in overrides.items():
            if key not in values:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = type(values[key])(val)
    if out_dir is None:
        out_dir = Path(os.environ.get("BIFLOW_OUT", "biflow-results"))
    return ExperimentConfig(out_dir=Path(out_dir), tolerances=tolerances, **values)


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
        cfg = _config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
