"""The settable parameters of the public functions and of the command line, pinned.

Thresholds, iteration caps and the gate tolerances are module constants
(``RANK_TOL``, ``EXP_MAX_TERMS``, ``cli.TOLERANCES``, ...); a run is set by
its flags alone, and each experiment takes only the flags it reads.  A
public function that takes a new defaulted parameter, or a subcommand that
takes a new flag, fails here until the tables below name it, so each new
knob is added on purpose.
"""

import importlib
import inspect
import pkgutil
from types import FunctionType

import pytest

import biflow
from biflow import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(biflow.__path__))

# Every defaulted parameter of a function or method named in a module's __all__.
DEFAULTED = {
    "factorization.birkhoff": ("depth",),
    "factorization.circle_symmetry_residual": ("m_samples",),
    "factorization.sample_exp": ("m_samples", "half"),
    "flows.rk4_path": ("project",),
    "laurent.LaurentLoop.from_terms": ("n",),
    "laurent.is_sigma_fixed": ("tol",),
    "laurent.is_sigma_star": ("tol",),
    "laurent.random_dual_loop": ("scale",),
    "laurent.random_sigma_fixed_loop": ("scale",),
    "matcore.SplitMix64.matrix": ("m",),
    "matcore.eigenvalues_sym": ("tol", "max_sweeps"),
    "symmetrizer.witness_pair": ("c",),
}

# The options of every experiment subcommand besides -h/--help: the flags its
# experiment reads, and --out.  all takes their union, report only -h/--help.
FLAGS = {
    "flow": {"--n", "--seed", "--k", "--l", "--t", "--h", "--out"},
    "invariants": {"--n", "--seed", "--out"},
    "commute": {"--n", "--seed", "--out"},
    "factorize": {"--n", "--seed", "--k", "--l", "--t", "--m", "--j", "--out"},
    "findim": {"--n", "--seed", "--out"},
    "pde": {"--n", "--seed", "--t", "--h", "--out"},
    "lemma41": {"--n", "--seed", "--out"},
}


def public_functions(name):
    """(qualified name, function) for each function and method a module's __all__ names."""
    module = importlib.import_module(f"biflow.{name}")
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, FunctionType):
            yield f"{name}.{attr}", obj
        elif isinstance(obj, type) and not issubclass(obj, BaseException):
            for key, val in vars(obj).items():
                func = getattr(val, "__func__", val)
                if isinstance(func, FunctionType):
                    yield f"{name}.{attr}.{key}", func


def test_defaulted_parameters_are_pinned():
    found = {}
    for name in MODULES:
        for qualname, func in public_functions(name):
            params = inspect.signature(func).parameters.values()
            defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
            if defaulted:
                found[qualname] = defaulted
    assert found == DEFAULTED


def test_flags_are_pinned():
    want = {**FLAGS, "all": set().union(*FLAGS.values()), "report": set()}
    subcommands = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
    assert set(subcommands) == set(want)
    for name, parser in subcommands.items():
        found = sorted(opt for action in parser._actions for opt in action.option_strings)
        assert found == sorted({"-h", "--help", *want[name]}), name


# A flag the experiment does not read, and a prefix of one it does.  Without
# allow_abbrev=False, --se read as --seed, and factorize --h as --help (exit 0).
@pytest.mark.parametrize(
    "args",
    [
        ["factorize", "--h", "0.5"],
        ["commute", "--t", "1"],
        ["pde", "--k", "3"],
        ["lemma41", "--m", "64"],
        ["flow", "--se", "1"],
    ],
    ids=["factorize-h", "commute-t", "pde-k", "lemma41-m", "flow-se"],
)
def test_unread_flag_refused(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main([*args, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(args[1:])}" in err and "Traceback" not in err
    assert not out.exists()
