import importlib
import pkgutil

import numpy as np
import pytest

import semorder
from semorder.dictionary import CUBIC_B_SPLINE, TRIGONOMETRIC, Dictionary
from semorder.empproc import MomentPair, rademacher_diagnostic, rate_experiment
from semorder.errors import UsageError
from semorder.order import consistency_experiment
from semorder.regress import ClassSpec, MisspecTruth, misspec_experiment
from semorder.semgen import EdgeFunction, SemSpec, identifiability_gap, sample

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(semorder.__path__))


@pytest.mark.parametrize("name", ["semorder"] + [f"semorder.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


CHAIN = SemSpec(p=2, order=(0, 1), edges={(0, 1): EdgeFunction.sine(1.0, 1.0)}, noise_sd=(1.0, 0.5))
SPLINE = ClassSpec(Dictionary(CUBIC_B_SPLINE, 6, (-5.0, 5.0)))
TRIG = ClassSpec(Dictionary(TRIGONOMETRIC, 3, (-1.0, 1.0)))
CUBIC = MisspecTruth(mean=lambda x: x**3, noise_sd=0.3)
GRID = [{"n": 64, "p": 2, "N": 2}]


SIZE_CASES = {
    "sample-n-2.5": (lambda: sample(CHAIN, 2.5, 0), "n"),
    "sample-n-str": (lambda: sample(CHAIN, "100", 0), "n"),
    "gap-oracle_n-5000.5": (lambda: identifiability_gap(CHAIN, SPLINE, oracle_n=5000.5), "oracle_n"),
    "gap-oracle_n--5": (lambda: identifiability_gap(CHAIN, SPLINE, oracle_n=-5), "oracle_n"),
    "consistency-reps-2.5": (lambda: consistency_experiment(CHAIN, SPLINE, [100], reps=2.5), "reps"),
    "rates-reps-2.5": (lambda: rate_experiment("case4", GRID, reps=2.5), "reps"),
    "rademacher-reps-30.5": (
        lambda: rademacher_diagnostic(np.ones((10, 1)), MomentPair(np.eye(1), np.eye(1)), reps=30.5),
        "reps",
    ),
    "misspec-reps-2.5": (lambda: misspec_experiment(CUBIC, TRIG, [100], reps=2.5, oracle_n=2000), "reps"),
    "misspec-oracle_n--5": (lambda: misspec_experiment(CUBIC, TRIG, [100], reps=1, oracle_n=-5), "oracle_n"),
    "misspec-oracle_n-0": (lambda: misspec_experiment(CUBIC, TRIG, [100], reps=1, oracle_n=0), "oracle_n"),
    "misspec-oracle_n-2000.5": (lambda: misspec_experiment(CUBIC, TRIG, [100], reps=1, oracle_n=2000.5), "oracle_n"),
    # the constructors check their own numbers and flags, neither truncating nor coercing them
    "semspec-p-2.5": (lambda: SemSpec(p=2.5, order=(0, 1), edges={}, noise_sd=(1.0, 1.0)), "sem entry 'p'"),
    "semspec-p-True": (lambda: SemSpec(p=True, order=(0,), edges={}, noise_sd=(1.0,)), "sem entry 'p'"),
    "semspec-order-1.7": (lambda: SemSpec(p=3, order=(0, 1.7, 2), edges={}, noise_sd=(1.0,) * 3), "sem entry 'order'"),
    "semspec-edge-0.9": (
        lambda: SemSpec(p=2, order=(0, 1), edges={(0.9, 1): EdgeFunction.linear(1.0)}, noise_sd=(1.0, 1.0)),
        "edge endpoint",
    ),
    "semspec-edges-list": (
        lambda: SemSpec(p=2, order=(0, 1), edges=[((0, 1), EdgeFunction.linear(1.0))], noise_sd=(1.0, 1.0)),
        "edges",
    ),
    "semspec-edge-triple": (
        lambda: SemSpec(p=3, order=(0, 1, 2), edges={(0, 1, 2): EdgeFunction.linear(1.0)}, noise_sd=(1.0,) * 3),
        "edge key",
    ),
    "dictionary-size-True": (lambda: Dictionary(TRIGONOMETRIC, True, (0.0, 1.0)), "dictionary size"),
    "dictionary-domain-str": (lambda: Dictionary(TRIGONOMETRIC, 3, ("0", "1")), "dictionary domain"),
    "class-intercept-str": (lambda: ClassSpec(TRIG.dictionary, intercept="false"), "class entry 'intercept'"),
    "rates-grid-5": (lambda: rate_experiment("case4", 5, reps=1), "grid"),
    "rates-grid-None": (lambda: rate_experiment("case4", None, reps=1), "grid"),
    "rates-domain-str": (lambda: rate_experiment("case4", GRID, reps=1, domain=("0", "1")), "dictionary domain"),
}


@pytest.mark.parametrize("case", SIZE_CASES)
def test_size_arguments_must_be_positive_integers(case):
    # each is checked before any sampling, so numpy never sees it
    call, name = SIZE_CASES[case]
    with pytest.raises(UsageError, match=rf"^{name} must be"):
        call()
