"""repro — a reproduction of "Constructing a Weak Memory Model" (ISCA 2018).

The package implements GAM (the General Atomic Memory Model) end to end:

* :mod:`repro.isa` — the litmus-test instruction set;
* :mod:`repro.litmus` — litmus infrastructure plus every test in the paper;
* :mod:`repro.core` — GAM's axiomatic and operational definitions, the
  construction procedure, dependency/ppo machinery and per-location SC;
* :mod:`repro.models` — the model zoo (SC, TSO, GAM, GAM0, ARM, WMM-like,
  Alpha-like, per-location-SC yardstick);
* :mod:`repro.equivalence` — empirical equivalence checking of the two
  definitions, including random-program fuzzing;
* :mod:`repro.engine` — the batch evaluation engine behind the verdict
  matrix, strength lattice and equivalence suites: per-test candidate
  prefixes shared across the model zoo, optional multiprocessing fan-out
  (``--jobs``) and an on-disk result cache (``--cache``);
* :mod:`repro.campaign` — sharded, resumable differential model-hunt
  campaigns (``repro hunt``): mass verdict evaluation over generated
  suites, discrepancy mining between model pairs, and greedy witness
  minimization down to re-verified ``.litmus`` files;
* :mod:`repro.sim` + :mod:`repro.workloads` — the out-of-order timing
  simulator and SPEC-like synthetic workloads behind the paper's
  performance evaluation (Figure 18, Tables II-III);
* :mod:`repro.eval` — harnesses that regenerate each table and figure,
  plus differential analyses over their matrices.

See ``docs/architecture.md`` for the narrative map of these layers.

Quickstart::

    from repro import get_test, get_model, is_allowed
    test = get_test("dekker")
    assert is_allowed(test, get_model("gam"))       # weak model allows
    assert not is_allowed(test, get_model("sc"))    # SC forbids
"""

from .core.axiomatic import enumerate_outcomes, is_allowed
from .core.construction import assemble, derivation_chain
from .core.operational import (
    GAM0_MACHINE,
    GAM_MACHINE,
    explore,
    operational_outcomes,
)
from .litmus import LitmusBuilder, LitmusTest, Outcome, all_tests, get_test
from .models import (
    get_model,
    model_names,
    resolve_model,
    resolve_models,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "get_test",
    "all_tests",
    "LitmusTest",
    "LitmusBuilder",
    "Outcome",
    "get_model",
    "model_names",
    "resolve_model",
    "resolve_models",
    "is_allowed",
    "enumerate_outcomes",
    "assemble",
    "derivation_chain",
    "explore",
    "operational_outcomes",
    "GAM_MACHINE",
    "GAM0_MACHINE",
]
