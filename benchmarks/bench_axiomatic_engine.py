"""Performance of the axiomatic checking engine itself.

These are the operations a memory-model user pays for: full outcome
enumeration on small tests, verdicts on the paper's hardest figures (RSW /
RNSW, six-load programs with dependency chains), and a four-processor
test (IRIW).

Every query is answered by the frontier kernel (:mod:`repro.core.kernel`).
These are micro-benchmarks; end-to-end gains are measured by ``perfbench/``.
"""

from __future__ import annotations

import pytest

from repro.core.axiomatic import enumerate_outcomes, is_allowed, value_domains
from repro.litmus.registry import get_test
from repro.models.registry import get_model


@pytest.mark.parametrize("test_name", ["dekker", "mp+addr", "corr"])
def test_enumerate_small(benchmark, test_name):
    test = get_test(test_name)
    gam = get_model("gam")
    outcomes = benchmark(lambda: enumerate_outcomes(test, gam))
    assert outcomes


@pytest.mark.parametrize("test_name", ["rsw", "rnsw"])
def test_verdict_hard_figures(benchmark, test_name):
    test = get_test(test_name)
    gam = get_model("gam")
    allowed = benchmark(lambda: is_allowed(test, gam))
    assert allowed is False


def test_verdict_iriw_four_procs(benchmark):
    test = get_test("iriw")
    gam = get_model("gam")
    allowed = benchmark(lambda: is_allowed(test, gam))
    assert allowed is True


def test_outcome_set_iriw(benchmark):
    """Full outcome-set enumeration on the four-processor test."""
    test = get_test("iriw")
    gam = get_model("gam")
    outcomes = benchmark(lambda: enumerate_outcomes(test, gam, project="full"))
    assert outcomes


def test_arm_dynamic_clause_overhead(benchmark):
    """ARM verdicts: the kernel's same-source check on same-address load
    pairs (SALdLdARM), carried in the DP state."""
    test = get_test("rsw")
    arm = get_model("arm")
    allowed = benchmark(lambda: is_allowed(test, arm))
    assert allowed is True


def test_value_domain_closure(benchmark):
    test = get_test("rnsw")
    domains = benchmark(lambda: value_domains(test))
    assert domains.everything()
