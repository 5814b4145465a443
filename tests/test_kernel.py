"""Tests for the frontier-memoized enumeration kernel (repro.core.kernel).

Covers the tentpole properties: every query goes to the kernel, it
produces results identical to the reference order enumerator
(``tests/reference``) on every registered test and on generated suites
(differential parity — the exactness proof made executable), the
same-source check on same-address load pairs makes it exact for ARM and
``plsc``, and the outcome-directed register pruning of ``is_allowed``
changes verdicts for nothing.
"""

import pytest

from reference import reference_allowed, reference_outcomes
from repro.core.axiomatic import CandidatePrefix, enumerate_outcomes, is_allowed
from repro.equivalence.randprog import RandomProgramConfig, random_suite
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.frontend.suite import resolve_suite
from repro.litmus.registry import all_tests, get_test
from repro.models.registry import get_model, model_names
from repro.models.spec import resolve_model
from repro.obs import collecting

_FAST_MODELS = ("sc", "sc-gamlv", "tso", "gam", "gam0", "wmm", "alpha_like")
_SAME_SOURCE_MODELS = ("arm", "plsc", "ctor:same_address_loads=arm")
"""Models the kernel serves through the same-source check."""

_LOAD_HEAVY = random_suite(
    60,
    seed=20261017,
    config=RandomProgramConfig(
        num_procs=2, max_instrs=4, num_locations=1, load_weight=6, rmw_weight=1.0
    ),
    name_prefix="loc1",
)
"""One-location, load-heavy programs with RMWs: dense in window pairs."""


def _assert_parity(test, names, prefix=None):
    """Outcome sets and verdicts must agree with the reference enumerator."""
    for name in names:
        model = resolve_model(name)
        kernel = enumerate_outcomes(test, model, project="full", prefix=prefix)
        reference = reference_outcomes(test, model, project="full", prefix=prefix)
        assert kernel == reference, f"{test.name} x {name}: outcome sets diverge"
        if test.asked is not None:
            assert is_allowed(test, model, prefix=prefix) == (
                reference_allowed(test, model, prefix=prefix)
            ), f"{test.name} x {name}: verdicts diverge"


def _dispatch_counters(run):
    with collecting() as recorder:
        run()
    counters = recorder.snapshot().counters
    return {
        name.rsplit(".", 1)[1]: count
        for name, count in counters.items()
        if name.startswith("engine.dispatch.")
    }


class TestDispatch:
    @pytest.mark.parametrize("name", ["gam", "arm", "plsc"])
    def test_auto_uses_kernel(self, name):
        test = get_test("dekker")
        prefix = CandidatePrefix(test)
        counts = _dispatch_counters(
            lambda: enumerate_outcomes(test, get_model(name), prefix=prefix)
        )
        assert counts == {"kernel": 1}
        assert prefix._kernels


class TestKernelInternals:
    def test_models_with_equal_dags_share_one_kernel(self):
        # gam0 and rmo are the same clause set; the prefix must solve one DP.
        test = get_test("corr")
        prefix = CandidatePrefix(test)
        enumerate_outcomes(test, get_model("gam0"), prefix=prefix)
        kernels_after_first = len(prefix._kernels)
        enumerate_outcomes(test, get_model("rmo"), prefix=prefix)
        assert len(prefix._kernels) == kernels_after_first

    def test_final_memories_align_with_addresses(self):
        test = get_test("coww")
        prefix = CandidatePrefix(test)
        model = get_model("gam")
        assert prefix.base(0) is not None
        kernel = prefix.kernel_for(0, model)
        for values in kernel.final_memories():
            assert len(values) == len(kernel.addresses)
            memory = kernel.as_memory(values)
            assert set(memory) == set(kernel.addresses)

    def test_unrealizable_combo_has_no_final_memory(self):
        # A single processor reading 1 from 'a' with no store to 'a' builds
        # no candidate at all; a load of a never-stored *feasible* value is
        # pruned inside the DP instead.  Exercise the DP branch: r1=0 then
        # r1=1 from the same address with only one store of 1 — the 0-then-
        # missing orderings die mid-placement, yet outcomes survive.
        builder = LitmusBuilder("kernel-prune", locations=("a",))
        builder.proc().st("a", 1)
        builder.proc().ld("r1", "a").ld("r2", "a")
        test = builder.build(asked={"P1.r1": 1, "P1.r2": 0})
        model = get_model("sc")
        assert is_allowed(test, model) == reference_allowed(test, model)

    @pytest.mark.parametrize("test_name", ["rmw-swap", "rmw-fetch-add", "rmw+ld"])
    def test_rmw_composite_nodes(self, test_name):
        test = get_test(test_name)
        _assert_parity(test, _FAST_MODELS + _SAME_SOURCE_MODELS)

    def test_same_source_check_gets_its_own_kernel(self):
        # ARM has GAM0's static DAG: on a combination with a same-address
        # load pair the two must not share one solved DP.
        test = get_test("corr")
        prefix = CandidatePrefix(test)
        arm, gam0 = get_model("arm"), get_model("gam0")
        index = next(i for i in range(len(prefix.combos)) if prefix.base(i))
        assert prefix.ppo_masks(index, arm) == prefix.ppo_masks(index, gam0)
        arm_kernel = prefix.kernel_for(index, arm)
        gam0_kernel = prefix.kernel_for(index, gam0)
        assert arm_kernel is not gam0_kernel
        assert prefix.kernel_for(index, arm) is arm_kernel

    @pytest.mark.parametrize("checking,plain", [("arm", "gam0"), ("plsc", "alpha_like")])
    def test_window_free_combinations_share_one_kernel(self, checking, plain):
        # mp has no same-address load pair, so the same-source check is
        # idle and the checking model reuses the plain model's solved DP.
        test = get_test("mp")
        prefix = CandidatePrefix(test)
        checking, plain = get_model(checking), get_model(plain)
        shared = 0
        for index in range(len(prefix.combos)):
            if prefix.base(index) is None:
                continue
            checking_kernel = prefix.kernel_for(index, checking)
            plain_kernel = prefix.kernel_for(index, plain)
            assert checking_kernel is plain_kernel
            shared += 1
        assert shared


class TestSameSourceParity:
    """Kernel vs reference enumerator for the same-source models (tier-1)."""

    def test_registered_suite(self):
        for test in all_tests():
            _assert_parity(test, _SAME_SOURCE_MODELS, prefix=CandidatePrefix(test))

    @pytest.mark.parametrize("suite", ["gen:edges=4", "rand:n=60,seed=3"])
    def test_generated_suites(self, suite):
        for test in resolve_suite(suite):
            _assert_parity(test, _SAME_SOURCE_MODELS, prefix=CandidatePrefix(test))

    def test_load_heavy_one_location_corpus(self):
        for test in _LOAD_HEAVY:
            _assert_parity(test, _SAME_SOURCE_MODELS, prefix=CandidatePrefix(test))


class TestParityQuick:
    """Kernel vs reference enumerator on representative figures (tier-1)."""

    @pytest.mark.parametrize(
        "test_name",
        ["dekker", "mp", "corr", "coww", "iriw", "rsw", "store-forwarding"],
    )
    def test_paper_figures_parity(self, test_name):
        test = get_test(test_name)
        prefix = CandidatePrefix(test)
        _assert_parity(test, ("sc", "gam", "wmm"), prefix=prefix)

    def test_explicit_outcome_with_memory_constraint(self):
        test = get_test("coww")
        addr_outcome = test.parse_outcome({"a": 2})
        for name in ("sc", "gam"):
            model = get_model(name)
            assert is_allowed(test, model, addr_outcome) == (
                reference_allowed(test, model, addr_outcome)
            )


@pytest.mark.slow
class TestParityFull:
    """The differential parity sweep: every registered test and generated
    suites, across the whole model zoo."""

    def test_registered_suite_parity(self):
        for test in all_tests():
            _assert_parity(test, model_names(), prefix=CandidatePrefix(test))

    def test_generated_suite_parity(self):
        for test in resolve_suite("gen:edges=3"):
            _assert_parity(test, model_names(), prefix=CandidatePrefix(test))

    def test_same_source_gen5_parity(self):
        for test in resolve_suite("gen:edges=5"):
            _assert_parity(test, _SAME_SOURCE_MODELS, prefix=CandidatePrefix(test))
