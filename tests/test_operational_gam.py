"""Unit tests for the Figure 17 abstract machine (repro.core.operational)."""

import pytest

from repro.core import operational
from repro.core.operational import (
    GAM0_MACHINE,
    GAM_MACHINE,
    MachineVariant,
    explore,
    operational_allows,
    operational_outcomes,
)
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.registry import all_tests, get_test


class TestVariants:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MachineVariant("bad", same_address_loads="sometimes")

    def test_canonical_variants(self):
        assert GAM_MACHINE.same_address_loads == "saldld"
        assert GAM0_MACHINE.same_address_loads == "none"


class TestFigure17Behaviours:
    def test_dekker_all_four_outcomes(self):
        result = explore(get_test("dekker"), GAM_MACHINE)
        assert len(result.outcomes) == 4
        assert result.terminal_states > 0
        assert result.states_visited >= result.terminal_states

    def test_oota_forbidden(self):
        assert not operational_allows(get_test("oota"), GAM_MACHINE)

    def test_store_forwarding_forced(self):
        # Figure 8: the machine can only produce r2 = 0.
        outcomes = operational_outcomes(get_test("store-forwarding"), GAM_MACHINE)
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert outcome.reg_bindings()[(0, "r2")] == 0

    def test_load_speculation_repaired(self):
        # Figure 9: speculative load execution must be squashed and redone.
        outcomes = operational_outcomes(get_test("load-speculation"), GAM_MACHINE)
        assert {o.reg_bindings()[(0, "r2")] for o in outcomes} == {1}

    def test_corr_forbidden_by_gam_machine(self):
        assert not operational_allows(get_test("corr"), GAM_MACHINE)

    def test_corr_allowed_by_gam0_machine(self):
        assert operational_allows(get_test("corr"), GAM0_MACHINE)

    def test_mp_addr_dependency_ordering(self):
        assert not operational_allows(get_test("mp+addr"), GAM_MACHINE)
        assert not operational_allows(get_test("mp+addr"), GAM0_MACHINE)

    def test_fences_respected(self):
        assert not operational_allows(get_test("mp+fences"), GAM_MACHINE)

    def test_branch_misprediction_recovers(self):
        # Control dependency does not order loads: both r2 outcomes possible,
        # which requires speculating through the branch and squashing.
        test = get_test("mp+ctrl")
        assert operational_allows(test, GAM_MACHINE)

    def test_brst_enforced(self):
        assert not operational_allows(get_test("lb+ctrls"), GAM_MACHINE)


class TestExploration:
    def test_state_cap_enforced(self):
        with pytest.raises(RuntimeError):
            explore(get_test("dekker"), GAM_MACHINE, max_states=3)

    def test_state_cap_enforced_when_deciding(self, monkeypatch):
        # mp+fences is forbidden, so nothing stops the search before the cap.
        monkeypatch.setattr(operational, "_MAX_STATES", 3)
        with pytest.raises(RuntimeError, match="state-space explosion"):
            operational_allows(get_test("mp+fences"), GAM_MACHINE)

    def test_outcome_without_asked_raises(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 1)
        test = b.build()
        with pytest.raises(ValueError):
            operational_allows(test, GAM_MACHINE)

    def test_single_instruction_program(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 7)
        test = b.build(asked={"a": 7})
        assert operational_allows(test, GAM_MACHINE)

    def test_empty_program(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc()
        test = b.build(asked={"a": 0})
        assert operational_allows(test, GAM_MACHINE)

    def test_initial_memory_respected(self):
        b = LitmusBuilder("t", locations=("a",))
        b.init("a", 5)
        b.proc().ld("r1", "a")
        test = b.build(asked={"P0.r1": 5})
        assert operational_allows(test, GAM_MACHINE)

    def test_machine_outcomes_deterministic(self):
        test = get_test("lb")
        first = operational_outcomes(test, GAM_MACHINE)
        second = operational_outcomes(test, GAM_MACHINE)
        assert first == second


@pytest.mark.parametrize("variant", [GAM_MACHINE, GAM0_MACHINE], ids=lambda v: v.name)
@pytest.mark.parametrize(
    "test", [t for t in all_tests() if t.asked is not None], ids=lambda t: t.name
)
def test_allows_agrees_with_full_exploration(test, variant):
    """Deciding one outcome stops early but never changes the answer."""
    outcomes = explore(test, variant, project="full").outcomes
    expected = any(
        test.asked.regs <= outcome.regs and test.asked.mem <= outcome.mem
        for outcome in outcomes
    )
    assert operational_allows(test, variant) == expected
