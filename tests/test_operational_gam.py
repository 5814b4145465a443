"""Unit tests for the Figure 17 abstract machine (repro.core.operational)."""

import pytest

from repro.core import operational
from repro.core.operational import (
    GAM0_MACHINE,
    GAM_MACHINE,
    MachineVariant,
    explore,
    explore_machine,
    operational_outcomes,
)
from repro.core.reference_machines import _SeqMachine
from repro.engine import OutcomeSpec, VerdictSpec, evaluate_cells
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.registry import all_tests, get_test
from repro.obs import collecting


def machine_allows(test, machine="gam"):
    """The engine's operational verdict cell for ``test``'s asked outcome."""
    (verdict,) = evaluate_cells(
        [VerdictSpec(test, None, oracle=f"operational:{machine}")]
    )
    return verdict


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
        assert not machine_allows(get_test("oota"))

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
        assert not machine_allows(get_test("corr"))

    def test_corr_allowed_by_gam0_machine(self):
        assert machine_allows(get_test("corr"), "gam0")

    def test_mp_addr_dependency_ordering(self):
        assert not machine_allows(get_test("mp+addr"))
        assert not machine_allows(get_test("mp+addr"), "gam0")

    def test_fences_respected(self):
        assert not machine_allows(get_test("mp+fences"))

    def test_branch_misprediction_recovers(self):
        # Control dependency does not order loads: both r2 outcomes possible,
        # which requires speculating through the branch and squashing.
        test = get_test("mp+ctrl")
        assert machine_allows(test)

    def test_brst_enforced(self):
        assert not machine_allows(get_test("lb+ctrls"))


class TestExploration:
    def test_state_cap_enforced(self):
        with pytest.raises(RuntimeError):
            explore(get_test("dekker"), GAM_MACHINE, max_states=3)

    def test_state_cap_enforced_when_deciding(self, monkeypatch):
        # The engine's machine cells explore under the module's default cap.
        monkeypatch.setattr(operational, "_MAX_STATES", 3)
        with pytest.raises(RuntimeError, match="state-space explosion"):
            operational_outcomes(get_test("mp+fences"), GAM_MACHINE)

    def test_single_instruction_program(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 7)
        test = b.build(asked={"a": 7})
        assert machine_allows(test)

    def test_empty_program(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc()
        test = b.build(asked={"a": 0})
        assert machine_allows(test)

    def test_initial_memory_respected(self):
        b = LitmusBuilder("t", locations=("a",))
        b.init("a", 5)
        b.proc().ld("r1", "a")
        test = b.build(asked={"P0.r1": 5})
        assert machine_allows(test)

    def test_machine_outcomes_deterministic(self):
        test = get_test("lb")
        first = operational_outcomes(test, GAM_MACHINE)
        second = operational_outcomes(test, GAM_MACHINE)
        assert first == second


def _machine_batch(test, machines):
    """One batch of full outcome cells, one per machine; results and counters."""
    cells = [
        OutcomeSpec(test, None, project="full", oracle=f"operational:{machine}")
        for machine in machines
    ]
    with collecting() as recorder:
        results = evaluate_cells(cells)
        counters = recorder.snapshot().counters
    return results, counters


class TestVariantSharing:
    @pytest.mark.parametrize("machines", [("gam", "gam0"), ("gam0", "gam")])
    def test_one_exploration_answers_both_variants(self, machines):
        test = get_test("dekker")
        results, counters = _machine_batch(test, machines)
        assert counters["operational.explore.runs"] == 1
        assert counters["engine.oracle.operational.shared"] == 1
        variants = {"gam": GAM_MACHINE, "gam0": GAM0_MACHINE}
        assert results == [
            explore(test, variants[machine], project="full").outcomes
            for machine in machines
        ]

    def test_a_met_pair_explores_both_variants(self):
        test = get_test("corr")
        results, counters = _machine_batch(test, ("gam", "gam0"))
        assert counters["operational.explore.runs"] == 2
        assert "engine.oracle.operational.shared" not in counters
        assert results == [
            explore(test, GAM_MACHINE, project="full").outcomes,
            explore(test, GAM0_MACHINE, project="full").outcomes,
        ]

    def test_verdict_and_outcome_cells_share_the_run(self):
        test = get_test("dekker")
        cells = [
            VerdictSpec(test, None, oracle="operational:gam"),
            OutcomeSpec(test, None, project="full", oracle="operational:gam0"),
        ]
        with collecting() as recorder:
            allowed, outcomes = evaluate_cells(cells)
            counters = recorder.snapshot().counters
        assert counters["operational.explore.runs"] == 1
        assert allowed == machine_allows(test, "gam")
        assert outcomes == explore(test, GAM0_MACHINE, project="full").outcomes


_FULL_EXPLORERS = {
    "gam": lambda test: explore(test, GAM_MACHINE, project="full"),
    "gam0": lambda test: explore(test, GAM0_MACHINE, project="full"),
    "sc": lambda test: explore_machine(_SeqMachine(test, False), "full"),
    "tso": lambda test: explore_machine(_SeqMachine(test, True), "full"),
}


@pytest.mark.parametrize("machine", sorted(_FULL_EXPLORERS))
@pytest.mark.parametrize(
    "test", [t for t in all_tests() if t.asked is not None], ids=lambda t: t.name
)
def test_verdict_cell_agrees_with_full_exploration(test, machine):
    """An operational verdict cell is containment of the asked outcome in
    the machine's full-projection outcomes."""
    outcomes = _FULL_EXPLORERS[machine](test).outcomes
    expected = any(
        test.asked.regs <= outcome.regs and test.asked.mem <= outcome.mem
        for outcome in outcomes
    )
    assert machine_allows(test, machine) == expected
