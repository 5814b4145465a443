"""Unit tests for the SC and TSO reference machines."""

import pytest

from repro.core.operational import explore_machine
from repro.core.reference_machines import _SeqMachine, sc_outcomes, tso_outcomes
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.registry import get_test


class TestScMachine:
    def test_dekker_three_outcomes(self):
        outcomes = sc_outcomes(get_test("dekker"))
        assert len(outcomes) == 3

    def test_dekker_forbids_both_zero(self):
        test = get_test("dekker")
        assert not any(
            o.reg_bindings() == {(0, "r1"): 0, (1, "r2"): 0}
            for o in sc_outcomes(test)
        )

    def test_branches_execute(self):
        test = get_test("mp+ctrl")
        outcomes = sc_outcomes(test, project="full")
        assert outcomes  # the branchy program terminates under SC

    def test_final_memory_projected(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 3)
        test = b.build(asked={"a": 3})
        (outcome,) = sc_outcomes(test)
        assert (b.locations["a"], 3) in outcome.mem


class TestTsoMachine:
    def test_dekker_allows_both_zero(self):
        test = get_test("dekker")
        bindings = {frozenset(o.reg_bindings().items()) for o in tso_outcomes(test)}
        assert frozenset({((0, "r1"), 0), ((1, "r2"), 0)}) in bindings

    def test_store_buffer_forwarding(self):
        # A processor reads its own buffered store before it drains.
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 1).ld("r1", "a")
        test = b.build(asked={"P0.r1": 1})
        outcomes = tso_outcomes(test)
        assert all(o.reg_bindings()[(0, "r1")] == 1 for o in outcomes)

    def test_fence_sl_drains_buffer(self):
        test = get_test("dekker+full")
        bindings = {frozenset(o.reg_bindings().items()) for o in tso_outcomes(test)}
        assert frozenset({((0, "r1"), 0), ((1, "r2"), 0)}) not in bindings

    def test_loads_not_reordered(self):
        test = get_test("mp")
        asked = test.asked
        assert not any(
            asked.matches(
                {(p, r): v for (p, r, v) in o.regs}, dict(o.mem)
            )
            for o in tso_outcomes(test)
        )

    def test_buffers_drain_at_termination(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 9)
        test = b.build(asked={"a": 9})
        (outcome,) = tso_outcomes(test)
        assert (b.locations["a"], 9) in outcome.mem


class TestSharedExplorer:
    """Both machines run on the GAM machine's exploration loop."""

    @pytest.mark.parametrize("with_store_buffer", [False, True], ids=["sc", "tso"])
    def test_state_cap_enforced(self, with_store_buffer):
        machine = _SeqMachine(get_test("dekker"), with_store_buffer)
        with pytest.raises(RuntimeError, match="state-space explosion exploring 'dekker'"):
            explore_machine(machine, max_states=3)
