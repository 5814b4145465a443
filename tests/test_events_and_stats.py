"""White-box tests for the event layer and simulator statistics."""

import pytest

from reference import enumerate_executions
from repro.core.events import (
    INIT_PROC,
    MemEvent,
    build_events,
    init_events,
)
from repro.isa.expr import Const
from repro.isa.instructions import Load, Store
from repro.isa.program import Program
from repro.litmus.registry import get_test
from repro.models.registry import get_model
from repro.sim.stats import SimStats


def _runs(*programs_and_values):
    runs = []
    for instrs, values in programs_and_values:
        program = Program(instrs)
        runs.append(program.execute(values))
    return tuple(runs)


class TestMemEvent:
    def test_eid_and_repr(self):
        event = MemEvent(proc=1, index=2, is_store=True, addr=0x100, value=7)
        assert event.eid == (1, 2)
        assert "St" in repr(event) and "0x100" in repr(event)

    def test_init_repr(self):
        event = MemEvent(INIT_PROC, 0, True, 0x100, 0, is_init=True)
        assert "Init" in repr(event)


class TestBuildEvents:
    def test_one_event_per_access(self):
        runs = _runs(
            ([Store(Const(0x100), Const(1)), Load("r1", Const(0x100))], {1: 1}),
        )
        events = build_events(runs)
        assert len(events) == 2
        assert events[0].is_store and not events[1].is_store

    def test_init_events_cover_touched_and_declared(self):
        runs = _runs(([Load("r1", Const(0x200))], {0: 0}),)
        events = build_events(runs)
        inits = init_events(events, {0x300: 9})
        addrs = {e.addr for e in inits}
        assert addrs == {0x200, 0x300}
        by_addr = {e.addr: e.value for e in inits}
        assert by_addr[0x300] == 9 and by_addr[0x200] == 0
        assert all(e.is_init and e.proc == INIT_PROC for e in inits)


class TestExecutionAccessors:
    def test_event_lookup_and_positions(self):
        test = get_test("dekker")
        execution = next(iter(enumerate_executions(test, get_model("gam"))))
        for eid in execution.mo:
            event = execution.event(eid)
            assert execution.mo_position(eid) == execution.mo.index(eid)
            assert event.eid == eid
        with pytest.raises(KeyError):
            execution.event((9, 9))

    def test_loads_and_stores_partition(self):
        test = get_test("dekker")
        execution = next(iter(enumerate_executions(test, get_model("gam"))))
        loads = execution.loads()
        stores = execution.stores()
        assert len(loads) == 2 and len(stores) == 2
        assert len(execution.stores(include_init=True)) == 4  # + two inits


class TestSimStats:
    def test_upc(self):
        stats = SimStats(cycles=200, committed_uops=100)
        assert stats.upc == pytest.approx(0.5)

    def test_upc_zero_cycles(self):
        assert SimStats().upc == 0.0

    def test_per_1k(self):
        stats = SimStats(committed_uops=4000, saldld_kills=2)
        assert stats.kills_per_1k == pytest.approx(0.5)

    def test_per_1k_no_commits(self):
        assert SimStats(saldld_kills=5).kills_per_1k == 0.0

    def test_summary_contains_key_rates(self):
        stats = SimStats(
            workload="w", policy="GAM", cycles=10, committed_uops=10,
            saldld_kills=1, saldld_stalls=2, ldld_forwards=3, l1_load_misses=4,
        )
        text = stats.summary()
        assert "w/GAM" in text and "uPC=" in text and "kills/1k" in text
