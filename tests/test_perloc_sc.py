"""Unit tests for the per-location SC checker (Section III-E)."""

import pytest

from reference import (
    coherence_edges,
    enumerate_executions,
    execution_is_per_location_sc,
    per_location_orders,
)
from repro.litmus.registry import get_test
from repro.models.registry import get_model


def _executions(test_name, model_name="gam"):
    return list(enumerate_executions(get_test(test_name), get_model(model_name)))


class TestGamIsPerLocationSc:
    @pytest.mark.parametrize(
        "test_name",
        ["dekker", "corr", "corr+intervening-store", "mp", "lb", "cowr", "rsw"],
    )
    def test_every_gam_execution_is_coherent(self, test_name):
        # Section III-E1: adding SALdLd gives GAM per-location SC.
        executions = _executions(test_name)
        assert executions
        for execution in executions:
            assert execution_is_per_location_sc(execution)

    def test_gam0_violates_per_location_sc_on_corr(self):
        # The motivating gap: GAM0 allows the incoherent CoRR execution.
        violations = [
            e
            for e in _executions("corr", "gam0")
            if not execution_is_per_location_sc(e)
        ]
        assert violations


class TestWitnessOrders:
    def test_witness_covers_all_accesses(self):
        execution = _executions("corr+intervening-store")[0]
        witness = per_location_orders(execution)
        for addr, order in witness.items():
            events = [
                e
                for e in execution.inits + execution.events
                if e.addr == addr
            ]
            assert len(order) == len(events)

    def test_witness_raises_on_incoherent_execution(self):
        bad = next(
            e
            for e in _executions("corr", "gam0")
            if not execution_is_per_location_sc(e)
        )
        with pytest.raises(ValueError):
            per_location_orders(bad)


class TestCoherenceEdges:
    def test_init_store_is_coherence_first(self):
        execution = _executions("corr")[0]
        addr = get_test("corr").locations["a"]
        nodes, edges = coherence_edges(execution, addr)
        init_nodes = [n for n in nodes if n[0] == -1]
        assert len(init_nodes) == 1
        # The init store has no incoming co edge.
        co_targets = {b for a, b in edges if a == init_nodes[0]}
        assert co_targets  # init reaches something

    def test_unrelated_address_graph_is_empty(self):
        execution = _executions("corr")[0]
        nodes, edges = coherence_edges(execution, 0xDEAD)
        assert nodes == [] and edges == set()
