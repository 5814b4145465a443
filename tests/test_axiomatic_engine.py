"""Unit tests for the axiomatic checking engine internals."""

import pytest

from reference import enumerate_executions
from repro.core.axiomatic import (
    DomainOverflowError,
    MemoryModel,
    enumerate_outcomes,
    is_allowed,
    value_domains,
)
from repro.core.ppo import FenceOrd, SAMemSt
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.registry import get_test
from repro.models.registry import get_model


class TestValueDomain:
    def test_includes_initial_and_stored_values(self):
        test = get_test("dekker")
        domain = value_domains(test).everything()
        assert 0 in domain and 1 in domain

    def test_includes_asked_values(self):
        test = get_test("oota")
        assert 42 in value_domains(test).everything()

    def test_includes_extra_values(self):
        test = get_test("dekker")
        assert 99 in value_domains(test, extra=(99,)).everything()

    def test_closure_through_regops(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().op("r1", 5).st("a", "r1")
        b.proc().ld("r2", "a")
        test = b.build(asked={"P1.r2": 5})
        assert 5 in value_domains(test).everything()

    def test_cross_address_feedback_converges(self):
        # P0 loads a and stores r1+1 to *b*: per-address domains keep the
        # closure finite (a only ever holds 0, so b only ever holds 1).
        from repro.isa.expr import Reg

        b = LitmusBuilder("t", locations=("a", "b"))
        p = b.proc()
        p.ld("r1", "a").op("r2", Reg("r1") + 1).st("b", "r2")
        test = b.build(asked={})
        domain = value_domains(test).everything()
        assert domain == frozenset({0, 1})

    def test_per_address_domains(self):
        b =LitmusBuilder("t", locations=("a", "b"))
        b.init("a", 5)
        b.proc().st("b", 7)
        b.proc().ld("r1", "a").ld("r2", "b")
        test = b.build(asked={})
        domains = value_domains(test)
        assert 5 in domains.for_address(test.locations["a"])
        assert 7 in domains.for_address(test.locations["b"])
        assert 7 not in domains.for_address(test.locations["a"])

    def test_domain_iteration_bounded_by_store_count(self):
        from repro.isa.expr import Reg

        b = LitmusBuilder("t", locations=("a",))
        b.init("a", 1)
        p = b.proc()
        # Abstract feedback doubles per round, but only one store exists,
        # so the closure stops after (stores + 1) rounds instead of
        # diverging.
        p.ld("r1", "a").op("r2", Reg("r1") * 2).st("a", "r2")
        test = b.build(asked={})
        domain = value_domains(test).everything()
        assert {1, 2} <= domain and len(domain) <= 6

    def test_domain_cap_enforced(self):
        from repro.isa.expr import Reg

        b = LitmusBuilder("t", locations=("a",))
        b.init("a", 1)
        p = b.proc()
        p.ld("r1", "a").op("r2", Reg("r1") * 2).st("a", "r2")
        test = b.build(asked={})
        with pytest.raises(DomainOverflowError):
            value_domains(test, cap=2)


class TestModelValidation:
    def test_rejects_unknown_load_value(self):
        with pytest.raises(ValueError):
            MemoryModel(name="bad", clauses=(SAMemSt(),), load_value="weird")

    def test_rejects_incoherent_store_order(self):
        with pytest.raises(ValueError):
            MemoryModel(name="bad", clauses=(FenceOrd(),))

    def test_clause_names(self):
        model = get_model("gam")
        assert "SALdLd" in model.clause_names()
        assert "SAMemSt" in model.clause_names()


class TestEnumeration:
    def test_dekker_outcome_count_under_sc(self):
        # SC allows exactly the three outcomes of Figure 2.
        test = get_test("dekker")
        outcomes = enumerate_outcomes(test, get_model("sc"))
        values = {
            tuple(sorted(o.reg_bindings().items())) for o in outcomes
        }
        assert len(values) == 3

    def test_dekker_gam_adds_the_fourth(self):
        test = get_test("dekker")
        outcomes = enumerate_outcomes(test, get_model("gam"))
        assert len(outcomes) == 4

    def test_executions_carry_consistent_rf(self):
        test = get_test("dekker")
        for execution in enumerate_executions(test, get_model("gam")):
            for load in execution.loads():
                source = execution.event(execution.rf[load.eid])
                assert source.is_store
                assert source.addr == load.addr
                assert source.value == load.value

    def test_mo_is_total_over_memory_events(self):
        test = get_test("dekker")
        execution = next(iter(enumerate_executions(test, get_model("gam"))))
        assert len(execution.mo) == len(execution.events) + len(execution.inits)

    def test_final_memory_is_mo_youngest_store(self):
        test = get_test("coww")
        for execution in enumerate_executions(test, get_model("gam")):
            addr = test.locations["a"]
            stores = [
                execution.event(eid)
                for eid in execution.mo
                if execution.event(eid).is_store and execution.event(eid).addr == addr
            ]
            assert execution.final_mem[addr] == stores[-1].value

    def test_is_allowed_requires_an_asked_outcome(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 1)
        test = b.build()
        with pytest.raises(ValueError):
            is_allowed(test, get_model("gam"))

    def test_is_allowed_with_explicit_outcome(self):
        test = get_test("dekker")
        outcome = test.parse_outcome({"P0.r1": 1, "P1.r2": 1})
        assert is_allowed(test, get_model("sc"), outcome)

    def test_projection_full_vs_observed(self):
        test = get_test("dekker")
        observed = enumerate_outcomes(test, get_model("sc"), project="observed")
        full = enumerate_outcomes(test, get_model("sc"), project="full")
        assert len(full) >= len(observed)

    def test_projection_rejects_unknown_mode(self):
        test = get_test("dekker")
        with pytest.raises(ValueError):
            enumerate_outcomes(test, get_model("sc"), project="bogus")

    def test_single_processor_program(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 7).ld("r1", "a")
        test = b.build(asked={"P0.r1": 7})
        assert is_allowed(test, get_model("gam"))
        assert not is_allowed(test, get_model("gam"), test.parse_outcome({"P0.r1": 0}))

    def test_branchy_program_enumerates_both_paths(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 1)
        p1 = b.proc()
        p1.ld("r1", "a")
        p1.branch(("r1", "==", 0), "end")
        p1.op("r2", 5)
        p1.label("end")
        test = b.build(asked={"P1.r2": 5}, observed=[(1, "r1"), (1, "r2")])
        outcomes = enumerate_outcomes(test, get_model("gam"))
        r2_values = set()
        for outcome in outcomes:
            r2_values.add(outcome.reg_bindings()[(1, "r2")])
        assert r2_values == {0, 5}


class TestLoadValueAxiomVariants:
    def test_sc_load_value_equals_gam_load_value_under_sc(self):
        # LoadValueSC == LoadValueGAM when ppo is total (Section IV remark).
        for name in ("dekker", "corr", "cowr", "store-forwarding"):
            test = get_test(name)
            sc = enumerate_outcomes(test, get_model("sc"), project="full")
            sc_gamlv = enumerate_outcomes(test, get_model("sc-gamlv"), project="full")
            assert sc == sc_gamlv, name
