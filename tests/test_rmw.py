"""Tests for the RMW extension (Section III-C's sketch made concrete)."""

import pytest

from reference import enumerate_executions, execution_is_per_location_sc
from repro.core.axiomatic import enumerate_outcomes, is_allowed
from repro.core.events import RMW_STORE_PART, base_index, po_sort_key, store_part
from repro.core.operational import GAM0_MACHINE, GAM_MACHINE, operational_outcomes
from repro.core.reference_machines import sc_outcomes, tso_outcomes
from repro.equivalence.checker import check_suite
from repro.equivalence.randprog import RandomProgramConfig, random_suite
from repro.isa.expr import Const, Reg
from repro.isa.instructions import Rmw
from repro.isa.program import Program
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.registry import get_test
from repro.models.registry import get_model


class TestRmwInstruction:
    def test_register_sets(self):
        rmw = Rmw("r1", Reg("r2") + 4, Reg("r1") + Reg("r3"))
        assert rmw.read_set() == frozenset({"r2", "r3"})  # dst excluded
        assert rmw.write_set() == frozenset({"r1"})
        assert rmw.addr_read_set() == frozenset({"r2"})

    def test_is_both_load_and_store(self):
        rmw = Rmw("r1", Const(0), Const(1))
        assert rmw.is_load and rmw.is_store and rmw.is_memory

    def test_replay_binds_dst_to_loaded_value(self):
        program = Program([Rmw("r1", Const(0x100), Reg("r1") + 1)])
        run = program.execute({0: 5})
        executed = run.executed[0]
        assert executed.value == 5 and executed.data == 6
        assert run.final_regs["r1"] == 5

    def test_event_index_helpers(self):
        assert store_part(3) == 3 + RMW_STORE_PART
        assert base_index(store_part(3)) == 3
        assert base_index(3) == 3
        assert po_sort_key(store_part(3)) > po_sort_key(3)
        assert po_sort_key(4) > po_sort_key(store_part(3))


class TestAtomicity:
    def test_competing_swaps_exclusive(self):
        test = get_test("rmw-swap")
        for model_name in ("sc", "tso", "gam", "gam0", "alpha_like"):
            outcomes = enumerate_outcomes(test, get_model(model_name), project="full")
            winners = {
                frozenset(o.reg_bindings().items()) for o in outcomes
            }
            assert len(winners) == 2  # exactly (0,1) and (1,0)

    def test_fetch_add_conserves_count(self):
        test = get_test("rmw-fetch-add")
        addr = test.locations["a"]
        for execution in enumerate_executions(test, get_model("gam")):
            assert execution.final_mem[addr] == 2

    def test_rmw_events_adjacent_in_mo(self):
        test = get_test("rmw-swap")
        for execution in enumerate_executions(test, get_model("gam")):
            for position, eid in enumerate(execution.mo):
                if eid[1] >= RMW_STORE_PART:
                    load_eid = (eid[0], base_index(eid[1]))
                    assert execution.mo[position - 1] == load_eid

    def test_rmw_executions_are_per_location_sc(self):
        test = get_test("rmw-fetch-add")
        for execution in enumerate_executions(test, get_model("gam")):
            assert execution_is_per_location_sc(execution)


class TestSARmwLd:
    def test_load_after_rmw_sees_it(self):
        assert not is_allowed(get_test("rmw+ld"), get_model("gam0"))
        assert not is_allowed(get_test("rmw+ld"), get_model("alpha_like"))

    def test_plain_store_contrast(self):
        # The same shape with a plain store *is* reorderable in GAM0: the
        # younger load may forward early.  This isolates what SARmwLd adds.
        b = LitmusBuilder("st+ld", locations=("a", "b"))
        b.proc().ld("r0", "b").st("a", "r0").ld("r2", "a")
        b.proc().st("b", 7)
        test = b.build(asked={"P0.r2": 0})
        outcomes = enumerate_outcomes(test, get_model("gam0"), project="full")
        assert outcomes  # baseline sanity


class TestDefinitionAgreement:
    @pytest.mark.parametrize("test_name", ["rmw-swap", "rmw-fetch-add", "rmw+ld"])
    def test_gam_machine_matches_axioms(self, test_name):
        test = get_test(test_name)
        ax = enumerate_outcomes(test, get_model("gam"), project="full")
        op = operational_outcomes(test, GAM_MACHINE, project="full")
        assert ax == op

    @pytest.mark.parametrize("test_name", ["rmw-swap", "rmw-fetch-add"])
    def test_gam0_machine_matches_axioms(self, test_name):
        test = get_test(test_name)
        ax = enumerate_outcomes(test, get_model("gam0"), project="full")
        op = operational_outcomes(test, GAM0_MACHINE, project="full")
        assert ax == op

    @pytest.mark.parametrize("test_name", ["rmw-swap", "rmw-fetch-add", "rmw+ld"])
    def test_reference_machines_match_axioms(self, test_name):
        test = get_test(test_name)
        assert sc_outcomes(test, project="full") == enumerate_outcomes(
            test, get_model("sc"), project="full"
        )
        assert tso_outcomes(test, project="full") == enumerate_outcomes(
            test, get_model("tso"), project="full"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzzed_rmw_programs_equivalent(self, seed):
        config = RandomProgramConfig(num_procs=2, max_instrs=3, rmw_weight=2.0)
        reports = check_suite(
            random_suite(3, seed=seed, config=config, name_prefix="fuzz"),
            pair_names=("gam", "gam0"),
        )
        for report in reports:
            assert report.equivalent, f"{report.pair_name} on {report.test_name}"


class TestRmwOrderingStrength:
    def test_rmw_acts_as_store_for_fences(self):
        # FenceSS orders an older RMW (it is a store) before younger stores.
        b = LitmusBuilder("rmw-fence", locations=("a", "b"))
        b.proc().rmw("r1", "a", 1).fence("SS").st("b", 1)
        b.proc().ld("r2", "b").op("rt", b.loc("a") + "r2" - "r2").ld("r3", "rt")
        test = b.build(asked={"P1.r2": 1, "P1.r3": 0})
        assert not is_allowed(test, get_model("gam"))

    def test_rmw_as_message_passing_release(self):
        # Publishing via fetch-add: the RMW is ordered after the older store
        # by FenceSS, so a dependent reader cannot see stale data.
        b = LitmusBuilder("rmw-publish", locations=("data", "lock"))
        b.proc().st("data", 1).fence("SS").rmw("r0", "lock", 1)
        b.proc().ld("r1", "lock").op("rt", b.loc("data") + "r1" - "r1").ld("r2", "rt")
        test = b.build(asked={"P1.r1": 1, "P1.r2": 0})
        assert not is_allowed(test, get_model("gam"))
