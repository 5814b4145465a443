"""White-box tests for the Figure 17 machine internals.

An exploration interns states to flat int tuples ``(memory_id,
pstate_id_0, …)``; ``_Machine.decode`` gives back ``(memory, procs)``,
each processor ``(pc, rob)`` and each ROB entry ``(index, done, result,
addr_avail, addr, data_avail, data, pred_next)``.
"""

import pytest

from repro.core.operational import (
    _ADDR_AVAIL,
    _BRANCH,
    _DATA_AVAIL,
    _DONE,
    _INDEX,
    _LOAD,
    _PRED_NEXT,
    _RESULT,
    _STORE,
    GAM0_MACHINE,
    GAM_MACHINE,
    _Machine,
    _new_entry,
    _read_mem,
    _write_mem,
    explore,
)
from repro.engine import VerdictSpec, evaluate_cells
from repro.equivalence.randprog import RandomProgramConfig, random_suite
from repro.isa.expr import Reg
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.registry import get_test


def _empty_state(test):
    return (
        tuple(sorted(test.initial_memory.items())),
        tuple((0, ()) for _ in test.programs),
    )


def _fetched(machine, test):
    """The decoded states the fetch closure reaches from the empty machine."""
    return [machine.decode(s) for s in machine.fetch_closure(_empty_state(test))]


class TestMachineState:
    def test_memory_read_defaults_zero(self):
        assert _read_mem((), 0x100) == 0

    def test_memory_write_is_persistent_and_sorted(self):
        memory = ((0x200, 5),)
        assert _write_mem(memory, 0x100, 7) == ((0x100, 7), (0x200, 5))
        assert memory == ((0x200, 5),)

    def test_rob_entry_defaults(self):
        entry = _new_entry(0)
        assert entry[_INDEX] == 0
        assert not entry[_DONE] and not entry[_ADDR_AVAIL] and not entry[_DATA_AVAIL]
        assert entry[_RESULT] is None and entry[_PRED_NEXT] is None


class TestMetadataTable:
    def test_rows_describe_each_instruction(self):
        b = LitmusBuilder("t", locations=("a", "b"))
        b.proc().ld("r1", "a").st(b.loc("b") + Reg("r1") - Reg("r1"), "r2")
        test = b.build()
        load, store = _Machine(test, GAM_MACHINE).meta[0]
        assert (load.kind, load.dst, load.reads, load.addr_reads) == (
            _LOAD, "r1", (), ()
        )
        assert (store.kind, store.dst) == (_STORE, None)
        assert store.reads == ("r1", "r2")
        assert store.addr_reads == ("r1",) and store.data_reads == ("r2",)
        assert store.addr({"r1": 5, "r2": 0}) == test.locations["b"]
        assert store.data({"r1": 5, "r2": 9}) == 9

    def test_branch_target_is_resolved(self):
        test = get_test("mp+ctrl")
        program = test.programs[1]
        (branch_index,) = [i for i, ins in enumerate(program) if ins.is_branch]
        row = _Machine(test, GAM_MACHINE).meta[1][branch_index]
        assert row.kind == _BRANCH
        assert row.target == program.labels[program[branch_index].target]


class TestFetchClosure:
    def test_straightline_fetches_everything_deterministically(self):
        test = get_test("dekker")
        machine = _Machine(test, GAM_MACHINE)
        states = _fetched(machine, test)
        assert len(states) == 1
        for proc, pstate in enumerate(states[0][1]):
            pc, rob = pstate
            assert pc == len(test.programs[proc])
            assert len(rob) == len(test.programs[proc])

    def test_each_branch_doubles_the_prediction_space(self):
        test = get_test("mp+ctrl")  # P1 has one branch
        machine = _Machine(test, GAM_MACHINE)
        states = _fetched(machine, test)
        assert len(states) == 2  # predicted taken and predicted fall-through
        rob_lengths = sorted(len(s[1][1][1]) for s in states)
        assert rob_lengths[0] < rob_lengths[1]  # taken path skips the load

    def test_branch_entries_record_prediction(self):
        test = get_test("mp+ctrl")
        machine = _Machine(test, GAM_MACHINE)
        for state in _fetched(machine, test):
            branch_entry = state[1][1][1][1]
            assert branch_entry[_PRED_NEXT] is not None


class TestRuleGuards:
    def test_terminal_detection(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 1)
        test = b.build()
        machine = _Machine(test, GAM_MACHINE)
        (fetched,) = machine.fetch_closure(_empty_state(test))
        assert not machine.is_terminal(fetched)
        # Address and data computation are both enabled; Execute-Store only
        # fires after both.  Walk rule firings to the terminal state.
        frontier = [fetched]
        terminal = None
        for _ in range(6):
            next_frontier = []
            for state in frontier:
                if machine.is_terminal(state):
                    terminal = state
                    break
                next_frontier.extend(machine.successors(state))
            if terminal is not None:
                break
            frontier = next_frontier
        assert terminal is not None
        assert _read_mem(machine.decode(terminal)[0], test.locations["a"]) == 1

    def test_final_state_reads_youngest_writer(self):
        b = LitmusBuilder("t", locations=("a",))
        b.proc().op("r1", 1).op("r1", 2)
        test = b.build(asked={"P0.r1": 2})
        result = explore(test, GAM_MACHINE)
        (outcome,) = result.outcomes
        assert outcome.reg_bindings()[(0, "r1")] == 2

    def test_fence_blocks_younger_load_until_older_done(self):
        # FenceLL between two loads: outcome set must equal in-order reads.
        b = LitmusBuilder("t", locations=("a", "b"))
        b.proc().st("a", 1).fence("SS").st("b", 1)
        b.proc().ld("r1", "b").fence("LL").ld("r2", "a")
        test = b.build(asked={"P1.r1": 1, "P1.r2": 0})
        (allowed,) = evaluate_cells(
            [VerdictSpec(test, None, oracle="operational:gam")]
        )
        assert not allowed

    def test_store_waits_for_older_branch(self):
        # With the branch unresolved the store cannot fire; exploration must
        # still terminate and never let the store commit on a killed path.
        test = get_test("lb+ctrls")
        result = explore(test, GAM_MACHINE)
        asked = test.asked
        assert all(
            not asked.matches(
                {(p, r): v for (p, r, v) in o.regs}, dict(o.mem)
            )
            for o in result.outcomes
        )

    def test_exploration_counts_are_consistent(self):
        result = explore(get_test("corr"), GAM_MACHINE)
        assert 0 < result.terminal_states <= result.states_visited


class TestSameAddressLoadProbe:
    """``saldld_met``: did the run reach a point where GAM and GAM0 differ?"""

    @pytest.mark.parametrize("variant", [GAM_MACHINE, GAM0_MACHINE], ids=lambda v: v.name)
    def test_set_where_gam_stalls_a_same_address_load(self, variant):
        # corr: P1 loads a twice, so the younger load meets the older one.
        assert explore(get_test("corr"), variant).saldld_met

    @pytest.mark.parametrize("variant", [GAM_MACHINE, GAM0_MACHINE], ids=lambda v: v.name)
    def test_clear_without_same_address_loads(self, variant):
        assert not explore(get_test("dekker"), variant).saldld_met

    def test_clear_run_is_the_other_variants_run(self):
        # Kills, refetches and late addresses: both variants evaluate the
        # probe alike, and a run that never met a pair is the other's run.
        config = RandomProgramConfig(
            rmw_weight=1.5, branch_weight=1.0, artificial_dep_prob=0.6
        )
        clear = 0
        for test in random_suite(60, seed=7, config=config, name_prefix="probe"):
            gam = explore(test, GAM_MACHINE, project="full")
            gam0 = explore(test, GAM0_MACHINE, project="full")
            assert gam.saldld_met == gam0.saldld_met, test.name
            if not gam.saldld_met:
                clear += 1
                assert gam == gam0, test.name
        assert 0 < clear < 60
