"""Unit tests for programs and deterministic replay (repro.isa.program)."""

import pytest

from repro.isa.expr import BinOp, Const, Reg
from repro.isa.instructions import Branch, Fence, Load, Nop, RegOp, Store
from repro.isa.program import Program, ProgramError


def _mp_reader():
    """P1 of MP+addr: r1 = Ld [b]; r2 = Ld [r1]."""
    return Program([Load("r1", Const(0x200)), Load("r2", Reg("r1"))])


class TestValidation:
    def test_empty_program_is_valid(self):
        assert len(Program([])) == 0

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ProgramError):
            Program([Nop()], labels={"end": 5})

    def test_label_at_end_allowed(self):
        Program([Nop()], labels={"end": 1})

    def test_undefined_branch_target_rejected(self):
        with pytest.raises(ProgramError):
            Program([Branch(Const(1), "nowhere"), Nop()])

    def test_backward_branch_rejected(self):
        with pytest.raises(ProgramError):
            Program(
                [Nop(), Branch(Const(1), "loop")],
                labels={"loop": 0},
            )

    def test_forward_branch_accepted(self):
        program = Program(
            [Branch(Const(1), "end"), Nop()],
            labels={"end": 2},
        )
        assert program.has_branches()


class TestAccessors:
    def test_load_store_indices(self):
        program = Program(
            [Store(Const(0), Const(1)), Load("r1", Const(0)), Store(Const(4), Const(2))]
        )
        assert program.load_indices() == (1,)
        assert program.store_indices() == (0, 2)

    def test_registers_union(self):
        program = Program([Load("r1", Reg("r0")), RegOp("r2", Reg("r1"))])
        assert program.registers() == frozenset({"r0", "r1", "r2"})

    def test_iteration_and_indexing(self):
        program = _mp_reader()
        assert list(program)[0] == program[0]

    def test_repr_contains_instructions(self):
        assert "Ld" in repr(_mp_reader())


class TestReplay:
    def test_straightline_replay(self):
        run = _mp_reader().execute({0: 0x100, 1: 7})
        assert run.final_regs["r1"] == 0x100
        assert run.final_regs["r2"] == 7
        loads = run.loads()
        assert loads[0].addr == 0x200
        assert loads[1].addr == 0x100  # the dependent address

    def test_unassigned_load_raises(self):
        with pytest.raises(KeyError):
            _mp_reader().execute({0: 0x100})

    def test_registers_default_to_zero(self):
        program = Program([Store(Const(0), Reg("r1"))])
        run = program.execute({})
        assert run.stores()[0].value == 0

    def test_initial_regs_respected(self):
        program = Program([Store(Const(0), Reg("r1"))])
        run = program.execute({}, initial_regs={"r1": 9})
        assert run.stores()[0].value == 9

    def test_regop_updates_register(self):
        program = Program(
            [RegOp("r1", Const(5)), RegOp("r2", Reg("r1") + 1)]
        )
        run = program.execute({})
        assert run.final_regs["r2"] == 6

    def test_taken_branch_skips_instructions(self):
        program = Program(
            [
                Branch(Const(1), "end"),
                Store(Const(0), Const(1)),
                Nop(),
            ],
            labels={"end": 2},
        )
        run = program.execute({})
        assert run.stores() == ()
        assert run.executed[0].taken is True
        assert [e.index for e in run.executed] == [0, 2]

    def test_not_taken_branch_falls_through(self):
        program = Program(
            [Branch(Const(0), "end"), Store(Const(0), Const(1))],
            labels={"end": 2},
        )
        run = program.execute({})
        assert len(run.stores()) == 1
        assert run.executed[0].taken is False

    def test_branch_condition_from_load(self):
        program = Program(
            [
                Load("r1", Const(0x100)),
                Branch(BinOp("==", Reg("r1"), Const(0)), "end"),
                Store(Const(0x200), Const(1)),
            ],
            labels={"end": 3},
        )
        taken = program.execute({0: 0})
        fallthrough = program.execute({0: 1})
        assert taken.stores() == ()
        assert len(fallthrough.stores()) == 1

    def test_fence_and_nop_appear_in_stream(self):
        program = Program([Fence("S", "S"), Nop()])
        run = program.execute({})
        assert len(run.executed) == 2

    def test_memory_accesses_ordering(self):
        program = Program(
            [Store(Const(0), Const(1)), Nop(), Load("r1", Const(0))]
        )
        run = program.execute({2: 1})
        accesses = run.memory_accesses()
        assert [e.index for e in accesses] == [0, 2]


class TestForkingReplay:
    def test_run_order_is_depth_first_over_ascending_values(self):
        # r1 = Ld [a]; if r1 == 0 goto end; r2 = Ld [b]; r3 = Ld [c]; end:
        program = Program(
            [
                Load("r1", Const(0x100)),
                Branch(BinOp("==", Reg("r1"), Const(0)), "end"),
                Load("r2", Const(0x200)),
                Load("r3", Const(0x300)),
            ],
            labels={"end": 4},
        )
        domains = {0x100: {1, 0}, 0x200: {1, 0}, 0x300: {8, 7}}
        asked = []

        def values(pc, addr):
            asked.append((pc, addr))
            return sorted(domains[addr])

        runs = program.runs(values)
        finals = [(r.final_regs["r1"], r.final_regs["r2"], r.final_regs["r3"]) for r in runs]
        # r1 = 0 skips both later loads, so it is one run with no choice.
        assert finals == [(0, 0, 0), (1, 0, 7), (1, 0, 8), (1, 1, 7), (1, 1, 8)]
        assert [e.index for e in runs[0].executed] == [0, 1]
        # A shared prefix runs once: the load at 2 is asked once, the load
        # at 3 once per value of the load at 2.
        assert asked == [(0, 0x100), (2, 0x200), (3, 0x300), (3, 0x300)]
        # execute is the same replay with one value per load.
        assert program.execute({0: 0}) == runs[0]
        assert program.execute({0: 1, 2: 1, 3: 7}) == runs[3]
