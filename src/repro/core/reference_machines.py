"""Reference operational machines for the strong baselines: SC and TSO.

The SC machine is Figure 1: processors attached directly to a monolithic
memory, one instruction executed atomically per step.  The TSO machine adds
a private FIFO store buffer per processor (the classic abstraction the
paper recalls in Section II-B): stores enter the buffer, drain to memory
nondeterministically, loads check their own buffer first, and ``FenceSL``
(the only fence TSO needs) waits for an empty buffer.

Only the step rules (:func:`_step_proc`, :func:`_drain_one`) are defined
here; they read and write memory with the GAM machine's helpers, over the
same sorted ``(addr, value)`` tuple, and :class:`_SeqMachine` hands them to
the GAM machine's exploration loop,
:func:`repro.core.operational.explore_machine`, which explores both
machines exhaustively under its state cap and telemetry.  Their outcome
sets are compared against the corresponding axiomatic models in the
equivalence tests, which cross-validates the axiomatic engine from a
second direction.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from ..isa.expr import evaluate
from ..isa.instructions import (
    Branch,
    Fence,
    Instruction,
    Load,
    Nop,
    RegOp,
    Rmw,
    Store,
)
from ..litmus.test import LitmusTest, Outcome
from .operational import _read_mem, _write_mem, explore_machine

__all__ = ["sc_outcomes", "tso_outcomes"]


class _SeqProcState(NamedTuple):
    """In-order processor state: pc, registers, FIFO store buffer."""

    pc: int
    regs: tuple[tuple[str, int], ...]
    store_buffer: tuple[tuple[int, int], ...] = ()


class _SeqState(NamedTuple):
    """Machine state: memory image and processor states.

    Both state classes are named tuples, so the explorer's visited set
    hashes and compares them in C.
    """

    memory: tuple[tuple[int, int], ...]
    procs: tuple[_SeqProcState, ...]


def _reg_write(pstate: _SeqProcState, name: str, value: int) -> tuple[tuple[str, int], ...]:
    regs = dict(pstate.regs)
    regs[name] = value
    return tuple(sorted(regs.items()))


def _step_proc(
    test: LitmusTest,
    state: _SeqState,
    proc: int,
    with_store_buffer: bool,
    zero_regs: dict[str, int],
) -> Iterator[_SeqState]:
    """Execute the next instruction of ``proc`` (one atomic machine step).

    ``zero_regs`` maps each of the program's registers to 0.
    """
    pstate = state.procs[proc]
    program = test.programs[proc]
    if pstate.pc >= len(program):
        return
    instr = program[pstate.pc]
    regs = dict(zero_regs)
    regs.update(pstate.regs)
    next_pc = pstate.pc + 1
    new_pstate: Optional[_SeqProcState] = None
    new_memory = state.memory

    if isinstance(instr, Rmw):
        if with_store_buffer and pstate.store_buffer:
            return  # locked RMW drains the store buffer first (x86-style)
        addr = evaluate(instr.addr, regs)
        old_value = _read_mem(state.memory, addr)
        new_value = evaluate(instr.data, {**regs, instr.dst: old_value})
        new_memory = _write_mem(state.memory, addr, new_value)
        new_pstate = _SeqProcState(
            next_pc, _reg_write(pstate, instr.dst, old_value), pstate.store_buffer
        )
    elif isinstance(instr, Load):
        addr = evaluate(instr.addr, regs)
        value: Optional[int] = None
        if with_store_buffer:
            for buf_addr, buf_value in reversed(pstate.store_buffer):
                if buf_addr == addr:
                    value = buf_value
                    break
        if value is None:
            value = _read_mem(state.memory, addr)
        new_pstate = _SeqProcState(
            next_pc, _reg_write(pstate, instr.dst, value), pstate.store_buffer
        )
    elif isinstance(instr, Store):
        addr = evaluate(instr.addr, regs)
        data = evaluate(instr.data, regs)
        if with_store_buffer:
            new_pstate = _SeqProcState(
                next_pc, pstate.regs, pstate.store_buffer + ((addr, data),)
            )
        else:
            new_memory = _write_mem(state.memory, addr, data)
            new_pstate = _SeqProcState(next_pc, pstate.regs, pstate.store_buffer)
    elif isinstance(instr, RegOp):
        result = evaluate(instr.expr, regs)
        new_pstate = _SeqProcState(
            next_pc, _reg_write(pstate, instr.dst, result), pstate.store_buffer
        )
    elif isinstance(instr, Branch):
        if evaluate(instr.cond, regs) != 0:
            next_pc = program.labels[instr.target]
        new_pstate = _SeqProcState(next_pc, pstate.regs, pstate.store_buffer)
    elif isinstance(instr, Fence):
        if with_store_buffer and instr.pre == "S" and instr.post == "L":
            if pstate.store_buffer:
                return  # FenceSL waits for the store buffer to drain
        new_pstate = _SeqProcState(next_pc, pstate.regs, pstate.store_buffer)
    elif isinstance(instr, Nop):
        new_pstate = _SeqProcState(next_pc, pstate.regs, pstate.store_buffer)
    else:
        raise TypeError(f"unknown instruction {instr!r}")

    procs = list(state.procs)
    procs[proc] = new_pstate
    yield _SeqState(memory=new_memory, procs=tuple(procs))


def _drain_one(state: _SeqState, proc: int) -> Iterator[_SeqState]:
    """Write the oldest store-buffer entry of ``proc`` to memory."""
    pstate = state.procs[proc]
    if not pstate.store_buffer:
        return
    (addr, value), rest = pstate.store_buffer[0], pstate.store_buffer[1:]
    procs = list(state.procs)
    procs[proc] = _SeqProcState(pstate.pc, pstate.regs, rest)
    yield _SeqState(memory=_write_mem(state.memory, addr, value), procs=tuple(procs))


class _SeqMachine:
    """The SC machine, or with store buffers the TSO machine, built for
    :func:`~repro.core.operational.explore_machine`."""

    def __init__(self, test: LitmusTest, with_store_buffer: bool) -> None:
        self.test = test
        self.with_store_buffer = with_store_buffer
        self.ends = tuple(len(program) for program in test.programs)
        self.zero_regs = tuple(
            dict.fromkeys(program.registers(), 0) for program in test.programs
        )

    def initial_states(self) -> list[_SeqState]:
        return [
            _SeqState(
                memory=tuple(sorted(self.test.initial_memory.items())),
                procs=tuple(_SeqProcState(0, ()) for _ in self.test.programs),
            )
        ]

    def successors(self, state: _SeqState) -> list[_SeqState]:
        out: list[_SeqState] = []
        for proc, zero_regs in enumerate(self.zero_regs):
            out.extend(
                _step_proc(self.test, state, proc, self.with_store_buffer, zero_regs)
            )
            if self.with_store_buffer:
                out.extend(_drain_one(state, proc))
        return out

    def is_terminal(self, state: _SeqState) -> bool:
        """Every program finished and every store buffer drained.

        No other state is stuck: an unfinished SC processor can always
        step, and a blocked TSO processor has a buffer entry to drain.
        """
        for pstate, end in zip(state.procs, self.ends):
            if pstate.pc < end or pstate.store_buffer:
                return False
        return True

    def final_state(
        self, state: _SeqState
    ) -> tuple[dict[tuple[int, str], int], dict[int, int]]:
        regs = {}
        for proc, (pstate, zero_regs) in enumerate(zip(state.procs, self.zero_regs)):
            values = dict(zero_regs)
            values.update(pstate.regs)
            for reg, value in values.items():
                regs[(proc, reg)] = value
        return regs, dict(state.memory)


def sc_outcomes(test: LitmusTest, project: str = "observed") -> frozenset[Outcome]:
    """All outcomes of the SC abstract machine (Figure 1)."""
    return explore_machine(_SeqMachine(test, False), project).outcomes


def tso_outcomes(test: LitmusTest, project: str = "observed") -> frozenset[Outcome]:
    """All outcomes of the TSO store-buffer machine."""
    return explore_machine(_SeqMachine(test, True), project).outcomes
