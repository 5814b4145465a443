"""The GAM abstract machine (Figures 16-17) with exhaustive exploration.

The machine is a monolithic memory plus, per processor, a PC and an ROB
whose entries carry exactly the fields the paper lists: a done bit, the
execution result, address-available/address, data-available/data and the
predicted branch target.  Each of the paper's eight rules is transliterated
below; the exploration driver fires every enabled rule from every reachable
state (with memoization), so the set of terminal register/memory states is
the machine's full behaviour set.

Two deliberate deviations, both behaviour-preserving:

* **Eager fetch.**  Rule Fetch is applied to closure whenever possible
  (branching over both predicted targets).  Every guard in Figure 17
  quantifies only over *older* ROB entries, so fetching earlier never
  disables a rule and never changes an older entry's behaviour; terminal
  states require everything fetched anyway.  This collapses an exponential
  amount of irrelevant interleaving.
* **Variants.**  The machine is parameterized over the same-address
  load-load policy so the GAM0 machine (no SALdLd stalls or
  load-address-resolution kills) can be explored with the same code; the
  paper's Figure 17 corresponds to :data:`GAM_MACHINE`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional

from ..isa.expr import evaluate, registers_read
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
from ..isa.program import Program
from ..litmus.test import LitmusTest, Outcome
from ..obs import current as _obs_current
from ..obs import time_block as _obs_time_block
from .axiomatic import project_outcome

__all__ = [
    "RobEntry",
    "ProcState",
    "MachineState",
    "MachineVariant",
    "GAM_MACHINE",
    "GAM0_MACHINE",
    "ExplorationResult",
    "explore",
    "operational_outcomes",
    "operational_allows",
]


@dataclass(frozen=True)
class MachineVariant:
    """Configuration of the abstract machine.

    Attributes:
        name: display name.
        same_address_loads: ``"saldld"`` — the Figure 17 machine (loads
            stall behind older unissued same-address loads, and address
            resolution kills younger done same-address loads); ``"none"`` —
            the GAM0 machine (neither mechanism; only *store* address
            resolution kills, which LdVal correctness requires).
    """

    name: str
    same_address_loads: str = "saldld"

    def __post_init__(self) -> None:
        if self.same_address_loads not in ("saldld", "none"):
            raise ValueError(
                f"unknown same-address-load policy {self.same_address_loads!r}"
            )


GAM_MACHINE = MachineVariant("gam-machine", same_address_loads="saldld")
GAM0_MACHINE = MachineVariant("gam0-machine", same_address_loads="none")


@dataclass(frozen=True)
class RobEntry:
    """One ROB entry (Section IV-B's field list, verbatim)."""

    index: int
    done: bool = False
    result: Optional[int] = None
    addr_avail: bool = False
    addr: Optional[int] = None
    data_avail: bool = False
    data: Optional[int] = None
    pred_next: Optional[int] = None


@dataclass(frozen=True)
class ProcState:
    """One processor: program counter and ROB."""

    pc: int
    rob: tuple[RobEntry, ...]


@dataclass(frozen=True)
class MachineState:
    """Whole-machine state: monolithic memory plus per-processor state."""

    memory: tuple[tuple[int, int], ...]
    procs: tuple[ProcState, ...]

    def read_mem(self, addr: int) -> int:
        """Monolithic memory read (unwritten addresses are 0)."""
        for a, v in self.memory:
            if a == addr:
                return v
        return 0

    def write_mem(self, addr: int, value: int) -> tuple[tuple[int, int], ...]:
        """A new memory image with ``addr`` updated."""
        items = dict(self.memory)
        items[addr] = value
        return tuple(sorted(items.items()))


class _Machine:
    """Rule implementations bound to one litmus test and variant."""

    def __init__(self, test: LitmusTest, variant: MachineVariant) -> None:
        self.test = test
        self.variant = variant
        self.programs = test.programs

    # -- generic helpers ---------------------------------------------------

    def _instr(self, proc: int, entry: RobEntry) -> Instruction:
        return self.programs[proc][entry.index]

    def _source_value(
        self,
        proc: int,
        rob: tuple[RobEntry, ...],
        upto: int,
        reg: str,
    ) -> Optional[int]:
        """Value of ``reg`` as seen by the entry at position ``upto``.

        Searches older entries for the youngest writer; returns ``None``
        when that writer has not finished execution (operand not ready).
        Registers with no in-flight writer read the initial value 0.
        """
        for pos in range(upto - 1, -1, -1):
            entry = rob[pos]
            instr = self._instr(proc, entry)
            if reg in instr.write_set():
                if not entry.done:
                    return None
                return entry.result
        return 0

    def _operands(
        self,
        proc: int,
        rob: tuple[RobEntry, ...],
        upto: int,
        regs: Iterable[str],
    ) -> Optional[dict[str, int]]:
        """All of ``regs`` if ready, else ``None``."""
        values: dict[str, int] = {}
        for reg in sorted(regs):
            value = self._source_value(proc, rob, upto, reg)
            if value is None:
                return None
            values[reg] = value
        return values

    # -- fetch (eager, with branch-prediction nondeterminism) --------------

    def fetch_closure(self, state: MachineState) -> Iterator[MachineState]:
        """Apply rule Fetch to exhaustion, branching over predictions."""
        pending = [state]
        while pending:
            current = pending.pop()
            advanced = False
            for proc, pstate in enumerate(current.procs):
                program = self.programs[proc]
                if pstate.pc >= len(program):
                    continue
                advanced = True
                instr = program[pstate.pc]
                if isinstance(instr, Branch):
                    taken_pc = program.labels[instr.target]
                    fall_pc = pstate.pc + 1
                    for predicted in dict.fromkeys((fall_pc, taken_pc)):
                        entry = RobEntry(index=pstate.pc, pred_next=predicted)
                        procs = list(current.procs)
                        procs[proc] = ProcState(predicted, pstate.rob + (entry,))
                        pending.append(replace(current, procs=tuple(procs)))
                else:
                    entry = RobEntry(index=pstate.pc)
                    procs = list(current.procs)
                    procs[proc] = ProcState(pstate.pc + 1, pstate.rob + (entry,))
                    pending.append(replace(current, procs=tuple(procs)))
                break
            if not advanced:
                yield current

    # -- kills -------------------------------------------------------------

    def _kill_from(
        self,
        state: MachineState,
        proc: int,
        rob: tuple[RobEntry, ...],
        first_dead: int,
        new_pc: int,
    ) -> Iterator[MachineState]:
        """Squash ROB entries from position ``first_dead``; refetch eagerly."""
        procs = list(state.procs)
        procs[proc] = ProcState(new_pc, rob[:first_dead])
        yield from self.fetch_closure(replace(state, procs=tuple(procs)))

    # -- rules -------------------------------------------------------------

    def successors(self, state: MachineState) -> Iterator[MachineState]:
        """All states reachable by firing one non-fetch rule (then refetching)."""
        for proc, pstate in enumerate(state.procs):
            rob = pstate.rob
            for pos, entry in enumerate(rob):
                instr = self._instr(proc, entry)
                if isinstance(instr, RegOp):
                    yield from self._execute_regop(state, proc, pos)
                elif isinstance(instr, Branch):
                    yield from self._execute_branch(state, proc, pos)
                elif isinstance(instr, Fence):
                    yield from self._execute_fence(state, proc, pos)
                elif isinstance(instr, Rmw):
                    yield from self._compute_mem_addr(state, proc, pos)
                    yield from self._execute_rmw(state, proc, pos)
                elif isinstance(instr, Load):
                    yield from self._compute_mem_addr(state, proc, pos)
                    yield from self._execute_load(state, proc, pos)
                elif isinstance(instr, Store):
                    yield from self._compute_mem_addr(state, proc, pos)
                    yield from self._compute_store_data(state, proc, pos)
                    yield from self._execute_store(state, proc, pos)
                elif isinstance(instr, Nop):
                    yield from self._execute_nop(state, proc, pos)

    def _update_entry(
        self,
        state: MachineState,
        proc: int,
        pos: int,
        **changes,
    ) -> MachineState:
        pstate = state.procs[proc]
        rob = list(pstate.rob)
        rob[pos] = replace(rob[pos], **changes)
        procs = list(state.procs)
        procs[proc] = ProcState(pstate.pc, tuple(rob))
        return replace(state, procs=tuple(procs))

    def _execute_regop(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Execute-Reg-to-Reg."""
        entry = state.procs[proc].rob[pos]
        if entry.done:
            return
        instr = self._instr(proc, entry)
        operands = self._operands(proc, state.procs[proc].rob, pos, instr.read_set())
        if operands is None:
            return
        result = evaluate(instr.expr, operands)
        yield self._update_entry(state, proc, pos, done=True, result=result)

    def _execute_nop(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """No-ops execute unconditionally (treated like a trivial reg-op)."""
        entry = state.procs[proc].rob[pos]
        if entry.done:
            return
        yield self._update_entry(state, proc, pos, done=True, result=0)

    def _execute_branch(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Execute-Branch (kills younger entries on misprediction)."""
        rob = state.procs[proc].rob
        entry = rob[pos]
        if entry.done:
            return
        instr = self._instr(proc, entry)
        operands = self._operands(proc, rob, pos, instr.read_set())
        if operands is None:
            return
        taken = evaluate(instr.cond, operands) != 0
        program = self.programs[proc]
        actual = program.labels[instr.target] if taken else entry.index + 1
        done_state = self._update_entry(
            state, proc, pos, done=True, result=actual
        )
        if actual == entry.pred_next:
            yield done_state
        else:
            yield from self._kill_from(
                done_state, proc, done_state.procs[proc].rob, pos + 1, actual
            )

    def _execute_fence(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Execute-Fence: waits for older type-X memory instructions."""
        rob = state.procs[proc].rob
        entry = rob[pos]
        if entry.done:
            return
        fence = self._instr(proc, entry)
        for older in rob[:pos]:
            older_instr = self._instr(proc, older)
            if fence.orders_before(older_instr) and not older.done:
                return
        yield self._update_entry(state, proc, pos, done=True)

    def _compute_mem_addr(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Compute-Mem-Addr, including the younger-load kill search."""
        rob = state.procs[proc].rob
        entry = rob[pos]
        if entry.addr_avail:
            return
        instr = self._instr(proc, entry)
        operands = self._operands(proc, rob, pos, instr.addr_read_set())
        if operands is None:
            return
        addr = evaluate(instr.addr, operands)
        resolved = self._update_entry(state, proc, pos, addr_avail=True, addr=addr)
        if isinstance(instr, Load) and self.variant.same_address_loads != "saldld":
            # GAM0 machine: a *load* resolving its address kills nothing.
            yield resolved
            return
        rob2 = resolved.procs[proc].rob
        for later_pos in range(pos + 1, len(rob2)):
            later = rob2[later_pos]
            later_instr = self._instr(proc, later)
            if not later_instr.is_memory or not later.addr_avail:
                continue
            if later.addr != addr:
                continue
            if isinstance(later_instr, Load) and later.done:
                yield from self._kill_from(
                    resolved, proc, rob2, later_pos, later.index
                )
                return
            break  # first same-address memory instruction is not a done load
        yield resolved

    def _execute_load(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Execute-Load: bypass, memory read, or stall."""
        rob = state.procs[proc].rob
        entry = rob[pos]
        if entry.done or not entry.addr_avail:
            return
        for older in rob[:pos]:
            older_instr = self._instr(proc, older)
            if isinstance(older_instr, Fence) and older_instr.post == "L":
                if not older.done:
                    return
        addr = entry.addr
        for older_pos in range(pos - 1, -1, -1):
            older = rob[older_pos]
            older_instr = self._instr(proc, older)
            if not older_instr.is_memory or older.done:
                continue
            if not older.addr_avail or older.addr != addr:
                continue
            if older_instr.is_store:
                # RMWs never provide forwarding data; plain stores do once
                # their data is computed.
                if isinstance(older_instr, Store) and older.data_avail:
                    yield self._update_entry(
                        state, proc, pos, done=True, result=older.data
                    )
                return
            if self.variant.same_address_loads == "saldld":
                return  # stall behind the older unissued same-address load
            continue  # GAM0: ignore older loads entirely
        yield self._update_entry(
            state, proc, pos, done=True, result=state.read_mem(addr)
        )

    def _execute_rmw(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Execute-RMW: the Section III-C extension.

        An RMW obeys the Execute-Store guards (it is a store) and reads the
        monolithic memory at the instant it writes it (it is a load that
        cannot forward): old value out, new value in, one rule firing.
        """
        rob = state.procs[proc].rob
        entry = rob[pos]
        if entry.done or not entry.addr_avail:
            return
        instr = self._instr(proc, entry)
        operands = self._operands(proc, rob, pos, instr.read_set())
        if operands is None:
            return
        for older in rob[:pos]:
            older_instr = self._instr(proc, older)
            if older_instr.is_branch and not older.done:
                return  # BrSt
            if older_instr.is_memory and not older.addr_avail:
                return  # AddrSt
            if older_instr.is_memory and older.addr == entry.addr and not older.done:
                return  # SAMemSt (and the load-half ordering)
            if isinstance(older_instr, Fence) and not older.done:
                return  # an RMW is both fence post-types
        old_value = state.read_mem(entry.addr)
        new_value = evaluate(instr.data, {**operands, instr.dst: old_value})
        memory = state.write_mem(entry.addr, new_value)
        updated = self._update_entry(
            state, proc, pos, done=True, result=old_value, data_avail=True,
            data=new_value,
        )
        yield replace(updated, memory=memory)

    def _compute_store_data(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Compute-Store-Data."""
        rob = state.procs[proc].rob
        entry = rob[pos]
        if entry.data_avail:
            return
        instr = self._instr(proc, entry)
        operands = self._operands(
            proc, rob, pos, registers_read(instr.data)
        )
        if operands is None:
            return
        data = evaluate(instr.data, operands)
        yield self._update_entry(state, proc, pos, data_avail=True, data=data)

    def _execute_store(
        self, state: MachineState, proc: int, pos: int
    ) -> Iterator[MachineState]:
        """Rule Execute-Store: the six guard conditions of Figure 17."""
        rob = state.procs[proc].rob
        entry = rob[pos]
        if entry.done or not entry.addr_avail or not entry.data_avail:
            return
        for older in rob[:pos]:
            older_instr = self._instr(proc, older)
            if older_instr.is_branch and not older.done:
                return  # guard 3
            if older_instr.is_memory and not older.addr_avail:
                return  # guard 4
            if older_instr.is_memory and older.addr == entry.addr and not older.done:
                return  # guard 5
            if isinstance(older_instr, Fence) and older_instr.post == "S":
                if not older.done:
                    return  # guard 6
        memory = state.write_mem(entry.addr, entry.data)
        updated = self._update_entry(state, proc, pos, done=True)
        yield replace(updated, memory=memory)

    # -- terminal states ----------------------------------------------------

    def is_terminal(self, state: MachineState) -> bool:
        """All instructions fetched and every ROB entry done."""
        for proc, pstate in enumerate(state.procs):
            if pstate.pc < len(self.programs[proc]):
                return False
            if any(not entry.done for entry in pstate.rob):
                return False
        return True

    def final_state(
        self, state: MachineState
    ) -> tuple[dict[tuple[int, str], int], dict[int, int]]:
        """Final register file (youngest writer per register) and memory."""
        regs: dict[tuple[int, str], int] = {}
        for proc, pstate in enumerate(state.procs):
            names: set[str] = set(self.programs[proc].registers())
            for reg in names:
                value = 0
                for entry in pstate.rob:
                    instr = self._instr(proc, entry)
                    if reg in instr.write_set():
                        value = entry.result
                regs[(proc, reg)] = value
        return regs, dict(state.memory)


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome set plus exploration statistics."""

    outcomes: frozenset[Outcome]
    states_visited: int
    terminal_states: int


_MAX_STATES = 2_000_000
"""Default cap on distinct states one exploration may visit."""


def _terminal_states(
    test: LitmusTest,
    variant: MachineVariant,
    max_states: int,
    seen: set[MachineState],
) -> Iterator[tuple[dict[tuple[int, str], int], dict[int, int]]]:
    """Depth-first search of the machine, yielding each terminal state's
    final registers and memory.

    ``seen`` collects every visited state, so callers can report how many
    there were.  Raises ``RuntimeError`` once more than ``max_states``
    distinct states have been visited.
    """
    machine = _Machine(test, variant)
    initial_memory = tuple(sorted(test.initial_memory.items()))
    empty = MachineState(
        memory=initial_memory,
        procs=tuple(ProcState(0, ()) for _ in test.programs),
    )
    stack = list(machine.fetch_closure(empty))
    seen.update(stack)
    while stack:
        state = stack.pop()
        if machine.is_terminal(state):
            yield machine.final_state(state)
            continue
        for successor in machine.successors(state):
            if successor not in seen:
                seen.add(successor)
                if len(seen) > max_states:
                    raise RuntimeError(
                        f"state-space explosion exploring {test.name!r}"
                    )
                stack.append(successor)


def explore(
    test: LitmusTest,
    variant: MachineVariant = GAM_MACHINE,
    project: str = "observed",
    max_states: int = _MAX_STATES,
) -> ExplorationResult:
    """Exhaustively explore the abstract machine on ``test``.

    Raises ``RuntimeError`` if more than ``max_states`` distinct states are
    visited (a safety valve; litmus tests stay far below it).
    """
    seen: set[MachineState] = set()
    outcomes: set[Outcome] = set()
    terminals = 0
    with _obs_time_block("operational.explore.time"):
        for regs, mem in _terminal_states(test, variant, max_states, seen):
            terminals += 1
            outcomes.add(project_outcome(test, regs, mem, project))
    recorder = _obs_current()
    if recorder.active:
        recorder.incr("operational.explore.runs")
        recorder.incr("operational.explore.states", len(seen))
        recorder.incr("operational.explore.terminals", terminals)
    return ExplorationResult(
        outcomes=frozenset(outcomes),
        states_visited=len(seen),
        terminal_states=terminals,
    )


def operational_outcomes(
    test: LitmusTest,
    variant: MachineVariant = GAM_MACHINE,
    project: str = "observed",
) -> frozenset[Outcome]:
    """The abstract machine's allowed outcome set (projected)."""
    return explore(test, variant, project).outcomes


def operational_allows(
    test: LitmusTest,
    variant: MachineVariant = GAM_MACHINE,
    outcome: Optional[Outcome] = None,
) -> bool:
    """Does the machine allow ``outcome`` (default: the asked outcome)?

    Explores like :func:`explore`, under its default state cap, but stops
    at the first terminal state that matches.
    """
    if outcome is None:
        outcome = test.asked
    if outcome is None:
        raise ValueError(f"test {test.name!r} has no asked outcome")
    terminals = _terminal_states(test, variant, _MAX_STATES, set())
    return any(outcome.matches(regs, mem) for regs, mem in terminals)
