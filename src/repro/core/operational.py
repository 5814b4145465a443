"""The GAM abstract machine (Figures 16-17) with exhaustive exploration.

The machine is a monolithic memory plus, per processor, a PC and an ROB
whose entries carry exactly the fields the paper lists: a done bit, the
execution result, address-available/address, data-available/data and the
predicted branch target.  Each of the paper's eight rules is transliterated
below; the exploration driver fires enabled rules from every reachable
state (with memoization) until it has reached every terminal state, so
the set of terminal register/memory states is the machine's full
behaviour set.  That driver (:func:`explore_machine`) takes any built
machine, so the SC and TSO reference machines
(:mod:`repro.core.reference_machines`) run on the same loop, under the
same state cap and telemetry, with their own step rules.

**State encoding.**  A machine state is a flat tuple of small ints,
``(memory_id, pstate_id_0, …, pstate_id_{n-1})``: each exploration interns
every memory image and every processor state it meets to an int, so the
hashing and equality checks that memoization runs on every successor
touch a few machine words instead of nested tuples.  The interned values
are plain tuples:

* a ROB entry is ``(index, done, result, addr_avail, addr, data_avail,
  data, pred_next)`` — the static index of the entry's instruction, then
  the paper's fields, ``None`` while a field is unset;
* a processor state is ``(pc, rob)``, ``rob`` a tuple of entries, oldest
  first; its intern table also keeps whether it is finished (everything
  fetched and done), which is all :meth:`_Machine.is_terminal` reads;
* a memory image is the sorted ``(addr, value)`` pairs of the monolithic
  memory (unlisted addresses read 0).

:meth:`_Machine.decode` turns a state back into ``(memory, procs)``.  The
ids mean nothing outside the exploration that assigned them.

**Compiled metadata.**  :class:`_Machine` compiles the test once per
exploration into a table with one :class:`_InstrMeta` row per static
instruction: its kind code, the register it writes, its sorted read /
address-read / data-read registers, fence pre/post types, resolved branch
target and its ``addr``/``data``/``expr``/``cond`` expressions compiled to
closures (:func:`~repro.isa.expr.compile_expr`).  It also tabulates every
fetch path from every PC.  Rules read the table instead of re-deriving
``isinstance`` checks and register sets, and the guards that quantify over
older ROB entries read summaries folded in one oldest-to-youngest pass.
A rule reads and writes only the memory and its own processor, so each
processor's rule firings are computed once per ``(memory, processor
state)`` and reused by every machine state that pairs them.

Three deliberate deviations, all behaviour-preserving:

* **Eager fetch.**  Rule Fetch is applied to closure whenever possible
  (branching over both predicted targets).  Every guard in Figure 17
  quantifies only over *older* ROB entries, so fetching earlier never
  disables a rule and never changes an older entry's behaviour; terminal
  states require everything fetched anyway.  This collapses an exponential
  amount of irrelevant interleaving.
* **Partial-order reduction.**  A move is *local* when it neither reads
  nor writes memory: Compute-Mem-Addr (with its kill and refetch),
  Compute-Store-Data, Reg-to-Reg, Branch, Fence, Nop and an Execute-Load
  that forwards from an older store.  From each state the first processor
  that has enabled moves, all of them local, fires only the moves of its
  oldest ROB entry that has one; when no processor qualifies, every move
  fires.
  No guard reads memory and no guard looks at younger entries, so the
  other interleavings only reorder commuting moves or redo work a kill
  throws away; every terminal state stays reachable (the argument is in
  ``docs/architecture.md``, "The abstract machines", and
  ``tests/reference/unreduced_machine.py`` is the unreduced oracle).
  The SC and TSO reference machines are not reduced.
* **Variants.**  The machine is parameterized over the same-address
  load-load policy so the GAM0 machine (no SALdLd stalls or
  load-address-resolution kills) can be explored with the same code; the
  paper's Figure 17 corresponds to :data:`GAM_MACHINE`.  The two variants
  differ at three points only: Execute-Load behind an older unissued
  same-address load (GAM stalls), a load's Compute-Mem-Addr finding a
  younger done same-address load (GAM kills it), and a store's or RMW's
  Compute-Mem-Addr searching past a younger unissued same-address load
  (GAM stops there).  Both variants evaluate every such point the same
  way and set :attr:`ExplorationResult.saldld_met` only where the two
  would fire different moves, so a run that leaves it clear is, state
  for state, the other variant's run too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

from ..isa.expr import compile_expr, registers_read
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
    "MachineVariant",
    "GAM_MACHINE",
    "GAM0_MACHINE",
    "ExplorationResult",
    "explore",
    "explore_machine",
    "operational_outcomes",
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


# Positions of the fields in a ROB entry tuple.
_INDEX, _DONE, _RESULT, _ADDR_AVAIL, _ADDR, _DATA_AVAIL, _DATA, _PRED_NEXT = range(8)

# Instruction kind codes.  The memory kinds come first, so ``kind <= _RMW``
# means "is a memory instruction"; an RMW is both a load and a store.
_LOAD, _STORE, _RMW, _REGOP, _BRANCH, _FENCE, _NOP = range(7)

_Entry = tuple
_State = tuple
_Compiled = Callable[[Mapping[str, int]], int]


def _new_entry(index: int, pred_next: Optional[int] = None) -> _Entry:
    """A freshly fetched ROB entry: nothing computed yet."""
    return (index, False, None, False, None, False, None, pred_next)


def _read_mem(memory: tuple[tuple[int, int], ...], addr: int) -> int:
    """Monolithic memory read (unwritten addresses are 0)."""
    for a, v in memory:
        if a == addr:
            return v
    return 0


def _write_mem(
    memory: tuple[tuple[int, int], ...], addr: int, value: int
) -> tuple[tuple[int, int], ...]:
    """A new memory image with ``addr`` updated."""
    items = dict(memory)
    items[addr] = value
    return tuple(sorted(items.items()))


def _replace(pc: int, rob: tuple, pos: int, entry: _Entry) -> tuple:
    """Processor state ``(pc, rob)`` with the ROB entry at ``pos`` replaced."""
    return (pc, rob[:pos] + (entry,) + rob[pos + 1:])


def _place(state: _State, p: int, moves: list) -> list[_State]:
    """Machine states after processor ``p``'s ``(memory_id, pstate_id)`` moves."""
    head, tail = state[1:p + 1], state[p + 2:]
    return [(memory, *head, pstate, *tail) for memory, pstate in moves]


class _InstrMeta(NamedTuple):
    """One static instruction, compiled once per exploration."""

    kind: int
    dst: Optional[str]  # WS(I): the register written, if any
    reads: tuple[str, ...]  # RS(I), sorted
    addr_reads: tuple[str, ...]  # ARS(I), sorted
    data_reads: tuple[str, ...]  # registers of a store's data, sorted
    pre: Optional[str]  # fence pre/post types
    post: Optional[str]
    target: Optional[int]  # a branch's resolved target PC
    addr: Optional[_Compiled]
    data: Optional[_Compiled]
    expr: Optional[_Compiled]
    cond: Optional[_Compiled]


def _compile_instr(instr: Instruction, program: Program) -> _InstrMeta:
    """The metadata-table row for one instruction."""
    kind = next(
        code
        for cls, code in (
            (Load, _LOAD), (Store, _STORE), (Rmw, _RMW), (RegOp, _REGOP),
            (Branch, _BRANCH), (Fence, _FENCE), (Nop, _NOP),
        )
        if isinstance(instr, cls)
    )
    (dst,) = instr.write_set() or (None,)
    addr = getattr(instr, "addr", None)
    data = getattr(instr, "data", None)
    expr = getattr(instr, "expr", None)
    cond = getattr(instr, "cond", None)
    return _InstrMeta(
        kind=kind,
        dst=dst,
        reads=tuple(sorted(instr.read_set())),
        addr_reads=tuple(sorted(instr.addr_read_set())),
        data_reads=tuple(sorted(registers_read(data))) if data is not None else (),
        pre=getattr(instr, "pre", None),
        post=getattr(instr, "post", None),
        target=program.labels[instr.target] if kind == _BRANCH else None,
        addr=compile_expr(addr) if addr is not None else None,
        data=compile_expr(data) if data is not None else None,
        expr=compile_expr(expr) if expr is not None else None,
        cond=compile_expr(cond) if cond is not None else None,
    )


def _fetch_paths(meta: tuple[_InstrMeta, ...]) -> tuple[tuple[tuple[_Entry, ...], ...], ...]:
    """``paths[pc]``: every ROB suffix rule Fetch appends from ``pc`` on.

    Fetch runs to the end of the program, so there is one suffix per
    sequence of branch predictions (both targets of every branch; one when
    they coincide).
    """
    paths: list = [None] * len(meta) + [((),)]
    for pc in range(len(meta) - 1, -1, -1):
        if meta[pc].kind == _BRANCH:
            suffixes = []
            for predicted in dict.fromkeys((pc + 1, meta[pc].target)):
                entry = _new_entry(pc, predicted)
                suffixes.extend((entry,) + rest for rest in paths[predicted])
            paths[pc] = tuple(suffixes)
        else:
            entry = _new_entry(pc)
            paths[pc] = tuple((entry,) + rest for rest in paths[pc + 1])
    return tuple(paths)


class _Machine:
    """Rule implementations bound to one litmus test and variant."""

    def __init__(self, test: LitmusTest, variant: MachineVariant) -> None:
        self.test = test
        self.saldld = variant.same_address_loads == "saldld"
        self.meta = tuple(
            tuple(_compile_instr(instr, program) for instr in program)
            for program in test.programs
        )
        self.paths = tuple(_fetch_paths(meta) for meta in self.meta)
        self.ends = tuple(len(program) for program in test.programs)
        self.zero_regs = tuple(
            dict.fromkeys(program.registers(), 0) for program in test.programs
        )
        self.saldld_met = False
        # Intern tables: memory images and processor states to ints.  A
        # processor state's id is unique across processors.  Per id,
        # ``_finished`` is whether it has everything fetched and done and
        # ``_moves`` memoizes its moves by memory id.
        self._memories: list[tuple] = []
        self._memory_ids: dict[tuple, int] = {}
        self._pstates: list[tuple] = []
        self._pstate_ids: tuple[dict, ...] = tuple({} for _ in self.ends)
        self._finished: list[bool] = []
        self._moves: list[dict[int, tuple[bool, list]]] = []

    def _memory_id(self, memory: tuple) -> int:
        ident = self._memory_ids.get(memory)
        if ident is None:
            ident = self._memory_ids[memory] = len(self._memories)
            self._memories.append(memory)
        return ident

    def _pstate_id(self, p: int, pstate: tuple) -> int:
        ids = self._pstate_ids[p]
        ident = ids.get(pstate)
        if ident is None:
            ident = ids[pstate] = len(self._pstates)
            self._pstates.append(pstate)
            self._moves.append({})
            pc, rob = pstate
            self._finished.append(
                pc == self.ends[p] and all(entry[_DONE] for entry in rob)
            )
        return ident

    def decode(self, state: _State) -> tuple[tuple, tuple]:
        """``(memory, procs)``: the memory image and each ``(pc, rob)``."""
        pstates = self._pstates
        return self._memories[state[0]], tuple(pstates[i] for i in state[1:])

    def initial_states(self) -> list[_State]:
        """The empty machine (initial memory, empty ROBs), fetched."""
        memory = tuple(sorted(self.test.initial_memory.items()))
        return self.fetch_closure((memory, tuple((0, ()) for _ in self.ends)))

    # -- fetch (eager, with branch-prediction nondeterminism) --------------

    def fetch_closure(self, state: tuple[tuple, tuple]) -> list[_State]:
        """Apply rule Fetch to exhaustion, branching over predictions.

        Takes a decoded ``(memory, procs)`` and returns interned states.
        """
        memory, procs = state
        choices = [
            [self._pstate_id(p, (end, rob + suffix)) for suffix in paths[pc]]
            for p, ((pc, rob), paths, end) in enumerate(
                zip(procs, self.paths, self.ends)
            )
        ]
        memory_id = self._memory_id(memory)
        return [(memory_id, *combo) for combo in itertools.product(*choices)]

    # -- kills -------------------------------------------------------------

    def _kill_from(
        self, out: list, memory: tuple, p: int, kept: tuple, new_pc: int
    ) -> None:
        """Squash processor ``p``'s ROB down to ``kept``; refetch from ``new_pc``."""
        end = self.ends[p]
        for suffix in self.paths[p][new_pc]:
            out.append((memory, (end, kept + suffix)))

    # -- rules -------------------------------------------------------------

    def successors(self, state: _State) -> list[_State]:
        """The reduced successors: one rule firing (then refetching) each.

        A rule reads and writes only the memory and its own processor, and
        the other processors are fully fetched already (the closure runs
        after every rule), so each processor's moves are a function of
        ``(memory, processor state)``, computed once per exploration.

        Partial-order reduction: the first processor that has enabled
        moves, all of them local (none reads or writes memory), fires only
        the moves of its oldest ROB entry that has one; if no processor
        qualifies, every move fires.  Every terminal state stays reachable
        (``docs/architecture.md``, "The abstract machines").
        """
        memory_id = state[0]
        memos = self._moves
        found = []
        for p in range(len(self.ends)):
            pstate_id = state[p + 1]
            memo = memos[pstate_id]
            cached = memo.get(memory_id)
            if cached is None:
                moves, local, oldest_end = self._interned_moves(p, memory_id, pstate_id)
                reduce = local and bool(moves)
                cached = memo[memory_id] = (
                    reduce, moves[:oldest_end] if reduce else moves
                )
            reduced, moves = cached
            if reduced:
                return _place(state, p, moves)
            found.append(moves)
        out: list[_State] = []
        for p, moves in enumerate(found):
            out.extend(_place(state, p, moves))
        return out

    def _interned_moves(
        self, p: int, memory_id: int, pstate_id: int
    ) -> tuple[list, bool, Optional[int]]:
        """:meth:`_processor_moves` on interned ids, its moves interned."""
        memory = self._memories[memory_id]
        moves, local, oldest_end = self._processor_moves(
            p, memory, self._pstates[pstate_id]
        )
        interned = [
            (
                memory_id if after is memory else self._memory_id(after),
                self._pstate_id(p, pstate),
            )
            for after, pstate in moves
        ]
        return interned, local, oldest_end

    def _processor_moves(
        self, p: int, memory: tuple, pstate: tuple
    ) -> tuple[list, bool, Optional[int]]:
        """Every rule processor ``p`` can fire, oldest ROB entry first.

        Returns ``(moves, local, oldest_end)``: ``moves`` the ``(memory,
        processor state)`` after each firing, ``local`` whether none of
        them is a global move (Execute-Load from memory, Execute-Store,
        Execute-RMW), and ``moves[:oldest_end]`` the firings of the
        oldest entry that has one (``None`` when there are none).
        """
        out: list = []
        local = True
        oldest_end: Optional[int] = None
        pc, rob = pstate
        meta = self.meta[p]
        # What the entry at ``pos`` sees of the entries older than it,
        # folded in as the loop walks the ROB oldest first: each
        # register's value (from its youngest older writer; ``None``
        # while that writer is not done, 0 with no writer in flight),
        # and the not-done instructions the Figure 17 guards wait on.
        regs = dict(self.zero_regs[p])
        operand = regs.__getitem__
        older_branch = older_fence = older_fence_l = older_fence_s = False
        older_load = older_store = older_unaddressed = False
        older_addrs: list[Optional[int]] = []  # of not-done memory entries
        for pos, entry in enumerate(rob):
            index, done, result, addr_avail, addr, data_avail, data, pred = entry
            m = meta[index]
            kind = m.kind
            if not done:
                if kind <= _RMW and not addr_avail:
                    # Compute-Mem-Addr.
                    if None not in map(operand, m.addr_reads):
                        self._compute_mem_addr(
                            out, memory, p, pc, rob, pos, m.addr(regs)
                        )
                if kind == _LOAD:
                    # Execute-Load waits for older FenceXL.
                    if addr_avail and not older_fence_l:
                        if self._execute_load(out, memory, p, pc, rob, pos):
                            local = False
                elif kind == _STORE:
                    if not data_avail:
                        # Compute-Store-Data.
                        if None not in map(operand, m.data_reads):
                            computed = (
                                index, False, result, addr_avail, addr,
                                True, m.data(regs), pred,
                            )
                            out.append(
                                (memory, _replace(pc, rob, pos, computed))
                            )
                    elif addr_avail and not (
                        older_branch  # guard 3
                        or older_unaddressed  # guard 4
                        or addr in older_addrs  # guard 5
                        or older_fence_s  # guard 6
                    ):
                        # Execute-Store: the six guard conditions.
                        local = False
                        done_entry = (index, True, result, True, addr, True, data, pred)
                        out.append((
                            _write_mem(memory, addr, data),
                            _replace(pc, rob, pos, done_entry),
                        ))
                elif kind == _RMW:
                    # Execute-RMW: the Section III-C extension.  An RMW
                    # obeys the Execute-Store guards (it is a store) and
                    # reads the monolithic memory at the instant it
                    # writes it (it is a load that cannot forward): old
                    # value out, new value in, one rule firing.
                    if (
                        addr_avail
                        and not older_branch  # BrSt
                        and not older_unaddressed  # AddrSt
                        and addr not in older_addrs  # SAMemSt, load-half order
                        and not older_fence  # an RMW is both post-types
                        and None not in map(operand, m.reads)
                    ):
                        local = False
                        old_value = _read_mem(memory, addr)
                        new_value = m.data({**regs, m.dst: old_value})
                        done_entry = (
                            index, True, old_value, True, addr, True, new_value, pred,
                        )
                        out.append((
                            _write_mem(memory, addr, new_value),
                            _replace(pc, rob, pos, done_entry),
                        ))
                elif kind == _REGOP:
                    # Execute-Reg-to-Reg.
                    if None not in map(operand, m.reads):
                        done_entry = (
                            index, True, m.expr(regs), addr_avail, addr,
                            data_avail, data, pred,
                        )
                        out.append((memory, _replace(pc, rob, pos, done_entry)))
                elif kind == _BRANCH:
                    # Execute-Branch: kills younger entries on misprediction.
                    if None not in map(operand, m.reads):
                        actual = m.target if m.cond(regs) != 0 else index + 1
                        done_entry = (
                            index, True, actual, addr_avail, addr, data_avail, data, pred,
                        )
                        if actual == pred:
                            out.append(
                                (memory, _replace(pc, rob, pos, done_entry))
                            )
                        else:
                            self._kill_from(
                                out, memory, p, rob[:pos] + (done_entry,), actual
                            )
                elif kind == _FENCE:
                    # Execute-Fence: waits for older type-``pre`` accesses.
                    if not (older_load if m.pre == "L" else older_store):
                        done_entry = (
                            index, True, result, addr_avail, addr, data_avail, data, pred,
                        )
                        out.append((memory, _replace(pc, rob, pos, done_entry)))
                else:
                    # No-ops execute unconditionally (a trivial reg-op).
                    done_entry = (index, True, 0, addr_avail, addr, data_avail, data, pred)
                    out.append((memory, _replace(pc, rob, pos, done_entry)))
                if oldest_end is None and out:
                    oldest_end = len(out)
            # Fold this entry into what younger entries see.
            if m.dst is not None:
                regs[m.dst] = result if done else None
            if kind <= _RMW:
                if not addr_avail:
                    older_unaddressed = True
                if not done:
                    older_addrs.append(addr)
                    older_load = older_load or kind != _STORE
                    older_store = older_store or kind != _LOAD
            elif not done:
                if kind == _BRANCH:
                    older_branch = True
                elif kind == _FENCE:
                    older_fence = True
                    if m.post == "L":
                        older_fence_l = True
                    else:
                        older_fence_s = True
        return out, local, oldest_end

    def _compute_mem_addr(
        self, out: list, memory: tuple, p: int, pc: int,
        rob: tuple, pos: int, addr: int,
    ) -> None:
        """Rule Compute-Mem-Addr, including the younger-load kill search.

        GAM kills the first younger addressed same-address memory entry
        when it is a done load.  GAM0 kills nothing when a *load* resolves;
        when a store or RMW resolves it searches past younger unissued
        same-address loads (it has no SALdLd stall, so a load younger than
        an unissued one may already have read memory).  Both variants run
        the one search below and mark :attr:`saldld_met` where their kill
        decisions part.
        """
        index, done, result, _, _, data_avail, data, pred = rob[pos]
        resolved = (index, done, result, True, addr, data_avail, data, pred)
        meta = self.meta[p]
        is_load = meta[index].kind == _LOAD
        shielded = False  # passed an unissued same-address load (GAM stops there)
        for later_pos in range(pos + 1, len(rob)):
            later = rob[later_pos]
            later_kind = meta[later[_INDEX]].kind
            if later_kind > _RMW or not later[_ADDR_AVAIL]:
                continue
            if later[_ADDR] != addr:
                continue
            if later_kind != _LOAD:
                break  # a store or an RMW shields the rest
            if not later[_DONE]:
                if is_load:
                    break  # both variants: an unissued load shields the rest
                shielded = True
                continue
            if is_load or shielded:
                # GAM kills for a load, GAM0 past the unissued load.
                self.saldld_met = True
                if self.saldld != is_load:
                    break
            kept = rob[:pos] + (resolved,) + rob[pos + 1:later_pos]
            self._kill_from(out, memory, p, kept, later[_INDEX])
            return
        out.append((memory, _replace(pc, rob, pos, resolved)))

    def _execute_load(
        self, out: list, memory: tuple, p: int, pc: int,
        rob: tuple, pos: int,
    ) -> bool:
        """Rule Execute-Load: bypass, memory read, or stall.

        The caller has checked the entry is not done, has its address and
        has no older unfinished FenceXL.  Returns whether the load read
        memory (the one global form of the rule).
        """
        index, _, _, _, addr, data_avail, data, pred = rob[pos]
        meta = self.meta[p]
        # GAM stalls behind an older unissued same-address load; GAM0
        # ignores older loads.  Both scan on, to see whether GAM0 fires.
        stalled = False
        for older_pos in range(pos - 1, -1, -1):
            older = rob[older_pos]
            older_kind = meta[older[_INDEX]].kind
            if older_kind > _RMW or older[_DONE]:
                continue
            if not older[_ADDR_AVAIL] or older[_ADDR] != addr:
                continue
            if older_kind == _LOAD:
                stalled = True
                continue
            # RMWs never provide forwarding data; plain stores do once
            # their data is computed.
            if older_kind == _STORE and older[_DATA_AVAIL]:
                if stalled:
                    self.saldld_met = True
                    if self.saldld:
                        return False
                done_entry = (index, True, older[_DATA], True, addr, data_avail, data, pred)
                out.append((memory, _replace(pc, rob, pos, done_entry)))
            return False
        if stalled:
            self.saldld_met = True
            if self.saldld:
                return False
        done_entry = (index, True, _read_mem(memory, addr), True, addr, data_avail, data, pred)
        out.append((memory, _replace(pc, rob, pos, done_entry)))
        return True

    # -- terminal states ----------------------------------------------------

    def is_terminal(self, state: _State) -> bool:
        """All instructions fetched and every ROB entry done."""
        finished = self._finished
        for ident in state[1:]:
            if not finished[ident]:
                return False
        return True

    def final_state(
        self, state: _State
    ) -> tuple[dict[tuple[int, str], int], dict[int, int]]:
        """Final register file (youngest writer per register) and memory."""
        memory, procs = self.decode(state)
        regs: dict[tuple[int, str], int] = {}
        for p, (_, rob) in enumerate(procs):
            meta = self.meta[p]
            values = dict(self.zero_regs[p])
            for entry in rob:
                dst = meta[entry[_INDEX]].dst
                if dst is not None:
                    values[dst] = entry[_RESULT]
            for reg, value in values.items():
                regs[(p, reg)] = value
        return regs, dict(memory)


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome set plus exploration statistics.

    ``saldld_met`` (GAM/GAM0 only; ``False`` for the other machines) is
    whether the run evaluated a same-address load pair on which the GAM
    and GAM0 rules fire different moves.  When it is ``False`` the other
    variant's depth-first run is this one, state for state, so its result
    is this result.
    """

    outcomes: frozenset[Outcome]
    states_visited: int
    terminal_states: int
    saldld_met: bool = False


_MAX_STATES = 2_000_000
"""Default cap on distinct states one exploration may visit."""


def explore_machine(
    machine, project: str = "observed", max_states: Optional[int] = None
) -> ExplorationResult:
    """Exhaustively explore a built machine, depth first.

    ``machine`` is any built machine: an object with ``test``,
    ``initial_states()`` (a fresh list), ``successors(state)``,
    ``is_terminal(state)`` and ``final_state(state)``, and optionally a
    ``saldld_met`` flag (the GAM/GAM0 machines) copied into the result.
    This is the one exploration loop: the GAM/GAM0 machines come through
    :func:`explore`, the SC and TSO reference machines through
    :mod:`repro.core.reference_machines`, and every run feeds the
    ``operational.explore.*`` telemetry.  Raises ``RuntimeError`` once
    more than ``max_states`` distinct states (default ``_MAX_STATES``)
    have been visited.
    """
    if max_states is None:
        max_states = _MAX_STATES
    test = machine.test
    outcomes: set[Outcome] = set()
    terminals = 0
    with _obs_time_block("operational.explore.time"):
        stack = machine.initial_states()
        seen = set(stack)
        while stack:
            state = stack.pop()
            if machine.is_terminal(state):
                terminals += 1
                regs, mem = machine.final_state(state)
                outcomes.add(project_outcome(test, regs, mem, project))
                continue
            for successor in machine.successors(state):
                before = len(seen)
                seen.add(successor)
                if len(seen) > before:
                    if len(seen) > max_states:
                        raise RuntimeError(
                            f"state-space explosion exploring {test.name!r}"
                        )
                    stack.append(successor)
    recorder = _obs_current()
    if recorder.active:
        recorder.incr("operational.explore.runs")
        recorder.incr("operational.explore.states", len(seen))
        recorder.incr("operational.explore.terminals", terminals)
    return ExplorationResult(
        outcomes=frozenset(outcomes),
        states_visited=len(seen),
        terminal_states=terminals,
        saldld_met=getattr(machine, "saldld_met", False),
    )


def explore(
    test: LitmusTest,
    variant: MachineVariant = GAM_MACHINE,
    project: str = "observed",
    max_states: Optional[int] = None,
) -> ExplorationResult:
    """Exhaustively explore the abstract machine on ``test``.

    Raises ``RuntimeError`` if more than ``max_states`` distinct states
    (default ``_MAX_STATES``) are visited (a safety valve; litmus tests
    stay far below it).
    """
    return explore_machine(_Machine(test, variant), project, max_states)


def operational_outcomes(
    test: LitmusTest,
    variant: MachineVariant = GAM_MACHINE,
    project: str = "observed",
) -> frozenset[Outcome]:
    """The abstract machine's allowed outcome set (projected)."""
    return explore(test, variant, project).outcomes
