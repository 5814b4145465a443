"""The axiomatic checking engine (Section IV-A made executable).

Given a litmus test and a :class:`MemoryModel`, the engine enumerates every
execution ``<po, mo, rf>`` satisfying the model's axioms:

1. **Candidate load values.**  A closed value domain is computed
   (:func:`value_domain`); each processor's program is replayed under every
   assignment of domain values to its loads, which fixes addresses, store
   data and branch paths (``<po`` is the replayed stream).
2. **Memory orders.**  The static ppo clauses are evaluated per processor
   and projected onto memory events; every topological order of the
   resulting DAG is a candidate ``<mo`` (axiom InstOrder holds by
   construction).  During enumeration each load's value is derived from the
   LoadValue axiom incrementally and mismatching prefixes are pruned.
3. **Post-checks.**  Execution-dependent clauses (ARM's SALdLdARM) and the
   per-location-SC side condition are verified against the completed
   execution; survivors are yielded as :class:`~repro.core.events.Execution`.

The engine is exact (sound and complete) for the model classes in this
repository because every static clause edge goes forward in program order
(so the per-processor projection is acyclic) and every model orders
same-address stores by program order (so load values are determined as soon
as the load is placed — see :func:`_place_load_value`).

Two enumeration engines serve step 2.  Outcome-set and verdict queries for
every model of the zoo take the **frontier kernel**
(:mod:`repro.core.kernel`): a bitmask DP over ``(placed events, last store
per address)`` abstract states that answers them without materializing any
order.  ARM's SALdLdARM and the per-location-SC side condition of ``plsc``
reduce to one same-source check on same-address load pairs, which the DP
carries in its state (see :func:`kernel_supports` for the exact
preconditions).  Models outside them, and every :func:`enumerate_executions`
consumer (``witness``, ``diff``), take the exact order enumerator below.
Both paths share all candidate preparation through :class:`CandidatePrefix`,
and the parity suite holds them byte-identical on every registered test.
"""

from __future__ import annotations

import bisect
import itertools
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..isa.expr import Const, evaluate, registers_read
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
from ..isa.program import ExecutedInstr, Program, ProgramError, ProgramRun
from ..litmus.test import LitmusTest, Outcome
from ..obs import current as _obs_current
from ..obs import incr as _obs_incr
from .events import (
    EventId,
    Execution,
    MemEvent,
    build_events,
    init_events,
    store_part,
)
from .kernel import (
    FrontierKernel,
    kernel_supports,
    needs_same_source,
    window_pairs,
)
from .ppo import (
    Clause,
    DynamicClause,
    PpoContext,
    close_rows,
    compute_ppo,
    project_to_memory,
)

__all__ = [
    "MemoryModel",
    "DomainOverflowError",
    "ValueDomains",
    "CandidatePrefix",
    "value_domain",
    "value_domains",
    "enumerate_executions",
    "enumerate_outcomes",
    "is_allowed",
    "kernel_supports",
    "project_outcome",
]

_DOMAIN_CAP = 64
_COMBO_CAP = 4096


class DomainOverflowError(RuntimeError):
    """Raised when a test's candidate value domain exceeds the safety cap.

    Litmus tests have tiny domains; hitting this means the input is not a
    litmus-style program and explicit enumeration is the wrong tool.
    """


@dataclass(frozen=True)
class MemoryModel:
    """An axiomatic memory model: ppo clauses plus a load-value axiom.

    Attributes:
        name: registry key (``"gam"``, ``"sc"``...).
        clauses: static ppo clauses (cases of Definition 6).
        dynamic_clauses: execution-dependent clauses (ARM's SALdLdARM).
        load_value: ``"gam"`` for the LoadValueGAM axiom (the youngest
            same-address store earlier in ``<mo`` *or* local ``<po``), or
            ``"sc"`` for LoadValueSC (``<mo`` only, Figure 3).
        requires_coherence: if True, executions must additionally be
            per-location sequentializable (used by the ``plsc`` yardstick).
        description: one-line summary for reports.
    """

    name: str
    clauses: tuple[Clause, ...]
    dynamic_clauses: tuple[DynamicClause, ...] = ()
    load_value: str = "gam"
    requires_coherence: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.load_value not in ("gam", "sc"):
            raise ValueError(f"unknown load-value axiom {self.load_value!r}")
        if not self._orders_same_address_stores():
            raise ValueError(
                f"model {self.name!r} must order same-address stores by program "
                "order (include SAMemSt or OrderSS); the enumeration engine "
                "relies on it and so does single-thread correctness"
            )

    def _orders_same_address_stores(self) -> bool:
        return any(c.name in ("SAMemSt", "OrderSS") for c in self.clauses)

    def clause_names(self) -> tuple[str, ...]:
        """Names of all clauses, static then dynamic."""
        return tuple(c.name for c in self.clauses) + tuple(
            c.name for c in self.dynamic_clauses
        )

    def to_spec(self) -> str:
        """This model as canonical ``.model`` text.

        The inverse of :meth:`from_spec`; the round trip is byte-stable
        (``MemoryModel.from_spec(m.to_spec()).to_spec() == m.to_spec()``).
        """
        from ..models.spec import print_model  # cycle-free import

        return print_model(self)

    @classmethod
    def from_spec(cls, text: str) -> "MemoryModel":
        """Parse canonical (or hand-written) ``.model`` text into a model.

        Raises :class:`repro.models.spec.ModelSpecError` — with the
        offending line number — on malformed input.
        """
        from ..models.spec import parse_model  # cycle-free import

        return parse_model(text)

    def __repr__(self) -> str:
        return f"<MemoryModel {self.name}: {', '.join(self.clause_names())}>"


@dataclass(frozen=True)
class ValueDomains:
    """Per-address over-approximations of load-returnable values.

    ``by_addr[a]`` holds values known storable at the statically-addressed
    location ``a`` (plus its initial value); ``wild`` holds values that may
    land anywhere (stores through computed addresses, asked-outcome values,
    and 0 for untouched memory).  A load from address ``a`` can only return
    ``by_addr.get(a, ()) | wild``.
    """

    by_addr: Mapping[int, frozenset[int]]
    wild: frozenset[int]

    def for_address(self, addr: int) -> frozenset[int]:
        """Candidate values for a load of ``addr``."""
        return self.by_addr.get(addr, frozenset()) | self.wild

    def everything(self) -> frozenset[int]:
        """The flat union (used when a load's address set is unknown)."""
        union = set(self.wild)
        for values in self.by_addr.values():
            union |= values
        return frozenset(union)


def value_domains(
    test: LitmusTest,
    extra: Iterable[int] = (),
    cap: int = _DOMAIN_CAP,
) -> ValueDomains:
    """Compute per-address value domains by abstract interpretation.

    Each program is repeatedly walked with register possible-sets (control
    flow ignored, so the result over-approximates): loads draw from their
    address's current domain when the address is a constant, else from the
    flat union; store data lands in the target address's domain (or in
    ``wild`` for computed addresses).  Iteration stops at a fixed point or
    raises :class:`DomainOverflowError` beyond ``cap`` values — which can
    only happen for non-litmus-style programs with arithmetic feedback.
    """
    wild: set[int] = {0}
    wild.update(extra)
    if test.asked is not None:
        wild.update(v for _, _, v in test.asked.regs)
        wild.update(v for _, v in test.asked.mem)
    by_addr: dict[int, set[int]] = {
        addr: {value} for addr, value in test.initial_memory.items()
    }

    # Every store instruction executes at most once (programs are loop
    # free), so any load-returnable value is derived through at most
    # ``total_stores`` store executions; that many closure rounds suffice
    # even when the abstract feedback (e.g. a fetch-and-add) never reaches
    # a fixed point.
    total_stores = sum(
        1 for program in test.programs for instr in program if instr.is_store
    )
    for _round in range(total_stores + 1):
        changed = False
        flat = set(wild)
        for values in by_addr.values():
            flat |= values
        for program in test.programs:
            for addr, value in _producible_stores(program, by_addr, wild, flat):
                if addr is None:
                    if value not in wild:
                        wild.add(value)
                        changed = True
                elif value not in by_addr.setdefault(addr, set()):
                    by_addr[addr].add(value)
                    changed = True
        total = len(wild) + sum(len(v) for v in by_addr.values())
        if total > cap:
            raise DomainOverflowError(
                f"value domain exceeded {cap} values for test {test.name!r}"
            )
        if not changed:
            break
    return ValueDomains(
        by_addr={addr: frozenset(v) for addr, v in by_addr.items()},
        wild=frozenset(wild),
    )


def value_domain(
    test: LitmusTest,
    extra: Iterable[int] = (),
    cap: int = _DOMAIN_CAP,
) -> frozenset[int]:
    """The flat union of :func:`value_domains` (compatibility helper)."""
    return value_domains(test, extra, cap).everything()


def _producible_stores(
    program: Program,
    by_addr: Mapping[int, set[int]],
    wild: set[int],
    flat: set[int],
) -> Iterator[tuple[Optional[int], int]]:
    """Yield ``(static address or None, data value)`` a program can store."""
    possible: dict[str, set[int]] = {reg: {0} for reg in program.registers()}
    for instr in program:
        if isinstance(instr, Rmw):
            # The load half fills dst; the store half writes data(dst).
            if isinstance(instr.addr, Const):
                addr = instr.addr.value
                possible[instr.dst] = set(by_addr.get(addr, set())) | wild
            else:
                possible[instr.dst] = set(flat)
            data_values = _eval_over(instr.data, possible)
            if isinstance(instr.addr, Const):
                for value in data_values:
                    yield instr.addr.value, value
            else:
                for value in data_values:
                    yield None, value
        elif isinstance(instr, Load):
            if isinstance(instr.addr, Const):
                addr = instr.addr.value
                possible[instr.dst] = set(by_addr.get(addr, set())) | wild
            else:
                possible[instr.dst] = set(flat)
        elif isinstance(instr, RegOp):
            possible[instr.dst] = _eval_over(instr.expr, possible)
        elif isinstance(instr, Store):
            data_values = _eval_over(instr.data, possible)
            if isinstance(instr.addr, Const):
                for value in data_values:
                    yield instr.addr.value, value
            else:
                for value in data_values:
                    yield None, value


def _eval_over(expr, possible: Mapping[str, set[int]]) -> set[int]:
    """Evaluate ``expr`` over the cartesian product of register possible-sets."""
    regs = sorted(registers_read(expr))
    combos = 1
    for reg in regs:
        combos *= max(1, len(possible.get(reg, {0})))
        if combos > _COMBO_CAP:
            raise DomainOverflowError("register possible-set product too large")
    results: set[int] = set()
    for values in itertools.product(*(sorted(possible.get(r, {0})) for r in regs)):
        results.add(evaluate(expr, dict(zip(regs, values))))
    return results


def _enumerate_runs(
    program: Program,
    domains: ValueDomains,
) -> list[ProgramRun]:
    """Replay ``program`` under every assignment of domain values to loads.

    Branches are resolved during replay, so only loads that actually execute
    consume a domain choice, and each load's candidates come from its
    *resolved address's* domain (the address is always known by the time the
    replay reaches the load).

    One DFS replay forks at each executed load over its candidate values in
    ascending order — the same run order as enumerating assignments
    load-by-load with one full :meth:`~repro.isa.program.Program.execute`
    replay each, but every instruction along a shared prefix executes once
    instead of once per revisit.
    """
    instructions = program.instructions
    labels = program.labels
    runs: list[ProgramRun] = []

    def step(pc: int, regs: dict[str, int], executed: list[ExecutedInstr]) -> None:
        while pc < len(instructions):
            instr = instructions[pc]
            next_pc = pc + 1
            if isinstance(instr, Rmw):
                addr = evaluate(instr.addr, regs)
                for value in sorted(domains.for_address(addr)):
                    forked = dict(regs)
                    forked[instr.dst] = value
                    data = evaluate(instr.data, forked)
                    step(
                        next_pc,
                        forked,
                        executed
                        + [ExecutedInstr(pc, instr, addr=addr, value=value, data=data)],
                    )
                return
            if isinstance(instr, Load):
                addr = evaluate(instr.addr, regs)
                for value in sorted(domains.for_address(addr)):
                    forked = dict(regs)
                    forked[instr.dst] = value
                    step(
                        next_pc,
                        forked,
                        executed + [ExecutedInstr(pc, instr, addr=addr, value=value)],
                    )
                return
            if isinstance(instr, Store):
                addr = evaluate(instr.addr, regs)
                data = evaluate(instr.data, regs)
                executed.append(ExecutedInstr(pc, instr, addr=addr, value=data))
            elif isinstance(instr, RegOp):
                result = evaluate(instr.expr, regs)
                regs[instr.dst] = result
                executed.append(ExecutedInstr(pc, instr, value=result))
            elif isinstance(instr, Branch):
                cond = evaluate(instr.cond, regs)
                taken = cond != 0
                executed.append(ExecutedInstr(pc, instr, value=cond, taken=taken))
                if taken:
                    next_pc = labels[instr.target]
            elif isinstance(instr, (Fence, Nop)):
                executed.append(ExecutedInstr(pc, instr))
            else:
                raise ProgramError(f"unknown instruction kind: {instr!r}")
            pc = next_pc
        runs.append(ProgramRun(tuple(executed), regs))

    step(0, {name: 0 for name in program.registers()}, [])
    return runs


@dataclass
class _Candidate:
    """One candidate execution before a memory order is chosen.

    Everything except ``mem_edges`` is *model-independent*: it is derived
    from the test and the chosen program runs alone, which is what lets a
    :class:`CandidatePrefix` share one ``_Candidate`` base across a whole
    model zoo (``_prepare_base`` builds it with ``mem_edges`` empty and
    :meth:`CandidatePrefix.candidate` specializes it per clause set).
    """

    runs: tuple[ProgramRun, ...]
    events: tuple[MemEvent, ...]
    inits: tuple[MemEvent, ...]
    contexts: tuple[PpoContext, ...]
    mem_edges: frozenset[tuple[EventId, EventId]]
    po_stores: Mapping[EventId, tuple[MemEvent, ...]]
    event_by_id: Mapping[EventId, MemEvent]
    rmw_pairs: Mapping[EventId, EventId]  # load-half id -> store-half id
    no_forward: frozenset[EventId]  # loads barred from program-order forwarding

    def src_eid(self, proc: int, index: int) -> EventId:
        """Event id carrying an instruction's *finish* time (RMW: store half)."""
        candidate = (proc, store_part(index))
        if candidate in self.event_by_id:
            return candidate
        return (proc, index)


def _prepare_base(
    test: LitmusTest,
    runs: tuple[ProgramRun, ...],
    contexts: tuple[PpoContext, ...],
) -> Optional[_Candidate]:
    """Build the model-independent candidate base; prune impossible values.

    Returns ``None`` when some load's assigned value cannot come from any
    store to its address (nor from the initial memory) — a cheap necessary
    condition for the LoadValue axiom under *every* model.  ``contexts``
    are the runs' ppo contexts, built once per run by the caller.  The
    returned candidate has an empty ``mem_edges``; see
    :meth:`CandidatePrefix.candidate`.
    """
    events = build_events(runs)
    inits = init_events(events, test.initial_memory)
    storable: dict[int, set[int]] = {}
    for event in itertools.chain(inits, events):
        if event.is_store:
            storable.setdefault(event.addr, set()).add(event.value)
    for event in events:
        if not event.is_store and event.value not in storable.get(event.addr, set()):
            return None

    by_id = {e.eid: e for e in itertools.chain(inits, events)}
    rmw_pairs: dict[EventId, EventId] = {}
    no_forward: set[EventId] = set()
    for proc, run in enumerate(runs):
        for executed in run.memory_accesses():
            instr = executed.instr
            if instr.is_load and instr.is_store:
                load_eid = (proc, executed.index)
                rmw_pairs[load_eid] = (proc, store_part(executed.index))
                no_forward.add(load_eid)

    po_stores: dict[EventId, tuple[MemEvent, ...]] = {}
    for proc, run in enumerate(runs):
        seen_stores: list[MemEvent] = []
        for executed in run.memory_accesses():
            instr = executed.instr
            eid = (proc, executed.index)
            if instr.is_load:
                po_stores[eid] = tuple(
                    s for s in seen_stores if s.addr == executed.addr
                )
            if instr.is_store:
                store_eid = (
                    (proc, store_part(executed.index))
                    if instr.is_load
                    else eid
                )
                seen_stores.append(by_id[store_eid])

    return _Candidate(
        runs=runs,
        events=events,
        inits=inits,
        contexts=contexts,
        mem_edges=frozenset(),
        po_stores=po_stores,
        event_by_id=by_id,
        rmw_pairs=rmw_pairs,
        no_forward=frozenset(no_forward),
    )


class _ThreadPpo:
    """Static ppo of one processor's run, shared by every clause set.

    Holds the run's :class:`PpoContext`, each clause's edges as int bitmask
    rows over stream positions (keyed by clause name, so clause sets that
    share a clause evaluate it once), and per clause-name tuple the closed
    ppo projected onto memory events.  A run appears in every combination
    that picks it, so this work is done once per (processor, run).
    """

    __slots__ = (
        "context",
        "_position",
        "_sources",
        "_targets",
        "_mask",
        "_rows",
        "_pairs",
    )

    def __init__(self, proc: int, run: ProgramRun) -> None:
        self.context = PpoContext.from_run(run)
        self._position = {e.index: pos for pos, e in enumerate(run.executed)}
        # Per memory access: (position, source event) for the edges leaving
        # it, and its target event keyed by its position bit.  An RMW's
        # outgoing edges leave its store half, as in ``src_eid``.
        sources = []
        self._targets: dict[int, EventId] = {}
        for e in run.memory_accesses():
            position = self._position[e.index]
            rmw = e.instr.is_load and e.instr.is_store
            source = (proc, store_part(e.index) if rmw else e.index)
            sources.append((position, source))
            self._targets[1 << position] = (proc, e.index)
        self._sources = tuple(sources)
        self._mask = sum(self._targets)
        self._rows: dict[str, tuple[int, ...]] = {}
        self._pairs: dict[tuple[str, ...], tuple[tuple[EventId, EventId], ...]] = {}

    def _clause_rows(self, clause: Clause) -> tuple[int, ...]:
        rows = self._rows.get(clause.name)
        if rows is None:
            position = self._position
            built = [0] * len(position)
            for a, b in clause.edges(self.context):
                built[position[a]] |= 1 << position[b]
            rows = self._rows[clause.name] = tuple(built)
        return rows

    def memory_pairs(
        self, clauses: tuple[Clause, ...], names: tuple[str, ...]
    ) -> tuple[tuple[EventId, EventId], ...]:
        """The closed ppo of ``clauses`` (named ``names``) between memory
        events, as ``(source, target)`` event pairs."""
        pairs = self._pairs.get(names)
        if pairs is None:
            rows = [0] * len(self._position)
            for clause in clauses:
                for i, row in enumerate(self._clause_rows(clause)):
                    rows[i] |= row
            close_rows(rows)
            found = []
            for position, source in self._sources:
                row = rows[position] & self._mask
                while row:
                    bit = row & -row
                    found.append((source, self._targets[bit]))
                    row ^= bit
            pairs = self._pairs[names] = tuple(found)
        return pairs


def _orders_with_load_values(
    candidate: _Candidate,
    load_value_mode: str,
) -> Iterator[tuple[tuple[EventId, ...], dict[EventId, EventId]]]:
    """Yield ``(mo, rf)`` for every topological order with consistent loads.

    The incremental LoadValue check: when a load is placed, its value is
    already determined — either the youngest *unplaced* program-order-earlier
    same-address store (which, by store coherence, will be the
    memory-order-youngest candidate), or the latest placed store to the
    address.  Mismatches prune the whole subtree.

    An RMW's two halves form one composite placement unit keyed by the load
    half: the load half's value is checked against the latest placed store,
    then the store half is placed immediately after, which realizes the
    "executes by accessing the memory system at one instant" semantics of
    Section III-C (atomicity holds because nothing intervenes in ``<mo``).
    """
    pairs = candidate.rmw_pairs
    folded = set(pairs.values())
    nodes = [e.eid for e in candidate.events if e.eid not in folded]
    node_of = {eid: eid for eid in nodes}
    for load_eid, store_eid in pairs.items():
        node_of[store_eid] = load_eid
    succs: dict[EventId, list[EventId]] = {eid: [] for eid in nodes}
    indegree: dict[EventId, int] = {eid: 0 for eid in nodes}
    for a, b in candidate.mem_edges:
        node_a, node_b = node_of[a], node_of[b]
        if node_a != node_b:
            succs[node_a].append(node_b)
            indegree[node_b] += 1

    last_store: dict[int, MemEvent] = {e.addr: e for e in candidate.inits}
    placed: list[EventId] = []
    placed_nodes: set[EventId] = set()
    placed_stores: set[EventId] = set()
    rf: dict[EventId, EventId] = {}

    def determined_value(event: MemEvent) -> tuple[int, EventId]:
        if load_value_mode == "gam" and event.eid not in candidate.no_forward:
            for store in reversed(candidate.po_stores.get(event.eid, ())):
                if store.eid not in placed_stores:
                    return store.value, store.eid
                break  # the youngest program-order store is already placed
        source = last_store[event.addr]
        return source.value, source.eid

    def place_events(node: EventId) -> Optional[list[tuple[MemEvent, object]]]:
        """Place the node's event(s); None means a load value mismatched."""
        undo: list[tuple[MemEvent, object]] = []
        event = candidate.event_by_id[node]
        if event.is_store:
            undo.append((event, last_store.get(event.addr)))
            last_store[event.addr] = event
            placed_stores.add(event.eid)
            placed.append(event.eid)
            return undo
        value, source = determined_value(event)
        if value != event.value:
            return None
        rf[node] = source
        placed.append(node)
        undo.append((event, None))
        store_eid = pairs.get(node)
        if store_eid is not None:
            store_event = candidate.event_by_id[store_eid]
            undo.append((store_event, last_store.get(store_event.addr)))
            last_store[store_event.addr] = store_event
            placed_stores.add(store_eid)
            placed.append(store_eid)
        return undo

    def unplace_events(node: EventId, undo: list[tuple[MemEvent, object]]) -> None:
        for event, saved in reversed(undo):
            placed.pop()
            if event.is_store:
                placed_stores.discard(event.eid)
                if saved is None:
                    last_store.pop(event.addr, None)
                else:
                    last_store[event.addr] = saved
            else:
                rf.pop(event.eid, None)

    # The ready frontier is maintained incrementally (drop the placed node,
    # insort successors whose last predecessor was just placed) rather than
    # rescanning every node at every depth; keeping it sorted by position in
    # ``nodes`` preserves the exact enumeration order of the rescan.
    node_position = {eid: i for i, eid in enumerate(nodes)}

    def backtrack(
        ready: list[EventId],
    ) -> Iterator[tuple[tuple[EventId, ...], dict[EventId, EventId]]]:
        if len(placed_nodes) == len(nodes):
            init_order = tuple(e.eid for e in candidate.inits)
            yield init_order + tuple(placed), dict(rf)
            return
        for position, node in enumerate(ready):
            undo = place_events(node)
            if undo is None:
                continue
            placed_nodes.add(node)
            next_ready = ready[:position] + ready[position + 1 :]
            for succ in succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    bisect.insort(next_ready, succ, key=node_position.__getitem__)
            yield from backtrack(next_ready)
            for succ in succs[node]:
                indegree[succ] += 1
            placed_nodes.remove(node)
            unplace_events(node, undo)

    yield from backtrack([eid for eid in nodes if indegree[eid] == 0])


def _dynamic_memory_edges(
    candidate: _Candidate,
    model: MemoryModel,
    proc: int,
    rf_local: Mapping[int, EventId],
) -> tuple[tuple[EventId, EventId], ...]:
    """One processor's (static + dynamic) ppo projected onto memory events."""
    ctx = candidate.contexts[proc]
    ppo = compute_ppo(ctx, model.clauses, model.dynamic_clauses, rf_local)
    return tuple(
        (candidate.src_eid(proc, a), (proc, b))
        for a, b in project_to_memory(ctx, ppo)
    )


def _dynamic_clauses_hold(
    candidate: _Candidate,
    model: MemoryModel,
    mo: tuple[EventId, ...],
    rf: Mapping[EventId, EventId],
    memo: Optional[dict] = None,
    memo_key: object = None,
) -> bool:
    """Post-check execution-dependent ppo clauses against a completed order.

    Recomputes the full (static + dynamic) transitive ppo per processor and
    requires every memory-to-memory edge to agree with ``mo``.  The dynamic
    ppo depends on the execution only through each processor's local
    read-from map, so the projected edges are memoized under
    ``(memo_key, proc, rf_local)`` when a ``memo`` dict is supplied — many
    memory orders share the same read-from and skip the ppo re-closure.
    """
    if not model.dynamic_clauses:
        return True
    position = {eid: i for i, eid in enumerate(mo)}
    for proc in range(len(candidate.contexts)):
        rf_local = {
            index: rf[(proc, index)]
            for (p, index) in rf
            if p == proc
        }
        if memo is None:
            edges = _dynamic_memory_edges(candidate, model, proc, rf_local)
        else:
            key = (memo_key, proc, frozenset(rf_local.items()))
            edges = memo.get(key)
            if edges is None:
                edges = memo[key] = _dynamic_memory_edges(
                    candidate, model, proc, rf_local
                )
        for a, b in edges:
            if position[a] >= position[b]:
                return False
    return True


def _final_memory(
    candidate: _Candidate,
    mo: tuple[EventId, ...],
) -> dict[int, int]:
    """Final memory: the memory-order-youngest store per address."""
    final: dict[int, int] = {}
    for eid in mo:
        event = candidate.event_by_id[eid]
        if event.is_store:
            final[event.addr] = event.value
    return final


class CandidatePrefix:
    """The model-independent prefix of :func:`enumerate_executions`.

    Building a verdict for one ``(test, model)`` pair starts with work that
    does not depend on the model at all: the value domains, the per-program
    run enumeration, and the event/candidate construction of
    ``_prepare_base``.  A ``CandidatePrefix`` computes that prefix once per
    test and lets any number of models be judged against it — the core of
    the batch evaluation engine (:mod:`repro.engine`).

    Four memoization layers live here:

    1. Per (processor, run): the run's ppo context, each static clause's
       edges as int bitmask rows keyed by clause name, and per clause-name
       tuple the closed ppo projected onto memory events.  A run appears
       in every combination that picks it, and clause sets that share a
       clause (the zoo's six share most) evaluate it once.  Clause names
       fully determine clause behaviour in this repository's vocabulary.
    2. ``base(i)`` — the model-independent candidate of run combination
       ``i`` (events, the runs' contexts, forwarding metadata), built
       lazily and shared by all models.
    3. ``candidate(i, model)`` — the base specialized with the static-ppo
       memory DAG, the union of its processors' pairs from layer 1,
       cached per ``(i, clause names)``; models with identical clause sets
       (e.g. ARM vs GAM0, PLSC vs Alpha) get the same object.
    4. ``kernel_for(i, candidate, model)`` — the frontier DP, keyed by the
       resulting DAG, the load-value axiom and whether the same-source
       check is on (the model needs it and the combination has window
       pairs, found once per combination).

    ``extra_values`` must cover whatever a later caller would have passed
    to :func:`enumerate_executions`; asked-outcome values are always
    included by :func:`value_domains`, so a plain ``CandidatePrefix(test)``
    serves default verdicts, outcome enumeration and equivalence checks.
    """

    def __init__(self, test: LitmusTest, extra_values: Iterable[int] = ()) -> None:
        self.test = test
        self.extra_values = frozenset(extra_values)
        self.domains = value_domains(test, self.extra_values)
        per_proc = [_enumerate_runs(program, self.domains) for program in test.programs]
        self.combos: tuple[tuple[ProgramRun, ...], ...] = tuple(
            itertools.product(*per_proc)
        )
        # Keyed on (processor, id(run)): the runs live as long as the prefix.
        self._threads: dict[tuple[int, int], _ThreadPpo] = {}
        self._bases: dict[int, Optional[_Candidate]] = {}
        self._candidates: dict[tuple[int, tuple[str, ...]], _Candidate] = {}
        self._kernels: dict[tuple[int, frozenset, str, bool], FrontierKernel] = {}
        self._windows: dict[int, tuple] = {}
        self._dynamic_memo: dict = {}

    def covers(self, extra_values: Iterable[int]) -> bool:
        """Would this prefix's domains be unchanged under ``extra_values``?

        Extras feed the ``wild`` seed of :func:`value_domains`; values
        already in ``wild`` are no-ops, so containment is exact.
        """
        return set(extra_values) <= self.domains.wild

    def _combo_threads(self, combo_index: int) -> tuple[_ThreadPpo, ...]:
        """The per-(processor, run) ppo records of one run combination."""
        threads = []
        for proc, run in enumerate(self.combos[combo_index]):
            thread = self._threads.get((proc, id(run)))
            if thread is None:
                thread = self._threads[(proc, id(run))] = _ThreadPpo(proc, run)
            threads.append(thread)
        return tuple(threads)

    def base(self, combo_index: int) -> Optional[_Candidate]:
        """The shared model-independent candidate for one run combination."""
        if combo_index not in self._bases:
            contexts = tuple(t.context for t in self._combo_threads(combo_index))
            self._bases[combo_index] = _prepare_base(
                self.test, self.combos[combo_index], contexts
            )
        return self._bases[combo_index]

    def candidate(self, combo_index: int, model: MemoryModel) -> Optional[_Candidate]:
        """The base specialized with ``model``'s static-ppo DAG (memoized)."""
        base = self.base(combo_index)
        if base is None:
            return None
        names = tuple(c.name for c in model.clauses)
        candidate = self._candidates.get((combo_index, names))
        if candidate is None:
            edges = frozenset(
                itertools.chain.from_iterable(
                    thread.memory_pairs(model.clauses, names)
                    for thread in self._combo_threads(combo_index)
                )
            )
            candidate = self._candidates[(combo_index, names)] = replace(
                base, mem_edges=edges
            )
        return candidate

    def kernel_for(
        self, combo_index: int, candidate: _Candidate, model: MemoryModel
    ) -> FrontierKernel:
        """The frontier kernel for ``model`` on one candidate (memoized).

        Keyed by the memory DAG, the load-value axiom and whether the
        same-source check is on: the model needs it (ARM, plsc) and the
        combination has window pairs.  Models whose clause sets induce the
        same DAG share one solved DP unless the check is on for one of them
        only: ARM has GAM0's DAG and plsc has Alpha's, and they share it on
        every combination without window pairs.
        """
        window: tuple = ()
        if needs_same_source(model):
            window = self._windows.get(combo_index)
            if window is None:
                window = self._windows[combo_index] = window_pairs(candidate)
        key = (combo_index, candidate.mem_edges, model.load_value, bool(window))
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = FrontierKernel(
                candidate, model.load_value, window
            )
        return kernel

    def dynamic_memo(self) -> dict:
        """Shared memo for :func:`_dynamic_clauses_hold` projections."""
        return self._dynamic_memo


def enumerate_executions(
    test: LitmusTest,
    model: MemoryModel,
    extra_values: Iterable[int] = (),
    prefix: Optional[CandidatePrefix] = None,
) -> Iterator[Execution]:
    """Yield every execution of ``test`` the model's axioms allow.

    ``prefix`` shares the model-independent work (value domains, program
    runs, candidate bases) across calls for the same test; a prefix whose
    domains do not cover ``extra_values`` is ignored and rebuilt.
    """
    from .perloc_sc import execution_is_per_location_sc  # cycle-free import

    if prefix is None or not prefix.covers(extra_values):
        prefix = CandidatePrefix(test, extra_values)
    for combo_index in range(len(prefix.combos)):
        candidate = prefix.candidate(combo_index, model)
        if candidate is None:
            continue
        dynamic_key = (combo_index, model.clause_names())
        final_regs = _final_regs_of(candidate.runs)
        for mo, rf in _orders_with_load_values(candidate, model.load_value):
            if not _dynamic_clauses_hold(
                candidate,
                model,
                mo,
                rf,
                memo=prefix.dynamic_memo(),
                memo_key=dynamic_key,
            ):
                continue
            execution = Execution(
                runs=candidate.runs,
                events=candidate.events,
                inits=candidate.inits,
                mo=mo,
                rf=rf,
                final_regs=final_regs,
                final_mem=_final_memory(candidate, mo),
            )
            if model.requires_coherence and not execution_is_per_location_sc(execution):
                continue
            yield execution


def project_outcome(
    test: LitmusTest,
    final_regs: Mapping[tuple[int, str], int],
    final_mem: Mapping[int, int],
    project: str = "observed",
) -> Outcome:
    """Project a final state onto an :class:`Outcome` for set comparisons.

    ``project="observed"`` keeps the registers the test declares interesting
    (falling back to all registers when none are declared);
    ``project="full"`` keeps every register.  Named locations' final values
    are always included, so memory-constrained outcomes compare correctly.
    """
    if project not in ("observed", "full"):
        raise ValueError(f"unknown projection {project!r}")
    keep = test.observed if (project == "observed" and test.observed) else None
    regs = frozenset(
        (proc, reg, value)
        for (proc, reg), value in final_regs.items()
        if keep is None or (proc, reg) in keep
    )
    mem = frozenset(
        (addr, final_mem.get(addr, test.initial_memory.get(addr, 0)))
        for addr in test.locations.values()
    )
    return Outcome(regs=regs, mem=mem)


def _kernel_selected(model: MemoryModel, engine: str) -> bool:
    """Resolve the ``engine`` argument: should the frontier kernel serve?

    ``"auto"`` picks the kernel whenever it is exact for the model (see
    :func:`repro.core.kernel.kernel_supports`) unless the environment sets
    ``REPRO_ENUM_KERNEL=0``; ``"kernel"`` forces it (raising for models it
    cannot serve); ``"orders"`` forces the exact order enumerator.
    """
    if engine == "orders":
        return False
    if engine == "kernel":
        if not kernel_supports(model):
            raise ValueError(
                f"model {model.name!r} needs the exact order enumerator "
                "(a dynamic clause other than SALdLdARM, or a coherence side "
                "condition without SAMemSt and LoadValueGAM)"
            )
        return True
    if engine != "auto":
        raise ValueError(f"unknown engine {engine!r}; expected auto|kernel|orders")
    if os.environ.get("REPRO_ENUM_KERNEL", "").strip() == "0":
        return False
    return kernel_supports(model)


def _count_dispatch(model: MemoryModel, kernel_selected: bool) -> None:
    """Record which enumeration engine answers a query (telemetry only).

    ``kernel`` when the frontier DP serves; ``orders`` when the kernel
    could serve but was forced off (``engine="orders"`` or
    ``REPRO_ENUM_KERNEL=0``); ``backtracker`` when the model is outside
    :func:`kernel_supports` (no zoo model is) and needs the exact
    enumerator.
    """
    if not _obs_current().active:
        return
    if kernel_selected:
        _obs_incr("engine.dispatch.kernel")
    elif kernel_supports(model):
        _obs_incr("engine.dispatch.orders")
    else:
        _obs_incr("engine.dispatch.backtracker")


def _final_regs_of(runs: Sequence[ProgramRun]) -> dict[tuple[int, str], int]:
    """The fixed final register file of one run combination."""
    return {
        (proc, reg): value
        for proc, run in enumerate(runs)
        for reg, value in run.final_regs.items()
    }


def _regs_feasible(runs: Sequence[ProgramRun], outcome: Outcome) -> bool:
    """Can this run combination's (fixed) final registers match ``outcome``?"""
    for proc, reg, value in outcome.regs:
        if proc >= len(runs) or runs[proc].final_regs.get(reg) != value:
            return False
    return True


def _kernel_outcomes(
    prefix: CandidatePrefix, model: MemoryModel, project: str
) -> frozenset[Outcome]:
    """Outcome enumeration through the frontier kernel (fast path)."""
    test = prefix.test
    outcomes: set[Outcome] = set()
    for combo_index in range(len(prefix.combos)):
        candidate = prefix.candidate(combo_index, model)
        if candidate is None:
            continue
        kernel = prefix.kernel_for(combo_index, candidate, model)
        finals = kernel.final_memories()
        if not finals:
            continue
        final_regs = _final_regs_of(candidate.runs)
        for values in finals:
            outcomes.add(
                project_outcome(test, final_regs, kernel.as_memory(values), project)
            )
    return frozenset(outcomes)


def _kernel_is_allowed(
    prefix: CandidatePrefix, model: MemoryModel, outcome: Outcome
) -> bool:
    """Verdict through the frontier kernel, with outcome-directed pruning.

    Within one run combination the final registers are fixed before any
    memory order is chosen, so combinations whose registers cannot match
    ``outcome`` are skipped before candidate events, ppo DAGs or the DP are
    ever built — the dominant saving for *forbidden* verdicts, which must
    otherwise exhaust every combination.
    """
    for combo_index, runs in enumerate(prefix.combos):
        if not _regs_feasible(runs, outcome):
            _obs_incr("kernel.prune.regs_infeasible")
            continue
        candidate = prefix.candidate(combo_index, model)
        if candidate is None:
            continue
        kernel = prefix.kernel_for(combo_index, candidate, model)
        finals = kernel.final_memories()
        if not outcome.mem:
            if finals:
                return True
            continue
        for values in finals:
            memory = kernel.as_memory(values)
            if all(memory.get(addr, 0) == value for addr, value in outcome.mem):
                return True
    return False


def enumerate_outcomes(
    test: LitmusTest,
    model: MemoryModel,
    extra_values: Iterable[int] = (),
    project: str = "observed",
    prefix: Optional[CandidatePrefix] = None,
    engine: str = "auto",
) -> frozenset[Outcome]:
    """The set of allowed outcomes, projected per :func:`project_outcome`.

    Dispatches to the frontier kernel when it is exact for ``model`` (see
    :func:`_kernel_selected`); ``engine="orders"`` forces the exact order
    enumerator, ``engine="kernel"`` forces the kernel.  Both engines return
    identical sets — the parity suite enforces it.
    """
    if project not in ("observed", "full"):
        raise ValueError(f"unknown projection {project!r}")
    kernel_selected = _kernel_selected(model, engine)
    _count_dispatch(model, kernel_selected)
    if kernel_selected:
        if prefix is None or not prefix.covers(extra_values):
            prefix = CandidatePrefix(test, extra_values)
        return _kernel_outcomes(prefix, model, project)
    outcomes: set[Outcome] = set()
    for execution in enumerate_executions(test, model, extra_values, prefix=prefix):
        outcomes.add(
            project_outcome(test, execution.final_regs, execution.final_mem, project)
        )
    return frozenset(outcomes)


def is_allowed(
    test: LitmusTest,
    model: MemoryModel,
    outcome: Optional[Outcome] = None,
    extra_values: Iterable[int] = (),
    prefix: Optional[CandidatePrefix] = None,
    engine: str = "auto",
) -> bool:
    """Does the model allow ``outcome`` (default: the test's asked outcome)?

    Dispatches like :func:`enumerate_outcomes`; the kernel path additionally
    prunes whole run combinations whose fixed final registers cannot match
    the outcome before any enumeration work happens.
    """
    if outcome is None:
        outcome = test.asked
    if outcome is None:
        raise ValueError(f"test {test.name!r} has no asked outcome")
    extra = set(extra_values)
    extra.update(v for _, _, v in outcome.regs)
    extra.update(v for _, v in outcome.mem)
    kernel_selected = _kernel_selected(model, engine)
    _count_dispatch(model, kernel_selected)
    if kernel_selected:
        if prefix is None or not prefix.covers(extra):
            prefix = CandidatePrefix(test, extra)
        return _kernel_is_allowed(prefix, model, outcome)
    for execution in enumerate_executions(test, model, extra, prefix=prefix):
        if outcome.matches(execution.final_regs, execution.final_mem):
            return True
    return False
