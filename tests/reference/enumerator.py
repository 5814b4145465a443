"""The order enumerator: the reference oracle for the axiomatic engine.

It backtracks through every topological order of a candidate's static-ppo
memory DAG, derives each load's value from the LoadValue axiom as the load
is placed, and post-checks execution-dependent clauses (ARM's SALdLdARM)
and the per-location-SC side condition on each completed execution.  That
is the axioms read literally, with none of the frontier kernel's state
merging, so the parity tests hold :mod:`repro.core.axiomatic`'s verdicts,
outcome sets and witnesses equal to what this module folds from it.

It shares candidate preparation (:class:`CandidatePrefix`) with the engine:
value domains, program runs and events.  The static-ppo DAG it folds
itself, per processor, from :func:`compute_ppo` and
:func:`project_to_memory`, so the engine's per-shape masks are checked
rather than reused.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Mapping, Optional

from repro.core.axiomatic import (
    CandidatePrefix,
    MemoryModel,
    _Candidate,
    _final_memory,
    _final_regs_of,
    project_outcome,
)
from repro.core.events import EventId, Execution, MemEvent
from repro.core.ppo import PpoContext, compute_ppo, project_to_memory
from repro.litmus.test import LitmusTest, Outcome

from .perloc_sc import execution_is_per_location_sc

__all__ = [
    "enumerate_executions",
    "reference_outcomes",
    "reference_allowed",
    "reference_witness",
]


def _static_memory_edges(
    candidate: _Candidate,
    model: MemoryModel,
    contexts: tuple[PpoContext, ...],
) -> frozenset[tuple[EventId, EventId]]:
    """The model's static ppo, closed per processor and projected onto
    memory events (an RMW's outgoing edges leave its store half)."""
    return frozenset(
        (candidate.src_eid(proc, a), (proc, b))
        for proc, ctx in enumerate(contexts)
        for a, b in project_to_memory(ctx, compute_ppo(ctx, model.clauses))
    )


def _orders_with_load_values(
    candidate: _Candidate,
    mem_edges: frozenset[tuple[EventId, EventId]],
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
    for a, b in mem_edges:
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
    ctx: PpoContext,
    proc: int,
    rf_local: Mapping[int, EventId],
) -> tuple[tuple[EventId, EventId], ...]:
    """One processor's (static + dynamic) ppo projected onto memory events."""
    ppo = compute_ppo(ctx, model.clauses, model.dynamic_clauses, rf_local)
    return tuple(
        (candidate.src_eid(proc, a), (proc, b))
        for a, b in project_to_memory(ctx, ppo)
    )


def _dynamic_clauses_hold(
    candidate: _Candidate,
    model: MemoryModel,
    contexts: tuple[PpoContext, ...],
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
    for proc, ctx in enumerate(contexts):
        rf_local = {
            index: rf[(proc, index)]
            for (p, index) in rf
            if p == proc
        }
        if memo is None:
            edges = _dynamic_memory_edges(candidate, model, ctx, proc, rf_local)
        else:
            key = (memo_key, proc, frozenset(rf_local.items()))
            edges = memo.get(key)
            if edges is None:
                edges = memo[key] = _dynamic_memory_edges(
                    candidate, model, ctx, proc, rf_local
                )
        for a, b in edges:
            if position[a] >= position[b]:
                return False
    return True


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
    if prefix is None or not prefix.covers(extra_values):
        prefix = CandidatePrefix(test, extra_values)
    dynamic_memo: dict = {}
    for combo_index in range(len(prefix.combos)):
        candidate = prefix.base(combo_index)
        if candidate is None:
            continue
        contexts = tuple(PpoContext.from_run(run) for run in candidate.runs)
        mem_edges = _static_memory_edges(candidate, model, contexts)
        dynamic_key = (combo_index, model.clause_names())
        final_regs = _final_regs_of(candidate.runs)
        for mo, rf in _orders_with_load_values(candidate, mem_edges, model.load_value):
            if not _dynamic_clauses_hold(
                candidate,
                model,
                contexts,
                mo,
                rf,
                memo=dynamic_memo,
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


def reference_outcomes(
    test: LitmusTest,
    model: MemoryModel,
    extra_values: Iterable[int] = (),
    project: str = "observed",
    prefix: Optional[CandidatePrefix] = None,
) -> frozenset[Outcome]:
    """The allowed outcomes, folded from :func:`enumerate_executions`."""
    return frozenset(
        project_outcome(test, execution.final_regs, execution.final_mem, project)
        for execution in enumerate_executions(test, model, extra_values, prefix=prefix)
    )


def reference_witness(
    test: LitmusTest,
    model: MemoryModel,
    outcome: Optional[Outcome] = None,
    extra_values: Iterable[int] = (),
    prefix: Optional[CandidatePrefix] = None,
) -> Optional[Execution]:
    """The first enumerated execution matching ``outcome`` (default: the
    asked one), or None when the model forbids it."""
    if outcome is None:
        outcome = test.asked
    if outcome is None:
        raise ValueError(f"test {test.name!r} has no asked outcome")
    extra = set(extra_values)
    extra.update(v for _, _, v in outcome.regs)
    extra.update(v for _, v in outcome.mem)
    for execution in enumerate_executions(test, model, extra, prefix=prefix):
        if outcome.matches(execution.final_regs, execution.final_mem):
            return execution
    return None


def reference_allowed(
    test: LitmusTest,
    model: MemoryModel,
    outcome: Optional[Outcome] = None,
    extra_values: Iterable[int] = (),
    prefix: Optional[CandidatePrefix] = None,
) -> bool:
    """Does some enumerated execution match ``outcome`` (default: asked)?"""
    return reference_witness(test, model, outcome, extra_values, prefix) is not None
