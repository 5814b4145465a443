"""Per-location SC: the coherence property of Section III-E.

Per-location SC requires that all accesses to each single address appear to
execute in some sequential order consistent with every processor's commit
order.  The standard equivalent formulation (Cantin et al. [79]) is
acyclicity, per address, of the union of:

* ``po-loc`` — program order restricted to same-address accesses,
* ``rf``     — read-from,
* ``co``     — the coherence order of stores (here: ``<mo`` per address),
* ``fr``     — from-read: a load precedes every store coherence-after the
  store it read.

GAM is per-location SC by construction (SALdLd closes the only gap GAM0
leaves); the property tests assert this over random programs.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.events import EventId, Execution, MemEvent, po_sort_key

__all__ = ["execution_is_per_location_sc", "coherence_edges", "per_location_orders"]


def _has_cycle(nodes: Iterable[EventId], edges: set[tuple[EventId, EventId]]) -> bool:
    """Iterative three-colour DFS cycle detection."""
    succs: dict[EventId, list[EventId]] = {n: [] for n in nodes}
    for a, b in edges:
        if a in succs and b in succs and a != b:
            succs[a].append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {n: WHITE for n in succs}
    for root in succs:
        if colour[root] != WHITE:
            continue
        stack: list[tuple[EventId, int]] = [(root, 0)]
        colour[root] = GREY
        while stack:
            node, child = stack[-1]
            if child < len(succs[node]):
                stack[-1] = (node, child + 1)
                nxt = succs[node][child]
                if colour[nxt] == GREY:
                    return True
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return False


def coherence_edges(
    execution: Execution,
    addr: int,
) -> tuple[list[EventId], set[tuple[EventId, EventId]]]:
    """The per-address coherence graph (nodes and po-loc/rf/co/fr edges)."""
    mo_pos = {eid: i for i, eid in enumerate(execution.mo)}
    events = [e for e in execution.inits + execution.events if e.addr == addr]
    nodes = [e.eid for e in events]
    node_set = set(nodes)
    edges: set[tuple[EventId, EventId]] = set()

    # po-loc: consecutive same-address accesses per processor.
    per_proc: dict[int, list[MemEvent]] = {}
    for event in execution.events:
        if event.addr == addr:
            per_proc.setdefault(event.proc, []).append(event)
    for stream in per_proc.values():
        stream.sort(key=lambda e: po_sort_key(e.index))
        for older, younger in zip(stream, stream[1:]):
            edges.add((older.eid, younger.eid))

    # co: stores in memory order (init events are at the front of mo).
    stores = sorted(
        (e for e in events if e.is_store), key=lambda e: mo_pos[e.eid]
    )
    for older, younger in zip(stores, stores[1:]):
        edges.add((older.eid, younger.eid))

    # rf and fr.
    co_rank = {e.eid: i for i, e in enumerate(stores)}
    for load in execution.events:
        if load.is_store or load.addr != addr:
            continue
        source = execution.rf.get(load.eid)
        if source is None or source not in node_set:
            continue
        edges.add((source, load.eid))
        rank = co_rank[source]
        if rank + 1 < len(stores):
            edges.add((load.eid, stores[rank + 1].eid))
    return nodes, edges


def execution_is_per_location_sc(execution: Execution) -> bool:
    """True when every address's coherence graph is acyclic."""
    addrs = {e.addr for e in execution.events}
    for addr in addrs:
        nodes, edges = coherence_edges(execution, addr)
        if _has_cycle(nodes, edges):
            return False
    return True


def per_location_orders(execution: Execution) -> dict[int, tuple[EventId, ...]]:
    """A witness sequentialization per address (topological order).

    Raises ``ValueError`` if the execution is not per-location SC; useful in
    examples to *show* the sequential order the property promises.
    """
    witness: dict[int, tuple[EventId, ...]] = {}
    for addr in {e.addr for e in execution.events}:
        nodes, edges = coherence_edges(execution, addr)
        succs: dict[EventId, list[EventId]] = {n: [] for n in nodes}
        indeg: dict[EventId, int] = {n: 0 for n in nodes}
        for a, b in edges:
            if a != b:
                succs[a].append(b)
                indeg[b] += 1
        ready = sorted(n for n in nodes if indeg[n] == 0)
        order: list[EventId] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in succs[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(nodes):
            raise ValueError(f"address {addr:#x} is not sequentializable")
        witness[addr] = tuple(order)
    return witness
