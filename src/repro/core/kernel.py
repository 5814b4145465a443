"""Frontier-memoized bitmask enumeration kernel — the axiomatic engine.

Enumerating memory orders one by one means backtracking through *every*
topological order of the memory-event DAG: factorial in event count, and a
*forbidden* verdict — the dominant case in differential hunts — must exhaust
the whole space.  This module collapses that search into a dynamic program
over DAG antichains, and reads a witness order back out of its memo
(:meth:`FrontierKernel.placement_order`).

**The abstract-state argument.**  Within one candidate value combination the
program runs are fixed, so final registers are fixed; the only thing a
memory order still decides is final memory and whether the combination is
realizable at all.  During the left-to-right construction of a memory
order, every remaining decision depends on exactly two things:

* *which events are already placed* — this determines the ready frontier
  (the antichain of events whose ppo predecessors are all placed) and
  whether a load's youngest program-order-earlier same-address store is
  still unplaced (the LoadValueGAM forwarding case);
* *the latest placed store's value per address* — this determines the value
  a non-forwarding load must return, and, at full placement, the final
  memory itself.

Two partial orders reaching the same ``(placed set, last-store values)``
state therefore have identical sets of legal completions and identical
reachable final memories; exploring the state once is exact for every model
whose only side conditions are static ppo and LoadValue.

**Same-address load pairs (ARM and plsc).**  A *window pair* is two pure
loads of one processor to one address with no same-address store or RMW
between them in program order — exactly the pairs ARM's SALdLdARM scans.
In any memory order respecting the static ppo DAG:

* SALdLdARM fails only when the younger load of a window pair is placed
  before the older one and the two read from different stores.  Its edges
  join memory events directly, so closing them with the static edges adds
  no further constraint.
* Per-location SC (``plsc``) fails under exactly the same condition when
  the model has SAMemSt and LoadValueGAM: those rule out the coWW, coRW1,
  coRW2 and coWR patterns of Herding Cats' lemma, and coRR needs a window
  pair placed out of order with different sources.
  :class:`~repro.core.axiomatic.MemoryModel` refuses a coherence side
  condition without those two preconditions, and any execution-dependent
  clause other than SALdLdARM.

So both reduce to one *same-source check*: placing the older load of a
window pair whose younger partner is already placed requires the two
read-from sources to be equal.  One DP loop serves both cases; only the
state's *tokens* differ.  The state is the placed set plus one tuple: a
token per address for its last placed store, then — with the check on —
the source of each placed younger window load whose older partners are not
all placed yet.  Without the check a token is the stored value, exactly
the value-keyed state above.  With it (the model needs the check and the
candidate has window pairs) a token is the store's identity, -1 for the
initial value, and values are read back from it at full placement.

**Representation.**  Events and edges are integer bitmasks: node ``i``'s
predecessors are a single ``pred_mask[i]`` int, readiness is two mask
operations, and the placed set is one int — no per-level ready-list
rescans, no dict-of-EventId successor maps, no set churn.  Nodes are
numbered processor by processor in program order, so ``pred_mask`` is
the concatenation of each thread's static-ppo masks shifted by its node
offset.  Those masks come from a bounded process-wide memo keyed by thread
shape (program text and label positions, executed indices, resolved
addresses): no ppo clause reads a load value, ``rf`` or another thread,
so each distinct thread is analysed once per clause set
(:class:`repro.core.axiomatic.CandidatePrefix`).  An RMW's two
halves form one composite node (the load half is checked against the
pre-placement state, then the store half's write is applied), realizing the
"accesses the memory system at one instant" semantics of Section III-C.

**Complexity.**  The DP visits each reachable ``(placed_mask, last_values)``
state once and scans the ``n`` nodes per state: ``O(S * n)`` where ``S`` is
bounded by (number of antichain-downsets of the ppo DAG) x (number of
reachable per-address value tuples) — for litmus-sized tests a few hundred
states where enumerating orders walks millions of interleavings.  The
same-source state refines values into store identities and adds at most one
pending source per younger window load.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator, Optional

from ..obs import incr as _obs_incr
from ..obs import observe as _obs_observe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .axiomatic import MemoryModel, _Candidate
    from .events import EventId

__all__ = ["needs_same_source", "window_pairs", "FrontierKernel"]


def needs_same_source(model: "MemoryModel") -> bool:
    """Does the kernel need the same-source check to serve ``model``?

    True for the models with SALdLdARM or a per-location-SC side condition
    (ARM, plsc); :class:`repro.core.axiomatic.MemoryModel` refuses any other
    execution-dependent condition.
    """
    return bool(model.dynamic_clauses) or model.requires_coherence


class FrontierKernel:
    """The frontier DP for one candidate DAG and load-value axiom.

    Built from a model-independent candidate (its events) and the model's
    static-ppo memory DAG as ``pred_mask``: entry ``i`` is node ``i``'s
    predecessor mask, nodes numbered as :attr:`nodes` (the candidate's
    events in order, an RMW's store half folded into its load half).
    :meth:`final_memories` answers "which final memories can a legal memory
    order reach?" without materializing any order.  A non-empty ``window``
    (the candidate's :func:`window_pairs`) turns on the same-source check
    of the module docstring (ARM, plsc).  Instances are cached per
    ``(combo, DAG, axiom, check on)`` by
    :class:`repro.core.axiomatic.CandidatePrefix`, so models with identical
    DAGs share one solved DP, and so does a checking model with a
    non-checking one wherever the candidate has no window pairs.
    """

    __slots__ = (
        "addresses",
        "nodes",
        "_n",
        "_full",
        "_pred_mask",
        "_checks",
        "_writes",
        "_start",
        "_token_values",
        "_memo",
        "_finals",
    )

    def __init__(
        self,
        candidate: "_Candidate",
        pred_mask: tuple[int, ...],
        load_value_mode: str,
        window: tuple[tuple[EventId, EventId], ...],
    ) -> None:
        pairs = candidate.rmw_pairs
        folded = set(pairs.values())
        node_eids = [e.eid for e in candidate.events if e.eid not in folded]
        node_of = {eid: i for i, eid in enumerate(node_eids)}
        for load_eid, store_eid in pairs.items():
            node_of[store_eid] = node_of[load_eid]
        n = len(node_eids)

        self.addresses: tuple[int, ...] = tuple(
            sorted({e.addr for e in itertools.chain(candidate.inits, candidate.events)})
        )
        slot = {addr: i for i, addr in enumerate(self.addresses)}
        init_values = [0] * len(self.addresses)
        for event in candidate.inits:
            init_values[slot[event.addr]] = event.value

        # The DP state is one tuple: a store *token* per address, then one
        # pending-source slot per younger window load.  Without the check a
        # token is the stored value and there are no pending slots; with it
        # a token is the store's node (-1: the initial value), so that read-
        # from sources can be compared, and values are read back at the end.
        sourced = bool(window)
        store_values: dict[int, int] = {}
        writes: list[Optional[tuple[int, int]]] = [None] * n
        for i, eid in enumerate(node_eids):
            store = candidate.event_by_id[pairs.get(eid, eid)]
            if store.is_store:
                store_values[i] = store.value
                writes[i] = (slot[store.addr], i if sourced else store.value)

        # Per window node: ``(own_slot, older_mask, partners)`` — its
        # pending-source slot as a younger load (-1: none), the mask of its
        # older partners, and ``(bit, slot, older_mask)`` for each of its
        # younger partners.
        links: list[Optional[tuple]] = [None] * n
        if sourced:
            older_mask = [0] * n
            partners: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
            window_nodes = [(node_of[a], node_of[b]) for a, b in window]
            for older, younger in window_nodes:
                older_mask[younger] |= 1 << older
            youngers = sorted({y for _, y in window_nodes})
            pending_slot = {
                younger: len(self.addresses) + index
                for index, younger in enumerate(youngers)
            }
            for older, younger in window_nodes:
                partners[older].append(
                    (1 << younger, pending_slot[younger], older_mask[younger])
                )
            for i in range(n):
                if older_mask[i] or partners[i]:
                    links[i] = (
                        pending_slot.get(i, -1), older_mask[i], tuple(partners[i])
                    )
            start: tuple = (-1,) * len(self.addresses) + (None,) * len(youngers)
        else:
            start = tuple(init_values)

        # Per load node: ``(slot, accepted, fwd_bit, fwd_token, link)`` —
        # the tokens that carry the value it returns, its forwarding store
        # (fwd_bit < 0: none) and its window link.
        checks: list[Optional[tuple]] = [None] * n
        for i, eid in enumerate(node_eids):
            event = candidate.event_by_id[eid]
            if event.is_store:
                continue
            addr_slot = slot[event.addr]
            accepted: tuple[int, ...] = (event.value,)
            if sourced:
                accepted = tuple(
                    node
                    for node, value in store_values.items()
                    if value == event.value and writes[node][0] == addr_slot
                ) + ((-1,) if init_values[addr_slot] == event.value else ())
            fwd_bit, fwd_token = -1, 0
            if load_value_mode == "gam" and eid not in candidate.no_forward:
                po_stores = candidate.po_stores.get(eid, ())
                if po_stores:
                    fwd_bit = node_of[po_stores[-1].eid]
                    fwd_token = fwd_bit if sourced else po_stores[-1].value
            checks[i] = (addr_slot, accepted, fwd_bit, fwd_token, links[i])

        self.nodes: tuple[EventId, ...] = tuple(node_eids)
        self._n = n
        self._full = (1 << n) - 1
        self._pred_mask = pred_mask
        self._checks = checks
        self._writes = writes
        self._start = start
        self._token_values: Optional[tuple[list[int], dict[int, int]]] = (
            (init_values, store_values) if sourced else None
        )
        self._memo: dict[tuple, frozenset] = {}
        self._finals: Optional[frozenset[tuple[int, ...]]] = None
        _obs_incr("kernel.builds")

    def final_memories(self) -> frozenset[tuple[int, ...]]:
        """All final memories (values aligned with :attr:`addresses`) some
        legal memory order reaches; empty iff no order satisfies the
        LoadValue axiom (the combination is unrealizable)."""
        if self._finals is None:
            self._finals = self._solve(0, self._start)
            # Telemetry at the solve boundary only — never in the DP loop.
            _obs_incr("kernel.dp.states", len(self._memo))
            _obs_observe("kernel.frontier.nodes", len(self._finals))
        return self._finals

    def as_memory(self, values: tuple[int, ...]) -> dict[int, int]:
        """One :meth:`final_memories` tuple as an ``addr -> value`` dict."""
        return dict(zip(self.addresses, values))

    def placement_order(self, finals: frozenset[tuple[int, ...]]) -> list[EventId]:
        """The lexicographically first legal node order (by node number)
        whose final memory is in ``finals`` (non-empty, drawn from
        :meth:`final_memories`), as the nodes' event ids.

        At each step the walk takes the lowest-numbered ready node whose
        successor state still reaches one of ``finals``; the memo answers
        that without backtracking.
        """
        placed, state = 0, self._start
        order: list[EventId] = []
        while placed != self._full:
            for i, successor in self._moves(placed, state):
                if not finals.isdisjoint(self._solve(placed | 1 << i, successor)):
                    break
            order.append(self.nodes[i])
            placed, state = placed | 1 << i, successor
        return order

    def _solve(self, placed: int, state: tuple) -> frozenset[tuple[int, ...]]:
        if placed == self._full:
            if self._token_values is not None:
                init_values, store_values = self._token_values
                state = tuple(
                    init_values[addr_slot] if token < 0 else store_values[token]
                    for addr_slot, token in enumerate(state[: len(init_values)])
                )
            return frozenset((state,))
        key = (placed, state)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        results: set[tuple[int, ...]] = set()
        for i, successor in self._moves(placed, state):
            results.update(self._solve(placed | 1 << i, successor))
        outcome = frozenset(results)
        self._memo[key] = outcome
        return outcome

    def _moves(self, placed: int, state: tuple) -> Iterator[tuple[int, tuple]]:
        """``(node, successor state)`` for every legal placement from
        ``(placed, state)``, lowest-numbered node first."""
        pred_mask = self._pred_mask
        checks = self._checks
        writes = self._writes
        for i in range(self._n):
            bit = 1 << i
            if placed & bit or pred_mask[i] & ~placed:
                continue
            successor = state
            check = checks[i]
            if check is not None:
                addr_slot, accepted, fwd_bit, fwd_token, link = check
                if fwd_bit >= 0 and not placed >> fwd_bit & 1:
                    source = fwd_token
                else:
                    source = state[addr_slot]
                if source not in accepted:
                    continue
                if link is not None:
                    successor = _advance_pending(link, placed | bit, source, state)
                    if successor is None:
                        continue
            write = writes[i]
            if write is not None:
                addr_slot, written_token = write
                if successor[addr_slot] != written_token:
                    mutable = list(successor)
                    mutable[addr_slot] = written_token
                    successor = tuple(mutable)
            yield i, successor


def window_pairs(candidate: "_Candidate") -> tuple[tuple[EventId, EventId], ...]:
    """``(older, younger)`` event pairs of pure same-address loads of one
    processor with no same-address store or RMW between them in program
    order — the pairs :class:`repro.core.ppo.SALdLdARM` scans."""
    pairs = candidate.rmw_pairs
    events = candidate.events
    window: list[tuple[EventId, EventId]] = []
    for position, older in enumerate(events):
        if older.is_store or older.eid in pairs:
            continue
        for younger in events[position + 1 :]:
            if younger.proc != older.proc:
                break
            if younger.addr != older.addr:
                continue
            if younger.is_store or younger.eid in pairs:
                break
            window.append((older.eid, younger.eid))
    return tuple(window)


def _advance_pending(
    link: tuple[int, int, tuple[tuple[int, int, int], ...]],
    placed: int,
    source: int,
    state: tuple,
) -> Optional[tuple]:
    """The DP state once a window load reading ``source`` is placed
    (``placed`` includes it); None when the same-source check fails."""
    own_slot, older_mask, partners = link
    updated = list(state)
    for younger_bit, younger_slot, younger_older in partners:
        if placed & younger_bit:
            if state[younger_slot] != source:
                return None
            if not younger_older & ~placed:
                updated[younger_slot] = None
    if own_slot >= 0 and older_mask & ~placed:
        updated[own_slot] = source
    return tuple(updated)
