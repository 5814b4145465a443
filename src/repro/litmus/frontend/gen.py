"""diy-style cycle-based litmus test generator.

Following the diy family of tools (Alglave et al., "Herding Cats"), a
litmus test is synthesized from a *critical cycle*: a cyclic sequence of
relaxation edges over memory events.  If every edge in the cycle were
enforced as an ordering, the cycle would be contradictory — so the asked
outcome (which witnesses the whole cycle) is forbidden under SC and probes
exactly which relaxations a weaker model provides.

Edge vocabulary
===============

======== ===== ===== ========== ==================================================
edge     src   dst   scope      lowering
======== ===== ===== ========== ==================================================
rfe      W     R     external   reads-from: the read observes the store's value
fre      R     W     external   from-read: the read observes a co-earlier store
coe      W     W     external   coherence: final memory pins the co order
porr     R     R     internal-d plain program order, next location
porw     R     W     internal-d plain program order, next location
powr     W     R     internal-d plain program order, next location
poww     W     W     internal-d plain program order, next location
addrr    R     R     internal-d artificial address dependency ``loc + rS - rS``
addrw    R     W     internal-d artificial address dependency on a store address
data     R     W     internal-d artificial data dependency ``v + rS - rS``
ctrlr    R     R     internal-d branch on the read's value before the load
ctrlw    R     W     internal-d branch on the read's value guarding the store
fencell  R     R     internal-d ``FenceLL`` between the events
fencels  R     W     internal-d ``FenceLS`` between the events
fencesl  W     R     internal-d ``FenceSL`` between the events
fencess  W     W     internal-d ``FenceSS`` between the events
acqrr    R     R     internal-d acquire fence (``FenceLL;FenceLS``)
acqrw    R     W     internal-d acquire fence (``FenceLL;FenceLS``)
relrw    R     W     internal-d release fence (``FenceLS;FenceSS``)
relww    W     W     internal-d release fence (``FenceLS;FenceSS``)
posrr    R     R     internal-s program order, same location (the CoRR edge)
rfi      W     R     internal-s forwarding: the read observes the older store
fri      R     W     internal-s the read observes a store co-before the younger one
======== ===== ===== ========== ==================================================

External edges cross to a fresh processor and stay on the same location;
``internal-d`` edges stay on the processor and move to the next location;
``internal-s`` edges stay on both.  A well-formed cycle needs at least two
external edges (to return to the first processor), zero or at least two
location-advancing edges (to return to the first location; exactly one
cannot close), and at least one program-order edge.  The shortest cycles
are therefore ``posrr+fre+rfe`` (CoRR) at three edges and the SB / MP /
LB / S / R / 2+2W families at four.

Value assignment follows diy.  Cutting the cycle at program-order edges
leaves *communication chains* (events joined by rf/fr/co edges, all on one
location).  Stores take values 1, 2, ... per location in chain-walk
order; a read observes its rf source's value, or the initial 0 when a
program-order edge enters it.  Each com edge then points forward in the
per-location numbering, so observing the final memory value (emitted
whenever a location has two stores) pins the whole coherence order; more
than two stores per location would be under-constrained and such cycles
are rejected.  Cycles are also rejected when two same-processor events
touch one location without an ``internal-s`` edge joining them, and when a
read with an older same-address store in program order is not fed by
``rfi`` — both would smuggle in forwarding/coherence constraints the
value assignment does not model.

Enumeration is a depth-first search over edge sequences whose adjacent
event types match.  The last edge is a *closing* edge: a canonical
rotation always ends on an external edge (so that its event sequence
starts on a fresh processor), so the search
completes a prefix only with an external edge into the first event, and
only when the prefix already holds an external edge of its own.  Every
leaf still passes the full well-formedness check.

Everything is deterministic: enumeration follows a fixed vocabulary
order, each cycle is kept only in its canonical rotation, structurally
identical tests are deduplicated by content, and an optional ``seed``
applies a seeded shuffle before the ``size`` cap — the same
``(max_edges, size, seed)`` triple always yields the same suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..dsl import LitmusBuilder
from ..test import LitmusTest
from ...isa.expr import Const, Reg

__all__ = ["Edge", "VOCABULARY", "enumerate_cycles", "cycle_to_test", "generate_suite"]

MIN_CYCLE_EDGES = 3
"""Shortest well-formed critical cycle (CoRR: ``posrr+fre+rfe``)."""

_MAX_STORES_PER_LOCATION = 2
"""Coherence per location is pinned by one final-value observation, which
totally orders at most two stores."""

_LOCATION_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Edge:
    """One relaxation edge of the vocabulary table above.

    Attributes:
        name: canonical lowercase name (also used in generated test names).
        src / dst: event types the edge connects (``"R"`` or ``"W"``).
        external: crosses processors (same location) when true.
        advances: moves to the next location when true (``internal-d``).
        po: a program-order edge (cycle cut point for value assignment);
            communication edges (rf/fr/co, external or internal) are not.
        kind: lowering discriminator (``rf``/``fr``/``co``/``po``/``addr``/
            ``data``/``ctrl``/``fence``).
        fence: fence spelling for ``kind == "fence"`` edges (a key of the
            litmus DSL's fence table: ``LL``/``LS``/``SL``/``SS``/
            ``acquire``/``release``).
    """

    name: str
    src: str
    dst: str
    external: bool
    advances: bool
    po: bool
    kind: str
    fence: str = ""

    @property
    def internal_same(self) -> bool:
        """True for ``internal-s`` edges (same processor, same location)."""
        return not self.external and not self.advances


def _external(name: str, src: str, dst: str, kind: str) -> Edge:
    return Edge(name, src, dst, True, False, False, kind)


def _internal_d(name: str, src: str, dst: str, kind: str, fence: str = "") -> Edge:
    return Edge(name, src, dst, False, True, True, kind, fence)


VOCABULARY: dict[str, Edge] = {
    edge.name: edge
    for edge in (
        _external("rfe", "W", "R", "rf"),
        _external("fre", "R", "W", "fr"),
        _external("coe", "W", "W", "co"),
        _internal_d("porr", "R", "R", "po"),
        _internal_d("porw", "R", "W", "po"),
        _internal_d("powr", "W", "R", "po"),
        _internal_d("poww", "W", "W", "po"),
        _internal_d("addrr", "R", "R", "addr"),
        _internal_d("addrw", "R", "W", "addr"),
        _internal_d("data", "R", "W", "data"),
        _internal_d("ctrlr", "R", "R", "ctrl"),
        _internal_d("ctrlw", "R", "W", "ctrl"),
        _internal_d("fencell", "R", "R", "fence", "LL"),
        _internal_d("fencels", "R", "W", "fence", "LS"),
        _internal_d("fencesl", "W", "R", "fence", "SL"),
        _internal_d("fencess", "W", "W", "fence", "SS"),
        _internal_d("acqrr", "R", "R", "fence", "acquire"),
        _internal_d("acqrw", "R", "W", "fence", "acquire"),
        _internal_d("relrw", "R", "W", "fence", "release"),
        _internal_d("relww", "W", "W", "fence", "release"),
        Edge("posrr", "R", "R", False, False, True, "po"),
        Edge("rfi", "W", "R", False, False, False, "rf"),
        Edge("fri", "R", "W", False, False, False, "fr"),
    )
}


def cycle_name(edges: Sequence[Edge]) -> str:
    """The deterministic test name of a cycle: its edge names joined."""
    return "+".join(edge.name for edge in edges)


def _canonical_rotation(edges: tuple[Edge, ...]) -> tuple[Edge, ...]:
    """The canonical representative among a cycle's valid rotations.

    A rotation is valid when its *last* edge is external (the event
    sequence then starts on a fresh processor at a segment boundary); the
    lexicographically smallest name sequence among valid rotations is the
    canonical form, so rotated duplicates collapse to one cycle.
    """
    n = len(edges)
    candidates = [
        edges[start:] + edges[:start]
        for start in range(n)
        if edges[start - 1].external
    ]
    return min(candidates, key=cycle_name)


def _placements(edges: tuple[Edge, ...]) -> tuple[list[int], list[int]]:
    """(processor, location) per event; event ``i`` precedes ``edges[i]``."""
    procs = [0]
    locations = [0]
    n_loc = max(sum(1 for edge in edges if edge.advances), 1)
    for i in range(len(edges) - 1):
        procs.append(procs[-1] + 1 if edges[i].external else procs[-1])
        locations.append(
            (locations[-1] + 1) % n_loc if edges[i].advances else locations[-1]
        )
    return procs, locations


def _well_formed(edges: tuple[Edge, ...]) -> bool:
    if sum(1 for edge in edges if edge.external) < 2:
        return False
    advancing = sum(1 for edge in edges if edge.advances)
    if advancing == 1:  # a lone location change cannot return to location 0
        return False
    if not any(edge.po for edge in edges):  # pure-com cycles are contradictory
        return False
    if edges != _canonical_rotation(edges):
        return False

    n = len(edges)
    procs, locations = _placements(edges)
    types = [edges[i].src for i in range(n)]

    # Per-location store budget (coherence is pinned by one final value).
    for location in set(locations):
        stores = sum(
            1 for i in range(n) if types[i] == "W" and locations[i] == location
        )
        if stores > _MAX_STORES_PER_LOCATION:
            return False

    # Same-processor events on one location must form a contiguous chain
    # joined by internal-s edges; anything else smuggles in coherence or
    # forwarding constraints the value assignment does not model.
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        groups.setdefault((procs[i], locations[i]), []).append(i)
    for members in groups.values():
        for earlier, later in zip(members, members[1:]):
            if later != earlier + 1 or not edges[earlier].internal_same:
                return False

    # A read with an older same-address store in program order must forward
    # from it, i.e. be entered by rfi (the group check already makes the
    # store the immediate predecessor).
    for i in range(n):
        if types[i] != "R":
            continue
        has_older_store = any(
            types[j] == "W"
            and procs[j] == procs[i]
            and locations[j] == locations[i]
            for j in range(i)
        )
        if has_older_store and edges[i - 1].name != "rfi":
            return False
    return True


def enumerate_cycles(max_edges: int = 4) -> Iterator[tuple[Edge, ...]]:
    """Yield every well-formed cycle of up to ``max_edges`` edges.

    Cycles come out in deterministic order (shorter first, then
    lexicographic over edge names) and each appears exactly once, in its
    canonical rotation.
    """
    if max_edges < MIN_CYCLE_EDGES:
        raise ValueError(
            f"cycles need at least {MIN_CYCLE_EDGES} edges, got budget {max_edges}"
        )
    ordered = [VOCABULARY[name] for name in sorted(VOCABULARY)]
    externals = [edge for edge in ordered if edge.external]

    def extend(
        prefix: tuple[Edge, ...], length: int, has_external: bool
    ) -> Iterator[tuple[Edge, ...]]:
        if len(prefix) == length - 1:
            # A canonical rotation ends on an external edge back into the
            # first event, and a cycle needs another external edge before it.
            if not has_external:
                return
            for edge in externals:
                if edge.src == prefix[-1].dst and edge.dst == prefix[0].src:
                    cycle = prefix + (edge,)
                    if _well_formed(cycle):
                        yield cycle
            return
        for edge in ordered:
            if edge.src != prefix[-1].dst:
                continue
            yield from extend(prefix + (edge,), length, has_external or edge.external)

    for length in range(MIN_CYCLE_EDGES, max_edges + 1):
        for first in ordered:
            yield from extend((first,), length, first.external)


@dataclass(frozen=True)
class _Event:
    """One memory event of a cycle, fully placed and valued."""

    index: int
    type: str  # "R" or "W"
    proc: int
    location: int
    value: int = 0  # store value, or the value a read must observe


def _place_events(edges: tuple[Edge, ...]) -> list[_Event]:
    """Assign processors, locations and values to the cycle's events.

    Cutting the cycle at program-order edges leaves communication chains;
    walking them in cycle order numbers each location's stores and settles
    every read's observed value (rf source, or the initial 0).
    """
    n = len(edges)
    types = [edges[i].src for i in range(n)]
    procs, locations = _placements(edges)

    cut_positions = [i for i, edge in enumerate(edges) if edge.po]
    values = [0] * n
    store_counts: dict[int, int] = {}
    for k, position in enumerate(cut_positions):
        start = (position + 1) % n
        stop = cut_positions[(k + 1) % len(cut_positions)]
        j = start
        while True:
            if types[j] == "W":
                store_counts[locations[j]] = store_counts.get(locations[j], 0) + 1
                values[j] = store_counts[locations[j]]
            elif edges[j - 1].kind == "rf":
                values[j] = values[j - 1]
            else:
                values[j] = 0
            if j == stop:
                break
            j = (j + 1) % n
    return [
        _Event(i, types[i], procs[i], locations[i], values[i]) for i in range(n)
    ]


def cycle_to_test(edges: Sequence[Edge], name: str = "") -> LitmusTest:
    """Lower one well-formed cycle to a concrete :class:`LitmusTest`."""
    edges = tuple(edges)
    events = _place_events(edges)
    n_loc = max(event.location for event in events) + 1
    if n_loc > len(_LOCATION_NAMES):
        raise ValueError(f"cycle needs {n_loc} locations; at most 26 supported")
    location_names = [_LOCATION_NAMES[i] for i in range(n_loc)]

    builder = LitmusBuilder(
        name or cycle_name(edges),
        locations=location_names,
        source="cycle generator",
        description=f"Critical cycle {cycle_name(edges)}.",
    )

    # Registers: per processor, reads take r1, r2, ... in program order.
    registers: dict[int, str] = {}
    counters: dict[int, int] = {}
    for event in events:
        if event.type == "R":
            counters[event.proc] = counters.get(event.proc, 0) + 1
            registers[event.index] = f"r{counters[event.proc]}"

    num_procs = max(event.proc for event in events) + 1
    for proc_id in range(num_procs):
        proc = builder.proc()
        segment = [event for event in events if event.proc == proc_id]
        needs_end_label = False
        for event in segment:
            incoming = edges[event.index - 1]
            location = location_names[event.location]
            addr = location
            if not incoming.external:
                if incoming.kind == "fence":
                    proc.fence(incoming.fence)
                elif incoming.kind == "addr":
                    source_reg = Reg(registers[events[event.index - 1].index])
                    addr = builder.loc(location) + source_reg - source_reg
                elif incoming.kind == "ctrl":
                    source_reg = Reg(registers[events[event.index - 1].index])
                    expected = events[event.index - 1].value
                    proc.branch((source_reg, "!=", expected), "end")
                    needs_end_label = True
            if event.type == "R":
                proc.ld(registers[event.index], addr)
            elif incoming.kind == "data" and not incoming.external:
                source_reg = Reg(registers[events[event.index - 1].index])
                proc.st(addr, Const(event.value) + source_reg - source_reg)
            else:
                proc.st(addr, event.value)
        if needs_end_label:
            proc.label("end")

    asked: dict = {}
    for event in events:
        if event.type == "R":
            asked[(event.proc, registers[event.index])] = event.value
    store_values: dict[int, list[int]] = {}
    for event in events:
        if event.type == "W":
            store_values.setdefault(event.location, []).append(event.value)
    for location, values in store_values.items():
        if len(values) >= 2:
            asked[location_names[location]] = max(values)
    return builder.build(asked=asked)


def _content_key(test: LitmusTest) -> tuple:
    """Structural identity of a test, ignoring its name and description."""
    asked = None
    if test.asked is not None:
        asked = (tuple(sorted(test.asked.regs)), tuple(sorted(test.asked.mem)))
    return (
        tuple(tuple(repr(instr) for instr in program) for program in test.programs),
        tuple(sorted(test.locations.items())),
        tuple(sorted(test.initial_memory.items())),
        asked,
    )


def generate_suite(
    max_edges: int = 4,
    size: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[LitmusTest]:
    """Enumerate, lower and deduplicate a generated litmus suite.

    Args:
        max_edges: cycle-length budget (>= 3).
        size: keep at most this many tests (all of them when ``None``).
        seed: deterministic shuffle applied before the ``size`` cap; with
            ``None`` the enumeration order is kept.

    Returns:
        the suite, deduplicated both by canonical cycle and by structural
        test content; the same arguments always return the same suite.
    """
    tests: list[LitmusTest] = []
    seen: set[tuple] = set()
    for cycle in enumerate_cycles(max_edges):
        test = cycle_to_test(cycle)
        key = _content_key(test)
        if key in seen:
            continue
        seen.add(key)
        tests.append(test)
    if seed is not None:
        random.Random(seed).shuffle(tests)
    if size is not None:
        tests = tests[:size]
    return tests
