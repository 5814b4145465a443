"""Preserved program order: Definition 6 as composable clauses.

Each numbered case of Definition 6 is a :class:`Clause` producing edges
between *same-processor* dynamic instructions (identified by static index).
A memory model is essentially a choice of clauses; GAM uses the eight
below plus transitivity, which :func:`compute_ppo` applies by closing the
edge set over the whole instruction stream (memory and non-memory alike)
before :func:`project_to_memory` keeps the pairs the InstOrder axiom
constrains.

The ARM alternative ``SALdLdARM`` (Section III-E2) depends on the read-from
relation and is therefore a :class:`DynamicClause`, evaluated against each
candidate execution rather than statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from ..isa.instructions import Fence, Instruction
from ..isa.program import ExecutedInstr, ProgramRun
from .dependencies import adep_edges, ddep_edges
from .events import EventId

__all__ = [
    "PpoContext",
    "Clause",
    "DynamicClause",
    "SAMemSt",
    "SAStLd",
    "SALdLd",
    "SARmwLd",
    "RegRAW",
    "BrSt",
    "AddrSt",
    "FenceOrd",
    "PairwiseOrder",
    "SALdLdARM",
    "STATIC_CLAUSES",
    "DYNAMIC_CLAUSES",
    "PARAMETRIC_CLAUSES",
    "clause_spec",
    "build_clause",
    "compute_ppo",
    "close_rows",
    "transitive_closure",
    "project_to_memory",
]


@dataclass(frozen=True)
class PpoContext:
    """One processor's dynamic stream plus its dependency relations.

    Built once per candidate execution per processor; clauses query it.
    """

    run: ProgramRun
    ddep: frozenset[tuple[int, int]]
    adep: frozenset[tuple[int, int]]

    @staticmethod
    def from_run(run: ProgramRun) -> "PpoContext":
        """Construct a context, computing ``<ddep`` and ``<adep``."""
        return PpoContext(run=run, ddep=ddep_edges(run), adep=adep_edges(run))

    @property
    def executed(self) -> tuple[ExecutedInstr, ...]:
        """The dynamic instruction stream in program order."""
        return self.run.executed

    def memory_instrs(self) -> tuple[ExecutedInstr, ...]:
        """Dynamic loads and stores in program order."""
        return self.run.memory_accesses()


class Clause:
    """One static case of Definition 6.

    Subclasses yield ``(older_index, younger_index)`` edges; indexes are
    static instruction indices within the processor's program.
    """

    #: short identifier used in reports (e.g. ``"SAMemSt"``).
    name: str = ""
    #: where the constraint comes from in the paper.
    paper_ref: str = ""

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        """Yield the clause's edges for one processor's dynamic stream."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<clause {self.name}>"


class DynamicClause:
    """A ppo case that depends on the execution (read-from relation).

    ``rf_local`` maps this processor's load indices to the identity of the
    store each reads (an :class:`~repro.core.events.EventId`, where
    initialization stores use pseudo-processor -1).
    """

    name: str = ""
    paper_ref: str = ""

    def edges(
        self,
        ctx: PpoContext,
        rf_local: Mapping[int, EventId],
    ) -> Iterable[tuple[int, int]]:
        """Yield execution-dependent edges given the local read-from map."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<dynamic clause {self.name}>"


class SAMemSt(Clause):
    """Same-address memory access to store (Definition 6 case 1).

    A store must be ordered after every older memory instruction for the
    same address — the essence of single-thread correctness.
    """

    name = "SAMemSt"
    paper_ref = "Figure 7 / Definition 6(1)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        mem = ctx.memory_instrs()
        for j, younger in enumerate(mem):
            if not younger.instr.is_store:
                continue
            for older in mem[:j]:
                if older.addr == younger.addr:
                    yield (older.index, younger.index)


class SAStLd(Clause):
    """Same-address store to load (Definition 6 case 2).

    A load that (would) forward from the immediately preceding same-address
    store is ordered after the instructions producing that store's address
    and data: ``I1 <ddep S <po I2`` with no same-address store between
    ``S`` and ``I2``.
    """

    name = "SAStLd"
    paper_ref = "Figure 7 / Definition 6(2)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        mem = ctx.memory_instrs()
        for j, load in enumerate(mem):
            if load.instr.is_store:
                continue
            forwarding_store: Optional[ExecutedInstr] = None
            for older in reversed(mem[:j]):
                if older.instr.is_store and older.addr == load.addr:
                    forwarding_store = older
                    break
            if forwarding_store is None:
                continue
            for producer, consumer in ctx.ddep:
                if consumer == forwarding_store.index:
                    yield (producer, load.index)


class SALdLd(Clause):
    """Same-address load-load ordering (Definition 6 case 3).

    The constraint that turns GAM0 into GAM: two same-address loads with no
    intervening same-address store keep their commit order, restoring
    per-location SC (Section III-E1).
    """

    name = "SALdLd"
    paper_ref = "Section III-E1 / Definition 6(3)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        mem = ctx.memory_instrs()
        for i, older in enumerate(mem):
            if older.instr.is_store:
                continue
            for younger in mem[i + 1:]:
                if younger.addr != older.addr:
                    continue
                if younger.instr.is_store:
                    break  # an intervening same-address store ends the window
                yield (older.index, younger.index)


class SARmwLd(Clause):
    """Same-address RMW to load: the RMW extension of Section III-C.

    A younger load cannot forward from an RMW (an RMW "must be executed by
    accessing the memory system"), so unlike the plain store-to-load case
    the load is ordered after the whole RMW.  Required for the LoadValue
    axiom to stay implementable once RMWs exist; vacuous otherwise.
    """

    name = "SARmwLd"
    paper_ref = "Section III-C (RMW sketch)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        mem = ctx.memory_instrs()
        for i, older in enumerate(mem):
            if not (older.instr.is_store and older.instr.is_load):
                continue  # only RMWs
            for younger in mem[i + 1:]:
                if younger.addr == older.addr and younger.instr.is_load:
                    yield (older.index, younger.index)


class RegRAW(Clause):
    """Register read-after-write (Definition 6 case 4): all ``<ddep`` pairs."""

    name = "RegRAW"
    paper_ref = "Figure 7 / Definition 6(4)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        return iter(ctx.ddep)


class BrSt(Clause):
    """Branch to store (Definition 6 case 5): stores never issue speculatively."""

    name = "BrSt"
    paper_ref = "Figure 7 / Definition 6(5)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        branch_indices: list[int] = []
        for executed in ctx.executed:
            if executed.instr.is_branch:
                branch_indices.append(executed.index)
            elif executed.instr.is_store:
                for b in branch_indices:
                    yield (b, executed.index)


class AddrSt(Clause):
    """Address to store (Definition 6 case 6).

    A store waits for the address producers of every older memory
    instruction; otherwise issuing the store could violate SAMemSt if an
    older access turned out to alias it.
    """

    name = "AddrSt"
    paper_ref = "Figure 7 / Definition 6(6)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        positions = {e.index: pos for pos, e in enumerate(ctx.executed)}
        store_positions = [
            (positions[e.index], e.index) for e in ctx.executed if e.instr.is_store
        ]
        for producer, mem_instr in ctx.adep:
            for store_pos, store_index in store_positions:
                if positions[mem_instr] < store_pos:
                    yield (producer, store_index)


class FenceOrd(Clause):
    """Fence ordering (Definition 6 cases 7-8).

    ``FenceXY`` follows all older type-X memory instructions and precedes
    all younger type-Y memory instructions.  Fence-fence ordering arises
    only through transitivity, exactly as the paper notes.
    """

    name = "FenceOrd"
    paper_ref = "Figure 12 / Definition 6(7,8)"

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        stream = ctx.executed
        for pos, executed in enumerate(stream):
            fence = executed.instr
            if not isinstance(fence, Fence):
                continue
            for older in stream[:pos]:
                if fence.orders_before(older.instr):
                    yield (older.index, executed.index)
            for younger in stream[pos + 1:]:
                if fence.orders_after(younger.instr):
                    yield (executed.index, younger.index)


@dataclass(frozen=True)
class PairwiseOrder(Clause):
    """Order all older type-``pre`` with all younger type-``post`` accesses.

    Not part of GAM — this is the building block for the strong baselines:
    SC is all four instantiations, TSO drops only store-to-load.
    """

    pre: str = "L"
    post: str = "L"

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"Order{self.pre}{self.post}"

    paper_ref = "Figure 3 (baseline construction)"

    def _matches(self, instr: Instruction, kind: str) -> bool:
        return instr.is_load if kind == "L" else instr.is_store

    def edges(self, ctx: PpoContext) -> Iterable[tuple[int, int]]:
        mem = ctx.memory_instrs()
        for i, older in enumerate(mem):
            if not self._matches(older.instr, self.pre):
                continue
            for younger in mem[i + 1:]:
                if self._matches(younger.instr, self.post):
                    yield (older.index, younger.index)


class SALdLdARM(DynamicClause):
    """ARM's alternative same-address load-load constraint (Section III-E2).

    Two same-address loads that do **not** read from the same store (store
    identity, not value) keep their commit order.  Strictly weaker than
    SALdLd: it permits the RSW behaviour while forbidding RNSW, the
    asymmetry the paper criticizes.

    Interpretation note: like SALdLd, the constraint exempts load pairs
    separated by an intervening same-address store.  The paper's statement
    does not spell this out, but its implementation sketch does — a load
    forwarding from a local store is never killed when an older load
    returns ("kills all younger loads whose values have been overwritten by
    other processors") — and without the exemption SALdLdARM would not be
    strictly weaker than SALdLd, contradicting Section III-E2.
    """

    name = "SALdLdARM"
    paper_ref = "Section III-E2"

    def edges(
        self,
        ctx: PpoContext,
        rf_local: Mapping[int, EventId],
    ) -> Iterable[tuple[int, int]]:
        mem = ctx.memory_instrs()
        for i, older in enumerate(mem):
            if older.instr.is_store:
                continue
            for younger in mem[i + 1:]:
                if younger.addr != older.addr:
                    continue
                if younger.instr.is_store:
                    break  # intervening same-address store ends the window
                if rf_local.get(older.index) != rf_local.get(younger.index):
                    yield (older.index, younger.index)


STATIC_CLAUSES: dict[str, type] = {
    "SAMemSt": SAMemSt,
    "SAStLd": SAStLd,
    "SALdLd": SALdLd,
    "SARmwLd": SARmwLd,
    "RegRAW": RegRAW,
    "BrSt": BrSt,
    "AddrSt": AddrSt,
    "FenceOrd": FenceOrd,
}
"""Zero-argument static clauses by spec name (the Definition 6 vocabulary)."""

DYNAMIC_CLAUSES: dict[str, type] = {
    "SALdLdARM": SALdLdARM,
}
"""Zero-argument execution-dependent clauses by spec name."""

PARAMETRIC_CLAUSES: dict[str, type] = {
    "PairwiseOrder": PairwiseOrder,
}
"""Parameterized clauses by spec name; arguments are validated by
:func:`build_clause` (``PairwiseOrder`` takes two access kinds, each ``L``
or ``S``)."""


def clause_spec(clause: "Clause | DynamicClause") -> str:
    """The textual spec of a clause instance (inverse of :func:`build_clause`).

    Zero-argument clauses print as their name; parameterized clauses print
    as ``Name(arg,...)`` — e.g. ``PairwiseOrder(S,L)``.
    """
    if isinstance(clause, PairwiseOrder):
        return f"PairwiseOrder({clause.pre},{clause.post})"
    return clause.name


def build_clause(name: str, args: tuple[str, ...] = ()) -> "Clause | DynamicClause":
    """Instantiate the clause named ``name`` with textual arguments.

    This is the introspection hook the ``.model`` spec layer builds on:
    every clause a model file may mention is constructed through here, so
    unknown names and malformed arguments fail with a message listing the
    vocabulary.

    Raises:
        ValueError: unknown clause name, or arguments that do not fit it.
    """
    if name in STATIC_CLAUSES or name in DYNAMIC_CLAUSES:
        if args:
            raise ValueError(f"clause {name} takes no arguments, got {args!r}")
        catalog = STATIC_CLAUSES if name in STATIC_CLAUSES else DYNAMIC_CLAUSES
        return catalog[name]()
    if name == "PairwiseOrder":
        if len(args) != 2 or any(arg not in ("L", "S") for arg in args):
            raise ValueError(
                f"PairwiseOrder takes two access kinds (L or S), got {args!r}"
            )
        return PairwiseOrder(args[0], args[1])
    known = sorted({**STATIC_CLAUSES, **DYNAMIC_CLAUSES, **PARAMETRIC_CLAUSES})
    raise ValueError(
        f"unknown clause {name!r}; vocabulary: {', '.join(known)}"
    )


def close_rows(rows: list[int]) -> list[int]:
    """Close a relation given as int bitmask rows, in place; returns ``rows``.

    ``rows[i]`` has bit ``j`` set when ``i`` reaches ``j``.  Warshall's
    algorithm over bitsets: after step ``k`` every row that reaches ``k``
    also reaches everything ``k`` reaches.
    """
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row_i in enumerate(rows):
            if row_i & bit:
                rows[i] = row_i | row_k
    return rows


def transitive_closure(
    ctx: PpoContext,
    edges: Iterable[tuple[int, int]],
) -> frozenset[tuple[int, int]]:
    """Close an edge set transitively over the dynamic instruction stream.

    This is Definition 6 case 9.  Closure works on stream *positions* so
    the result respects program order even for instructions with equal
    static indices (impossible here, but cheap to keep correct).
    """
    order = [e.index for e in ctx.executed]
    position = {index: pos for pos, index in enumerate(order)}
    rows = [0] * len(order)
    for a, b in edges:
        rows[position[a]] |= 1 << position[b]
    return frozenset(
        (order[i], order[j])
        for i, row in enumerate(close_rows(rows))
        for j in range(len(order))
        if row >> j & 1
    )


def compute_ppo(
    ctx: PpoContext,
    clauses: Iterable[Clause],
    dynamic_clauses: Iterable[DynamicClause] = (),
    rf_local: Optional[Mapping[int, EventId]] = None,
) -> frozenset[tuple[int, int]]:
    """Compute ``<ppo`` for one processor under the given clauses.

    Static clauses always apply; dynamic clauses apply when ``rf_local`` is
    provided.  The result is transitively closed (Definition 6 case 9).
    """
    edges: set[tuple[int, int]] = set()
    for clause in clauses:
        edges.update(clause.edges(ctx))
    if rf_local is not None:
        for dyn in dynamic_clauses:
            edges.update(dyn.edges(ctx, rf_local))
    return transitive_closure(ctx, edges)


def project_to_memory(
    ctx: PpoContext,
    edges: Iterable[tuple[int, int]],
) -> frozenset[tuple[int, int]]:
    """Keep only edges between memory instructions.

    These are the pairs the InstOrder axiom lifts into the global memory
    order; edges involving fences, branches and reg-ops act through
    transitivity only.
    """
    memory = {e.index for e in ctx.memory_instrs()}
    return frozenset((a, b) for a, b in edges if a in memory and b in memory)
