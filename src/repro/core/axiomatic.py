"""The axiomatic checking engine (Section IV-A made executable).

Given a litmus test and a :class:`MemoryModel`, the engine decides which
executions ``<po, mo, rf>`` satisfy the model's axioms:

1. **Candidate load values.**  A closed value domain is computed
   per address (:func:`value_domains`); each processor's program is
   replayed by :meth:`~repro.isa.program.Program.runs`, forking at every
   load over its address's domain, which fixes addresses, store data and
   branch paths (``<po`` is the replayed stream).
2. **Memory orders.**  The static ppo clauses are evaluated per processor
   and projected onto memory events; every topological order of the
   resulting DAG is a candidate ``<mo`` (axiom InstOrder holds by
   construction).  Each load's value is derived from the LoadValue axiom
   as it is placed, so mismatching prefixes die early.
3. **Execution-dependent conditions.**  ARM's SALdLdARM and the
   per-location-SC side condition of ``plsc`` reduce to one same-source
   check on same-address load pairs, applied at placement.

The **frontier kernel** (:mod:`repro.core.kernel`) answers step 2 and 3 as a
bitmask DP over ``(placed events, last store per address)`` abstract states:
outcome sets and verdicts come from its memo without materializing any
order, and :func:`find_execution` walks the memo to read back the first
witness execution.  All candidate preparation is shared across models
through :class:`CandidatePrefix`.

The engine is exact (sound and complete) for the model classes in this
repository because every static clause edge goes forward in program order
(so the per-processor projection is acyclic) and every model orders
same-address stores by program order (so load values are determined as soon
as the load is placed).  :class:`MemoryModel` refuses models outside that
class: no same-address store order, an execution-dependent clause other
than SALdLdARM, or a coherence side condition without SAMemSt and
LoadValueGAM.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..isa.expr import Const, evaluate, registers_read
from ..isa.instructions import Load, RegOp, Rmw, Store
from ..isa.program import Program, ProgramRun
from ..litmus.test import LitmusTest, Outcome
from ..obs import incr as _obs_incr
from .events import (
    EventId,
    Execution,
    MemEvent,
    build_events,
    init_events,
    store_part,
)
from .kernel import FrontierKernel, needs_same_source, window_pairs
from .ppo import Clause, DynamicClause, PpoContext, close_rows

__all__ = [
    "MemoryModel",
    "DomainOverflowError",
    "ValueDomains",
    "CandidatePrefix",
    "value_domains",
    "enumerate_outcomes",
    "find_execution",
    "is_allowed",
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
            per-location sequentializable (used by the ``plsc`` yardstick);
            needs SAMemSt and ``load_value="gam"``.
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
        if any(c.name != "SALdLdARM" for c in self.dynamic_clauses):
            raise ValueError(
                f"model {self.name!r}: SALdLdARM is the only execution-dependent "
                "clause the engine supports"
            )
        if self.requires_coherence and not (
            self.load_value == "gam" and any(c.name == "SAMemSt" for c in self.clauses)
        ):
            raise ValueError(
                f"model {self.name!r}: 'coherence required' needs SAMemSt and "
                "LoadValueGAM; the engine checks per-location SC only under both"
            )

    def _orders_same_address_stores(self) -> bool:
        return any(c.name in ("SAMemSt", "OrderSS") for c in self.clauses)

    @cached_property
    def static_clause_names(self) -> tuple[str, ...]:
        """Names of the static clauses, which determine the static ppo."""
        return tuple(c.name for c in self.clauses)

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
            raise DomainOverflowError(f"value domain exceeded {cap} values")
        if not changed:
            break
    return ValueDomains(
        by_addr={addr: frozenset(v) for addr, v in by_addr.items()},
        wild=frozenset(wild),
    )


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


@dataclass
class _Candidate:
    """One candidate execution before a memory order is chosen.

    It is *model-independent*: it is derived from the test and the chosen
    program runs alone, which is what lets a :class:`CandidatePrefix` share
    one ``_Candidate`` across a whole model zoo.  A model's static-ppo DAG
    over its events comes from :meth:`CandidatePrefix.ppo_masks`.
    """

    runs: tuple[ProgramRun, ...]
    events: tuple[MemEvent, ...]
    inits: tuple[MemEvent, ...]
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
    test: LitmusTest, runs: tuple[ProgramRun, ...]
) -> Optional[_Candidate]:
    """Build the model-independent candidate; prune impossible values.

    Returns ``None`` when some load's assigned value cannot come from any
    store to its address (nor from the initial memory) — a cheap necessary
    condition for the LoadValue axiom under *every* model.
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
        po_stores=po_stores,
        event_by_id=by_id,
        rmw_pairs=rmw_pairs,
        no_forward=frozenset(no_forward),
    )


_SHAPE_CAP = 8192
"""Most entries :data:`_SHAPE_MASKS` holds; the oldest is dropped first."""

_SHAPE_MASKS: dict[tuple, tuple[int, ...]] = {}
"""Process-wide memo of static ppo per thread shape and clause-name set.

Keyed by ``(shape, clause names)``, where a shape is what Definition 6's
clauses read of one processor's run: its program's instruction text and
label positions, the executed instruction indices and the memory
accesses' resolved addresses.  No clause reads a load's value, ``rf`` or
another thread, so equal keys have equal static ppo.  A value holds one
predecessor mask per memory access of the run, numbered locally: bit
``j`` of entry ``k`` is set when access ``j`` is ppo-before access ``k``
(an RMW is one access).
"""


_MASK_TUPLES: dict[tuple[int, ...], tuple[int, ...]] = {}
"""One shared object per distinct :data:`_SHAPE_MASKS` value, cleared
beyond :data:`_SHAPE_CAP`: shapes repeat few patterns (``gen:edges=5``
has 16 distinct values across 2,772 entries)."""


def _program_key(program: Program) -> tuple[str, tuple[tuple[str, int], ...]]:
    """A program's instruction text and label positions."""
    return "\n".join(map(repr, program.instructions)), tuple(
        sorted(program.labels.items())
    )


class _ThreadPpo:
    """Static ppo of one processor's run, as :data:`_SHAPE_MASKS` entries.

    ``key`` is the run's thread shape.  On a memo miss the run's
    :class:`PpoContext` and each clause's edges (int bitmask rows over
    stream positions, keyed by clause name so clause sets that share a
    clause evaluate it once) are built and kept for the life of the
    prefix; the memo itself keeps only the masks.
    """

    __slots__ = ("run", "key", "_context", "_position", "_rows")

    def __init__(self, program_key: tuple, run: ProgramRun) -> None:
        self.run = run
        self.key = (
            program_key,
            tuple(e.index for e in run.executed),
            tuple(e.addr for e in run.memory_accesses()),
        )
        self._context: Optional[PpoContext] = None
        self._position: dict[int, int] = {}
        self._rows: dict[str, tuple[int, ...]] = {}

    def masks(
        self, clauses: tuple[Clause, ...], names: tuple[str, ...]
    ) -> tuple[int, ...]:
        """Each memory access's closed-ppo predecessors under ``clauses``
        (named ``names``), as local access bits (memoized by shape)."""
        key = (self.key, names)
        masks = _SHAPE_MASKS.get(key)
        if masks is None:
            masks = self._build_masks(clauses)
            if len(_SHAPE_MASKS) >= _SHAPE_CAP:
                del _SHAPE_MASKS[next(iter(_SHAPE_MASKS))]
            if len(_MASK_TUPLES) >= _SHAPE_CAP:
                _MASK_TUPLES.clear()
            masks = _SHAPE_MASKS[key] = _MASK_TUPLES.setdefault(masks, masks)
        return masks

    def _build_masks(self, clauses: tuple[Clause, ...]) -> tuple[int, ...]:
        if self._context is None:
            self._context = PpoContext.from_run(self.run)
            self._position = {e.index: p for p, e in enumerate(self.run.executed)}
        rows = [0] * len(self._position)
        for clause in clauses:
            for position, row in enumerate(self._clause_rows(clause)):
                rows[position] |= row
        # The rows hold predecessors, so this closes the converse of ppo.
        close_rows(rows)
        accesses = [self._position[e.index] for e in self.run.memory_accesses()]
        masks = []
        for position in accesses:
            row = rows[position]
            masks.append(
                sum(1 << local for local, p in enumerate(accesses) if row >> p & 1)
            )
        return tuple(masks)

    def _clause_rows(self, clause: Clause) -> tuple[int, ...]:
        rows = self._rows.get(clause.name)
        if rows is None:
            position = self._position
            built = [0] * len(position)
            for a, b in clause.edges(self._context):
                built[position[b]] |= 1 << position[a]
            rows = self._rows[clause.name] = tuple(built)
        return rows


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
    """The model-independent prefix of every engine query.

    Building a verdict for one ``(test, model)`` pair starts with work that
    does not depend on the model at all: the value domains, the per-program
    run enumeration, and the event/candidate construction of
    ``_prepare_base``.  A ``CandidatePrefix`` computes that prefix once per
    test and lets any number of models be judged against it — the core of
    the batch evaluation engine (:mod:`repro.engine`).

    Four memoization layers serve it:

    1. Per thread shape, process-wide (:data:`_SHAPE_MASKS`): each
       processor run's static ppo per clause-name set, as one predecessor
       bitmask per memory access.  The key is what the clauses read — the
       program's instruction text and label positions, the executed
       instruction indices and the resolved addresses — and no clause
       reads a load value, ``rf`` or another thread, so the key is exact:
       a program that recurs across tests, processors or runs is analysed
       once.  Clause names fully determine clause behaviour in this
       repository's vocabulary.  The memo holds only int tuples and drops
       its oldest entry beyond :data:`_SHAPE_CAP`.
    2. ``base(i)`` — the model-independent candidate of run combination
       ``i`` (events, forwarding metadata), built lazily and shared by all
       models.
    3. ``ppo_masks(i, model)`` — the combination's static-ppo memory DAG:
       its processors' masks from layer 1 shifted to their node offsets,
       cached per ``(i, clause names)``; models with identical clause sets
       (e.g. ARM vs GAM0, PLSC vs Alpha) get the same tuple.
    4. ``kernel_for(i, model)`` — the frontier DP, keyed by the DAG's
       masks, the load-value axiom and whether the same-source check is on
       (the model needs it and the combination has window pairs, found
       once per combination).

    ``extra_values`` must cover an explicit outcome's values; asked-outcome
    values are always included by :func:`value_domains`, so a plain
    ``CandidatePrefix(test)`` serves default verdicts, outcome enumeration
    and equivalence checks.
    """

    def __init__(self, test: LitmusTest, extra_values: Iterable[int] = ()) -> None:
        self.test = test
        self.extra_values = frozenset(extra_values)
        domains = self.domains = value_domains(test, self.extra_values)

        def candidates(pc: int, addr: int) -> list[int]:
            return sorted(domains.for_address(addr))

        per_proc = [program.runs(candidates) for program in test.programs]
        self.combos: tuple[tuple[ProgramRun, ...], ...] = tuple(
            itertools.product(*per_proc)
        )
        self._program_keys = [_program_key(program) for program in test.programs]
        # Keyed on (processor, id(run)): the runs live as long as the prefix.
        self._threads: dict[tuple[int, int], _ThreadPpo] = {}
        self._bases: dict[int, Optional[_Candidate]] = {}
        self._masks: dict[tuple[int, tuple[str, ...]], tuple[int, ...]] = {}
        self._kernels: dict[tuple[int, tuple[int, ...], str, bool], FrontierKernel] = {}
        self._windows: dict[int, tuple] = {}

    def covers(self, extra_values: Iterable[int]) -> bool:
        """Would this prefix's domains be unchanged under ``extra_values``?

        Extras feed the ``wild`` seed of :func:`value_domains`; values
        already in ``wild`` are no-ops, so containment is exact.
        """
        return set(extra_values) <= self.domains.wild

    def base(self, combo_index: int) -> Optional[_Candidate]:
        """The shared model-independent candidate for one run combination."""
        if combo_index not in self._bases:
            self._bases[combo_index] = _prepare_base(
                self.test, self.combos[combo_index]
            )
        return self._bases[combo_index]

    def ppo_masks(self, combo_index: int, model: MemoryModel) -> tuple[int, ...]:
        """``model``'s static-ppo DAG on one run combination (memoized).

        Entry ``i`` is node ``i``'s predecessor mask; nodes are the
        combination's memory accesses, processor by processor in program
        order, an RMW as one node (the numbering of :class:`FrontierKernel`).
        """
        names = model.static_clause_names
        masks = self._masks.get((combo_index, names))
        if masks is None:
            joined: list[int] = []
            for proc, run in enumerate(self.combos[combo_index]):
                thread = self._threads.get((proc, id(run)))
                if thread is None:
                    thread = self._threads[(proc, id(run))] = _ThreadPpo(
                        self._program_keys[proc], run
                    )
                offset = len(joined)
                joined.extend(
                    mask << offset for mask in thread.masks(model.clauses, names)
                )
            masks = self._masks[(combo_index, names)] = tuple(joined)
        return masks

    def kernel_for(self, combo_index: int, model: MemoryModel) -> FrontierKernel:
        """The frontier kernel for ``model`` on one run combination, whose
        :meth:`base` must not be None (memoized).

        Keyed by the DAG's masks, the load-value axiom and whether the
        same-source check is on: the model needs it (ARM, plsc) and the
        combination has window pairs.  Models whose clause sets induce the
        same DAG share one solved DP unless the check is on for one of them
        only: ARM has GAM0's DAG and plsc has Alpha's, and they share it on
        every combination without window pairs.
        """
        base = self.base(combo_index)
        masks = self.ppo_masks(combo_index, model)
        window: tuple = ()
        if needs_same_source(model):
            window = self._windows.get(combo_index)
            if window is None:
                window = self._windows[combo_index] = window_pairs(base)
        key = (combo_index, masks, model.load_value, bool(window))
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = FrontierKernel(
                base, masks, model.load_value, window
            )
        return kernel


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


def _matching_combos(
    prefix: CandidatePrefix, model: MemoryModel, outcome: Outcome
) -> Iterator[tuple[_Candidate, FrontierKernel, frozenset[tuple[int, ...]]]]:
    """``(candidate, kernel, final memories matching outcome)`` for each run
    combination, in order, that reaches ``outcome``.

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
        candidate = prefix.base(combo_index)
        if candidate is None:
            continue
        kernel = prefix.kernel_for(combo_index, model)
        finals = kernel.final_memories()
        if outcome.mem:
            final_regs = _final_regs_of(runs)
            finals = frozenset(
                v for v in finals if outcome.matches(final_regs, kernel.as_memory(v))
            )
        if finals:
            yield candidate, kernel, finals


def _witness(
    candidate: _Candidate, nodes: Sequence[EventId], load_value_mode: str
) -> tuple[tuple[EventId, ...], dict[EventId, EventId]]:
    """``(mo, rf)`` of the memory order that places ``nodes`` in turn.

    ``mo`` is the init stores, then each node's event, an RMW's store half
    straight after its load half.  A load reads its youngest
    program-order-earlier same-address store while that store is unplaced
    and forwarding is allowed (LoadValueGAM, not an RMW); otherwise it
    reads the last placed store to its address.
    """
    mo = [e.eid for e in candidate.inits]
    last_store = {e.addr: e.eid for e in candidate.inits}
    placed: set[EventId] = set()
    rf: dict[EventId, EventId] = {}
    for eid in nodes:
        event = candidate.event_by_id[eid]
        mo.append(eid)
        store_eid: Optional[EventId] = eid
        if not event.is_store:
            po_stores = candidate.po_stores.get(eid, ())
            if (
                load_value_mode == "gam"
                and eid not in candidate.no_forward
                and po_stores
                and po_stores[-1].eid not in placed
            ):
                rf[eid] = po_stores[-1].eid
            else:
                rf[eid] = last_store[event.addr]
            store_eid = candidate.rmw_pairs.get(eid)
            if store_eid is None:
                continue
            mo.append(store_eid)
        placed.add(store_eid)
        last_store[event.addr] = store_eid
    return tuple(mo), rf


def _outcome_prefix(
    test: LitmusTest,
    outcome: Outcome,
    prefix: Optional[CandidatePrefix],
) -> CandidatePrefix:
    """``prefix`` if its domains cover ``outcome``'s values, else a fresh
    prefix that does."""
    extra = {v for _, _, v in outcome.regs}
    extra.update(v for _, v in outcome.mem)
    if prefix is None or not prefix.covers(extra):
        prefix = CandidatePrefix(test, extra)
    return prefix


def enumerate_outcomes(
    test: LitmusTest,
    model: MemoryModel,
    project: str = "observed",
    prefix: Optional[CandidatePrefix] = None,
) -> frozenset[Outcome]:
    """The set of allowed outcomes, projected per :func:`project_outcome`."""
    if project not in ("observed", "full"):
        raise ValueError(f"unknown projection {project!r}")
    _obs_incr("engine.dispatch.kernel")
    if prefix is None:
        prefix = CandidatePrefix(test)
    outcomes: set[Outcome] = set()
    for combo_index in range(len(prefix.combos)):
        candidate = prefix.base(combo_index)
        if candidate is None:
            continue
        kernel = prefix.kernel_for(combo_index, model)
        finals = kernel.final_memories()
        if not finals:
            continue
        final_regs = _final_regs_of(candidate.runs)
        for values in finals:
            outcomes.add(
                project_outcome(test, final_regs, kernel.as_memory(values), project)
            )
    return frozenset(outcomes)


def is_allowed(
    test: LitmusTest,
    model: MemoryModel,
    outcome: Optional[Outcome] = None,
    prefix: Optional[CandidatePrefix] = None,
) -> bool:
    """Does the model allow ``outcome`` (default: the test's asked outcome)?

    Whole run combinations whose fixed final registers cannot match the
    outcome are pruned before any enumeration work happens.
    """
    if outcome is None:
        outcome = test.asked
    if outcome is None:
        raise ValueError(f"test {test.name!r} has no asked outcome")
    _obs_incr("engine.dispatch.kernel")
    prefix = _outcome_prefix(test, outcome, prefix)
    return next(_matching_combos(prefix, model, outcome), None) is not None


def find_execution(
    test: LitmusTest, model: MemoryModel, outcome: Outcome
) -> Optional[Execution]:
    """The first execution the model allows whose final state matches
    ``outcome``, or None when the model forbids it.

    "First" is a depth-first enumeration's order: run combinations in
    order, then memory orders lexicographically by node (events in
    processor and program order, an RMW as one node).  The kernel's memo
    steers the walk (:meth:`FrontierKernel.placement_order`), so it never
    backtracks.
    """
    prefix = _outcome_prefix(test, outcome, None)
    found = next(_matching_combos(prefix, model, outcome), None)
    if found is None:
        return None
    candidate, kernel, finals = found
    mo, rf = _witness(candidate, kernel.placement_order(finals), model.load_value)
    return Execution(
        runs=candidate.runs,
        events=candidate.events,
        inits=candidate.inits,
        mo=mo,
        rf=rf,
        final_regs=_final_regs_of(candidate.runs),
        final_mem=_final_memory(candidate, mo),
    )
