"""Evaluation cells: the unit of work the batch engine schedules.

A *cell* is one entry of a test × model grid evaluated under an *oracle*:

* :class:`VerdictSpec` — "does the oracle allow ``test``'s asked outcome?"
  (the litmus verdict matrix);
* :class:`OutcomeSpec` — the oracle's full projected outcome set (the
  strength lattice, the equivalence checker).

The oracle selects *which definition* answers the cell:

* ``"axiomatic"`` (the default) runs the axiomatic engine (the frontier
  kernel) on the cell's model;
* ``"operational:<machine>"`` exhaustively explores one of the abstract
  machines named by :func:`operational_machines` — the Figure 17 GAM
  machine, its GAM0 variant, or the SC/TSO reference machines.  The
  machine alone determines the result (and the cache key), so such a
  cell carries no model.

Cells are small frozen dataclasses carrying the :class:`LitmusTest`
itself and a built :class:`~repro.core.axiomatic.MemoryModel` (``None``
for a machine cell).  Models are resolved once, by the code that turns
user input into cells (:func:`repro.models.spec.named_model`), and the
built models travel to worker processes inside the pickled cells; a
cell built with any other model shape raises :class:`TypeError` at
construction.

Every cell exposes a *descriptor* — a canonical JSON-able structure
hashed into the on-disk cache key.  Descriptors hash content, not names:
two structurally identical tests share cache entries, an axiomatic cell
is keyed by its model's clause names, load-value axiom and coherence
requirement, and an operational cell is keyed by the machine's variant
policy (clause names and variant policies fully determine behaviour in
this repository's vocabulary).  A model built from a ``.model`` file
therefore keys on the content it was built from: renaming the model
inside the file keeps the key, editing its clauses changes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.axiomatic import (
    CandidatePrefix,
    MemoryModel,
    enumerate_outcomes,
    is_allowed,
)
from ..core.operational import (
    GAM0_MACHINE,
    GAM_MACHINE,
    ExplorationResult,
    explore,
)
# ``operational_outcomes`` is not called here (GAM/GAM0 cells read the
# full exploration result); it stays importable from this module because
# perfbench's traced runs wrap it under this name, as they do
# ``resolve_model`` (cells carry built models).
from ..core.operational import operational_outcomes  # noqa: F401
from ..core.reference_machines import sc_outcomes, tso_outcomes
from ..litmus.test import LitmusTest, test_descriptor
from ..models.spec import resolve_model  # noqa: F401
from ..obs import current as _obs_current

__all__ = [
    "ENGINE_VERSION",
    "ORACLE_AXIOMATIC",
    "VerdictSpec",
    "OutcomeSpec",
    "CellSpec",
    "CellResult",
    "cell_descriptor",
    "test_descriptor",
    "model_descriptor",
    "oracle_descriptor",
    "operational_machines",
    "parse_oracle",
    "evaluate_cell",
]

ENGINE_VERSION = 21
"""Bumped whenever engine/axiomatic semantics change, invalidating caches.

Version history:

* 1 — the PR-1 batch engine over the exact order enumerator.
* 2 — the frontier-kernel fast path (:mod:`repro.core.kernel`): verdicts
  and outcome sets for models without dynamic clauses or coherence side
  conditions are answered by the bitmask DP.  Results are parity-tested
  identical, but the enumeration core changed, so pre-kernel cache entries
  must miss rather than vouch for the new code path.
* 3 — the telemetry subsystem (:mod:`repro.obs`) threaded through cell
  evaluation, dispatch, the kernel and the cache.  Results are unchanged,
  but the evaluation internals changed and the R004 invariant ties every
  engine-path diff to a bump, so older entries re-verify rather than vouch
  for the instrumented code paths.
* 4 — the oracle abstraction: every cell carries an ``oracle`` field, the
  abstract machines became engine backends, descriptors gained an
  ``oracle`` key (operational cells key on the machine variant, not the
  model) and the bespoke ``EquivSpec`` kind was retired in favour of
  outcome cells under both oracles.  Axiomatic results are unchanged, but
  the descriptor shape changed, so version-3 entries must miss.
* 5 — the fault-tolerance layer: the scheduler moved onto
  ``ProcessPoolExecutor`` with execution policies (deadlines, retries,
  quarantine) and deterministic fault injection.  Results are unchanged,
  but the dispatch internals changed and the R004 invariant ties every
  engine-path diff to a bump, so older entries re-verify rather than
  vouch for the reworked scheduler.
* 6 — verdict-as-a-service: the serve daemon shares one cache directory
  across many writer processes, ``ResultCache`` grew export/import
  tarballs and a crash-orphan-safe concurrent store path, and the wire
  codec reuses the cache's canonical outcome JSON.  Results are
  unchanged, but the cache payload helpers moved and the R004 invariant
  ties every engine-path diff to a bump, so pre-serve entries re-verify
  rather than vouch for the shared-store code paths.
* 7 — the daemon is gone and R004 now tracks result semantics
  (``core/``, ``cells.py``, ``cache.py``).  Batches key each cell once
  from a per-batch test descriptor and per-model descriptors, cache
  entries are checked against the spec type, and ``explore`` and the
  early-exit machine verdict search share one exploration loop.  Results are
  unchanged, but the keying and machine paths changed, so version-6
  entries re-verify.
* 8 — the GAM0 machine's store/RMW address resolution searches past
  younger unissued same-address loads for a done one to kill, so it no
  longer keeps a load that read memory before the store or RMW ahead of
  it was addressed.  GAM0 machine outcome sets changed, so version-7
  operational entries must miss.
* 9 — the frontier kernel serves ARM and ``plsc`` through a same-source
  check on same-address load pairs, so every zoo verdict and outcome set
  now comes from the DP.  Results are parity-tested identical, but the
  enumeration path for those models changed, so version-8 entries
  re-verify rather than vouch for it.
* 10 — the result cache moved from one JSON file per cell to one SQLite
  database per cache directory, written one transaction per batch, and
  batch keys splice a once-serialized test part into each cell's
  canonical JSON.  Keys and payloads are unchanged, but the cache's
  storage and keying code changed and the R004 invariant ties every
  engine-path diff to a bump, so version-9 entries re-verify.
* 11 — static ppo is evaluated once per (processor, run) and shared by
  every clause set, closed over int bitmask rows.  Results are
  parity-tested identical, but the candidate-preparation code changed,
  so version-10 entries re-verify.
* 12 — the frontier kernel is the only axiomatic engine: the order
  enumerator left ``src/``, witnesses are read back from the DP's memo,
  and ``MemoryModel`` refuses specs the kernel cannot check exactly.
  Results are parity-tested identical, but the engine path changed, so
  version-11 entries re-verify.
* 13 — the SC and TSO reference machines run on the GAM machine's
  exploration loop and state cap; outcome sets are unchanged, but the
  machine path changed, so version-12 entries re-verify.
* 14 — a test's descriptor moved to :mod:`repro.litmus.test` and is
  serialized once per test object, as its cached ``content_key``, which
  every cell key splices in.  Keys are unchanged apart from the version,
  but the keying code changed, so version-13 entries re-verify.
* 15 — ``Program.runs`` is the one sequential interpreter: candidate runs
  come from its forking replay instead of a copy inlined in the axiomatic
  engine, the machine verdict is computed only by operational verdict
  cells, exploration is one loop in ``explore_machine``, and the SC/TSO
  machines share the GAM machine's memory helpers.  Results are
  unchanged, but the run enumeration and machine paths changed, so
  version-14 entries re-verify.
* 16 — ``outcomes``, ``diff`` and ``synth`` ask outcome cells, the kernel
  entry points lost ``extra_values=``, and overflow messages leave the
  test's name to the scheduler.  Results are unchanged, but ``core/``
  changed, so version-15 entries re-verify.
* 17 — the GAM/GAM0 explorer is partial-order reduced: when a
  processor's enabled moves are all local, only its oldest entry's moves
  fire.  Outcome sets are parity-tested identical against the unreduced
  successor function, but the machine path changed, so version-16
  entries re-verify.
* 18 — a cell carries a built model (``None`` for a machine cell), so
  cells and cache keys no longer resolve model spec strings.  Keys and
  results are unchanged apart from the version, but ``cells.py`` and
  ``cache.py`` changed, so version-17 entries re-verify.
* 19 — the parent owns the result cache: it keys every cell (the part
  before the test memoized per model content), answers hits with bulk
  lookups before dispatch and commits computed rows in batched
  transactions; workers no longer open the database.  Keys and results
  are unchanged apart from the version, but ``cache.py`` changed, so
  version-18 entries re-verify.
* 20 — GAM/GAM0 machine states are interned to flat int tuples, both
  variants evaluate the same-address load points alike and record
  whether they met one, and a batch answers a GAM or GAM0 cell from the
  other variant's exploration when that run met none.  Outcome sets are
  fixture-tested identical, but the machine path changed, so version-19
  entries re-verify.
* 21 — static ppo is computed once per thread shape (program text and
  label positions, executed indices, resolved addresses) as predecessor
  bitmasks in a process-wide memo, and the kernel's DAG is those masks
  joined at node offsets.  Outcome sets are parity-tested identical, but
  the axiomatic path changed, so version-20 entries re-verify.
"""

ORACLE_AXIOMATIC = "axiomatic"
"""The default oracle: axiomatic enumeration of the cell's model."""


_MACHINES: dict[str, dict] = {
    "gam": {"kind": "gam-machine", "same_address_loads": GAM_MACHINE.same_address_loads},
    "gam0": {"kind": "gam-machine", "same_address_loads": GAM0_MACHINE.same_address_loads},
    "sc": {"kind": "sc-machine"},
    "tso": {"kind": "tso-machine"},
}
"""Every machine an ``operational:<machine>`` oracle names, with the
descriptor its cells key on."""

_GAM_VARIANTS = {"gam": GAM_MACHINE, "gam0": GAM0_MACHINE}
_OTHER_VARIANT = {"gam": "gam0", "gam0": "gam"}

Explorations = dict[tuple[str, str], ExplorationResult]
"""One batch's GAM/GAM0 explorations, by ``(machine, project)``."""


def operational_machines() -> tuple[str, ...]:
    """Sorted names accepted in ``operational:<machine>`` oracle strings."""
    return tuple(sorted(_MACHINES))


def parse_oracle(oracle: str) -> tuple[str, Optional[str]]:
    """Split an oracle string into ``(kind, machine)``.

    ``"axiomatic"`` parses to ``("axiomatic", None)``;
    ``"operational:<machine>"`` parses to ``("operational", machine)``
    for any machine in :func:`operational_machines`.  Anything else
    raises :class:`ValueError`.
    """
    if oracle == ORACLE_AXIOMATIC:
        return ("axiomatic", None)
    kind, sep, machine = oracle.partition(":")
    if kind == "operational" and sep and machine in _MACHINES:
        return ("operational", machine)
    raise ValueError(
        f"unknown oracle {oracle!r}; expected 'axiomatic' or "
        f"'operational:<machine>' with machine one of "
        f"{', '.join(operational_machines())}"
    )


def oracle_descriptor(oracle: str) -> dict:
    """Canonical content descriptor of an oracle (cache-key material).

    Axiomatic cells additionally hash their model descriptor; operational
    cells are fully determined by the machine variant captured here.
    """
    kind, machine = parse_oracle(oracle)
    if machine is None:
        return {"kind": "axiomatic"}
    return {"kind": "operational", "machine": _MACHINES[machine]}


def _check_model(cell: "CellSpec") -> None:
    """Refuse a cell whose model does not fit its oracle.

    An axiomatic cell needs a built :class:`MemoryModel`; any other
    oracle names a machine and needs ``None`` (an unknown machine fails
    at evaluation, naming the test).  Spec strings are resolved before
    cells are built (:func:`repro.models.spec.named_model`), so a string
    here is a call site that skipped that step, caught before the cell
    reaches a worker.
    """
    if cell.oracle == ORACLE_AXIOMATIC:
        if not isinstance(cell.model, MemoryModel):
            raise TypeError(
                f"an axiomatic cell needs a built MemoryModel, got {cell.model!r}"
            )
    elif cell.model is not None:
        raise TypeError(f"a {cell.oracle} cell carries no model, got {cell.model!r}")


@dataclass(frozen=True)
class VerdictSpec:
    """One (test, model, oracle) verdict cell: is the asked outcome allowed?

    ``model`` is a built model for an axiomatic cell and ``None`` for an
    ``operational:<machine>`` cell.
    """

    test: LitmusTest
    model: Optional[MemoryModel]
    oracle: str = ORACLE_AXIOMATIC

    def __post_init__(self) -> None:
        _check_model(self)


@dataclass(frozen=True)
class OutcomeSpec:
    """One (test, model, oracle) outcome-set cell under a projection.

    ``model`` is a built model for an axiomatic cell and ``None`` for an
    ``operational:<machine>`` cell.
    """

    test: LitmusTest
    model: Optional[MemoryModel]
    project: str = "full"
    oracle: str = ORACLE_AXIOMATIC

    def __post_init__(self) -> None:
        _check_model(self)


CellSpec = Union[VerdictSpec, OutcomeSpec]

CellResult = Union[bool, frozenset]
"""``bool`` for verdicts, ``frozenset[Outcome]`` for outcome sets."""


def model_descriptor(model: MemoryModel) -> dict:
    """Canonical content descriptor of a model (name-independent).

    The result cache and campaign digests key on it, so a model rebuilt
    from an edited ``.model`` file gets a new key and a renamed one keeps
    its key.
    """
    return {
        "clauses": [c.name for c in model.clauses],
        "dynamic_clauses": [c.name for c in model.dynamic_clauses],
        "load_value": model.load_value,
        "requires_coherence": model.requires_coherence,
    }


def cell_descriptor(cell: CellSpec, test_part: Optional[dict] = None) -> dict:
    """The canonical descriptor hashed into a cell's cache key.

    Operational cells carry no model and have no model descriptor: the
    machine alone determines the result.  ``test_part`` replaces the cell's
    :func:`test_descriptor`; :func:`~repro.engine.cache.cell_cache_key`
    passes ``{}`` and splices in the test's cached ``content_key``.
    """
    _, machine = parse_oracle(cell.oracle)
    descriptor = {
        "engine_version": ENGINE_VERSION,
        "oracle": oracle_descriptor(cell.oracle),
        "test": test_part if test_part is not None else test_descriptor(cell.test),
    }
    if machine is None:
        descriptor["model"] = model_descriptor(cell.model)
    if isinstance(cell, VerdictSpec):
        descriptor["kind"] = "verdict"
        return descriptor
    if isinstance(cell, OutcomeSpec):
        descriptor["kind"] = "outcomes"
        descriptor["project"] = cell.project
        return descriptor
    raise TypeError(f"unknown cell spec {cell!r}")


def _machine_outcomes(
    machine: str, test: LitmusTest, project: str, explorations: Explorations
) -> frozenset:
    """The machine's outcome set for ``test`` under ``project``.

    A GAM or GAM0 cell reads ``explorations`` first: a run of the same
    machine answers it, and so does a run of the other variant that met
    no same-address load pair (``ExplorationResult.saldld_met``), since
    the two machines then explore the same states.  Only a completed
    exploration is kept; one that hit the state cap raised instead.
    """
    variant = _GAM_VARIANTS.get(machine)
    if variant is None:
        explore_seq = sc_outcomes if machine == "sc" else tso_outcomes
        return explore_seq(test, project=project)
    result = explorations.get((machine, project))
    if result is None:
        other = explorations.get((_OTHER_VARIANT[machine], project))
        if other is not None and not other.saldld_met:
            result = other
    if result is not None:
        recorder = _obs_current()
        if recorder.active:
            recorder.incr("engine.oracle.operational.shared")
        return result.outcomes
    result = explorations[(machine, project)] = explore(test, variant, project)
    return result.outcomes


def _machine_verdict(machine: str, test: LitmusTest, explorations: Explorations) -> bool:
    """Does the machine allow the asked outcome?

    Computed against the full-projection outcome set: the asked outcome
    constrains a subset of the registers/locations a full outcome fixes,
    so allowance is containment of the asked bindings in some terminal
    state — exactly :meth:`repro.litmus.test.Outcome.matches` over the
    machine's terminal states.
    """
    asked = test.asked
    if asked is None:
        raise ValueError(f"test {test.name!r} has no asked outcome")
    outcomes = _machine_outcomes(machine, test, "full", explorations)
    return any(
        asked.regs <= outcome.regs and asked.mem <= outcome.mem
        for outcome in outcomes
    )


def evaluate_cell(
    cell: CellSpec,
    prefix: Optional[CandidatePrefix],
    explorations: Optional[Explorations] = None,
) -> CellResult:
    """Evaluate one cell against a shared candidate prefix.

    ``prefix`` must have been built for ``cell.test`` (or be ``None`` to
    rebuild per call); sharing it across all axiomatic cells of one test
    is the engine's central amortization.  Axiomatic cells go through
    :func:`~repro.core.axiomatic.is_allowed` and
    :func:`~repro.core.axiomatic.enumerate_outcomes` to the frontier
    kernel, whose solved DPs live on the shared prefix.  Operational
    cells bypass the prefix entirely and explore their abstract machine;
    ``explorations`` (``None``: a fresh one) holds the GAM/GAM0 runs
    already made for ``cell.test``, shared the same way.
    """
    kind, machine = parse_oracle(cell.oracle)
    recorder = _obs_current()
    if recorder.active:
        recorder.incr("engine.cells.evaluated")
        if isinstance(cell, VerdictSpec):
            recorder.incr("engine.cells.verdict")
        elif isinstance(cell, OutcomeSpec):
            recorder.incr("engine.cells.outcomes")
        recorder.incr("engine.oracle." + kind)
        if machine is not None:
            recorder.incr("engine.oracle.operational.by." + machine)
    if explorations is None:
        explorations = {}
    if isinstance(cell, VerdictSpec):
        if machine is None:
            return is_allowed(cell.test, cell.model, prefix=prefix)
        return _machine_verdict(machine, cell.test, explorations)
    if isinstance(cell, OutcomeSpec):
        if machine is None:
            return enumerate_outcomes(
                cell.test, cell.model, project=cell.project, prefix=prefix
            )
        return _machine_outcomes(machine, cell.test, cell.project, explorations)
    raise TypeError(f"unknown cell spec {cell!r}")
