"""Evaluation cells: the unit of work the batch engine schedules.

A *cell* is one entry of a test × model grid evaluated under an *oracle*:

* :class:`VerdictSpec` — "does the oracle allow ``test``'s asked outcome?"
  (the litmus verdict matrix);
* :class:`OutcomeSpec` — the oracle's full projected outcome set (the
  strength lattice, the equivalence checker).

The oracle selects *which definition* answers the cell:

* ``"axiomatic"`` (the default) resolves the cell's :data:`ModelLike` and
  runs the axiomatic engine (the frontier kernel);
* ``"operational:<machine>"`` exhaustively explores one of the abstract
  machines named by :func:`operational_machines` — the Figure 17 GAM
  machine, its GAM0 variant, or the SC/TSO reference machines.  The
  ``model`` field is carried for display only; the machine alone
  determines the result (and the cache key).

Cells are small frozen dataclasses carrying the :class:`LitmusTest`
itself and a :data:`ModelLike` — either a model *spec string* (a registry
name, a ``.model`` file/directory path, a ``ctor:`` construction point;
anything :func:`repro.models.spec.resolve_model` accepts) or a built
:class:`~repro.core.axiomatic.MemoryModel`.  All forms are picklable,
so cells cross process boundaries untouched and worker processes
re-resolve spec strings against their own filesystem/registry view.

Every cell exposes a *descriptor* — a canonical JSON-able structure
hashed into the on-disk cache key.  Descriptors hash content, not names:
two structurally identical tests share cache entries, an axiomatic cell
is keyed by its model's clause names, load-value axiom and coherence
requirement, and an operational cell is keyed by the machine's variant
policy (clause names and variant policies fully determine behaviour in
this repository's vocabulary).  A ``.model``-file cell therefore
re-reads the file per descriptor: editing the file's content changes the
cache key, while renaming the model inside it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..core.axiomatic import (
    CandidatePrefix,
    MemoryModel,
    enumerate_outcomes,
    is_allowed,
)
from ..core.operational import (
    GAM0_MACHINE,
    GAM_MACHINE,
    operational_outcomes,
)
from ..core.reference_machines import sc_outcomes, tso_outcomes
from ..litmus.test import LitmusTest, Outcome, test_descriptor
from ..models.spec import resolve_model
from ..obs import current as _obs_current

__all__ = [
    "ENGINE_VERSION",
    "ORACLE_AXIOMATIC",
    "ModelLike",
    "VerdictSpec",
    "OutcomeSpec",
    "CellSpec",
    "CellResult",
    "cell_descriptor",
    "test_descriptor",
    "model_descriptor",
    "model_display_name",
    "oracle_descriptor",
    "operational_machines",
    "parse_oracle",
    "evaluate_cell",
]

ENGINE_VERSION = 14
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
  entries are checked against the spec type, and ``explore`` and
  ``operational_allows`` share one exploration loop.  Results are
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
"""

ModelLike = Union[str, MemoryModel]
"""A model spec string (resolved via ``resolve_model``) or a built model."""

ORACLE_AXIOMATIC = "axiomatic"
"""The default oracle: axiomatic enumeration of the cell's model."""


def model_display_name(model: ModelLike) -> str:
    """The name a cell reports for its model.

    Spec strings display as themselves (``"gam"``, a file path, a
    ``ctor:`` spec); built models display their ``name``.
    """
    return model if isinstance(model, str) else model.name


def _resolve(model: ModelLike) -> MemoryModel:
    if isinstance(model, MemoryModel):
        return model
    return resolve_model(model)


MachineFn = Callable[[LitmusTest, str], "frozenset[Outcome]"]


def _gam_outcomes(test: LitmusTest, project: str) -> frozenset[Outcome]:
    return operational_outcomes(test, GAM_MACHINE, project=project)


def _gam0_outcomes(test: LitmusTest, project: str) -> frozenset[Outcome]:
    return operational_outcomes(test, GAM0_MACHINE, project=project)


def _sc_outcomes(test: LitmusTest, project: str) -> frozenset[Outcome]:
    return sc_outcomes(test, project=project)


def _tso_outcomes(test: LitmusTest, project: str) -> frozenset[Outcome]:
    return tso_outcomes(test, project=project)


_MACHINES: dict[str, tuple[MachineFn, dict]] = {
    "gam": (
        _gam_outcomes,
        {"kind": "gam-machine", "same_address_loads": GAM_MACHINE.same_address_loads},
    ),
    "gam0": (
        _gam0_outcomes,
        {"kind": "gam-machine", "same_address_loads": GAM0_MACHINE.same_address_loads},
    ),
    "sc": (
        _sc_outcomes,
        {"kind": "sc-machine"},
    ),
    "tso": (
        _tso_outcomes,
        {"kind": "tso-machine"},
    ),
}


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
    return {"kind": "operational", "machine": _MACHINES[machine][1]}


@dataclass(frozen=True)
class VerdictSpec:
    """One (test, model, oracle) verdict cell: is the asked outcome allowed?"""

    test: LitmusTest
    model: ModelLike
    oracle: str = ORACLE_AXIOMATIC

    @property
    def model_name(self) -> str:
        """Display name of the cell's model (see :func:`model_display_name`)."""
        return model_display_name(self.model)


@dataclass(frozen=True)
class OutcomeSpec:
    """One (test, model, oracle) outcome-set cell under a projection."""

    test: LitmusTest
    model: ModelLike
    project: str = "full"
    oracle: str = ORACLE_AXIOMATIC

    @property
    def model_name(self) -> str:
        """Display name of the cell's model (see :func:`model_display_name`)."""
        return model_display_name(self.model)


CellSpec = Union[VerdictSpec, OutcomeSpec]

CellResult = Union[bool, frozenset]
"""``bool`` for verdicts, ``frozenset[Outcome]`` for outcome sets."""


def model_descriptor(model: ModelLike) -> dict:
    """Canonical content descriptor of a model (name-independent).

    Spec strings are resolved first, so a ``.model`` file's descriptor
    tracks the file's *current* content — the property the result cache
    and campaign digests key on.
    """
    resolved = _resolve(model)
    return {
        "clauses": [c.name for c in resolved.clauses],
        "dynamic_clauses": [c.name for c in resolved.dynamic_clauses],
        "load_value": resolved.load_value,
        "requires_coherence": resolved.requires_coherence,
    }


def cell_descriptor(cell: CellSpec, test_part: Optional[dict] = None) -> dict:
    """The canonical descriptor hashed into a cell's cache key.

    Operational cells omit the model descriptor: the machine alone
    determines the result, so cells that differ only in their display
    model share one cache entry.  ``test_part`` replaces the cell's
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


def _machine_outcomes(machine: str, test: LitmusTest, project: str) -> frozenset:
    return _MACHINES[machine][0](test, project)


def _machine_verdict(machine: str, test: LitmusTest) -> bool:
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
    outcomes = _machine_outcomes(machine, test, "full")
    return any(
        asked.regs <= outcome.regs and asked.mem <= outcome.mem
        for outcome in outcomes
    )


def evaluate_cell(cell: CellSpec, prefix: Optional[CandidatePrefix]) -> CellResult:
    """Evaluate one cell against a shared candidate prefix.

    ``prefix`` must have been built for ``cell.test`` (or be ``None`` to
    rebuild per call); sharing it across all axiomatic cells of one test
    is the engine's central amortization.  Axiomatic cells go through
    :func:`~repro.core.axiomatic.is_allowed` and
    :func:`~repro.core.axiomatic.enumerate_outcomes` to the frontier
    kernel, whose solved DPs live on the shared prefix.  Operational
    cells bypass the prefix entirely and explore their abstract machine.
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
    if isinstance(cell, VerdictSpec):
        if machine is None:
            return is_allowed(cell.test, _resolve(cell.model), prefix=prefix)
        return _machine_verdict(machine, cell.test)
    if isinstance(cell, OutcomeSpec):
        if machine is None:
            return enumerate_outcomes(
                cell.test, _resolve(cell.model), project=cell.project, prefix=prefix
            )
        return _machine_outcomes(machine, cell.test, cell.project)
    raise TypeError(f"unknown cell spec {cell!r}")
