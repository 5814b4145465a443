"""Batch evaluation engine: shared candidates, parallel fan-out, caching.

Every harness in this repository ultimately asks its oracle the same two
questions — "is this outcome allowed?" and "what is the outcome set?" —
over a *grid* of (litmus test × memory model) cells: the verdict matrix
sweeps the model zoo, the strength lattice compares outcome sets
pairwise, and the equivalence checker pits each axiomatic model against
its operational twin.  Run naively, every cell re-derives the same
per-test work (value domains, program-run enumeration, event and
candidate construction) once per model — for an 8-model zoo that is ~8×
redundant.  This package is the shared harness that amortizes it, in the
tradition of the single-candidate-generation litmus tools (herd and
friends).

Every cell carries an *oracle*: ``"axiomatic"`` (the default) answers it
with the axiomatic enumeration of the cell's model, while
``"operational:<machine>"`` answers it by exhaustively exploring one of
the abstract machines (GAM, GAM0, SC, TSO) — the same specs, scheduler,
cache and telemetry serve both definitions, which is what makes
machine-vs-axioms differential campaigns ordinary engine work.

Architecture::

    cells (VerdictSpec / OutcomeSpec, × oracle)
        │  grouped per test, order preserved
        ▼
    scheduler ── jobs=1 ──► in-process batches
        │   (no deadline)        │
        │  jobs>1 or deadline    │ one CandidatePrefix per test:
        ▼                        │   value domains + program runs
    ProcessPoolExecutor          │   + candidate bases, shared by
    (a run of consecutive        │   every model; static-ppo DAGs and
     batches per future,         │   (mo, rf) enumerations memoized
     consumed in submission      │   per clause set
     order = deterministic;      │
     one WorkerPool may serve    │
     a whole run; killable:      │
     deadlines and crashed       ▼
     workers recover per    ResultCache (optional; one SQLite file in
     ExecutionPolicy)       WAL mode, read and written by the parent
        ▲                   only: bulk lookups before dispatch, one
        │ batches with a    commit per ≤64 settled batches; JSON
        └─ miss, carrying ─ payloads keyed by SHA-256 of test content +
           their answers    oracle (model clauses or machine variant) +
                            ENGINE_VERSION, so entries can't go stale)

The three layers:

* :mod:`repro.engine.cells` — cell specs, canonical content descriptors,
  and single-cell evaluation against a shared
  :class:`~repro.core.axiomatic.CandidatePrefix` and the batch's GAM/GAM0
  explorations (a run that met no same-address load pair answers the
  other variant's cells too);
* :mod:`repro.engine.scheduler` — per-test batching, the worker protocol
  (errors travel back as data and re-raise with the offending test's
  name), and deterministic result ordering;
* :mod:`repro.engine.cache` — the optional on-disk result cache that
  makes repeated ``matrix`` / ``strength`` / CI runs incremental;
* :mod:`repro.engine.policy` + :mod:`repro.engine.faults` — the
  fault-tolerance layer: :class:`~repro.engine.policy.ExecutionPolicy`
  (per-batch deadlines, bounded retries, ``on_error = fail | skip |
  quarantine``) decides what failed batches become — the same way for
  serial and pooled runs, which settle every batch outcome through one
  path — and the deterministic fault-injection harness, armed through
  the ``REPRO_FAULTS`` environment variable, keeps every recovery path
  under test.

``eval.litmus_matrix``, ``eval.strength`` and ``equivalence.checker`` are
wired through :func:`evaluate_cells`; the ``matrix`` / ``strength`` /
``equiv`` CLI commands expose ``--jobs N`` and ``--cache DIR``.  Cells
are agnostic to where their tests come from: the static catalogue, a
parsed ``.litmus`` corpus or the cycle generator
(:mod:`repro.litmus.frontend`) all flow through unchanged — the cache
keys hash test *content*, so structurally identical generated and
hand-written tests share entries.  Models flow the same way: a cell
carries a built :class:`~repro.core.axiomatic.MemoryModel` (or none, for
a machine cell), resolved once from a registry name, a ``.model`` file
path or a ``ctor:`` construction spec by the code that builds the cells
(:func:`repro.models.spec.named_model`), and the cache keys hash model
*content* (clauses + axioms), so a file-defined model caches correctly
and an edited one misses.  Several processes may share one
cache directory (its database serializes their commits), so independent
runs warm each other's results.
"""

from __future__ import annotations

from .cache import CacheStats, ResultCache, cell_cache_key
from .cells import (
    ENGINE_VERSION,
    ORACLE_AXIOMATIC,
    CellResult,
    CellSpec,
    OutcomeSpec,
    VerdictSpec,
    evaluate_cell,
    operational_machines,
    oracle_descriptor,
    parse_oracle,
)
from .faults import (
    FAULT_KINDS,
    FAULTS_ENV_VAR,
    FaultAction,
    FaultPlan,
    InjectedFault,
    fault_plan_from_env,
    parse_fault_plan,
)
from .policy import (
    DEFAULT_POLICY,
    FAILURE_REASONS,
    ON_ERROR_MODES,
    CellFailure,
    ExecutionPolicy,
)
from .scheduler import EngineWorkerError, WorkerPool, evaluate_cells

__all__ = [
    "ENGINE_VERSION",
    "ORACLE_AXIOMATIC",
    "CellResult",
    "CellSpec",
    "OutcomeSpec",
    "VerdictSpec",
    "ResultCache",
    "cell_cache_key",
    "evaluate_cell",
    "evaluate_cells",
    "operational_machines",
    "oracle_descriptor",
    "parse_oracle",
    "EngineWorkerError",
    "WorkerPool",
    "CacheStats",
    "CellFailure",
    "DEFAULT_POLICY",
    "ExecutionPolicy",
    "FAILURE_REASONS",
    "ON_ERROR_MODES",
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "FaultAction",
    "FaultPlan",
    "InjectedFault",
    "fault_plan_from_env",
    "parse_fault_plan",
]
