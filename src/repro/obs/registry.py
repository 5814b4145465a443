"""Metric registry: the closed vocabulary of engine telemetry names.

Every counter, timer and histogram the instrumentation layer may record
is declared here, exactly like lint diagnostics live in
:mod:`repro.lint.diagnostics`.  Recording an undeclared name is a
programming error (:class:`ValueError` from the recorder), which keeps
``docs/observability.md`` — generated from this catalog by
``tools/gen_obs_docs.py`` — a complete reference of what a run report
can contain.

Metric kinds:

* ``counter`` — monotonically increasing integer total.
* ``timer`` — a series of elapsed-seconds observations, summarized in
  reports as count/total/p50/p95/max.
* ``histogram`` — a series of dimensionless values (sizes, node counts),
  summarized as count/p50/p95/max.

Metrics flagged ``dynamic=True`` are *prefix families*: any name of the
form ``<name>.<label>`` is accepted, where ``<label>`` is a per-model or
per-suite key (e.g. ``engine.cache.hit.by.gam``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["MetricSpec", "METRICS", "metric_for"]


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric name (or dynamic prefix family).

    Attributes:
        name: dotted hierarchical name, e.g. ``engine.cache.hit``.
        kind: ``counter`` | ``timer`` | ``histogram``.
        unit: what one increment/observation measures (for docs).
        description: one-line reference text for ``docs/observability.md``.
        dynamic: when True, ``name`` is a prefix family and any
            ``name.<label>`` is a valid metric of the same kind.
    """

    name: str
    kind: str
    unit: str
    description: str
    dynamic: bool = False


def _counter(name: str, unit: str, description: str, dynamic: bool = False) -> MetricSpec:
    return MetricSpec(name, "counter", unit, description, dynamic)


def _timer(name: str, description: str) -> MetricSpec:
    return MetricSpec(name, "timer", "seconds", description)


def _histogram(name: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, "histogram", unit, description)


METRICS: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        # --- engine: cell scheduler / batch protocol -------------------
        _counter(
            "engine.cells.requested",
            "cells",
            "Cells handed to `evaluate_cells` (before cache lookups).",
        ),
        _counter(
            "engine.cells.evaluated",
            "cells",
            "Cells actually evaluated (cache misses plus uncached runs).",
        ),
        _counter(
            "engine.cells.verdict",
            "cells",
            "Evaluated cells that were `VerdictSpec` (allow/forbid) queries.",
        ),
        _counter(
            "engine.cells.outcomes",
            "cells",
            "Evaluated cells that were `OutcomeSpec` (full enumeration) queries.",
        ),
        _counter(
            "engine.batches",
            "batches",
            "Per-test batches dispatched (each shares one `CandidatePrefix`).",
        ),
        _counter(
            "engine.retries",
            "retries",
            "Failed or timed-out batches re-submitted under an "
            "`ExecutionPolicy` retry budget.",
        ),
        _counter(
            "engine.timeouts",
            "batches",
            "Batches that exceeded the per-batch deadline and had their "
            "pool killed.",
        ),
        _counter(
            "engine.batches.quarantined",
            "batches",
            "Batches finalized as `CellFailure` sentinels under "
            "`on_error=quarantine`.",
        ),
        _counter(
            "engine.pool.restarts",
            "restarts",
            "Process pools killed and replaced after a deadline kill or a "
            "broken (crashed-worker) pool.",
        ),
        # --- engine: oracle routing -------------------------------------
        _counter(
            "engine.oracle.axiomatic",
            "cells",
            "Evaluated cells answered by axiomatic enumeration.",
        ),
        _counter(
            "engine.oracle.operational",
            "cells",
            "Evaluated cells answered by abstract-machine exploration.",
        ),
        _counter(
            "engine.oracle.operational.by",
            "cells",
            "Operational cells keyed by machine name (e.g. "
            "`engine.oracle.operational.by.gam`).",
            dynamic=True,
        ),
        _counter(
            "engine.oracle.operational.shared",
            "cells",
            "GAM/GAM0 machine cells answered from an exploration their "
            "batch already ran (the same machine's, or the other "
            "variant's when it met no same-address load pair) instead of "
            "a new one; `operational.explore.runs` counts only the new ones.",
        ),
        # --- engine: axiomatic dispatch --------------------------------
        _counter(
            "engine.dispatch.kernel",
            "queries",
            "Allowed/enumerate queries answered by the frontier DP kernel.",
        ),
        # --- engine: result cache --------------------------------------
        _counter(
            "engine.cache.hit",
            "lookups",
            "Result-cache lookups answered from disk.",
        ),
        _counter(
            "engine.cache.miss",
            "lookups",
            "Result-cache lookups that found no usable entry.",
        ),
        _counter(
            "engine.cache.stale",
            "lookups",
            "Cache entries discarded as unreadable or kind-mismatched "
            "(counted in addition to the miss).",
        ),
        _counter(
            "engine.cache.store",
            "writes",
            "Fresh results written back to the cache.",
        ),
        _counter(
            "engine.cache.hit.by",
            "lookups",
            "Cache hits keyed by model display name (or oracle string for "
            "operational cells).",
            dynamic=True,
        ),
        _counter(
            "engine.cache.miss.by",
            "lookups",
            "Cache misses keyed by model display name (or oracle string for "
            "operational cells).",
            dynamic=True,
        ),
        # --- kernel: frontier DP ---------------------------------------
        _counter(
            "kernel.builds",
            "kernels",
            "`FrontierKernel` instances constructed (one per candidate "
            "prefix x memory-model combo).",
        ),
        _counter(
            "kernel.dp.states",
            "states",
            "Memoized DP states materialized across all kernel solves.",
        ),
        _counter(
            "kernel.prune.regs_infeasible",
            "prunes",
            "Candidate combos skipped because required register values "
            "are unreachable under any load ordering.",
        ),
        # --- operational machine exploration ---------------------------
        _counter(
            "operational.explore.runs",
            "explorations",
            "Exhaustive abstract-machine explorations performed (GAM, "
            "GAM0, SC and TSO machines).",
        ),
        _counter(
            "operational.explore.states",
            "states",
            "Distinct machine states visited across all explorations of "
            "the four abstract machines.",
        ),
        _counter(
            "operational.explore.terminals",
            "states",
            "Terminal machine states reached across all explorations of "
            "the four abstract machines.",
        ),
        # --- campaign driver -------------------------------------------
        _counter(
            "campaign.shards.evaluated",
            "shards",
            "Campaign shards evaluated in this run.",
        ),
        _counter(
            "campaign.shards.resumed",
            "shards",
            "Campaign shards skipped because a completed shard file was "
            "found on resume.",
        ),
        _counter(
            "campaign.tests.evaluated",
            "tests",
            "Litmus tests evaluated across all shards in this run.",
        ),
        _counter(
            "campaign.discrepancies",
            "discrepancies",
            "Discrepancies mined from shard results (model-pair verdict "
            "splits or axiomatic-vs-operational outcome-set divergences).",
        ),
        _counter(
            "campaign.witnesses",
            "witnesses",
            "Minimized witness `.litmus` files written.",
        ),
        # --- timers -----------------------------------------------------
        _timer(
            "engine.wall.seconds",
            "Wall time of each `evaluate_cells` call (parent process).",
        ),
        _timer(
            "engine.batch.seconds",
            "Wall time of each per-test batch (worker-side when pooled); "
            "the ratio of its total to `engine.wall.seconds` is the "
            "worker-utilization figure in reports.",
        ),
        _timer(
            "engine.cell.seconds",
            "Wall time of each individual cell evaluation (cache misses).",
        ),
        _timer(
            "operational.explore.time",
            "Wall time of each exhaustive exploration of an abstract "
            "machine (GAM, GAM0, SC or TSO).",
        ),
        _timer(
            "campaign.shard.seconds",
            "Wall time of each campaign shard evaluation.",
        ),
        _timer(
            "campaign.mine.seconds",
            "Wall time of verdict-table assembly plus discrepancy mining.",
        ),
        _timer(
            "campaign.minimize.seconds",
            "Wall time of each lockstep minimization round: one engine call "
            "judging every unfinished witness's next candidate (the last "
            "round re-checks the written .litmus files).",
        ),
        # --- histograms -------------------------------------------------
        _histogram(
            "engine.batch.cells",
            "cells",
            "Cells per dispatched batch (batch-size distribution).",
        ),
        _histogram(
            "kernel.frontier.nodes",
            "memories",
            "Distinct reachable final memories per kernel solve.",
        ),
    )
}


def metric_for(name: str) -> Optional[MetricSpec]:
    """Resolve a metric name to its spec, honouring dynamic prefixes.

    Exact matches win; otherwise the longest declared ``dynamic`` family
    whose ``<prefix>.`` leads ``name`` is returned.  ``None`` means the
    name is not part of the telemetry vocabulary.
    """
    spec = METRICS.get(name)
    if spec is not None:
        return spec
    best: Optional[MetricSpec] = None
    for candidate in METRICS.values():
        if not candidate.dynamic:
            continue
        if name.startswith(candidate.name + "."):
            if best is None or len(candidate.name) > len(best.name):
                best = candidate
    return best
