"""Layer spans for the benchmark's traced runs.

A traced pass wraps the public entry points of each layer of ``repro`` —
the functions one layer calls in the next — in spans recorded by this
module, and reads exact work counts from the program's own ``repro.obs``
registry through :func:`repro.obs.collecting`.  Nothing in the program
changes; the wrappers are installed for the pass and removed after it.

Spans aggregate as they close: per span name a count, a total, a self
time (the total minus the time child spans cover) and a maximum.  Pool
workers are forked from the traced parent, so they run the same wrappers;
each worker drains its aggregates after every batch and ships them back
inside the ``repro.obs`` snapshot the scheduler already returns, and the
parent folds them in when the scheduler merges that snapshot.  Worker time
therefore counts in the layer totals, while coverage is judged on the
parent's own span tree.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

import workloads

# Span name (or ``prefix.``) -> the layer, named by module, it times.
LAYERS = {
    "workload": "bench",
    "frontend": "litmus.frontend",
    "models": "models",
    "lint": "lint",
    "campaign": "campaign",
    "report": "campaign",
    "minimize": "campaign.minimize",
    "scheduler": "engine.scheduler",
    "cache.load": "engine.cache",
    "cache.store": "engine.cache",
    "descriptor": "engine.cells",
    "prefix": "core.axiomatic.prefix",
    "solve": "core.axiomatic.solve",
    "machine": "core.operational",
    "render": "eval.render",
}
MACHINES = ("gam", "gam0", "sc", "tso")


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (``solve.arm`` -> the solve layer)."""
    return LAYERS.get(span_name) or LAYERS[span_name.split(".", 1)[0]]


class Tracer:
    """In-memory span and count aggregates of one traced pass."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.recorder = None  # the repro.obs recorder, set by tracing()
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [name, child seconds]
        self.spans: dict[str, list] = {}  # name -> [count, total, self, max]
        self.counts: dict[str, int] = {}
        self.totals: dict[str, float] = {}
        self.tests: dict[str, list] = {}  # name -> [seconds, dp states, machine states]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [name, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            record = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - frame[1]
            record[3] = max(record[3], elapsed)
            if self.stack:
                self.stack[-1][1] += elapsed

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    def drain(self) -> dict:
        """Hand over everything recorded so far and start afresh."""
        data = {
            "spans": self.spans,
            "counts": self.counts,
            "totals": self.totals,
            "tests": self.tests,
        }
        self.reset()
        return data

    def absorb(self, data: dict) -> None:
        """Fold aggregates drained in a worker into this tracer."""
        for name, (count, total, own, peak) in data["spans"].items():
            record = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            record[0] += count
            record[1] += total
            record[2] += own
            record[3] = max(record[3], peak)
        for name, n in data["counts"].items():
            self.count(name, n)
        for name, seconds in data["totals"].items():
            self.add(name, seconds)
        for name, values in data["tests"].items():
            record = self.tests.setdefault(name, [0.0, 0, 0])
            for i, value in enumerate(values):
                record[i] += value


_ACTIVE: Optional[Tracer] = None
_ORIGINAL: dict = {}


def _obs_counter(name: str) -> int:
    """Live value of a ``repro.obs`` counter on the current recorder.

    Reads the recorder's table directly: a snapshot would copy every
    series on each of the thousands of calls a pass makes.
    """
    from repro.obs import current

    return getattr(current(), "_counters", {}).get(name, 0)


def _obs_series(name: str) -> list:
    from repro.obs import current

    return getattr(current(), "_series", {}).get(name, [])


def _spanned(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _ACTIVE.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _solve(fn):
    @functools.wraps(fn)
    def wrapper(test, model, *args, **kwargs):
        with _ACTIVE.span("solve." + model.name):
            return fn(test, model, *args, **kwargs)

    return wrapper


def _machine(name: Optional[str], fn, counter):
    """Span a machine exploration and attribute its state count."""

    @functools.wraps(fn)
    def wrapper(test, *args, **kwargs):
        machine = name
        if machine is None:  # operational_outcomes(test, variant, ...)
            variant = args[0] if args else kwargs["variant"]
            machine = variant.name.split("-")[0]
        before = counter()
        with _ACTIVE.span("machine." + machine):
            result = fn(test, *args, **kwargs)
        states = counter() - before
        _ACTIVE.count("states." + machine, states)
        _ACTIVE.count("states", states)
        return result

    return wrapper


def _count_seq_states(cls):
    def factory(*args, **kwargs):
        _ACTIVE.count("seq_states")
        return cls(*args, **kwargs)

    return factory


def _counted(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _ACTIVE.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _evaluate_cells(fn):
    """Span a scheduler call and book the time it was not running batches.

    ``scheduler.wait`` is the call's wall time minus the batch time it
    bought, spread over its workers: pool start-up, pickling, queueing.
    """

    @functools.wraps(fn)
    def wrapper(cells, *args, **kwargs):
        cells = list(cells)
        jobs = kwargs.get("jobs", args[0] if args else 1)
        tests = len({id(cell.test) for cell in cells})
        workers = min(jobs, tests) if jobs > 1 and tests > 1 else 1
        before = len(_obs_series("engine.batch.seconds"))
        start = time.perf_counter()
        with _ACTIVE.span("scheduler"):
            results = fn(cells, *args, **kwargs)
        wall = time.perf_counter() - start
        busy = sum(_obs_series("engine.batch.seconds")[before:])
        _ACTIVE.add("scheduler.wait", max(0.0, wall - busy / workers))
        return results

    return wrapper


def _evaluate_batch(fn):
    """Record one test's batch: seconds, kernel DP states, machine states."""

    @functools.wraps(fn)
    def wrapper(test, cells, cache_dir):
        dp_before = _obs_counter("kernel.dp.states")
        states_before = _ACTIVE.counts.get("states", 0)
        start = time.perf_counter()
        results = fn(test, cells, cache_dir)
        record = _ACTIVE.tests.setdefault(test.name, [0.0, 0, 0])
        record[0] += time.perf_counter() - start
        record[1] += _obs_counter("kernel.dp.states") - dp_before
        record[2] += _ACTIVE.counts.get("states", 0) - states_before
        return results

    return wrapper


@dataclass
class TracedSnapshot:
    """A worker's ``repro.obs`` snapshot with its span aggregates attached."""

    counters: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)


def _traced_run_batch(payload: tuple) -> tuple:
    """Pool-side batch runner: the program's, plus shipping worker spans."""
    if os.getpid() != _ACTIVE.pid:  # first batch in a freshly forked worker
        _ACTIVE.pid = os.getpid()
        _ACTIVE.reset()
    outcome = _ORIGINAL["run_batch"](payload)
    if outcome[0] == "ok" and outcome[2] is not None:
        snapshot = outcome[2]
        traced = TracedSnapshot(snapshot.counters, snapshot.series, _ACTIVE.drain())
        outcome = ("ok", outcome[1], traced)
    return outcome


class _CountingPool(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs) -> None:
        _ACTIVE.count("pool_starts")
        super().__init__(*args, **kwargs)


def _patches() -> list:
    """``(owner, attribute, replacement)`` for every traced entry point."""
    import repro.campaign.driver as driver
    import repro.campaign.minimize as minimize
    import repro.core.axiomatic as axiomatic
    import repro.core.reference_machines as reference
    import repro.engine as engine
    import repro.engine.cache as cache
    import repro.engine.cells as cells
    import repro.engine.scheduler as scheduler
    import repro.lint as lint
    from repro.campaign.state import CampaignDir

    # ``repro.eval`` re-exports the function under its module's name.
    matrix = importlib.import_module("repro.eval.litmus_matrix")
    base_prefix = scheduler.CandidatePrefix

    class TracedPrefix(base_prefix):
        def __init__(self, *args, **kwargs) -> None:
            with _ACTIVE.span("prefix"):
                super().__init__(*args, **kwargs)

    explore_states = functools.partial(_obs_counter, "operational.explore.states")
    seq_states = lambda: _ACTIVE.counts.get("seq_states", 0)  # noqa: E731
    evaluate = _evaluate_cells(scheduler.evaluate_cells)
    _ORIGINAL["run_batch"] = scheduler._run_batch
    return [
        (driver, "resolve_suite", _spanned("frontend", driver.resolve_suite)),
        (cells, "resolve_model", _spanned("models", cells.resolve_model)),
        (lint, "preflight_tests", _spanned("lint", lint.preflight_tests)),
        (lint, "preflight_models", _spanned("lint", lint.preflight_models)),
        (driver, "minimize_divergence", _spanned("minimize", driver.minimize_divergence)),
        (driver, "render_discrepancies", _spanned("report", driver.render_discrepancies)),
        (CampaignDir, "write_report", _spanned("report", CampaignDir.write_report)),
        (CampaignDir, "write_stats", _spanned("report", CampaignDir.write_stats)),
        (engine, "evaluate_cells", evaluate),
        (matrix, "evaluate_cells", evaluate),
        (driver, "evaluate_cells", evaluate),
        (minimize, "evaluate_cells", evaluate),
        (scheduler, "_evaluate_batch", _evaluate_batch(scheduler._evaluate_batch)),
        (scheduler, "_run_batch", _traced_run_batch),
        (scheduler, "ProcessPoolExecutor", _CountingPool),
        (scheduler, "CandidatePrefix", TracedPrefix),
        (scheduler, "test_descriptor", _spanned("descriptor", scheduler.test_descriptor)),
        (cache, "cell_descriptor", _spanned("descriptor", cache.cell_descriptor)),
        (cache.ResultCache, "load", _spanned("cache.load", cache.ResultCache.load)),
        (cache.ResultCache, "store", _spanned("cache.store", cache.ResultCache.store)),
        (cells, "is_allowed", _solve(cells.is_allowed)),
        (cells, "enumerate_outcomes", _solve(cells.enumerate_outcomes)),
        (cells, "operational_outcomes", _machine(None, cells.operational_outcomes, explore_states)),
        (cells, "sc_outcomes", _machine("sc", cells.sc_outcomes, seq_states)),
        (cells, "tso_outcomes", _machine("tso", cells.tso_outcomes, seq_states)),
        (reference, "_SeqState", _count_seq_states(reference._SeqState)),
        (axiomatic, "_regs_feasible", _counted("combos", axiomatic._regs_feasible)),
    ]


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install the span wrappers and a live ``repro.obs`` recorder.

    Yields the :class:`Tracer`; its ``recorder`` attribute is the
    ``repro.obs`` recorder, whose ``merge`` also folds in worker spans.
    """
    global _ACTIVE
    from repro.obs import collecting

    tracer = Tracer()
    _ACTIVE = tracer
    patches = _patches()
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)
    try:
        with collecting() as recorder:
            merge = recorder.merge

            def merge_with_spans(snapshot) -> None:
                merge(snapshot)
                if isinstance(snapshot, TracedSnapshot):
                    tracer.absorb(snapshot.trace)

            recorder.merge = merge_with_spans
            tracer.recorder = recorder
            yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        _ACTIVE = None
        _ORIGINAL.clear()


SELF_LAYERS = tuple(dict.fromkeys(LAYERS.values()))
OBS_COUNTS = (
    "engine.dispatch.kernel",
    "engine.dispatch.orders",
    "engine.dispatch.backtracker",
    "kernel.builds",
    "kernel.dp.states",
    "kernel.prune.regs_infeasible",
    "engine.cache.hit",
    "engine.cache.miss",
    "engine.cache.store",
    "engine.batches",
    "engine.retries",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, frontend_tests: int, minimized: tuple) -> dict:
    """Every per-layer metric of a traced pass, in seconds, counts or shares.

    ``minimized`` is ``(checks, accepted deletions)`` summed over a hunt's
    witnesses, ``(0, 0)`` elsewhere.  Layers a workload never enters read 0.
    """
    snapshot = tracer.recorder.snapshot()
    counters, series = snapshot.counters, snapshot.series
    spans, counts = tracer.spans, tracer.counts

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0, 0.0])[1]

    def calls(name: str) -> int:
        return spans.get(name, [0])[0]

    machine_s = sum(total("machine." + m) for m in MACHINES)
    states = sum(counts.get("states." + m, 0) for m in MACHINES)
    hits, misses = counters.get("engine.cache.hit", 0), counters.get("engine.cache.miss", 0)
    wall = total("workload")
    metrics = {
        "frontend.resolve_s": total("frontend"),
        "frontend.tests": frontend_tests,
        "models.resolve_s": total("models"),
        "prefix.build_s": total("prefix"),
        "prefix.builds": calls("prefix"),
    }
    for model in workloads.ZOO:
        metrics["axiomatic.solve_s." + model] = total("solve." + model)
    metrics.update({
        "kernel.calls": counters.get("engine.dispatch.kernel", 0),
        "kernel.builds": counters.get("kernel.builds", 0),
        "kernel.dp_states": counters.get("kernel.dp.states", 0),
        "kernel.prune_ratio": _ratio(
            counters.get("kernel.prune.regs_infeasible", 0), counts.get("combos", 0)
        ),
        "orders.calls": counters.get("engine.dispatch.orders", 0)
        + counters.get("engine.dispatch.backtracker", 0),
    })
    for machine in MACHINES:
        metrics["machine.explore_s." + machine] = total("machine." + machine)
        metrics["machine.states." + machine] = counts.get("states." + machine, 0)
    metrics.update({
        "machine.states_per_s": _ratio(states, machine_s),
        "machine.max_test_s": max(
            (spans.get("machine." + m, [0, 0.0, 0.0, 0.0])[3] for m in MACHINES)
        ),
        "cells.descriptor_s": total("descriptor"),
        "cache.load_s": total("cache.load"),
        "cache.store_s": total("cache.store"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": counters.get("engine.cache.store", 0),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "scheduler.calls": len(series.get("engine.wall.seconds", [])),
        "scheduler.batches": counters.get("engine.batches", 0),
        "scheduler.busy_s": sum(series.get("engine.batch.seconds", [])),
        "scheduler.wait_s": tracer.totals.get("scheduler.wait", 0.0),
        "scheduler.pool_starts": counts.get("pool_starts", 0),
        "scheduler.retries": counters.get("engine.retries", 0),
        "campaign.lint_s": total("lint"),
        "campaign.shard_s": sum(series.get("campaign.shard.seconds", [])),
        "campaign.mine_s": sum(series.get("campaign.mine.seconds", [])),
        "campaign.minimize_s": total("minimize"),
        "campaign.report_s": total("report"),
        "minimize.checks": minimized[0],
        "minimize.useful_ratio": _ratio(minimized[1], minimized[0]),
        "eval.render_s": total("render"),
        "trace.wall_s": wall,
        "trace.coverage_share": _ratio(wall - spans.get("workload", [0, 0.0, 0.0])[2], wall),
    })
    for layer in SELF_LAYERS:
        metrics["self_s." + layer] = sum(
            record[2] for name, record in spans.items() if layer_of(name) == layer
        )
    return metrics


def exact_counts(tracer: Tracer) -> dict:
    """The counts a traced pass must repeat exactly: obs counters and spans."""
    counts = dict(tracer.recorder.snapshot().counters)
    counts.update({"trace." + name: n for name, n in tracer.counts.items()})
    counts.update({"span." + name: record[0] for name, record in tracer.spans.items()})
    return dict(sorted(counts.items()))


def costliest_tests(tracer: Tracer, limit: int = 10) -> dict:
    """The ``limit`` costliest tests by seconds and by states explored.

    States are kernel DP states plus abstract-machine states; a hunt's
    minimizer variants keep their original test's name and count there.
    """
    rows = [
        {"test": name, "seconds": seconds, "dp_states": dp, "machine_states": machine}
        for name, (seconds, dp, machine) in tracer.tests.items()
    ]
    by_seconds = sorted(rows, key=lambda row: (-row["seconds"], row["test"]))[:limit]
    by_states = sorted(
        rows, key=lambda row: (-(row["dp_states"] + row["machine_states"]), row["test"])
    )[:limit]
    return {"by_seconds": by_seconds, "by_states": by_states}
