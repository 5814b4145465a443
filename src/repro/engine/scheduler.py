"""Cell scheduler: shared-prefix batches, serial or pooled, fault-tolerant.

The scheduler turns a flat cell list into per-test *batches* so every
batch shares one :class:`~repro.core.axiomatic.CandidatePrefix` — the
model-independent per-test work is computed exactly once no matter how
many models are being judged.  Batches are the unit of fan-out *and* the
unit of failure: with ``jobs > 1`` (or a per-batch deadline armed) they
are dispatched over a :class:`concurrent.futures.ProcessPoolExecutor`,
and a batch that raises, hangs past its deadline or takes its worker
down with it is retried, skipped, quarantined or raised according to the
run's :class:`~repro.engine.policy.ExecutionPolicy`.  Results always
come back in the order the cells were given; pooled batches are consumed
strictly in submission order, which keeps the ``on_batch`` stream and
all telemetry merges deterministic regardless of worker scheduling.

A litmus batch takes well under a millisecond, less than a pool round
trip, so each future carries a run of consecutive batches — about four
futures per worker, at most 64 batches each — and returns one tagged
result per batch.  Chunks fall back to one batch where recovery needs
to know which batch a future held: when a deadline is armed (deadlines
are per batch) and while a broken pool's suspects are probed.  A caller
that makes many pooled calls, like a hunt's shards and its minimizer
rounds, passes one :class:`WorkerPool` to all of them, so the workers
start once per run; a crash or deadline kill replaces the pool's
executor in place.

Failure semantics are identical serial and pooled.  Worker failures are
translated, not propagated raw: a
:class:`~repro.core.axiomatic.DomainOverflowError` raised inside a batch
re-raises in the parent with the offending test's name, and any other
exception surfaces as an :class:`EngineWorkerError` naming the test —
carrying the formatted worker-side traceback when it crossed a process
boundary, or chaining the original exception via ``__cause__`` when it
happened in-process.  Under ``on_error=skip|quarantine`` the same
failures instead finalize as :class:`~repro.engine.policy.CellFailure`
sentinels occupying the failed cells' result slots.

Crashes and deadlines need a killable executor, which is why deadlines
route even ``jobs=1`` through a one-worker pool: a batch that exceeds
``policy.timeout`` has its whole pool killed (``engine.timeouts`` +
``engine.pool.restarts``) and innocent in-flight batches are re-submitted
on a fresh pool without consuming their retry budgets.  A worker death
surfaces as ``BrokenProcessPool``; since any in-flight batch could be
the culprit, the scheduler re-runs the in-flight window one batch at a
time on a fresh pool — the batch that breaks a pool it has to itself is
the crasher, and innocents are never blamed, so quarantine contents are
deterministic.  The :mod:`~repro.engine.faults` harness injects exactly
these failures on demand, keeping every recovery path under test.

Telemetry (:mod:`repro.obs`) crosses the pool boundary the same way the
errors do — as data: when a recorder is active each worker collects into
a private recorder and ships its :class:`~repro.obs.StatsSnapshot` back
inside the ``("ok", ...)`` tuple, and the parent merges them in
deterministic batch order, so ``--jobs N`` counter totals equal the
serial run exactly.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Callable, Optional, Sequence

from ..core.axiomatic import CandidatePrefix, DomainOverflowError
from ..litmus.test import LitmusTest
from ..obs import collecting, current, incr, monotonic, observe, time_block
from .cache import ResultCache, cell_cache_key
from .cells import CellResult, CellSpec, evaluate_cell
# Not called here; it stays importable because perfbench's traced runs wrap it.
from .cells import test_descriptor  # noqa: F401
from .faults import FaultPlan, fault_plan_from_env, fire_after_batch, fire_before_batch
from .policy import DEFAULT_POLICY, ON_ERROR_QUARANTINE, CellFailure, ExecutionPolicy

__all__ = ["EngineWorkerError", "WorkerPool", "evaluate_cells"]


class EngineWorkerError(RuntimeError):
    """A cell evaluation failed; carries the test name and the worker
    traceback.

    ``worker_traceback`` is the formatted traceback captured inside the
    worker process (empty when the failure happened in-process — there
    the original exception rides on ``__cause__`` instead); it is
    appended to the message so pool failures stay debuggable even though
    the original frames cannot cross the process boundary.
    """

    def __init__(
        self, test_name: str, message: str, worker_traceback: str = ""
    ) -> None:
        text = f"test {test_name!r}: {message}"
        if worker_traceback:
            text += "\n--- worker traceback ---\n" + worker_traceback.rstrip()
        super().__init__(text)
        self.test_name = test_name
        self.worker_traceback = worker_traceback


def _group_by_test(
    cells: Sequence[CellSpec],
) -> list[tuple[LitmusTest, list[int]]]:
    """Group cell indices by test content, preserving first-seen order.

    The key is the test's cached ``content_key``, so structurally
    identical duplicates share a prefix, and each test object is
    described once for grouping, cache keys and the pool's pickles.
    """
    groups: list[tuple[LitmusTest, list[int]]] = []
    by_key: dict[str, int] = {}
    for index, cell in enumerate(cells):
        slot = by_key.get(cell.test.content_key)
        if slot is None:
            groups.append((cell.test, []))
            slot = by_key[cell.test.content_key] = len(groups) - 1
        groups[slot][1].append(index)
    return groups


def _evaluate_batch(
    test: LitmusTest,
    cells: Sequence[CellSpec],
    cache_dir: Optional[str],
) -> list[CellResult]:
    """Evaluate one test's cells with a shared prefix, through the cache.

    The prefix is built lazily: a batch fully served from the cache never
    enumerates a single program run.  Each cell's cache key is computed
    once and serves both its lookup and its store; the batch's stores are
    committed together, in one transaction, when it finishes.
    """
    with time_block("engine.batch.seconds"):
        incr("engine.batches")
        observe("engine.batch.cells", len(cells))
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        prefix: Optional[CandidatePrefix] = None
        results: list[CellResult] = []
        with cache.batch() if cache is not None else nullcontext():
            for cell in cells:
                key = None
                if cache is not None:
                    key = cell_cache_key(cell)
                    cached = cache.load(cell, key)
                    if cached is not None:
                        results.append(cached)
                        continue
                if prefix is None:
                    prefix = CandidatePrefix(test)
                with time_block("engine.cell.seconds"):
                    result = evaluate_cell(cell, prefix)
                if cache is not None:
                    cache.store(cell, result, key)
                results.append(result)
        return results


def _run_batch_guts(
    batch_index: int,
    attempt: int,
    test: LitmusTest,
    cells: Sequence[CellSpec],
    cache_dir: Optional[str],
    fault_plan: Optional[FaultPlan],
    in_worker: bool,
) -> list[CellResult]:
    """Evaluate one batch with its planned faults fired around it.

    Pre-evaluation faults (raise/hang/crash) fire before the batch runs;
    the cache-corruption fault fires after the batch has stored its
    results.  With no plan armed this is exactly :func:`_evaluate_batch`.
    """
    if fault_plan:
        fire_before_batch(fault_plan, batch_index, test.name, attempt, in_worker)
    results = _evaluate_batch(test, cells, cache_dir)
    if fault_plan:
        fire_after_batch(fault_plan, batch_index, test.name, attempt, cells, cache_dir)
    return results


def _run_batch(payload: tuple) -> tuple:
    """Pool-side batch runner; returns a tagged result, never raises.

    Exceptions crossing a pool boundary lose their context and surface as
    opaque tracebacks, so errors travel back as data — tagged tuples
    carrying the test name, message and formatted worker traceback — and
    are translated by :func:`evaluate_cells`.  When the parent had stats
    collection on, the batch runs under a private recorder whose snapshot
    rides back in the ``("ok", results, snapshot)`` tuple.
    """
    batch_index, attempt, test, cells, cache_dir, collect_stats, fault_plan = payload
    try:
        if collect_stats:
            with collecting() as recorder:
                results = _run_batch_guts(
                    batch_index, attempt, test, cells, cache_dir, fault_plan, True
                )
                snapshot = recorder.snapshot()
            return ("ok", results, snapshot)
        results = _run_batch_guts(
            batch_index, attempt, test, cells, cache_dir, fault_plan, True
        )
        return ("ok", results, None)
    except DomainOverflowError as exc:
        return ("domain-overflow", test.name, str(exc))
    except Exception as exc:
        return (
            "error",
            test.name,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )


def _run_chunk(payloads: Sequence[tuple]) -> list[tuple]:
    """Pool-side runner for consecutive batches: one tagged tuple each.

    Each batch goes through :func:`_run_batch` (looked up as a module
    global, so a wrapped runner is honoured), which keeps errors,
    overflows and telemetry snapshots per batch.
    """
    return [_run_batch(payload) for payload in payloads]


def _chunk_size(batches: int, workers: int) -> int:
    """Batches per future: about four futures per worker, at most 64.

    One litmus test is a sub-millisecond batch, far below the pool's
    per-future round trip, so consecutive batches share a future; four
    per worker leave enough futures to balance uneven batch times.
    """
    return max(1, min(64, batches // (4 * workers)))


def _backoff_sleep(policy: ExecutionPolicy, attempt: int) -> None:
    """Sleep before retry ``attempt`` (>= 2): ``backoff * 2**(attempt-2)``."""
    if policy.backoff <= 0:
        return
    time.sleep(policy.backoff * (2 ** (attempt - 2)))


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: SIGKILL its workers, abandon its futures.

    A hung batch never exits voluntarily, so a deadline kill cannot wait
    for workers; ``Process.kill`` plus a no-wait shutdown is the only
    teardown that is guaranteed to return.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, ValueError):
            pass
    executor.shutdown(wait=False, cancel_futures=True)


class WorkerPool:
    """A process pool shared by every pooled :func:`evaluate_cells` call
    of one run.

    The executor starts on first use, so a run whose calls all stay
    serial never forks.  A deadline kill or a crash restart replaces it
    in place (:meth:`kill`; the next use starts a fresh one), and
    :meth:`close` — also the context-manager exit — shuts it down and
    joins its workers, so none outlives the run.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(workers, 1)
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, started (or restarted) on demand."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def kill(self) -> None:
        """Kill the workers and drop the executor (see :func:`_kill_executor`)."""
        if self._executor is not None:
            _kill_executor(self._executor)
            self._executor = None

    def close(self) -> None:
        """Shut the executor down and join its workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def evaluate_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_batch: Optional[Callable[[LitmusTest, Sequence[CellResult]], None]] = None,
    policy: Optional[ExecutionPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    on_stall: Optional[Callable[[LitmusTest, float], None]] = None,
    stall_after: float = 30.0,
    pool: Optional[WorkerPool] = None,
) -> list[CellResult]:
    """Evaluate a cell grid; results are ordered exactly like ``cells``.

    ``jobs=1`` (the default) runs everything in-process — no pool, no
    pickling, behaviour identical to the serial seed path.  ``jobs > 1``
    fans per-test batches out over a process pool; a ``policy`` with a
    deadline routes even ``jobs=1`` through a one-worker pool, because
    only a pool can be killed out from under a hung batch.  That pool is
    ``pool`` when the caller keeps one :class:`WorkerPool` for a whole
    run (this call leaves it open), else a private one shut down before
    returning.  With ``cache_dir`` set, results are served from /
    persisted to the on-disk :class:`~repro.engine.cache.ResultCache`.

    ``policy`` (default :data:`~repro.engine.policy.DEFAULT_POLICY`)
    decides what failed batches become: exceptions (``fail``), inline
    :class:`~repro.engine.policy.CellFailure` sentinels (``skip``), or
    counted-and-reported sentinels (``quarantine``) — after ``retries``
    re-submissions with exponential backoff.  ``fault_plan`` arms the
    deterministic fault-injection harness (defaults to the plan in the
    ``REPRO_FAULTS`` environment variable, normally empty).

    ``on_batch`` is the streaming hook long-running drivers (the campaign
    runner, progress reporting) plug into: it is called once per per-test
    batch, in deterministic first-seen test order, with the test and its
    cell results — in pooled mode as soon as each batch's turn in the
    order arrives, so a caller can checkpoint or log without waiting for
    the whole grid.  Batches finalized as failures under
    ``skip``/``quarantine`` reach the hook as lists of ``CellFailure``;
    under ``fail`` the failure raises when its turn comes and later
    batches are abandoned.  ``on_stall`` (pooled only) is called with the
    pending test and seconds waited every ``stall_after`` seconds spent
    waiting on one batch, so hung runs are visible before any deadline
    fires.
    """
    cells = list(cells)
    if not cells:
        return []
    if policy is None:
        policy = DEFAULT_POLICY
    plan = fault_plan if fault_plan is not None else fault_plan_from_env()
    recorder = current()
    recorder.incr("engine.cells.requested", len(cells))
    if cache_dir is not None:
        # Open the cache in the parent: a bad path fails here with a plain
        # OSError, not as a worker error, and the database is in WAL mode
        # before any worker opens it.
        ResultCache(cache_dir)
    groups = _group_by_test(cells)
    results: list[Optional[CellResult]] = [None] * len(cells)

    def _accept(slot: int, batch_results: Sequence[CellResult]) -> None:
        test, indices = groups[slot]
        for index, result in zip(indices, batch_results):
            results[index] = result
        if on_batch is not None:
            on_batch(test, list(batch_results))

    def _finalize_failure(
        slot: int,
        reason: str,
        message: str,
        worker_tb: str,
        attempt: int,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Spend a batch's last attempt: raise (``fail``) or place sentinels."""
        test, indices = groups[slot]
        if policy.raises:
            if reason == "domain-overflow":
                error: Exception = DomainOverflowError(f"test {test.name!r}: {message}")
            else:
                # In-process failures chain the live exception; the
                # traceback text is only attached when the frames could
                # not cross a process boundary.
                error = EngineWorkerError(
                    test.name, message, "" if cause is not None else worker_tb
                )
            if cause is not None:
                raise error from cause
            raise error
        if policy.on_error == ON_ERROR_QUARANTINE:
            incr("engine.batches.quarantined")
        failure = CellFailure(
            test_name=test.name,
            reason=reason,
            message=message,
            traceback=worker_tb,
            attempts=attempt,
        )
        for index in indices:
            results[index] = failure
        if on_batch is not None:
            on_batch(test, [failure] * len(indices))

    use_pool = (jobs > 1 and len(groups) > 1) or policy.needs_pool
    with time_block("engine.wall.seconds"):
        if not use_pool:
            _evaluate_serial(groups, cells, cache_dir, policy, plan, _accept, _finalize_failure)
        else:
            _evaluate_pooled(
                groups,
                cells,
                cache_dir,
                pool,
                jobs,
                policy,
                plan,
                recorder,
                on_stall,
                stall_after,
                _accept,
                _finalize_failure,
            )
    return results


def _evaluate_serial(
    groups: list[tuple[LitmusTest, list[int]]],
    cells: Sequence[CellSpec],
    cache_dir: Optional[str],
    policy: ExecutionPolicy,
    plan: FaultPlan,
    accept: Callable,
    finalize_failure: Callable,
) -> None:
    """In-process evaluation: same policy semantics, no pool, no pickling.

    Instrumentation records straight into the parent recorder — the same
    code paths the workers run, which is what makes serial and pooled
    counter totals identical.  Failures keep their original exception
    objects, so ``fail`` mode raises with ``__cause__`` chained.
    """
    for slot, (test, indices) in enumerate(groups):
        batch = [cells[i] for i in indices]
        attempt = 1
        while True:
            try:
                batch_results = _run_batch_guts(
                    slot, attempt, test, batch, cache_dir, plan, False
                )
            except DomainOverflowError as exc:
                # Deterministic: retrying an overflow can only overflow.
                finalize_failure(slot, "domain-overflow", str(exc), "", attempt, exc)
                break
            except Exception as exc:
                if attempt <= policy.retries:
                    incr("engine.retries")
                    attempt += 1
                    _backoff_sleep(policy, attempt)
                    continue
                finalize_failure(
                    slot,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                    attempt,
                    exc,
                )
                break
            accept(slot, batch_results)
            break


def _evaluate_pooled(
    groups: list[tuple[LitmusTest, list[int]]],
    cells: Sequence[CellSpec],
    cache_dir: Optional[str],
    pool: Optional[WorkerPool],
    jobs: int,
    policy: ExecutionPolicy,
    plan: FaultPlan,
    recorder,
    on_stall: Optional[Callable[[LitmusTest, float], None]],
    stall_after: float,
    accept: Callable,
    finalize_failure: Callable,
) -> None:
    """Pooled evaluation: chunked futures, deadlines, recovery.

    Each future carries a run of consecutive batches (see
    :func:`_chunk_size`) and comes back as one tagged tuple per batch;
    batches are consumed strictly in submission order (deterministic
    ``on_batch`` stream and telemetry merges), so a chunk's later batches
    wait in ``ready`` while an earlier one is retried.  Chunks hold one
    batch when a deadline is armed — deadlines are per batch — and inside
    the crash-probe window.  The in-flight window counts futures: with a
    deadline it equals the worker count, so every submitted future is
    genuinely running and elapsed-since-submission is its runtime;
    without one it is ``2 * workers`` — enough queued work to keep
    workers busy across uneven chunk times.

    Recovery events:

    * deadline exceeded — the pool is killed (a hung worker cannot be
      joined), the batch's retry budget is consulted, and innocent
      in-flight batches are re-submitted on a fresh pool with their
      attempt counts untouched;
    * ``BrokenProcessPool`` — any in-flight batch may have killed the
      worker, so the whole window re-runs one batch at a time on fresh
      pools; the batch that breaks a pool it has to itself is the
      culprit and is charged an attempt, the rest are exonerated;
    * ``"error"`` — the batch alone is re-submitted for its retries, on
      the same (healthy) pool.
    """
    owned = pool is None
    if owned:
        pool = WorkerPool(min(max(jobs, 1), len(groups)))
    workers = pool.workers
    window_cap = workers if policy.needs_pool else 2 * workers
    chunk = 1 if policy.needs_pool else _chunk_size(len(groups), workers)
    total = len(groups)
    attempts = [1] * total
    inflight: dict[int, tuple] = {}  # first slot -> (future, submitted)
    ready: dict[int, tuple] = {}  # slot -> its tagged outcome, not yet consumed
    position = 0
    next_submit = 0
    serial_until = 0

    def _submit(start: int, end: int) -> None:
        payloads = [
            (
                slot,
                attempts[slot],
                groups[slot][0],
                [cells[i] for i in groups[slot][1]],
                cache_dir,
                recorder.active,
                plan,
            )
            for slot in range(start, end)
        ]
        future = pool.executor().submit(_run_chunk, payloads)
        inflight[start] = (future, monotonic())

    def _fill_window() -> None:
        """Submit chunks until the window is full; stop on a broken pool."""
        nonlocal next_submit
        window = 1 if position < serial_until else window_cap
        while next_submit < total and len(inflight) < window:
            size = 1 if next_submit < serial_until else chunk
            end = min(next_submit + size, total)
            try:
                _submit(next_submit, end)
            except BrokenProcessPool:
                # A worker died since the last result; the in-flight
                # future that killed it reports the break when its turn
                # comes (or the wait below does, if none is left).
                return
            next_submit = end

    def _restart_pool() -> None:
        """Kill the pool and put every unconsumed batch back in the queue."""
        nonlocal next_submit
        incr("engine.pool.restarts")
        pool.kill()
        inflight.clear()
        ready.clear()
        next_submit = position

    def _charge(reason: str, message: str) -> None:
        """Spend one of the head batch's attempts on a kill or a crash."""
        nonlocal position, next_submit
        if attempts[position] <= policy.retries:
            incr("engine.retries")
            attempts[position] += 1
            _backoff_sleep(policy, attempts[position])
        else:
            finalize_failure(position, reason, message, "", attempts[position])
            position += 1
            next_submit = position

    try:
        while position < total:
            _fill_window()
            outcome = ready.pop(position, None)
            event: Optional[str] = None
            if outcome is None:
                event, outcomes = _await_chunk(
                    inflight.get(position), groups[position][0], policy,
                    on_stall, stall_after,
                )
                if event is None:
                    del inflight[position]
                    ready.update(enumerate(outcomes, start=position))
                    outcome = ready.pop(position)

            if event == "timeout":
                incr("engine.timeouts")
                _restart_pool()
                _charge("timeout", f"batch exceeded the {policy.timeout:g}s deadline")
                continue

            if event == "broken":
                suspects = next_submit - position
                _restart_pool()
                if suspects > 1:
                    # Any of the in-flight batches may be the crasher;
                    # probe them one at a time, no attempts charged yet.
                    serial_until = position + suspects
                elif suspects == 1:
                    _charge("crash", "worker process died mid-batch (pool broken)")
                continue

            tag = outcome[0]
            if tag == "ok":
                if outcome[2] is not None:
                    recorder.merge(outcome[2])
                accept(position, outcome[1])
                position += 1
            elif tag == "domain-overflow":
                finalize_failure(position, "domain-overflow", outcome[2], "", attempts[position])
                position += 1
            else:  # "error"
                _, _test_name, message, worker_tb = outcome
                if attempts[position] <= policy.retries:
                    incr("engine.retries")
                    attempts[position] += 1
                    _backoff_sleep(policy, attempts[position])
                    try:
                        _submit(position, position + 1)  # the worker is healthy
                    except BrokenProcessPool:
                        _restart_pool()  # re-queues this batch and the rest
                else:
                    finalize_failure(
                        position, "error", message, worker_tb, attempts[position]
                    )
                    position += 1
    except BaseException:
        pool.kill()
        raise
    if owned:
        pool.close()


def _await_chunk(
    entry: Optional[tuple],
    test: LitmusTest,
    policy: ExecutionPolicy,
    on_stall: Optional[Callable[[LitmusTest, float], None]],
    stall_after: float,
) -> tuple[Optional[str], list]:
    """Wait for the head chunk: ``(None, outcomes)``, ``("timeout", [])``
    or ``("broken", [])``.

    ``entry`` is ``None`` when the head chunk could not be submitted
    because the pool was already broken.  ``test`` (the head batch's) is
    what ``on_stall`` reports every ``stall_after`` seconds of waiting.
    """
    if entry is None:
        return "broken", []
    future, submitted = entry
    stalls_fired = 0
    while True:
        waited = monotonic() - submitted
        step: Optional[float] = None
        if policy.timeout is not None:
            remaining = policy.timeout - waited
            if remaining <= 0 and not future.done():
                return "timeout", []
            step = max(remaining, 0.0)
        if on_stall is not None and stall_after > 0:
            to_stall = stall_after * (stalls_fired + 1) - waited
            if to_stall <= 0:
                stalls_fired += 1
                on_stall(test, waited)
                continue
            step = to_stall if step is None else min(step, to_stall)
        try:
            return None, future.result(timeout=step)
        except FutureTimeout:
            continue
        except BrokenProcessPool:
            return "broken", []
