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

With a cache directory the parent owns every cache access
(:class:`_CacheLedger`): it keys each cell, answers hits with bulk
lookups before anything runs, and hands each batch its answers in place
of a cache, so a worker computes only the misses and never opens the
database.  A batch the cache answers in full runs in the parent when its
turn comes, so a fully warm call never starts a worker; only with a
deadline armed does it go to the pool, so that an injected ``hang`` or
``crash`` aimed at it stays killable.  Settled batches' computed rows
are committed by the parent, one transaction per
:data:`_COMMIT_EVERY` settled batches, at the end of the call and before
a failure is re-raised (a failing commit then leaves the run's own error
the one raised).

Failure semantics are identical serial and pooled because they are
written once: both modes run each batch through one runner,
:func:`_run_batch`, which turns its outcome into a tagged tuple, and
apply every tuple through one settle step that owns retries
(``retries`` more attempts, sleeping :data:`RETRY_BACKOFF` seconds
doubled per attempt), overflows and ``fail``/``skip``/``quarantine``.
Failures are translated, not propagated raw: a
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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from ..core.axiomatic import CandidatePrefix, DomainOverflowError
from ..litmus.test import LitmusTest
from ..obs import collecting, current, incr, monotonic, observe, time_block
from .cache import (
    CellKeyer,
    ResultCache,
    count_lookup,
    decode_payload,
    encode_payload,
)
from .cells import CellResult, CellSpec, Explorations, evaluate_cell
# Not called here; it stays importable because perfbench's traced runs wrap it.
from .cells import test_descriptor  # noqa: F401
from .faults import FaultPlan, fault_plan_from_env, fire_after_commit, fire_before_batch
from .policy import DEFAULT_POLICY, ON_ERROR_QUARANTINE, CellFailure, ExecutionPolicy

__all__ = [
    "RETRY_BACKOFF",
    "STALL_AFTER",
    "EngineWorkerError",
    "WorkerPool",
    "evaluate_cells",
]

RETRY_BACKOFF = 0.1
"""Seconds slept before a batch's first retry; each later retry waits
twice as long as the one before."""

STALL_AFTER = 30.0
"""Seconds one pending batch may wait before ``on_stall`` fires (and the
campaign heartbeat flags the gap as stalled)."""

_CHUNK_CAP = 64
"""Most batches per pool future."""


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


@dataclass(frozen=True)
class _Repeat:
    """The answer for a batch cell whose cache key repeats an earlier
    cell's in the same batch: it takes the result at ``index``."""

    index: int


Answer = Union[CellResult, _Repeat, None]
"""What the parent knows of a batch cell before dispatch: its cached
result, a :class:`_Repeat`, or ``None`` (compute it)."""


def _evaluate_batch(
    test: LitmusTest,
    cells: Sequence[CellSpec],
    answers: Optional[Sequence[Answer]],
) -> list[CellResult]:
    """Evaluate one test's cells with a shared prefix.

    ``answers`` (``None`` without a cache) holds what the parent's cache
    lookup found, one entry per cell; only the ``None`` entries are
    computed.  The per-test state the computed cells share is built
    lazily: the prefix, and the batch's GAM/GAM0 explorations (one
    variant's run answers the other's cells when it met no same-address
    load pair).  A batch the cache answers in full never enumerates a
    single program run.
    """
    with time_block("engine.batch.seconds"):
        incr("engine.batches")
        observe("engine.batch.cells", len(cells))
        prefix: Optional[CandidatePrefix] = None
        explorations: Explorations = {}
        results: list[CellResult] = []
        for position, cell in enumerate(cells):
            answer = answers[position] if answers is not None else None
            if isinstance(answer, _Repeat):
                results.append(results[answer.index])
                continue
            if answer is not None:
                results.append(answer)
                continue
            if prefix is None:
                prefix = CandidatePrefix(test)
            with time_block("engine.cell.seconds"):
                results.append(evaluate_cell(cell, prefix, explorations))
        return results


def _run_batch(payload: tuple) -> tuple:
    """Run one batch with its planned faults; returns a tagged outcome,
    never raises.

    Serial and pooled evaluation both run every batch through here, as
    do the batches a pooled call settles in the parent because the cache
    answered them in full.  Pre-evaluation faults (raise/hang/crash)
    fire before the batch runs; the cache-corruption fault fires in the
    parent, after the commit that holds the batch.  An exception
    crossing a pool boundary loses its context, so errors travel back as
    data — tagged tuples carrying the test name, message and formatted
    traceback, plus the live exception when the batch ran in-process
    (``None`` in a worker) — and are settled by :func:`evaluate_cells`.
    When the parent collects stats from a pool, the batch runs under a
    private recorder whose snapshot rides back in the
    ``("ok", results, snapshot)`` tuple; in-process batches record
    straight into the parent's recorder and ship ``None``.
    """
    batch_index, attempt, test, cells, answers, collect_stats, plan, in_worker = payload
    try:
        with collecting() if collect_stats else nullcontext() as recorder:
            if plan:
                fire_before_batch(plan, batch_index, test.name, attempt, in_worker)
            results = _evaluate_batch(test, cells, answers)
            snapshot = recorder.snapshot() if recorder is not None else None
        return ("ok", results, snapshot)
    except DomainOverflowError as exc:
        return ("domain-overflow", test.name, str(exc), None if in_worker else exc)
    except Exception as exc:
        return (
            "error",
            test.name,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
            None if in_worker else exc,
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
    return max(1, min(_CHUNK_CAP, batches // (4 * workers)))


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


_COMMIT_EVERY = 64
"""Settled batches per cache commit: the most settled batches whose rows
a killed run can lose."""


class _CacheLedger:
    """The parent's side of the result cache for one :func:`evaluate_cells`
    call.

    Opening it keys every cell and answers the hits with bulk lookups,
    so each batch carries its answers to wherever it runs.  As batches
    settle it counts their lookups, encodes the rows they computed and
    commits them :data:`_COMMIT_EVERY` settled batches at a time; the
    caller commits the rest at the end of the call, or before it
    re-raises a failure.  Planned ``corrupt`` faults fire after the
    commit that holds their batch.
    """

    def __init__(
        self,
        cache: ResultCache,
        cells: Sequence[CellSpec],
        groups: Sequence[tuple[LitmusTest, list[int]]],
        plan: FaultPlan,
    ) -> None:
        self.cache = cache
        self.plan = plan
        self._cells = cells
        self._groups = groups
        keyer = CellKeyer()
        keys = [keyer.key(cell) for cell in cells]
        found = cache.lookup(list(dict.fromkeys(keys)))
        self.keys: list[list[str]] = []
        self.answers: list[list[Answer]] = []
        self.lookups: list[list[str]] = []
        for _, indices in groups:
            batch_keys = [keys[index] for index in indices]
            answers: list[Answer] = []
            lookups: list[str] = []
            first: dict[str, int] = {}
            for position, (index, key) in enumerate(zip(indices, batch_keys)):
                if key in first:
                    answers.append(_Repeat(first[key]))
                    lookups.append("hit")
                    continue
                first[key] = position
                text = found.get(key)
                result = None if text is None else decode_payload(cells[index], text)
                answers.append(result)
                if result is not None:
                    lookups.append("hit")
                else:
                    lookups.append("miss" if text is None else "stale")
            self.keys.append(batch_keys)
            self.answers.append(answers)
            self.lookups.append(lookups)
        self._rows: list[tuple[str, str]] = []
        self._corrupt: list[tuple[int, str, int, str]] = []
        self._settled = 0

    def answered(self, slot: int) -> bool:
        """Whether the cache holds every result of the batch at ``slot``."""
        return None not in self.answers[slot]

    def settle(self, slot: int, results: Sequence[CellResult], attempt: int) -> None:
        """Count a settled batch's lookups and queue the rows it computed."""
        test, indices = self._groups[slot]
        for index, key, answer, lookup, result in zip(
            indices, self.keys[slot], self.answers[slot], self.lookups[slot], results
        ):
            cell = self._cells[index]
            count_lookup(cell, lookup)
            if answer is None:
                incr("engine.cache.store")
                self._rows.append((key, encode_payload(cell, result)))
        if self.plan:
            self._corrupt.append((slot, test.name, attempt, self.keys[slot][0]))
        self._settled += 1
        if self._settled >= _COMMIT_EVERY:
            self.commit()

    def commit(self) -> None:
        """Write the queued rows in one transaction, then fire the
        ``corrupt`` faults of the batches it held."""
        rows, self._rows = self._rows, []
        corrupt, self._corrupt = self._corrupt, []
        self._settled = 0
        if rows:
            self.cache.write_rows(rows)
        for slot, name, attempt, key in corrupt:
            fire_after_commit(self.plan, slot, name, attempt, self.cache, key)


def evaluate_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    on_batch: Optional[Callable[[LitmusTest, Sequence[CellResult]], None]] = None,
    policy: Optional[ExecutionPolicy] = None,
    on_stall: Optional[Callable[[LitmusTest, float], None]] = None,
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
    persisted to the on-disk :class:`~repro.engine.cache.ResultCache`,
    by this process alone (see :class:`_CacheLedger`): batches the cache
    answers in full run in-process unless a deadline is armed, and only
    batches with a miss are dispatched to workers, so a fully warm call
    never starts a pool.

    ``policy`` (default :data:`~repro.engine.policy.DEFAULT_POLICY`)
    decides what failed batches become: exceptions (``fail``), inline
    :class:`~repro.engine.policy.CellFailure` sentinels (``skip``), or
    counted-and-reported sentinels (``quarantine``) — after ``retries``
    re-submissions with exponential backoff (:data:`RETRY_BACKOFF`).
    The fault-injection harness arms the plan in the ``REPRO_FAULTS``
    environment variable (normally empty), read once per call.

    ``on_batch`` is the streaming hook long-running drivers (the campaign
    runner, progress reporting) plug into: it is called once per per-test
    batch, in deterministic first-seen test order, with the test and its
    cell results — as soon as each batch's turn in the order arrives, so
    a caller can checkpoint or log without waiting for the whole grid.
    Batches finalized as failures under ``skip``/``quarantine`` reach the
    hook as lists of ``CellFailure``; under ``fail`` the failure raises
    when its turn comes and later batches are abandoned.  ``on_stall``
    (pooled only) is called with the pending test and seconds waited
    every :data:`STALL_AFTER` seconds spent waiting on one batch, so hung
    runs are visible before any deadline fires.
    """
    cells = list(cells)
    if not cells:
        return []
    if policy is None:
        policy = DEFAULT_POLICY
    plan = fault_plan_from_env()
    recorder = current()
    recorder.incr("engine.cells.requested", len(cells))
    groups = _group_by_test(cells)
    # Opening the cache here makes a bad path fail with a plain OSError.
    ledger = (
        _CacheLedger(ResultCache(cache_dir), cells, groups, plan)
        if cache_dir is not None
        else None
    )
    results: list[Optional[CellResult]] = [None] * len(cells)
    attempts = [1] * len(groups)
    # Slots a pool runs, in order; the rest, which the cache answers in
    # full, run in-process when their turn comes.  Such a batch computes
    # nothing, so only an injected hang or crash can stall it; a deadline
    # still sends it to the pool so the fault harness can kill it.
    remote = [
        slot
        for slot in range(len(groups))
        if ledger is None or policy.needs_pool or not ledger.answered(slot)
    ]
    use_pool = (jobs > 1 and len(remote) > 1) or policy.needs_pool
    in_worker = [False] * len(groups)
    if use_pool:
        for slot in remote:
            in_worker[slot] = True

    def payload(slot: int) -> tuple:
        """The :func:`_run_batch` payload for a batch's current attempt."""
        test, indices = groups[slot]
        batch = [cells[i] for i in indices]
        answers = ledger.answers[slot] if ledger is not None else None
        return (
            slot,
            attempts[slot],
            test,
            batch,
            answers,
            recorder.active and in_worker[slot],
            plan,
            in_worker[slot],
        )

    def retry(slot: int) -> bool:
        """Spend one retry on a batch, backing off; False when none is left."""
        if attempts[slot] > policy.retries:
            return False
        incr("engine.retries")
        attempts[slot] += 1
        if RETRY_BACKOFF > 0:
            time.sleep(RETRY_BACKOFF * 2 ** (attempts[slot] - 2))
        return True

    def finalize(
        slot: int,
        reason: str,
        message: str,
        worker_tb: str = "",
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
            raise error from cause
        if policy.on_error == ON_ERROR_QUARANTINE:
            incr("engine.batches.quarantined")
        failure = CellFailure(
            test_name=test.name,
            reason=reason,
            message=message,
            traceback=worker_tb,
            attempts=attempts[slot],
        )
        for index in indices:
            results[index] = failure
        if on_batch is not None:
            on_batch(test, [failure] * len(indices))

    def settle(slot: int, outcome: tuple) -> bool:
        """Apply a batch's tagged outcome; False when it must run again."""
        tag = outcome[0]
        if tag == "ok":
            if outcome[2] is not None:
                recorder.merge(outcome[2])
            test, indices = groups[slot]
            for index, result in zip(indices, outcome[1]):
                results[index] = result
            if ledger is not None:
                ledger.settle(slot, outcome[1], attempts[slot])
            if on_batch is not None:
                on_batch(test, list(outcome[1]))
        elif tag == "domain-overflow":
            # Deterministic: retrying an overflow can only overflow.
            finalize(slot, tag, outcome[2], "", outcome[3])
        elif retry(slot):
            return False
        else:  # "error", retries spent
            finalize(slot, tag, outcome[2], outcome[3], outcome[4])
        return True

    settled_in_process = 0

    def run_in_process(until: int) -> None:
        """Run and settle, in order, the in-process batches before slot
        ``until`` that have not run yet."""
        nonlocal settled_in_process
        for slot in range(settled_in_process, until):
            if not in_worker[slot]:
                while not settle(slot, _run_batch(payload(slot))):
                    pass
        settled_in_process = max(settled_in_process, until)

    failure: Optional[BaseException] = None
    try:
        with time_block("engine.wall.seconds"):
            if use_pool:
                _evaluate_pooled(
                    groups,
                    remote,
                    pool,
                    jobs,
                    policy,
                    on_stall,
                    payload,
                    retry,
                    finalize,
                    settle,
                    run_in_process,
                )
            run_in_process(len(groups))
    except BaseException as error:
        failure = error
        raise
    finally:
        if ledger is not None:
            try:
                ledger.commit()
            except Exception as error:
                # The run's own failure stays the one raised.
                if failure is None:
                    raise
                _add_note(failure, f"the cache commit failed too: {error!r}")
    return results


def _add_note(error: BaseException, text: str) -> None:
    """Attach ``text`` to ``error`` (``add_note`` exists from Python 3.11)."""
    add_note = getattr(error, "add_note", None)
    if add_note is not None:
        add_note(text)


def _evaluate_pooled(
    groups: list[tuple[LitmusTest, list[int]]],
    order: Sequence[int],
    pool: Optional[WorkerPool],
    jobs: int,
    policy: ExecutionPolicy,
    on_stall: Optional[Callable[[LitmusTest, float], None]],
    payload: Callable[[int], tuple],
    retry: Callable[[int], bool],
    finalize: Callable[..., None],
    settle: Callable[[int, tuple], bool],
    run_in_process: Callable[[int], None],
) -> None:
    """Pooled evaluation: chunked futures, deadlines, recovery.

    ``order`` lists the slots of the batches the pool runs, ascending;
    positions below index it.  Before the head batch is consumed,
    ``run_in_process`` settles the batches between it and the previous
    one that run in the parent (those the cache answered in full), so
    the ``on_batch`` stream keeps slot order.  Batch outcomes go through
    the same ``payload``/``retry``/``finalize``/``settle`` helpers as
    the serial loop in :func:`evaluate_cells`; this loop only adds what
    a pool needs.  Each future carries a run of consecutive batches (see
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
    * a settled ``"error"`` that has retries left — the batch alone is
      re-submitted, on the same (healthy) pool.
    """
    owned = pool is None
    if owned:
        pool = WorkerPool(min(max(jobs, 1), len(order)))
    workers = pool.workers
    window_cap = workers if policy.needs_pool else 2 * workers
    chunk = 1 if policy.needs_pool else _chunk_size(len(order), workers)
    total = len(order)
    inflight: dict[int, tuple] = {}  # first position -> (future, submitted)
    ready: dict[int, tuple] = {}  # position -> its tagged outcome, not yet consumed
    position = 0
    next_submit = 0
    serial_until = 0

    def _submit(start: int, end: int) -> None:
        payloads = [payload(order[index]) for index in range(start, end)]
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
        if not retry(order[position]):
            finalize(order[position], reason, message)
            position += 1
            next_submit = position

    try:
        while position < total:
            _fill_window()
            slot = order[position]
            run_in_process(slot)
            outcome = ready.pop(position, None)
            event: Optional[str] = None
            if outcome is None:
                event, outcomes = _await_chunk(
                    inflight.get(position), groups[slot][0], policy, on_stall
                )
                if event is None:
                    del inflight[position]
                    ready.update(enumerate(outcomes, start=position))
                    outcome = ready.pop(position)

            if event == "timeout":
                incr("engine.timeouts")
                _restart_pool()
                _charge("timeout", f"batch exceeded the {policy.timeout:g}s deadline")
            elif event == "broken":
                suspects = next_submit - position
                _restart_pool()
                if suspects > 1:
                    # Any of the in-flight batches may be the crasher;
                    # probe them one at a time, no attempts charged yet.
                    serial_until = position + suspects
                elif suspects == 1:
                    _charge("crash", "worker process died mid-batch (pool broken)")
            elif settle(slot, outcome):
                position += 1
            else:
                try:
                    _submit(position, position + 1)  # the worker is healthy
                except BrokenProcessPool:
                    _restart_pool()  # re-queues this batch and the rest
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
) -> tuple[Optional[str], list]:
    """Wait for the head chunk: ``(None, outcomes)``, ``("timeout", [])``
    or ``("broken", [])``.

    ``entry`` is ``None`` when the head chunk could not be submitted
    because the pool was already broken.  ``test`` (the head batch's) is
    what ``on_stall`` reports every :data:`STALL_AFTER` seconds of waiting.
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
        if on_stall is not None and STALL_AFTER > 0:
            to_stall = STALL_AFTER * (stalls_fired + 1) - waited
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
