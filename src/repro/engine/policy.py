"""Execution policies: deadlines, retries and failure modes for the engine.

The scheduler's historical contract — any worker failure aborts the whole
``evaluate_cells`` call — is the right default for correctness harnesses
(a verdict matrix with a hole is not the paper's matrix), but it is fatal
for long-running campaigns: one poison test, one pathological DP blowup
or one OOM-killed worker should not throw away hours of hunt progress.
:class:`ExecutionPolicy` makes the failure semantics a caller choice:

* ``on_error="fail"`` (the default) — today's behaviour: the first batch
  failure raises (:class:`~repro.engine.scheduler.EngineWorkerError`, or
  :class:`~repro.core.axiomatic.DomainOverflowError` for overflow), after
  the retry budget is spent.
* ``on_error="skip"`` — failed batches resolve to :class:`CellFailure`
  sentinels in the result list; surviving cells are unaffected.
  Campaign drivers persist each failure to ``quarantine.json`` so
  skipped work is reported, never silently dropped.
* ``on_error="quarantine"`` — the same as ``skip``, and each failed
  batch is also counted as ``engine.batches.quarantined``.  Results,
  reports and ``quarantine.json`` are identical under the two modes.

``timeout`` is a per-batch deadline in seconds.  Deadlines need a
killable executor, so setting one routes even ``jobs=1`` runs through a
one-worker process pool (the in-process path cannot interrupt a hung
DP).  ``retries`` re-submits a failed or timed-out batch up to N more
times with exponential backoff (the scheduler's
:data:`~repro.engine.scheduler.RETRY_BACKOFF`, 0.1s, doubled per
attempt), which rides out transient failures (an OOM-killed worker, a
flaky filesystem) without giving up on the batch.

Policies are small frozen dataclasses, picklable by construction, so
they can ride inside campaign metadata and cross process boundaries.
Everything here is validated eagerly: a typo'd mode fails at
construction, not mid-campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ON_ERROR_FAIL",
    "ON_ERROR_SKIP",
    "ON_ERROR_QUARANTINE",
    "ON_ERROR_MODES",
    "FAILURE_REASONS",
    "ExecutionPolicy",
    "DEFAULT_POLICY",
    "CellFailure",
]

ON_ERROR_FAIL = "fail"
"""Raise on the first failed batch once retries are spent (the default)."""

ON_ERROR_SKIP = "skip"
"""Resolve failed batches to :class:`CellFailure` sentinels and continue."""

ON_ERROR_QUARANTINE = "quarantine"
"""Like ``skip``, and each failed batch is counted in the telemetry."""

ON_ERROR_MODES: dict[str, str] = {
    ON_ERROR_FAIL: (
        "raise on the first failed batch once the retry budget is spent "
        "(`EngineWorkerError`, or `DomainOverflowError` for overflow) — "
        "the historical behaviour and the default"
    ),
    ON_ERROR_SKIP: (
        "resolve every cell of a failed batch to a `CellFailure` sentinel "
        "and keep evaluating; callers render the holes, and campaign "
        "drivers persist the failure record (reason, message, traceback, "
        "attempt count) to `quarantine.json`"
    ),
    ON_ERROR_QUARANTINE: (
        "exactly `skip`, and the batch is also counted as "
        "`engine.batches.quarantined`; results, reports and "
        "`quarantine.json` do not differ between the two modes"
    ),
}
"""The ``on_error`` vocabulary, rendered into ``docs/robustness.md``."""

FAILURE_REASONS: dict[str, str] = {
    "error": "an exception escaped the batch (worker-side or in-process)",
    "timeout": "the batch exceeded the per-batch deadline and its pool was killed",
    "crash": "the worker process died mid-batch (SIGKILL, OOM, segfault)",
    "domain-overflow": (
        "the test's value domain overflowed the enumerator "
        "(deterministic, never retried)"
    ),
}
"""Tagged reasons a :class:`CellFailure` (or quarantine record) can carry."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the scheduler treats slow, failing and crashing batches.

    Attributes:
        timeout: per-batch deadline in seconds (``None`` disables; a
            deadline routes execution through a killable process pool
            even at ``jobs=1``).
        retries: how many times a failed or timed-out batch is
            re-submitted before its failure is finalized (total attempts
            = ``retries + 1``).  Domain overflows are deterministic and
            never retried.
        on_error: one of :data:`ON_ERROR_MODES` — raise, skip, or
            quarantine.
    """

    timeout: Optional[float] = None
    retries: int = 0
    on_error: str = ON_ERROR_FAIL

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error mode {self.on_error!r}; expected one of "
                f"{', '.join(sorted(ON_ERROR_MODES))}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def needs_pool(self) -> bool:
        """True when this policy requires a killable (pooled) executor."""
        return self.timeout is not None

    @property
    def raises(self) -> bool:
        """True when finalized failures raise instead of yielding sentinels."""
        return self.on_error == ON_ERROR_FAIL


DEFAULT_POLICY = ExecutionPolicy()
"""The no-deadline, no-retry, raise-on-error policy (seed behaviour)."""


@dataclass(frozen=True)
class CellFailure:
    """The sentinel a failed cell resolves to under ``skip``/``quarantine``.

    One instance stands in for every cell of the failed batch (batches
    are the failure domain: a crash or deadline kill loses the whole
    per-test batch).  Callers distinguish results from failures with
    ``isinstance(result, CellFailure)``.

    Attributes:
        test_name: the batch's litmus test.
        reason: a :data:`FAILURE_REASONS` tag (``error`` / ``timeout`` /
            ``crash`` / ``domain-overflow``).
        message: one-line human-readable failure description.
        traceback: worker-side formatted traceback when one was captured
            (empty for timeouts, crashes and in-process failures, whose
            context lives on ``__cause__`` chains or nowhere at all).
        attempts: how many times the batch was attempted in total.
    """

    test_name: str
    reason: str
    message: str
    traceback: str = ""
    attempts: int = 1

    def describe(self) -> str:
        """One-line summary used by logs and reports."""
        noun = "attempt" if self.attempts == 1 else "attempts"
        return (
            f"{self.test_name}: {self.reason} after "
            f"{self.attempts} {noun} — {self.message}"
        )
