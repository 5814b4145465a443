"""Deterministic fault injection: make every recovery path testable.

A fault-tolerance layer that is only ever exercised by real crashes is
untested code.  This module arms the scheduler with *planned* faults —
raise an exception, hang past a deadline, kill the worker process, or
corrupt a cache entry — targeted at a specific batch, test or attempt,
so chaos tests and the CI chaos-smoke job can script a crash and assert
the exact quarantine record it must produce.

A plan is a ``;``-separated list of actions, each ``kind:key=value,...``
(the same spec idiom as ``gen:edges=4,size=50`` suites):

    raise:test=mp                    raise InjectedFault in mp's batch
    hang:batch=0,seconds=120         sleep 120s in the first batch
    crash:test=sb,attempts=1         SIGKILL the worker on sb's first try
    corrupt:test=mp                  garble mp's first cache entry post-commit

Kinds:

* ``raise`` — raise :class:`InjectedFault` before evaluating the batch.
* ``hang`` — sleep ``seconds`` (default 3600) before evaluating; with a
  per-batch deadline armed this reliably trips the timeout path.
* ``crash`` — ``SIGKILL`` the current process when running inside a pool
  worker (surfaces as ``BrokenProcessPool`` in the parent).  In-process
  execution — serial runs, and batches the cache answers in full, which
  a pooled run without a deadline settles in the parent — raises
  :class:`InjectedFault` instead: killing the caller's own interpreter
  would take the test harness down with it.
* ``corrupt`` — once the parent has committed the transaction holding
  the batch's results, overwrite the first cell's payload row with
  garbage; exercises the cache's stale-entry recovery (the next lookup
  must count a miss and recompute).

Selectors (all optional; an action with none fires on every batch):

* ``batch=N`` — 0-based batch dispatch index within one
  ``evaluate_cells`` call.
* ``test=NAME`` — the batch's litmus test name.
* ``attempts=A`` — fire on attempts 1..A only, so retries recover
  (``crash:test=sb,attempts=1`` crashes once, then succeeds).
* ``seconds=S`` — hang duration (``hang`` only).

Plans are armed only through the ``REPRO_FAULTS`` environment variable,
which is what lets tests and the CI job arm faults around an unmodified
``repro`` invocation.  ``evaluate_cells`` reads it once per call and
ships the parsed plan to its workers inside each batch payload; the
``corrupt`` faults it fires itself, after its cache commits.
Everything is deterministic: the same plan against the same cell grid
fires the same faults.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Optional

from ..spec_items import parse_items

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULT_KINDS",
    "InjectedFault",
    "FaultPlanError",
    "FaultAction",
    "FaultPlan",
    "parse_fault_plan",
    "fault_plan_from_env",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"
"""Environment variable holding a fault-plan spec (empty/unset = no faults)."""

FAULT_KINDS: dict[str, str] = {
    "raise": "raise `InjectedFault` before the batch evaluates",
    "hang": (
        "sleep `seconds` (default 3600) before the batch evaluates — "
        "trips the per-batch deadline when one is armed"
    ),
    "crash": (
        "SIGKILL the worker process mid-batch (in-process runs, which "
        "include batches the cache answers in full when no deadline is "
        "armed, raise `InjectedFault` instead of killing the caller)"
    ),
    "corrupt": (
        "after the parent commits the transaction holding the batch's "
        "results, overwrite the first cell's payload row in the cache "
        "with garbage"
    ),
}
"""The fault vocabulary, rendered into ``docs/robustness.md``."""


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault (or an in-process ``crash``) throws."""


class FaultPlanError(ValueError):
    """A malformed fault-plan spec; the message names the bad fragment."""


@dataclass(frozen=True)
class FaultAction:
    """One planned fault: a kind plus the selectors that scope it.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        batch: fire only on this 0-based batch dispatch index (``None``
            = any batch).
        test: fire only on this litmus test's batch (``None`` = any).
        attempts: fire on attempts ``1..attempts`` only (``None`` =
            every attempt — the fault never recovers).
        seconds: sleep duration for ``hang``.
    """

    kind: str
    batch: Optional[int] = None
    test: Optional[str] = None
    attempts: Optional[int] = None
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(sorted(FAULT_KINDS))}"
            )
        if self.batch is not None and self.batch < 0:
            raise ValueError(f"batch selector must be >= 0, got {self.batch}")
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(
                f"attempts selector must be >= 1, got {self.attempts}"
            )
        if self.seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {self.seconds}")

    def matches(self, batch_index: int, test_name: str, attempt: int) -> bool:
        """True when this action fires for the given batch attempt."""
        if self.batch is not None and self.batch != batch_index:
            return False
        if self.test is not None and self.test != test_name:
            return False
        if self.attempts is not None and attempt > self.attempts:
            return False
        return True

    def describe(self) -> str:
        """The canonical spec string for this action."""
        parts = []
        if self.batch is not None:
            parts.append(f"batch={self.batch}")
        if self.test is not None:
            parts.append(f"test={self.test}")
        if self.attempts is not None:
            parts.append(f"attempts={self.attempts}")
        if self.kind == "hang" and self.seconds != 3600.0:
            parts.append(f"seconds={self.seconds:g}")
        return self.kind + (":" + ",".join(parts) if parts else "")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, picklable set of :class:`FaultAction` to arm a run with."""

    actions: tuple[FaultAction, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.actions)

    def select(
        self, batch_index: int, test_name: str, attempt: int
    ) -> list[FaultAction]:
        """The actions that fire for this batch attempt, in plan order."""
        return [
            action
            for action in self.actions
            if action.matches(batch_index, test_name, attempt)
        ]

    def describe(self) -> str:
        """The canonical spec string for the whole plan."""
        return ";".join(action.describe() for action in self.actions)


_SELECTORS = {"batch": int, "test": str, "attempts": int, "seconds": float}


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a ``kind:key=val,...;kind:...`` spec into a :class:`FaultPlan`.

    Raises :class:`FaultPlanError` with the offending fragment on any malformed
    piece — a typo'd plan must fail loudly at arm time, not silently
    inject nothing.
    """
    actions: list[FaultAction] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, arg_text = chunk.partition(":")
        kwargs = parse_items(
            arg_text,
            _SELECTORS,
            usage="batch=N,test=NAME,attempts=A,seconds=S",
            label=f"fault action {chunk!r} argument",
            noun="selector",
            error=FaultPlanError,
        )
        try:
            actions.append(FaultAction(kind=kind.strip(), **kwargs))
        except ValueError as exc:
            raise FaultPlanError(f"bad fault action {chunk!r}: {exc}") from None
    return FaultPlan(actions=tuple(actions))


def fault_plan_from_env() -> FaultPlan:
    """The plan armed via :data:`FAULTS_ENV_VAR` (empty plan when unset)."""
    spec = os.environ.get(FAULTS_ENV_VAR, "")
    if not spec.strip():
        return FaultPlan()
    return parse_fault_plan(spec)


def fire_before_batch(
    plan: FaultPlan,
    batch_index: int,
    test_name: str,
    attempt: int,
    in_worker: bool,
) -> None:
    """Fire the pre-evaluation faults (raise / hang / crash) for a batch.

    ``in_worker`` distinguishes pool workers (where ``crash`` genuinely
    SIGKILLs the process) from in-process execution (where it degrades
    to :class:`InjectedFault` — taking down the caller's interpreter is
    never acceptable collateral).
    """
    for action in plan.select(batch_index, test_name, attempt):
        if action.kind == "hang":
            time.sleep(action.seconds)
        elif action.kind == "raise":
            raise InjectedFault(
                f"injected fault ({action.describe()}) in test {test_name!r} "
                f"batch {batch_index} attempt {attempt}"
            )
        elif action.kind == "crash":
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                f"injected crash ({action.describe()}) in test {test_name!r} "
                f"batch {batch_index} attempt {attempt} "
                f"(in-process: degraded from SIGKILL)"
            )


def fire_after_commit(
    plan: FaultPlan,
    batch_index: int,
    test_name: str,
    attempt: int,
    cache,
    key: str,
) -> None:
    """Fire the post-commit faults (``corrupt``) for a settled batch.

    ``cache`` is the :class:`~repro.engine.cache.ResultCache` that has
    just committed the batch's rows and ``key`` its first cell's key;
    the row under it is overwritten with non-JSON garbage.
    """
    for action in plan.select(batch_index, test_name, attempt):
        if action.kind == "corrupt":
            cache.write_rows([(key, "\x00corrupted-by-fault-injection\x00")])
