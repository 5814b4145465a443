"""Execution witnesses and model diffing.

Verdicts alone ("allowed"/"forbidden") are opaque; this module makes them
inspectable:

* :func:`find_witness` returns a concrete axiom-satisfying execution for an
  allowed outcome — the global memory order and read-from relation a user
  can follow line by line;
* :func:`render_execution` pretty-prints that witness in the paper's
  vocabulary (``<mo`` as a numbered list, ``rf`` as store -> load arrows);
* :func:`diff_models` computes the outcome-set difference of two models on
  one test from two engine outcome cells, which is exactly how the paper
  distinguishes GAM from GAM0/ARM (e.g. CoRR is in ``gam0 - gam``).

Only the witness reads the kernel directly: it walks the DP's memo.
"""

from __future__ import annotations

from typing import Optional

from .core.axiomatic import DomainOverflowError, MemoryModel, find_execution
from .core.events import Execution, base_index, INIT_PROC, RMW_STORE_PART
from .engine import OutcomeSpec, evaluate_cells
from .litmus.test import LitmusTest, Outcome

__all__ = ["find_witness", "render_execution", "diff_models", "render_diff"]


def find_witness(
    test: LitmusTest,
    model: MemoryModel,
    outcome: Optional[Outcome] = None,
) -> Optional[Execution]:
    """The first execution matching ``outcome`` (default: the asked one);
    see :func:`repro.core.axiomatic.find_execution` for the order.

    Returns ``None`` when the model forbids the outcome — there is no
    witness, which *is* the explanation (no memory order satisfies all the
    model's ppo edges and the LoadValue axiom simultaneously).
    """
    if outcome is None:
        outcome = test.asked
    if outcome is None:
        raise ValueError(f"test {test.name!r} has no asked outcome")
    try:
        return find_execution(test, model, outcome)
    except DomainOverflowError as exc:
        raise DomainOverflowError(f"test {test.name!r}: {exc}") from exc


def _event_label(test: LitmusTest, execution: Execution, eid) -> str:
    proc, index = eid
    event = execution.event(eid)
    location = test.location_name(event.addr)
    if proc == INIT_PROC:
        return f"init   {location} = {event.value}"
    part = ""
    if index >= RMW_STORE_PART:
        part = " (store half)"
    elif (proc, index + RMW_STORE_PART) in {e.eid for e in execution.events}:
        part = " (load half)"
    kind = "St" if event.is_store else "Ld"
    return f"P{proc}.I{base_index(index)}{part}: {kind} {location} = {event.value}"


def render_execution(test: LitmusTest, execution: Execution) -> str:
    """Pretty-print a witness: memory order, read-from and final state."""
    lines = [f"witness execution for {test.name!r}:", "", "global memory order <mo:"]
    for position, eid in enumerate(execution.mo):
        lines.append(f"  {position:2d}. {_event_label(test, execution, eid)}")
    lines.append("")
    lines.append("read-from (store -> load):")
    for load_eid, source_eid in sorted(execution.rf.items()):
        load = _event_label(test, execution, load_eid)
        source = _event_label(test, execution, source_eid)
        lines.append(f"  {source}  -->  {load}")
    lines.append("")
    lines.append("final registers:")
    for (proc, reg), value in sorted(execution.final_regs.items()):
        lines.append(f"  P{proc}.{reg} = {value}")
    lines.append("final memory:")
    for addr in sorted(test.locations.values()):
        value = execution.final_mem.get(addr, test.initial_memory.get(addr, 0))
        lines.append(f"  {test.location_name(addr)} = {value}")
    return "\n".join(lines)


def diff_models(
    test: LitmusTest,
    weaker: MemoryModel,
    stronger: MemoryModel,
    project: str = "full",
) -> tuple[frozenset[Outcome], frozenset[Outcome]]:
    """Outcome-set difference: ``(weaker - stronger, stronger - weaker)``.

    For a genuinely weaker model the second component is empty; the first
    holds exactly the behaviours the stronger model's extra constraints
    forbid (e.g. the CoRR stale read for ``gam0`` vs ``gam``).  The two
    cells are one engine batch, so they share one candidate prefix.
    """
    weak_outcomes, strong_outcomes = evaluate_cells(
        [OutcomeSpec(test, weaker, project), OutcomeSpec(test, stronger, project)]
    )
    return (weak_outcomes - strong_outcomes, strong_outcomes - weak_outcomes)


def render_diff(
    test: LitmusTest,
    weaker: MemoryModel,
    stronger: MemoryModel,
    project: str = "full",
) -> str:
    """Human-readable model diff on one test."""
    weak_only, strong_only = diff_models(test, weaker, stronger, project)
    lines = [f"{test.name}: {weaker.name} vs {stronger.name}"]
    if not weak_only and not strong_only:
        lines.append("  identical outcome sets")
    for outcome in sorted(weak_only, key=str):
        lines.append(f"  only {weaker.name}: {outcome}")
    for outcome in sorted(strong_only, key=str):
        lines.append(f"  only {stronger.name}: {outcome}")
    return "\n".join(lines)
