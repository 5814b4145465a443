"""Axiomatic-vs-operational equivalence checking (Section IV / ref [80]).

The paper proves its two GAM definitions equivalent; this module checks the
property empirically by comparing complete outcome sets:

* the Figure 17 machine against the GAM axioms,
* the GAM0 machine variant against the GAM0 axioms,
* the SC and TSO reference machines against their axiomatic models.

A pair is named after its abstract machine
(:func:`repro.engine.operational_machines`), and each comparison is two
ordinary engine cells, so there is one evaluation path: the batch engine.
``project="full"`` comparisons include every register and every named
location, so a mismatch anywhere in the final state is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..litmus.test import LitmusTest, Outcome

__all__ = ["EquivalenceReport", "check_suite"]


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of one outcome-set comparison.

    Attributes:
        test_name: the litmus test compared.
        pair_name: which definition pair was compared (e.g. ``"gam"``).
        axiomatic: the axiomatic outcome set.
        operational: the machine's outcome set.
        failure: failure reason when either side's batch was skipped or
            quarantined under a non-raising engine policy — both outcome
            sets are empty and the comparison is *unanswered*, not
            equivalent.
    """

    test_name: str
    pair_name: str
    axiomatic: frozenset[Outcome]
    operational: frozenset[Outcome]
    failure: Optional[str] = None

    @property
    def equivalent(self) -> bool:
        """True when the two outcome sets coincide (and both were computed)."""
        return self.failure is None and self.axiomatic == self.operational

    def differences(self) -> tuple[frozenset[Outcome], frozenset[Outcome]]:
        """(operational-only outcomes, axiomatic-only outcomes)."""
        return (
            self.operational - self.axiomatic,
            self.axiomatic - self.operational,
        )


def check_suite(
    tests: Iterable[LitmusTest],
    pair_names: Sequence[str] = ("gam", "gam0", "sc", "tso"),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    policy=None,
    evaluate=None,
) -> list[EquivalenceReport]:
    """Compare the requested pairs over a whole suite.

    Each (test, pair) comparison is two ordinary outcome cells of the
    batch engine (:mod:`repro.engine`) — the axiomatic model under the
    default oracle and the same-named abstract machine under
    ``operational:<pair>`` — so equivalence checking shares the
    scheduler, the cache and the telemetry with every other grid:
    per-test candidate prefixes are shared across ``pair_names``,
    ``jobs`` fans tests out over a process pool and ``cache_dir`` makes
    repeat runs incremental.  ``policy`` is the engine's fault-tolerance
    hook, and ``evaluate`` is any
    :func:`~repro.engine.evaluate_cells`-shaped callable standing in for
    the engine.

    Raises:
        KeyError: a pair name that is not an abstract machine
            (:func:`repro.engine.operational_machines`).
    """
    from ..engine import (
        CellFailure,
        OutcomeSpec,
        evaluate_cells,
        operational_machines,
    )
    from ..models.spec import named_model

    if evaluate is None:
        evaluate = evaluate_cells
    known = operational_machines()
    for pair_name in pair_names:
        if pair_name not in known:
            raise KeyError(
                f"unknown definition pair {pair_name!r}; "
                f"available: {', '.join(known)}"
            )
    models = {pair_name: named_model(pair_name) for pair_name in pair_names}
    grid = [(test, pair_name) for test in tests for pair_name in pair_names]
    specs = []
    for test, pair_name in grid:
        specs.append(OutcomeSpec(test, models[pair_name], project="full"))
        specs.append(
            OutcomeSpec(
                test, None, project="full", oracle=f"operational:{pair_name}"
            )
        )
    results = evaluate(specs, jobs=jobs, cache_dir=cache_dir, policy=policy)
    reports = []
    for i, (test, pair_name) in enumerate(grid):
        axiomatic, operational = results[2 * i], results[2 * i + 1]
        failure = None
        for side in (axiomatic, operational):
            if isinstance(side, CellFailure):
                failure = side.reason
        if failure is not None:
            axiomatic = operational = frozenset()
        reports.append(
            EquivalenceReport(
                test_name=test.name,
                pair_name=pair_name,
                axiomatic=axiomatic,
                operational=operational,
                failure=failure,
            )
        )
    return reports

