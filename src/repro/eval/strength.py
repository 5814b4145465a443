"""The model-strength lattice, measured empirically.

The paper's narrative places the models on a strength spectrum (SC
strongest; GAM0/Alpha progressively weaker; GAM between GAM0 and TSO...).
This harness *measures* the relation: model A is at least as strong as
model B on a suite when A's outcome set is contained in B's for every
test.  The resulting matrix is a compact, machine-checked summary of
Sections II-III, and a regression tripwire for the whole zoo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..core.axiomatic import MemoryModel
from ..engine import (
    CellFailure,
    ExecutionPolicy,
    OutcomeSpec,
    evaluate_cells,
)
from ..litmus.registry import all_tests
from ..litmus.test import LitmusTest
from ..models.spec import named_model
from .render import render_table

__all__ = ["StrengthMatrix", "strength_matrix", "render_strength"]

_DEFAULT_MODELS = ("sc", "tso", "gam", "arm", "gam0", "wmm", "alpha_like")


@dataclass(frozen=True)
class StrengthMatrix:
    """Pairwise containment results.

    ``stronger_or_equal[(a, b)]`` is True when model ``a``'s outcome set is
    a subset of ``b``'s on *every* suite test (a allows no behaviour b
    forbids — a is at least as strong).  ``skipped`` lists tests excluded
    from the measurement because a cell of theirs failed under a
    non-raising :class:`ExecutionPolicy` — containment is only meaningful
    over tests where every model answered.
    """

    model_names: tuple[str, ...]
    stronger_or_equal: dict[tuple[str, str], bool]
    skipped: tuple[str, ...] = ()

    def is_stronger_or_equal(self, a: str, b: str) -> bool:
        """Is ``a`` at least as strong as ``b`` over the suite?"""
        return self.stronger_or_equal[(a, b)]

    def chain_holds(self, names: Sequence[str]) -> bool:
        """Does strength decrease monotonically along ``names``?"""
        return all(
            self.is_stronger_or_equal(a, b) for a, b in zip(names, names[1:])
        )


def strength_matrix(
    tests: Optional[Iterable[LitmusTest]] = None,
    model_names: Sequence[Union[str, MemoryModel]] = _DEFAULT_MODELS,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> StrengthMatrix:
    """Measure pairwise strength over a suite (default: full catalogue).

    Tests whose programs a model cannot evaluate are never the case here —
    all zoo models share the engine — so the matrix is total.
    ``model_names`` entries are model specs or built models, each
    resolved once (:func:`~repro.models.spec.named_model`); their names
    key the matrix and must be pairwise distinct.  Outcome
    sets are enumerated through the batch engine: per-test candidate
    prefixes are shared across ``model_names``, ``jobs`` fans tests out
    over a process pool, ``cache_dir`` makes repeat runs incremental.

    ``policy`` arms deadlines/retries/quarantine; a test whose batch
    fails under a non-raising policy lands in ``StrengthMatrix.skipped``
    and the containment relation is measured over the survivors.
    """
    materialized = list(tests) if tests is not None else list(all_tests())
    models = [named_model(spec) for spec in model_names]
    display = tuple(model.name for model in models)
    if len(set(display)) != len(display):
        raise ValueError(f"duplicate model display names in {display!r}")
    specs = [
        OutcomeSpec(test, model, project="full")
        for test in materialized
        for model in models
    ]
    results = evaluate_cells(specs, jobs=jobs, cache_dir=cache_dir, policy=policy)
    outcome_sets: dict[str, list[frozenset]] = {name: [] for name in display}
    skipped: list[str] = []
    width = len(models)
    for index, test in enumerate(materialized):
        chunk = results[index * width:(index + 1) * width]
        if any(isinstance(outcomes, CellFailure) for outcomes in chunk):
            skipped.append(test.name)
            continue
        for name, outcomes in zip(display, chunk):
            outcome_sets[name].append(outcomes)
    relation: dict[tuple[str, str], bool] = {}
    for a in display:
        for b in display:
            relation[(a, b)] = all(
                sa <= sb for sa, sb in zip(outcome_sets[a], outcome_sets[b])
            )
    return StrengthMatrix(display, relation, tuple(skipped))


def render_strength(matrix: StrengthMatrix) -> str:
    """Render the containment matrix (``<=`` marks row ⊆ column)."""
    rows = []
    for a in matrix.model_names:
        row: list[object] = [a]
        for b in matrix.model_names:
            row.append("<=" if matrix.stronger_or_equal[(a, b)] else ".")
        rows.append(row)
    table = render_table(
        ["row ⊆ col?"] + list(matrix.model_names),
        rows,
        title="Model strength (row at least as strong as column)",
    )
    if matrix.skipped:
        table += (
            f"\n(measured without {len(matrix.skipped)} skipped test(s): "
            f"{', '.join(matrix.skipped)})"
        )
    return table
