"""Verdict matrices for the paper's litmus figures (Figs. 2, 5, 13, 14).

Each litmus figure in the paper is a claim of the form "model M allows /
forbids behaviour B".  This harness evaluates every claim against the
implementations and renders the full test x model matrix, flagging any
disagreement with the paper — it is the executable version of the paper's
figure captions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..engine import (
    CellFailure,
    ExecutionPolicy,
    ModelLike,
    VerdictSpec,
    evaluate_cells,
)
from ..litmus.registry import all_tests, paper_suite
from ..litmus.test import LitmusTest
from .render import render_table

__all__ = ["VerdictCell", "litmus_matrix", "render_matrix", "conformance_failures"]

_MATRIX_MODELS = ("sc", "tso", "gam", "gam0", "arm", "wmm", "alpha_like", "plsc")


@dataclass(frozen=True)
class VerdictCell:
    """One (test, model) verdict.

    Attributes:
        test_name / model_name: coordinates.
        allowed: what the implementation says.
        expected: the paper's verdict, or ``None`` if the paper is silent.
        failure: the failure reason when the cell's batch was skipped or
            quarantined under a non-raising :class:`ExecutionPolicy`
            (``None`` for an evaluated cell; ``allowed`` is meaningless).
    """

    test_name: str
    model_name: str
    allowed: bool
    expected: Optional[bool]
    failure: Optional[str] = None

    @property
    def conforms(self) -> bool:
        """True when the implementation matches the paper (or paper silent).

        A skipped cell has no verdict to contradict the paper with, so it
        conforms vacuously — skips are reported separately, not as
        conformance failures.
        """
        if self.failure is not None:
            return True
        return self.expected is None or self.allowed == self.expected


def litmus_matrix(
    tests: Optional[Iterable[LitmusTest]] = None,
    model_names: Sequence[ModelLike] = _MATRIX_MODELS,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    policy: Optional[ExecutionPolicy] = None,
    evaluate=None,
) -> list[VerdictCell]:
    """Evaluate every (test, model) verdict through the batch engine.

    Defaults to the paper's figure tests against the full comparison zoo.
    ``model_names`` entries are :data:`~repro.engine.ModelLike` — registry
    names, ``.model`` paths, ``ctor:`` specs or built models — and the
    resulting cells report :func:`~repro.engine.model_display_name`.
    Candidate prefixes are shared across the model zoo per test; ``jobs``
    fans per-test batches out over a process pool and ``cache_dir``
    enables the on-disk result cache (both leave results identical).

    ``policy`` arms deadlines/retries/quarantine on the engine; under a
    non-raising policy a failed test's cells come back with
    ``VerdictCell.failure`` set and render as ``skip``.

    ``evaluate`` swaps the engine backend — any callable with the
    :func:`~repro.engine.evaluate_cells` signature, such as a wrapper
    that times each call.  Rendering never knows which backend answered.
    """
    materialized = list(tests) if tests is not None else list(paper_suite())
    asked = [test for test in materialized if test.asked is not None]
    specs = [
        VerdictSpec(test, model) for test in asked for model in model_names
    ]
    if evaluate is None:
        evaluate = evaluate_cells
    verdicts = evaluate(specs, jobs=jobs, cache_dir=cache_dir, policy=policy)
    cells = []
    for spec, allowed in zip(specs, verdicts):
        failure = None
        if isinstance(allowed, CellFailure):
            failure = allowed.reason
            allowed = False
        cells.append(
            VerdictCell(
                test_name=spec.test.name,
                model_name=spec.model_name,
                allowed=allowed,
                expected=spec.test.expect.get(spec.model_name),
                failure=failure,
            )
        )
    return cells


def _model_column_key(name: str) -> tuple:
    """Zoo models in zoo order, then unknown models alphabetically."""
    if name in _MATRIX_MODELS:
        return (0, _MATRIX_MODELS.index(name), "")
    return (1, 0, name)


_DEFAULT_TITLE = "Litmus verdict matrix (paper figures 2, 5, 8, 9, 13, 14)"


def render_matrix(
    cells: Sequence[VerdictCell], title: Optional[str] = None
) -> str:
    """Render the verdict matrix; cells are ``allow``/``forbid`` with ``!``
    marking disagreement with the paper and ``·`` where the paper is silent.

    ``title`` overrides the default (paper-figure) heading — generated and
    imported suites are not the paper's figures."""
    model_names = sorted({c.model_name for c in cells}, key=_model_column_key)
    test_names = list(dict.fromkeys(c.test_name for c in cells))
    by_key = {(c.test_name, c.model_name): c for c in cells}
    rows = []
    for test_name in test_names:
        row: list[object] = [test_name]
        for model_name in model_names:
            cell = by_key.get((test_name, model_name))
            if cell is None:
                row.append("-")
                continue
            if cell.failure is not None:
                row.append("skip")
                continue
            text = "allow" if cell.allowed else "forbid"
            if cell.expected is None:
                text += "·"
            elif not cell.conforms:
                text += "!"
            row.append(text)
        rows.append(row)
    legend = (
        "('·' = paper silent, '!' = disagrees with paper; "
        "asked behaviours are the non-SC outcomes of each figure)"
    )
    table = render_table(
        ["test"] + list(model_names),
        rows,
        title=title if title is not None else _DEFAULT_TITLE,
    )
    return table + "\n" + legend


def conformance_failures(cells: Iterable[VerdictCell]) -> list[VerdictCell]:
    """Cells whose verdict contradicts the paper (should always be empty)."""
    return [c for c in cells if not c.conforms]
