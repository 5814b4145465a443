"""Static diagnostics for litmus tests, model specs and repo invariants.

The lint subsystem answers, *before* any engine time is spent: is this
input well-formed, non-redundant, and consistent with what the rest of
the repository assumes?  Three analyzer tiers share one diagnostics
vocabulary (:mod:`.diagnostics` — stable codes, severities, spans,
text/JSON renderers):

* **Litmus analysis** (:mod:`.litmus`, codes ``L###``) — register
  hygiene, vacuous final conditions, location-map consistency, and
  isomorphic-duplicate detection via the canonical event-graph hash in
  :mod:`.canon` (which also recovers each test's diy-style edge
  signature from the generator's 23-edge vocabulary).
* **Model analysis** (:mod:`.model`, codes ``M###``) — clause-vocabulary
  conformance, duplicate/conflicting/subsumed clause combinations, and
  canonical-twin detection against the registry zoo.
* **Repo-invariant AST lint** (:mod:`.repo`, codes ``R###``) — the
  determinism, picklability and cache-versioning conventions engine
  correctness rests on, run by ``tools/lint_repro.py`` and CI.

Surfaces: the ``repro lint`` CLI command, pre-flight hooks in
``repro gen`` / ``repro hunt`` (via :func:`preflight_tests` /
:func:`preflight_models`), and ``repro gen --dedupe``
(:func:`~repro.lint.canon.dedupe_tests`).
"""

from __future__ import annotations

from typing import Sequence

from ..core.axiomatic import MemoryModel
from ..litmus.test import LitmusTest
from .canon import (
    canonical_hash,
    canonical_key,
    dedupe_tests,
    edge_signature,
    edge_signature_index,
)
from .diagnostics import CODES, CodeInfo, Diagnostic, LintReport, Severity, make
from .litmus import lint_test, lint_tests
from .model import canonical_model_key, lint_model, lint_models

__all__ = [
    "Severity",
    "Diagnostic",
    "CodeInfo",
    "CODES",
    "LintReport",
    "make",
    "canonical_key",
    "canonical_hash",
    "canonical_model_key",
    "edge_signature",
    "edge_signature_index",
    "dedupe_tests",
    "lint_test",
    "lint_tests",
    "lint_model",
    "lint_models",
    "preflight_tests",
    "preflight_models",
]


def preflight_tests(tests: Sequence[LitmusTest]) -> list[Diagnostic]:
    """Error-level litmus findings only — the gen/hunt admission check.

    Runs the per-test checks (:func:`lint_test`) alone: the cross-test
    findings are never errors (``L009`` warns, ``L010`` informs), so the
    canonical hash and edge signatures behind them are not computed.  A
    non-empty result means the suite should be refused.
    """
    return [
        finding
        for test in tests
        for finding in lint_test(test)
        if finding.severity is Severity.ERROR
    ]


def preflight_models(models: Sequence[MemoryModel]) -> list[Diagnostic]:
    """Error-level model findings only — the hunt admission check."""
    return [
        finding
        for finding in lint_models(models)
        if finding.severity is Severity.ERROR
    ]
