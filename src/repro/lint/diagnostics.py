"""Diagnostics: stable codes, severities, spans, text/JSON rendering.

Every finding the lint subsystem can produce is a :class:`Diagnostic`
carrying a *stable* code (``L###`` for litmus-test analysis, ``M###``
for model-spec analysis, ``R###`` for repo-invariant AST checks), a
severity, the subject it is about (a test name, a model name, a file),
and — when the finding is tied to a file — a source span.

The code catalog :data:`CODES` is the single source of truth: analyzers
construct findings through :func:`make` (which validates the code and
supplies its default severity), ``tools/gen_lint_docs.py`` renders
``docs/lint.md`` from the catalog's titles/summaries/examples, and the
test suite asserts every code has both a firing and a non-firing case.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Severity",
    "Diagnostic",
    "CodeInfo",
    "CODES",
    "LintReport",
    "make",
]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail ``repro lint`` (exit 1) and veto hunt/gen
    pre-flight; ``WARNING`` findings fail only under ``--strict``;
    ``INFO`` findings never affect the exit status.
    """

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """Numeric ordering: info < warning < error."""
        return ("info", "warning", "error").index(self.value)


@dataclass(frozen=True)
class Diagnostic:
    """One finding.

    Attributes:
        code: stable catalog code (a key of :data:`CODES`).
        severity: the finding's severity (usually the code's default).
        subject: what the finding is about — a test name, model name, or
            repo-relative file path.
        message: one-line human-readable explanation.
        source: originating file when known (``.litmus`` path, ``.py``
            path, or a test's provenance string), else ``""``.
        line: 1-based line number within ``source`` when known.
    """

    code: str
    severity: Severity
    subject: str
    message: str
    source: str = ""
    line: Optional[int] = None

    def span(self) -> str:
        """``source:line``, ``source``, or ``""`` — whatever is known."""
        if self.source and self.line is not None:
            return f"{self.source}:{self.line}"
        return self.source

    def render(self) -> str:
        """The one-line text rendering used by ``repro lint``."""
        where = self.span()
        prefix = f"{where}: " if where else ""
        return (
            f"{self.severity.value:7s} {self.code} "
            f"{prefix}{self.subject}: {self.message}"
        )

    def to_json(self) -> dict[str, object]:
        """The JSON-object form used by ``repro lint --format json``."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "subject": self.subject,
            "message": self.message,
            "source": self.source,
            "line": self.line,
        }


@dataclass(frozen=True)
class CodeInfo:
    """Catalog entry for one diagnostic code.

    Attributes:
        code: the stable identifier (``L001``...).
        severity: the default severity findings of this code carry.
        title: short kebab-ish name (``undefined-register``).
        summary: one-paragraph description for ``docs/lint.md``.
        example: a short illustration of input that fires the code.
    """

    code: str
    severity: Severity
    title: str
    summary: str
    example: str


def _info(
    code: str, severity: Severity, title: str, summary: str, example: str
) -> tuple[str, CodeInfo]:
    return code, CodeInfo(code, severity, title, summary, example)


CODES: dict[str, CodeInfo] = dict(
    (
        _info(
            "L001",
            Severity.WARNING,
            "undefined-register",
            "A thread reads a register no instruction on that thread ever "
            "writes, so the read always returns the initial value 0.  "
            "Usually a typo'd register name.",
            "P0 runs `r2 = Ld [a]` but the final condition (or a later "
            "instruction) reads `r1`, which nothing on P0 writes.",
        ),
        _info(
            "L002",
            Severity.WARNING,
            "unused-register",
            "A thread writes a register that is never read on that thread, "
            "never constrained by the asked outcome, and not in the "
            "observed projection — the write is dead weight.",
            "P1 runs `r3 = Ld [b]` but neither `exists (...)` nor "
            "`observed [...]` nor any P1 instruction mentions `r3`.",
        ),
        _info(
            "L003",
            Severity.WARNING,
            "unobserved-store",
            "A store writes a location that no thread ever loads and that "
            "the asked outcome's memory conditions never check; nothing in "
            "the test can tell whether the store happened.",
            "P0 runs `St [c] 1` but no `Ld [c]` exists anywhere and the "
            "`exists` clause never mentions `c`.",
        ),
        _info(
            "L004",
            Severity.ERROR,
            "vacuous-register-condition",
            "The asked outcome binds a register the named thread never "
            "writes to a non-zero value.  Registers start at 0, so the "
            "condition can never hold and the test is vacuously forbidden "
            "everywhere.",
            "`exists (0:r9=1)` where P0 has no instruction writing `r9`.",
        ),
        _info(
            "L005",
            Severity.WARNING,
            "trivial-register-condition",
            "The asked outcome binds a register the named thread never "
            "writes to 0 — the binding is always true and constrains "
            "nothing.",
            "`exists (0:r9=0)` where P0 has no instruction writing `r9`.",
        ),
        _info(
            "L006",
            Severity.ERROR,
            "bad-processor-index",
            "The asked outcome or the observed projection names a "
            "processor index outside the test's thread range.",
            "A two-thread test with `exists (2:r1=1)`.",
        ),
        _info(
            "L007",
            Severity.ERROR,
            "location-aliasing",
            "Two distinct symbolic locations share one concrete address, "
            "so their initial values and accesses silently alias.  Every "
            "consumer assumes the location map is injective.",
            "`{ a @ 0x100; b @ 0x100; }` — `a` and `b` are the same cell.",
        ),
        _info(
            "L008",
            Severity.WARNING,
            "orphan-initial-value",
            "The initial-memory map sets an address that no symbolic "
            "location names and no instruction can access — the value is "
            "unreachable.",
            "An initial value at `0x900` when locations sit at "
            "`0x100`/`0x200` and all accesses go through them.",
        ),
        _info(
            "L009",
            Severity.WARNING,
            "duplicate-test",
            "The test is structurally isomorphic (identical up to "
            "register, location and thread renaming) to an earlier test "
            "in the linted set, detected by canonical event-graph hash.  "
            "Running both doubles work without new information.",
            "`sb` and a copy with threads swapped and `x`/`y` renamed to "
            "`a`/`b` hash identically.",
        ),
        _info(
            "L010",
            Severity.INFO,
            "edge-signature",
            "The test is isomorphic to a critical cycle from the "
            "generator's 23-edge vocabulary; the message gives its "
            "diy-style edge signature (the generated test's name).  "
            "Purely informational: it maps hand-written tests back onto "
            "the systematic corpus.",
            "`corr` matches the generated cycle `posrr+fre+rfe`.",
        ),
        _info(
            "L011",
            Severity.ERROR,
            "duplicate-test-name",
            "Two imported `.litmus` files define the same test name.  "
            "Every downstream consumer keys results by name, so one of "
            "the tests would be silently dropped.",
            "`repro import a.litmus b.litmus` where both headers read "
            "`GAM mytest`.",
        ),
        _info(
            "M001",
            Severity.WARNING,
            "uncataloged-clause",
            "A model carries a ppo clause whose spec is outside the "
            "Definition 6 vocabulary (the static, dynamic and parametric "
            "catalogs in `repro.core.ppo`).  Only programmatically built "
            "models can do this; such clauses are invisible to `.model` "
            "round trips and docs.",
            "A custom `Clause` subclass registered in a model but absent "
            "from `STATIC_CLAUSES`.",
        ),
        _info(
            "M002",
            Severity.ERROR,
            "duplicate-clause",
            "The same clause appears more than once across a model's "
            "static and dynamic clause lists.  The duplicate adds no "
            "edges but changes the model's content digest, splitting "
            "caches for no reason.",
            "A model with `ppo SAMemSt` twice.",
        ),
        _info(
            "M003",
            Severity.WARNING,
            "subsumed-clause",
            "A clause is statically implied by stronger clauses already "
            "present (per the declared implication lattice over the "
            "catalog): every edge it contributes is already contributed.  "
            "E.g. `PairwiseOrder(L,L)` orders *all* same-thread load "
            "pairs, making `SALdLd` redundant.",
            "A model with both `PairwiseOrder(L,L)` and `SALdLd`.",
        ),
        _info(
            "M004",
            Severity.ERROR,
            "conflicting-same-address-policy",
            "A model carries both `SALdLd` (GAM's same-address load-load "
            "order) and `SALdLdARM` (ARM's weaker alternative).  They are "
            "rival answers to the same design question (Section III-E); "
            "together the static clause dominates and the dynamic one is "
            "dead code that still turns on the kernel's same-source check.",
            "`ppo SALdLd` and `dynamic SALdLdARM` in one model.",
        ),
        _info(
            "M005",
            Severity.INFO,
            "registry-twin",
            "The model is canonically identical (same sorted clause "
            "specs, load-value axiom and coherence flag) to a registry "
            "model under a different name — a syntactically distinct "
            "respelling of a known model.",
            "A `.model` file listing GAM's eight clauses in a different "
            "order under the name `mygam`.",
        ),
        _info(
            "M006",
            Severity.ERROR,
            "duplicate-model-name",
            "Two models in the linted set share one name.  Campaign "
            "state, verdict tables and reports key models by name, so a "
            "collision would silently drop one side.",
            "`repro lint --model a.model --model b.model` where both "
            "files say `model m1`.",
        ),
        _info(
            "R001",
            Severity.ERROR,
            "unseeded-rng",
            "Engine or campaign code calls the module-level `random` API "
            "(process-global, unseeded state) or constructs `Random()` "
            "without a seed.  Campaign resumption and the content-hashed "
            "result cache rely on every code path being a pure function "
            "of its inputs.",
            "`random.shuffle(tests)` inside `src/repro/campaign/`.",
        ),
        _info(
            "R002",
            Severity.ERROR,
            "unordered-set-iteration",
            "Determinism-critical code (engine, eval, campaign, lint) "
            "iterates directly over a freshly built `set`/`frozenset` — "
            "iteration order then depends on hash seeding and can differ "
            "between processes.  Sort first (`sorted(...)`).",
            "`for x in set(names):` or `tuple({a, b, c})` in "
            "`src/repro/engine/`.",
        ),
        _info(
            "R003",
            Severity.ERROR,
            "unpicklable-engine-lambda",
            "Engine code defines a `lambda`, which cannot cross the "
            "process-pool pickle boundary.  Use a module-level function.  "
            "`key=lambda ...` keyword callbacks are exempt: they stay "
            "in-process (sorting, not shipping).",
            "`callback = lambda cell: run(cell)` in `src/repro/engine/`.",
        ),
        _info(
            "R004",
            Severity.ERROR,
            "engine-version-not-bumped",
            "A diff touches code that computes cached results "
            "(`src/repro/core/`, `src/repro/engine/cells.py`, "
            "`src/repro/engine/cache.py` or `src/repro/litmus/test.py`, "
            "whose test descriptor is cache-key material) without changing "
            "`ENGINE_VERSION` in `src/repro/engine/cells.py`.  The "
            "on-disk result cache keys on that version; forgetting the "
            "bump serves stale verdicts computed by old code.  The "
            "scheduler, policies and fault harness never change a "
            "result, so diffs there need no bump.",
            "Editing `src/repro/core/operational.py` while "
            "`ENGINE_VERSION = 2` stays unchanged (checked with "
            "`--diff-base`).",
        ),
        _info(
            "R005",
            Severity.ERROR,
            "raw-clock-read",
            "Engine or campaign code reads a wall clock directly "
            "(`time.perf_counter()`, `time.time()`, `time.monotonic()`, "
            "...).  Timing belongs to the telemetry layer: use "
            "`repro.obs.time_block(name)` (or `repro.obs.monotonic()` "
            "for ad-hoc elapsed displays) so clock reads cost nothing "
            "when stats are off and every timing lands in the run "
            "report.  `src/repro/obs/` itself is the sanctioned wrapper "
            "and is exempt.",
            "`start = time.perf_counter()` inside `src/repro/engine/`.",
        ),
    )
)
"""The stable diagnostic-code catalog, in code order.

Retired codes leave a gap: the others are never renumbered and a
retired number is never reused.
"""


def make(
    code: str,
    subject: str,
    message: str,
    source: str = "",
    line: Optional[int] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, validating ``code`` against the catalog.

    ``severity`` defaults to the code's catalog severity; passing one is
    only for the rare finding that is softer/harder than its code's norm.
    """
    if code not in CODES:
        raise ValueError(f"unknown diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else CODES[code].severity,
        subject=subject,
        message=message,
        source=source,
        line=line,
    )


@dataclass(frozen=True)
class LintReport:
    """An ordered collection of findings plus rendering/exit policy.

    Attributes:
        findings: the findings, in analyzer emission order (analyzers are
            deterministic, so identical inputs render identical reports).
    """

    findings: tuple[Diagnostic, ...] = ()

    def counts(self) -> dict[str, int]:
        """``{"error": n, "warning": m, "info": k}`` over the findings."""
        totals = {"error": 0, "warning": 0, "info": 0}
        for finding in self.findings:
            totals[finding.severity.value] += 1
        return totals

    def errors(self) -> tuple[Diagnostic, ...]:
        """Just the error-severity findings, in order."""
        return tuple(
            finding
            for finding in self.findings
            if finding.severity is Severity.ERROR
        )

    def exit_status(self, strict: bool = False) -> int:
        """0 for clean, 1 when errors (or, under ``strict``, warnings) exist."""
        counts = self.counts()
        if counts["error"]:
            return 1
        if strict and counts["warning"]:
            return 1
        return 0

    def render_text(self) -> str:
        """The multi-line human-readable report."""
        lines = [finding.render() for finding in self.findings]
        counts = self.counts()
        lines.append(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """The machine-readable report (stable key order)."""
        payload = {
            "version": 1,
            "counts": self.counts(),
            "findings": [finding.to_json() for finding in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
