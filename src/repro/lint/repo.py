"""Repo-invariant AST checks: the ``R###`` diagnostics.

The engine's correctness contract rests on invariants Python will not
enforce: determinism (the content-hashed result cache and campaign
resumption require every code path to be a pure function of its
inputs), picklability (work crosses a process-pool boundary), and cache
versioning (``ENGINE_VERSION`` must move when engine semantics move).
This module walks source files with :mod:`ast` and flags violations.

Scopes are path prefixes over repo-relative POSIX paths, so the checks
apply exactly where the invariant holds and nowhere else:

* ``R001`` (unseeded RNG) — ``src/repro/engine/``, ``src/repro/campaign/``;
* ``R002`` (bare-set iteration) — those plus ``src/repro/eval/`` and
  ``src/repro/lint/`` (this package renders reports and must itself be
  deterministic);
* ``R003`` (lambdas) — ``src/repro/engine/`` only, with an exemption
  for ``key=lambda ...`` keyword callbacks (they sort in-process and
  never cross the pickle boundary);
* ``R004`` (version bump) — a pure function over a changed-path list,
  wired to ``git diff`` by ``tools/lint_repro.py``, covering only the
  code that computes cached results;
* ``R005`` (raw clock reads) — ``src/repro/engine/``,
  ``src/repro/campaign/``: timing goes through :mod:`repro.obs`
  (``time_block``/``monotonic``) so it is free when stats are off and
  always lands in the run report; ``src/repro/obs/`` itself is the
  sanctioned wrapper and is exempt.

``tools/lint_repro.py`` is the CLI wrapper; this module stays importable
and unit-testable without a git checkout.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Sequence

from .diagnostics import Diagnostic, make

__all__ = [
    "RNG_FUNCTIONS",
    "RNG_SCOPE",
    "DETERMINISM_SCOPE",
    "LAMBDA_SCOPE",
    "CLOCK_FUNCTIONS",
    "CLOCK_SCOPE",
    "CLOCK_ALLOWLIST",
    "ENGINE_PATHS",
    "ENGINE_VERSION_FILE",
    "lint_source",
    "lint_file",
    "lint_tree",
    "check_engine_version_bump",
]

RNG_FUNCTIONS = frozenset(
    (
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
    )
)
"""Module-level :mod:`random` functions that draw from the process-global
(unseeded) generator."""

RNG_SCOPE = ("src/repro/engine/", "src/repro/campaign/")
"""Path prefixes where ``R001`` (unseeded RNG) applies."""

DETERMINISM_SCOPE = RNG_SCOPE + ("src/repro/eval/", "src/repro/lint/")
"""Path prefixes where ``R002`` (bare-set iteration) applies."""

LAMBDA_SCOPE = ("src/repro/engine/",)
"""Path prefixes where ``R003`` (engine lambdas) applies."""

CLOCK_FUNCTIONS = frozenset(
    (
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "time",
        "time_ns",
    )
)
""":mod:`time` functions that read a clock (the ``R005`` vocabulary)."""

CLOCK_SCOPE = ("src/repro/engine/", "src/repro/campaign/")
"""Path prefixes where ``R005`` (raw clock reads) applies."""

CLOCK_ALLOWLIST = ("src/repro/obs/",)
"""Paths exempt from ``R005``: the telemetry layer wraps the clock."""

ENGINE_PATHS = (
    "src/repro/core/",
    "src/repro/engine/cells.py",
    "src/repro/engine/cache.py",
    "src/repro/litmus/test.py",
)
"""Paths whose diffs require an ``ENGINE_VERSION`` bump (``R004``).

These compute what the result cache stores — the axioms, the kernel,
the abstract machines, cell evaluation and keying, the payload codec,
and the litmus test's content key.  The scheduler, policies and fault
harness decide only how cells run, never what they return, so diffs
there leave cache entries valid.
"""

ENGINE_VERSION_FILE = "src/repro/engine/cells.py"
"""Where ``ENGINE_VERSION`` lives."""


def _in_scope(relpath: str, scope: Iterable[str]) -> bool:
    """True when ``relpath`` (POSIX, repo-relative) falls under ``scope``."""
    return any(
        relpath == prefix or relpath.startswith(prefix) for prefix in scope
    )


def _is_bare_set(node: ast.expr) -> bool:
    """A freshly built set with no deterministic ordering applied."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _rng_findings(tree: ast.AST, relpath: str) -> list[Diagnostic]:
    """R001: module-level ``random`` API and unseeded ``Random()``."""
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr in RNG_FUNCTIONS:
                    findings.append(
                        make(
                            "R001",
                            relpath,
                            f"random.{func.attr}() draws from the "
                            "process-global unseeded generator; use "
                            "random.Random(seed)",
                            source=relpath,
                            line=node.lineno,
                        )
                    )
                elif func.attr == "Random" and not node.args:
                    findings.append(
                        make(
                            "R001",
                            relpath,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                            source=relpath,
                            line=node.lineno,
                        )
                    )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in RNG_FUNCTIONS
            )
            if bad:
                findings.append(
                    make(
                        "R001",
                        relpath,
                        f"`from random import {', '.join(bad)}` imports "
                        "the process-global unseeded generator's "
                        "functions; use random.Random(seed)",
                        source=relpath,
                        line=node.lineno,
                    )
                )
    return findings


def _set_iteration_findings(tree: ast.AST, relpath: str) -> list[Diagnostic]:
    """R002: iteration (or ordered collection) directly over a bare set."""

    def flag(node: ast.expr, how: str) -> Diagnostic:
        return make(
            "R002",
            relpath,
            f"{how} a freshly built set is hash-order-dependent and "
            "nondeterministic across processes; sort it first "
            "(sorted(...))",
            source=relpath,
            line=node.lineno,
        )

    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_bare_set(node.iter):
            findings.append(flag(node.iter, "iterating"))
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for generator in node.generators:
                if _is_bare_set(generator.iter):
                    findings.append(flag(generator.iter, "iterating"))
        elif isinstance(node, ast.Call):
            func = node.func
            ordered_ctor = (
                isinstance(func, ast.Name) and func.id in ("tuple", "list")
            )
            join = isinstance(func, ast.Attribute) and func.attr == "join"
            if (
                (ordered_ctor or join)
                and node.args
                and _is_bare_set(node.args[0])
            ):
                findings.append(flag(node.args[0], "collecting"))
    return findings


def _lambda_findings(tree: ast.AST, relpath: str) -> list[Diagnostic]:
    """R003: lambdas in engine code, exempting ``key=lambda`` callbacks."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "key" and isinstance(
                    keyword.value, ast.Lambda
                ):
                    exempt.add(id(keyword.value))
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda) and id(node) not in exempt:
            findings.append(
                make(
                    "R003",
                    relpath,
                    "lambda in engine code cannot cross the process-pool "
                    "pickle boundary; use a module-level function "
                    "(in-process key= callbacks are exempt)",
                    source=relpath,
                    line=node.lineno,
                )
            )
    return findings


def _raw_clock_findings(tree: ast.AST, relpath: str) -> list[Diagnostic]:
    """R005: direct ``time.*`` clock reads (or importing those names)."""
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in CLOCK_FUNCTIONS
            ):
                findings.append(
                    make(
                        "R005",
                        relpath,
                        f"time.{func.attr}() reads the clock directly; "
                        "use repro.obs.time_block(name) (or "
                        "repro.obs.monotonic() for elapsed displays) so "
                        "timing is free when stats are off and lands in "
                        "the run report",
                        source=relpath,
                        line=node.lineno,
                    )
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in CLOCK_FUNCTIONS
            )
            if bad:
                findings.append(
                    make(
                        "R005",
                        relpath,
                        f"`from time import {', '.join(bad)}` bypasses "
                        "the telemetry layer; use "
                        "repro.obs.time_block/monotonic instead",
                        source=relpath,
                        line=node.lineno,
                    )
                )
    return findings


def lint_source(text: str, relpath: str) -> list[Diagnostic]:
    """Run every applicable AST check on one file's source text.

    Args:
        text: the Python source.
        relpath: repo-relative POSIX path; decides which checks apply.

    Raises:
        SyntaxError: when ``text`` does not parse (the CLI wrapper turns
            this into its own error report).
    """
    findings: list[Diagnostic] = []
    if not relpath.endswith(".py"):
        return findings
    applicable = (
        _in_scope(relpath, RNG_SCOPE)
        or _in_scope(relpath, DETERMINISM_SCOPE)
        or _in_scope(relpath, LAMBDA_SCOPE)
        or _in_scope(relpath, CLOCK_SCOPE)
    )
    if not applicable:
        return findings
    tree = ast.parse(text, filename=relpath)
    if _in_scope(relpath, RNG_SCOPE):
        findings.extend(_rng_findings(tree, relpath))
    if _in_scope(relpath, DETERMINISM_SCOPE):
        findings.extend(_set_iteration_findings(tree, relpath))
    if _in_scope(relpath, LAMBDA_SCOPE):
        findings.extend(_lambda_findings(tree, relpath))
    if _in_scope(relpath, CLOCK_SCOPE) and not _in_scope(
        relpath, CLOCK_ALLOWLIST
    ):
        findings.extend(_raw_clock_findings(tree, relpath))
    return findings


def lint_file(path: str, root: str) -> list[Diagnostic]:
    """Lint one file on disk, deriving its repo-relative scope path."""
    relpath = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    relpath = relpath.replace(os.sep, "/")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return lint_source(text, relpath)


def lint_tree(root: str, subdir: str = "src") -> list[Diagnostic]:
    """Lint every ``*.py`` under ``root/subdir``, in sorted path order."""
    base = os.path.join(root, subdir)
    findings: list[Diagnostic] = []
    paths: list[str] = []
    if os.path.isfile(base):
        paths.append(base)
    else:
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    paths.append(os.path.join(dirpath, filename))
    for path in paths:
        findings.extend(lint_file(path, root))
    return findings


def check_engine_version_bump(
    changed_paths: Sequence[str], version_bumped: bool
) -> list[Diagnostic]:
    """R004: engine-touching diffs must move ``ENGINE_VERSION``.

    Pure function: ``changed_paths`` are repo-relative POSIX paths from a
    diff, ``version_bumped`` says whether the ``ENGINE_VERSION``
    assignment in :data:`ENGINE_VERSION_FILE` differs between the diff's
    endpoints.  ``tools/lint_repro.py --diff-base REF`` supplies both
    from git.
    """
    normalized = [path.replace(os.sep, "/") for path in changed_paths]
    offending = sorted(
        path for path in normalized if _in_scope(path, ENGINE_PATHS)
    )
    if not offending or version_bumped:
        return []
    return [
        make(
            "R004",
            ENGINE_VERSION_FILE,
            "diff touches result-computing code ("
            + ", ".join(offending)
            + ") without bumping ENGINE_VERSION; the on-disk result "
            "cache would serve stale verdicts",
            source=ENGINE_VERSION_FILE,
        )
    ]
