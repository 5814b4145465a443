#!/usr/bin/env python
"""Run the repo-invariant (``R###``) lint checks over the source tree.

The pure AST analyzers live in :mod:`repro.lint.repo`; this wrapper adds
the filesystem walk, the ``git diff`` glue for the ``R004``
engine-version-bump check, and report rendering/exit policy.  CI runs it
over ``src/`` on every push, and on pull requests adds the ``R004`` check
against the base branch; run it locally before sending an engine-touching
change.

Usage::

    PYTHONPATH=src python tools/lint_repro.py                 # lint src/
    PYTHONPATH=src python tools/lint_repro.py src/repro/engine
    PYTHONPATH=src python tools/lint_repro.py --diff-base origin/main
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.lint.diagnostics import LintReport  # noqa: E402
from repro.lint.repo import (  # noqa: E402
    ENGINE_VERSION_FILE,
    check_engine_version_bump,
    lint_tree,
)

_VERSION_RE = re.compile(r"^ENGINE_VERSION\s*=\s*(\S+)", re.MULTILINE)


def _git(*args: str) -> str:
    """Run one git command at the repo root, returning stdout."""
    result = subprocess.run(
        ["git", *args],
        cwd=_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def _changed_paths(base: str) -> list[str]:
    """Repo-relative paths changed between ``base`` and the worktree."""
    output = _git("diff", "--name-only", base, "--")
    return [line.strip() for line in output.splitlines() if line.strip()]


def _version_bumped(base: str) -> bool:
    """Does ``ENGINE_VERSION`` differ between ``base`` and the worktree?

    A missing base-side file (the engine predates the file moving, or the
    ref lacks it) counts as bumped: there is no stale cache to protect.
    """
    try:
        old_text = _git("show", f"{base}:{ENGINE_VERSION_FILE}")
    except subprocess.CalledProcessError:
        return True
    with open(
        os.path.join(_ROOT, ENGINE_VERSION_FILE), encoding="utf-8"
    ) as handle:
        new_text = handle.read()
    old = _VERSION_RE.search(old_text)
    new = _VERSION_RE.search(new_text)
    if old is None or new is None:
        return True
    return old.group(1) != new.group(1)


def main(argv=None) -> int:
    """Lint the given paths (default ``src``); exit 1 on error findings."""
    parser = argparse.ArgumentParser(
        description="repo-invariant (R###) lint checks"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="repo-relative files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--diff-base",
        default=None,
        metavar="REF",
        help="also run the R004 engine-version-bump check against "
        "`git diff REF`",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    args = parser.parse_args(argv)

    findings = []
    for path in args.paths:
        try:
            findings.extend(lint_tree(_ROOT, path))
        except SyntaxError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    if args.diff_base is not None:
        try:
            changed = _changed_paths(args.diff_base)
            bumped = _version_bumped(args.diff_base)
        except subprocess.CalledProcessError as exc:
            print(
                f"error: git failed for --diff-base {args.diff_base!r}: "
                f"{exc.stderr.strip() if exc.stderr else exc}",
                file=sys.stderr,
            )
            return 2
        findings.extend(check_engine_version_bump(changed, bumped))

    report = LintReport(findings=tuple(findings))
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_status()


if __name__ == "__main__":
    sys.exit(main())
