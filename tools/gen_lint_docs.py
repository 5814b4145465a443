#!/usr/bin/env python
"""Generate ``docs/lint.md`` from the live diagnostic-code catalog.

Like ``tools/gen_cli_docs.py`` and ``tools/gen_model_docs.py``, the lint
reference is *derived*, never hand-maintained: every section comes from
:data:`repro.lint.diagnostics.CODES` — the same catalog the analyzers
validate their findings against — so a new diagnostic cannot ship
undocumented.  The committed ``docs/lint.md`` is asserted in sync by
``tests/test_docs.py`` and the CI docs job.

Usage::

    PYTHONPATH=src python tools/gen_lint_docs.py            # rewrite docs/lint.md
    PYTHONPATH=src python tools/gen_lint_docs.py --check    # exit 1 if stale
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tools`` for the shared write-or-check helper.
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tools")]

from docgen import write_or_check  # noqa: E402

from repro.lint.diagnostics import CODES  # noqa: E402

OUTPUT = os.path.join(_ROOT, "docs", "lint.md")

_HEADER = """\
# Lint: static diagnostics for tests, models and the repo

> Generated by `tools/gen_lint_docs.py` from the diagnostic-code catalog
> in `src/repro/lint/diagnostics.py` — do not edit by hand.  Regenerate
> with `PYTHONPATH=src python tools/gen_lint_docs.py`; the CI docs job
> fails when this file is out of sync.

The lint subsystem (`repro.lint`) answers, *before* any engine time is
spent: is this input well-formed, non-redundant, and consistent with
what the rest of the repository assumes?  All checks are static — they
look only at programs, outcome specs, clause lists and source text,
never at executions — so linting the whole corpus costs milliseconds.

## Surfaces

```console
$ repro lint [--suite SUITE] [-m MODEL ...] [--format {text,json}] [--strict] [--edges N]
$ repro gen --dedupe            # drop isomorphic duplicates (canonical hash)
$ repro hunt ... [--no-lint]    # error findings veto the campaign pre-flight
$ PYTHONPATH=src python tools/lint_repro.py [PATH ...] [--diff-base REF]
```

`repro lint` runs the litmus (`L###`) and model (`M###`) analyzers over
a suite and a model set (default: `--suite all` against the registry
zoo).  `repro gen` and `repro hunt` run the error-level subset as a
pre-flight; `hunt` refuses to write any campaign state while it fails
(`--no-lint` overrides).  `tools/lint_repro.py` runs the repo-invariant
(`R###`) AST checks, in CI on every push.

## Severities and exit status

| severity | `repro lint` exit | pre-flight |
|----------|-------------------|------------|
| `error`  | 1                 | refused    |
| `warning`| 0 (1 under `--strict`) | passes |
| `info`   | 0                 | passes     |

Findings render as one line each — `severity code source:line: subject:
message` — or as a stable JSON document under `--format json`
(`{"version": 1, "counts": ..., "findings": [...]}`).

## Canonical identity

Two litmus tests are *isomorphic* when one maps onto the other by
renaming registers (per thread), renaming/relocating locations,
renaming branch labels, and permuting threads.  Every harness here is
invariant under those renamings, so isomorphic tests have identical
verdicts under every model.  `repro.lint.canon.canonical_hash` is the
dedupe primitive behind `L009`, `repro gen --dedupe`, and `L010`'s
edge-signature recovery (mapping hand-written tests back onto the
generator's diy-style cycle vocabulary, e.g. `corr` ->
`posrr+fre+rfe`).
"""

_GROUPS = (
    ("L", "Litmus-test diagnostics (`L###`)"),
    ("M", "Model-spec diagnostics (`M###`)"),
    ("R", "Repo-invariant diagnostics (`R###`)"),
)

_FOOTER = """\
See also: [architecture.md](architecture.md) for where lint sits in the
stack, [cli.md](cli.md) for the full `repro lint` flag reference, and
`src/repro/lint/` for the analyzers themselves.
"""


def render_lint_docs() -> str:
    """The full ``docs/lint.md`` text (deterministic)."""
    lines = [_HEADER]
    for prefix, heading in _GROUPS:
        lines.append(f"## {heading}")
        lines.append("")
        for code, info in CODES.items():
            if not code.startswith(prefix):
                continue
            lines.append(
                f"### `{code}` — {info.title} ({info.severity.value})"
            )
            lines.append("")
            lines.append(info.summary)
            lines.append("")
            lines.append(f"*Example:* {info.example}")
            lines.append("")
    lines.append(_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    """Write (or with ``--check`` verify) ``docs/lint.md``."""
    return write_or_check(
        OUTPUT,
        render_lint_docs(),
        "docs/lint.md is out of sync with the diagnostic catalog; "
        "run: PYTHONPATH=src python tools/gen_lint_docs.py",
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
