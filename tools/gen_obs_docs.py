#!/usr/bin/env python
"""Generate ``docs/observability.md`` from the live metric registry.

Like ``tools/gen_lint_docs.py``, the telemetry reference is *derived*,
never hand-maintained: every metric row comes from
:data:`repro.obs.registry.METRICS` — the same catalog active recorders
validate names against — so a new metric cannot ship undocumented.  The
committed ``docs/observability.md`` is asserted in sync by
``tests/test_docs.py`` and the CI docs job.

Usage::

    PYTHONPATH=src python tools/gen_obs_docs.py            # rewrite the doc
    PYTHONPATH=src python tools/gen_obs_docs.py --check    # exit 1 if stale
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tools`` for the shared write-or-check helper.
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tools")]

from docgen import write_or_check  # noqa: E402

from repro.obs.registry import METRICS  # noqa: E402
from repro.obs.report import REPORT_SCHEMA  # noqa: E402

OUTPUT = os.path.join(_ROOT, "docs", "observability.md")

_HEADER = f"""\
# Observability: engine telemetry, run reports and `repro stats`

> Generated by `tools/gen_obs_docs.py` from the metric registry in
> `src/repro/obs/registry.py` — do not edit by hand.  Regenerate with
> `PYTHONPATH=src python tools/gen_obs_docs.py`; the CI docs job fails
> when this file is out of sync.

The telemetry subsystem (`repro.obs`) instruments the evaluation engine
— cell scheduler, axiomatic dispatch, frontier kernel, result cache and
campaign driver — with named counters, timers and histograms.  It is
dependency-free, and **off by default**: the installed recorder is a
no-op whose methods return immediately, and the timer context manager
never reads a clock while disabled, so all instrumented outputs stay
byte-identical to an uninstrumented run.

## Surfaces

```console
$ repro matrix --stats            # text run report on stderr
$ repro matrix --stats json 2> stats.json   # machine-readable capture
$ repro hunt --out DIR ... --stats          # + per-shard heartbeat lines
$ repro stats DIR                 # render DIR/stats.json
$ repro stats A B                 # counter diff of two reports
```

`--stats [text|json]` is accepted by `matrix`, `check`, `equiv`,
`strength` and `hunt`; the report goes to *stderr* so stdout stays
byte-for-byte identical to a run without the flag.  `repro hunt` also
persists every run's report as `stats.json` in the campaign directory
(overwritten per run — diff a cold run against a warm resume with
`repro stats`).

With `--jobs N` each worker collects into a private recorder and ships
a picklable snapshot back with its batch results; the parent merges
them in deterministic batch order, so **pooled counter totals equal the
serial run exactly**.  Timers and histograms carry wall-clock noise and
are excluded from all comparisons.

## Run report schema (version {REPORT_SCHEMA})

```json
{{
  "schema": {REPORT_SCHEMA},
  "command": "hunt",
  "meta": {{"suite": "...", "jobs": 1}},
  "counters": {{"engine.cells.evaluated": 96}},
  "timers": {{"engine.wall.seconds": {{"count": 1, "total_s": 0.5,
              "p50_s": 0.5, "p95_s": 0.5, "max_s": 0.5}}}},
  "histograms": {{"engine.batch.cells": {{"count": 12, "p50": 8,
                  "p95": 8, "max": 8}}}}
}}
```

`counters` is sorted by name and deterministic for a fixed workload;
`timers`/`histograms` are nearest-rank percentile summaries.  The
vocabulary is **closed**: every name must resolve in the registry below
(`repro.obs.validate_report` enforces this, and the CI stats-smoke step
runs it against a live `--stats json` capture).  Names under a family
marked *dynamic* carry a trailing per-model label, e.g.
`engine.cache.hit.by.gam`.

## Programmatic use

```python
from repro.obs import collecting, RunReport

with collecting() as recorder:
    run_engine_work()
    report = RunReport.from_snapshot(recorder.snapshot(), command="my-tool")
print(report.render_text())
```

Instrumented code calls `incr(name)`, `observe(name, value)` and
`time_block(name)` unconditionally; whether anything is recorded is the
installed recorder's business.  Recording a name absent from the
registry raises `ValueError` (on active recorders only) — add the
metric to `src/repro/obs/registry.py` and regenerate this document.
"""

_SECTIONS = (
    ("counter", "Counters"),
    ("timer", "Timers"),
    ("histogram", "Histograms"),
)

_FOOTER = """\
See also: [cli.md](cli.md) for the `--stats` / `repro stats` flag
reference, [lint.md](lint.md) for `R005` (raw clock reads in engine and
campaign code must go through `repro.obs`), and `src/repro/obs/` for
the implementation.
"""


def render_obs_docs() -> str:
    """The full ``docs/observability.md`` text (deterministic)."""
    lines = [_HEADER]
    for kind, heading in _SECTIONS:
        lines.append(f"## {heading}")
        lines.append("")
        lines.append("| name | unit | description |")
        lines.append("|------|------|-------------|")
        for name in sorted(METRICS):
            spec = METRICS[name]
            if spec.kind != kind:
                continue
            shown = f"`{name}.<label>`" if spec.dynamic else f"`{name}`"
            lines.append(f"| {shown} | {spec.unit} | {spec.description} |")
        lines.append("")
    lines.append(_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    """Write (or with ``--check`` verify) ``docs/observability.md``."""
    return write_or_check(
        OUTPUT,
        render_obs_docs(),
        "docs/observability.md is out of sync with the metric "
        "registry; run: PYTHONPATH=src python tools/gen_obs_docs.py",
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
