#!/usr/bin/env python
"""Generate ``docs/robustness.md`` from the live fault-tolerance vocabulary.

Like ``tools/gen_obs_docs.py``, the robustness reference is *derived*,
never hand-maintained: the ``--on-error`` modes, the failure reasons
recorded in quarantine files and the fault-injection kinds all come from
the dictionaries the engine itself validates against
(:mod:`repro.engine.policy` and :mod:`repro.engine.faults`), so a new
mode or fault kind cannot ship undocumented.  The committed
``docs/robustness.md`` is asserted in sync by ``tests/test_docs.py`` and
the CI docs job.

Usage::

    PYTHONPATH=src python tools/gen_robustness_docs.py            # rewrite
    PYTHONPATH=src python tools/gen_robustness_docs.py --check    # exit 1 if stale
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tools`` for the shared write-or-check helper.
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tools")]

from docgen import write_or_check  # noqa: E402

from repro.engine.faults import FAULT_KINDS, FAULTS_ENV_VAR  # noqa: E402
from repro.engine.policy import FAILURE_REASONS, ON_ERROR_MODES  # noqa: E402

OUTPUT = os.path.join(_ROOT, "docs", "robustness.md")

_HEADER = f"""\
# Robustness: execution policies, quarantine and fault injection

> Generated by `tools/gen_robustness_docs.py` from the vocabulary in
> `src/repro/engine/policy.py` and `src/repro/engine/faults.py` — do not
> edit by hand.  Regenerate with
> `PYTHONPATH=src python tools/gen_robustness_docs.py`; the CI docs job
> fails when this file is out of sync.

A long differential campaign is only as useful as its worst test: one
pathological cell that hangs, overflows or crashes a worker should cost
*that test*, not the campaign.  The fault-tolerance layer makes failure
a first-class engine outcome — an `ExecutionPolicy` decides how hard to
try (per-batch deadline, bounded retries) and what a batch that still
fails becomes (an exception, a skip, or a durable quarantine record) —
and a deterministic fault-injection harness keeps every recovery path
under test.

## Execution policies

```python
from repro.engine import ExecutionPolicy, evaluate_cells

policy = ExecutionPolicy(timeout=60.0, retries=2, on_error="quarantine")
results = evaluate_cells(cells, jobs=4, policy=policy)
```

* `timeout` — per-batch deadline in seconds, measured from dispatch.  A
  deadline needs a killable executor, so setting one forces pooled
  execution even at `--jobs 1`; the pool is killed and restarted, and
  unfinished innocent batches are resubmitted without being charged an
  attempt.
* `retries` — how many times a failed batch is re-run after its first
  attempt, with a fixed exponential backoff (0.1s before the first
  retry, doubled for each one after it).  Domain overflows are never
  retried — they are deterministic verdicts about the test, not
  transient faults.
* `on_error` — what a batch that exhausted its retries becomes (table
  below).

The default policy (no deadline, no retries, `fail`) reproduces
historical behaviour exactly: engine results, campaign reports and CLI
stdout are byte-identical to a build without the fault-tolerance layer.

On the CLI the policy rides as `--timeout S`, `--retries N` and
`--on-error MODE` on `check`, `matrix`, `equiv`, `strength` and `hunt`.

## `on_error` modes
"""

_MIDDLE = f"""\
Under `skip` and `quarantine` a failed batch's cells come back as
`CellFailure` records (test name, reason, message, worker traceback,
attempt count) instead of verdicts or outcome sets; the harnesses render
them as `skip` cells (`matrix`), skipped tests (`strength`), `skip`
rows (`equiv`) or quarantined entries (`hunt`).  Campaigns additionally
persist the records: a hunt writes `quarantine.json` next to
`report.txt`, derived from the shard files on every run — so it is
crash-safe, resume-correct, and lists every failure with its reason and
attempt count.  Quarantined tests are excluded from discrepancy mining
and reported at the foot of the hunt report.

## Failure reasons

The `reason` recorded on every `CellFailure` and quarantine entry:
"""

_FAULTS_INTRO = f"""\
## Fault injection

A recovery path that only runs during real crashes is untested code.
The harness in `repro.engine.faults` arms the scheduler with *planned*
faults, targeted at a specific batch, test or attempt:

```console
$ REPRO_FAULTS="crash:test=sb,attempts=1;hang:test=mp,seconds=60" \\
      repro hunt --out DIR --suite paper --timeout 5 --retries 1 \\
      --on-error quarantine
```

A plan is a `;`-separated list of `kind:key=value,...` actions
(selectors: `batch=N`, `test=NAME`, `attempts=A` — fire on attempts
1..A only, so retries recover — and `seconds=S` for `hang`).  Plans
are armed only through the `{FAULTS_ENV_VAR}` environment variable, so
tests and CI arm faults around an unmodified `repro` invocation; each
engine call reads it once and ships the plan to its workers.  Serial
and pooled runs settle a faulted batch the same way.  Everything is
deterministic: the same plan against the same cell grid fires the same
faults.

### Fault kinds
"""

_FOOTER = """\
## Cache safety

A result cache is one SQLite database per directory, read and written
by the parent process of each run only: workers receive the parent's
answers and return results.  The parent commits computed rows in one
transaction per 64 settled batches, at the end of each engine call and
before it re-raises a failure; a commit that fails then does not mask
the failure being raised.  A process killed mid-commit is rolled
back by the next process to open the database, so a reader sees each
commit whole or not at all and nothing is left behind to sweep; a
corrupted entry is re-counted as a miss and recomputed.

```console
$ repro cache stats DIR                       # entry count + bytes on disk
```

## Observability

The recovery machinery reports through the closed metric registry
(`engine.retries`, `engine.timeouts`, `engine.batches.quarantined`,
`engine.pool.restarts` — see [observability.md](observability.md)), and
`repro hunt --stats` adds heartbeat lines with time-since-last-batch
plus a stall warning when a batch exceeds the stall deadline.

See also: [cli.md](cli.md) for the flag reference,
[architecture.md](architecture.md) for where the policy layer sits in
the engine, and `tests/test_robustness.py` for the chaos suite that
exercises every path documented here.
"""


def _table(rows: dict) -> list:
    """A two-column name/description markdown table, sorted by name."""
    lines = ["| name | meaning |", "|------|---------|"]
    for name in sorted(rows):
        lines.append(f"| `{name}` | {rows[name]} |")
    return lines


def render_robustness_docs() -> str:
    """The full ``docs/robustness.md`` text (deterministic)."""
    lines = [_HEADER, ""]
    lines.extend(_table(ON_ERROR_MODES))
    lines.append("")
    lines.append(_MIDDLE)
    lines.extend(_table(FAILURE_REASONS))
    lines.append("")
    lines.append(_FAULTS_INTRO)
    lines.append("")
    lines.extend(_table(FAULT_KINDS))
    lines.append("")
    lines.append(_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    """Write (or with ``--check`` verify) ``docs/robustness.md``."""
    return write_or_check(
        OUTPUT,
        render_robustness_docs(),
        "docs/robustness.md is out of sync with the engine "
        "vocabulary; run: PYTHONPATH=src python tools/gen_robustness_docs.py",
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
