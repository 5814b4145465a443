"""Differential model-hunt campaigns: sharded, resumable, minimizing.

The paper's positioning claim — WMM sits usefully between SC/TSO and
ARM/Alpha — is only demonstrable by *hunting*: generating litmus tests at
scale, running them differentially across the model zoo, and boiling each
disagreement down to a witness small enough to reason about (the Herding
Cats methodology).  This package is that hunt as an open-ended,
interruptible process:

* :mod:`.state` — the persistent campaign directory: an immutable spec
  (suite, pairs, shard count, engine/model digests), atomic per-shard
  verdict records, the engine result cache, witnesses and the report;
* :mod:`.minimize` — greedy divergence-preserving shrinking of each
  discrepant test (instruction deletion + empty-processor removal);
* :mod:`.driver` — :func:`~repro.campaign.driver.run_hunt`, which
  evaluates incomplete shards through the batch engine
  (:mod:`repro.engine`), mines pair divergences from the accumulated
  records (:mod:`repro.eval.discrepancy`, whose ``PairKind`` says what a
  pair compares), minimizes and re-verifies every witness, and writes
  the ranked report.

Everything downstream of the spec is deterministic — suite resolution,
sharding, verdict evaluation, mining order, greedy minimization — so a
campaign killed at any point reaches the *same* final report when
re-run, which is what makes ``repro hunt`` safe to drive from cron jobs,
CI, or (via the shard records) future multi-machine fan-out.
"""

from __future__ import annotations

from .driver import DEFAULT_PAIRS, HuntReport, WitnessRecord, run_hunt
from .minimize import (
    MinimizationResult,
    divergence_check,
    instruction_count,
    minimize_divergence,
)
from .state import CampaignDir, CampaignError, CampaignSpec, model_digest

__all__ = [
    "CampaignDir",
    "CampaignError",
    "CampaignSpec",
    "DEFAULT_PAIRS",
    "HuntReport",
    "MinimizationResult",
    "WitnessRecord",
    "divergence_check",
    "instruction_count",
    "minimize_divergence",
    "model_digest",
    "run_hunt",
]
