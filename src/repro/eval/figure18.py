"""Figure 18: normalized uPC of ARM / GAM0 / Alpha* against GAM.

The paper's headline performance result: across 55 SPEC CPU2006 inputs,
the uPC improvements of the three relaxed variants over GAM are negligible
(< 0.3% on average, never above 3%).  This harness regenerates the figure
on the synthetic workload suite: same four models, same normalization, the
same ``average`` column appended last.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from ..sim.config import CoreConfig
from ..sim.core import OOOCore
from ..sim.policies import ALL_POLICIES, ModelPolicy
from ..sim.stats import SimStats
from ..workloads.generator import generate_trace
from ..workloads.profiles import get_profile, profile_names
from .render import render_bar_chart, render_table

__all__ = ["Figure18Row", "Figure18Result", "run_figure18", "render_figure18"]

DEFAULT_TRACE_LENGTH = 12_000


@dataclass(frozen=True)
class Figure18Row:
    """Per-workload uPC for the four models, normalized to GAM."""

    workload: str
    upc: dict[str, float]

    def normalized(self, name: str) -> float:
        """uPC of ``name`` divided by GAM's uPC."""
        return self.upc[name] / self.upc["GAM"] if self.upc["GAM"] else 0.0


@dataclass
class Figure18Result:
    """All rows plus the stats objects for deeper analysis (Tables II-III)."""

    rows: list[Figure18Row] = field(default_factory=list)
    stats: dict[tuple[str, str], SimStats] = field(default_factory=dict)

    def average_normalized(self, name: str) -> float:
        """The figure's final 'average' column for one model."""
        values = [row.normalized(name) for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def max_normalized(self, name: str) -> float:
        """Largest per-workload normalized uPC for one model."""
        return max((row.normalized(name) for row in self.rows), default=0.0)


def run_figure18(
    workloads: Optional[Sequence[str]] = None,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 1,
    config: Optional[CoreConfig] = None,
    policies: Sequence[ModelPolicy] = ALL_POLICIES,
    checkpoints: int = 1,
) -> Figure18Result:
    """Simulate every workload under every policy.

    Args:
        workloads: subset of profile names (default: all 55).
        trace_length: uOPs per workload (the paper simulates 100M per
            checkpoint; the default here keeps a laptop run in minutes —
            raise it for tighter statistics).
        seed: workload-generation seed.
        config: core configuration (default Table I).
        policies: the simulated models (default: GAM, ARM, GAM0, Alpha*).
        checkpoints: independent trace samples per workload, mirroring the
            paper's 10-uniformly-distributed-checkpoints methodology; uPC
            and event statistics are aggregated across them (the stats
            entry keeps the first checkpoint's counters plus aggregate
            rates).
    """
    result = Figure18Result()
    names = list(workloads) if workloads is not None else list(profile_names())
    for name in names:
        upc: dict[str, float] = {}
        for policy in policies:
            total_uops = 0
            total_cycles = 0
            aggregate: Optional[SimStats] = None
            for checkpoint in range(checkpoints):
                trace = generate_trace(
                    get_profile(name),
                    length=trace_length,
                    seed=seed + checkpoint,
                )
                stats = OOOCore(config=config, policy=policy).run(trace)
                total_uops += stats.committed_uops
                total_cycles += stats.cycles
                if aggregate is None:
                    aggregate = stats
                else:
                    _accumulate(aggregate, stats)
            upc[policy.name] = total_uops / total_cycles if total_cycles else 0.0
            result.stats[(name, policy.name)] = aggregate
        result.rows.append(Figure18Row(workload=name, upc=upc))
    return result


_ACCUMULATED_FIELDS = tuple(
    stat.name for stat in fields(SimStats) if isinstance(stat.default, int)
)
"""Every counter of :class:`SimStats`: the fields with an ``int`` default."""


def _accumulate(into: SimStats, stats: SimStats) -> None:
    """Fold one checkpoint's counters into the aggregate."""
    for field_name in _ACCUMULATED_FIELDS:
        setattr(into, field_name, getattr(into, field_name) + getattr(stats, field_name))


def render_figure18(result: Figure18Result) -> str:
    """Render the figure as a table plus an average bar chart."""
    model_names = [p.name for p in ALL_POLICIES if p.name != "GAM"]
    rows = []
    for row in result.rows:
        rows.append(
            [row.workload, f"{row.upc['GAM']:.3f}"]
            + [f"{row.normalized(name):.4f}" for name in model_names]
        )
    rows.append(
        ["average", ""]
        + [f"{result.average_normalized(name):.4f}" for name in model_names]
    )
    table = render_table(
        ["workload", "GAM uPC"] + [f"{n}/GAM" for n in model_names],
        rows,
        title="Figure 18: normalized uPC (baseline: GAM)",
    )
    chart = render_bar_chart(
        model_names,
        [result.average_normalized(name) for name in model_names],
        title="Average normalized uPC (1.0 = GAM)",
    )
    return table + "\n\n" + chart
