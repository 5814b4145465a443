"""Simulation statistics: the quantities Figure 18 and Tables II-III report."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimStats"]


@dataclass
class SimStats:
    """Counters collected by one simulator run.

    All ``*_per_1k`` helpers normalize by *committed* uOPs, matching the
    paper's "events per 1K uOPs" reporting.
    """

    workload: str = ""
    policy: str = ""
    cycles: int = 0
    committed_uops: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0
    mispredicted_branches: int = 0
    saldld_kills: int = 0
    saldld_stalls: int = 0
    conflict_kills: int = 0
    ldld_forwards: int = 0
    ldld_forwards_would_miss: int = 0
    sb_forwards: int = 0
    l1_load_hits: int = 0
    l1_load_misses: int = 0
    l2_load_hits: int = 0
    l3_load_hits: int = 0
    memory_loads: int = 0

    @property
    def upc(self) -> float:
        """Committed uOPs per cycle — the paper's headline metric."""
        if self.cycles == 0:
            return 0.0
        return self.committed_uops / self.cycles

    def per_1k(self, count: int) -> float:
        """Normalize an event count to per-1000-committed-uOPs."""
        if self.committed_uops == 0:
            return 0.0
        return 1000.0 * count / self.committed_uops

    @property
    def kills_per_1k(self) -> float:
        """SALdLd kills per 1K uOPs (Table II row 1)."""
        return self.per_1k(self.saldld_kills)

    @property
    def stalls_per_1k(self) -> float:
        """SALdLd stalls per 1K uOPs (Table II rows 2-3)."""
        return self.per_1k(self.saldld_stalls)

    @property
    def ldld_forwards_per_1k(self) -> float:
        """Load-load forwardings per 1K uOPs (Table III row 1)."""
        return self.per_1k(self.ldld_forwards)

    @property
    def l1_load_misses_per_1k(self) -> float:
        """L1 load misses per 1K uOPs (input to Table III row 2)."""
        return self.per_1k(self.l1_load_misses)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.workload}/{self.policy}: uPC={self.upc:.3f} "
            f"kills/1k={self.kills_per_1k:.2f} stalls/1k={self.stalls_per_1k:.2f} "
            f"ldld/1k={self.ldld_forwards_per_1k:.2f} "
            f"L1miss/1k={self.l1_load_misses_per_1k:.2f}"
        )
