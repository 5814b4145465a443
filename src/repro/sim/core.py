"""A cycle-driven out-of-order core with model-specific load scheduling.

This is the reproduction's stand-in for the paper's modified GEM5 O3 model
(Section V-A).  It simulates the mechanisms the four evaluated memory
models actually vary:

* register renaming and dataflow wake-up through a 60-entry window,
* speculative load execution past unresolved store addresses, with
  conflict kills when a store's address resolution exposes a violation
  (constraint LdVal / SAStLd) and a store-set–style memory dependence
  predictor that suppresses repeat violations (GEM5's O3 has the same),
* same-address load-load **kills** and **stalls** (constraint SALdLd; GAM),
  stalls only (ARM), or neither (GAM0),
* store-to-load forwarding from the store buffer, and optionally load-load
  data forwarding (Alpha*),
* mispredicted-branch fetch redirects, ROB/RS/LB/SB capacity stalls,
  LSU-port and MSHR back-pressure, function-unit contention and the
  Table I cache hierarchy.

Simplifications relative to GEM5, none of which affect the *relative*
behaviour of the four policies: the trace is the committed path (wrong-path
execution is charged as a fetch bubble rather than simulated), writeback
bandwidth is not a separate limiter, and stores write the cache at commit
via the store-buffer drain.
"""

from __future__ import annotations

from typing import Optional

from .cache import CacheHierarchy
from .config import CoreConfig
from .policies import GAM, ModelPolicy
from .stats import SimStats
from .uops import Trace, Uop, UopKind

__all__ = ["OOOCore", "simulate"]

_NONPIPELINED = (UopKind.INT_MUL, UopKind.INT_DIV, UopKind.FP_MUL, UopKind.FP_DIV)


class _Entry:
    """One in-flight uOP (an ROB entry)."""

    __slots__ = (
        "idx",
        "uop",
        "producers",
        "issued",
        "done_cycle",
        "addr_ready_cycle",
        "bound",
        "source_store_idx",
        "stall_counted",
        "committed",
        "squashed",
    )

    def __init__(self, idx: int, uop: Uop, producers: tuple["_Entry", ...]) -> None:
        self.idx = idx
        self.uop = uop
        self.producers = producers
        self.issued = False
        self.done_cycle: Optional[int] = None
        self.addr_ready_cycle: Optional[int] = None
        self.bound = False  # loads: memory action decided (value source fixed)
        self.source_store_idx: Optional[int] = None
        self.stall_counted = False
        self.committed = False
        self.squashed = False

    def addr_resolved(self, now: int) -> bool:
        return self.addr_ready_cycle is not None and self.addr_ready_cycle <= now

    def result_ready(self, now: int) -> bool:
        return self.done_cycle is not None and self.done_cycle <= now

    def sources_ready(self, now: int) -> bool:
        for producer in self.producers:
            if producer.committed:
                continue
            if not producer.result_ready(now):
                return False
        return True


class OOOCore:
    """The out-of-order core; one instance simulates one trace.

    Args:
        config: core and cache parameters (default: Table I).
        policy: the memory-model load-scheduling rules.
    """

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        policy: ModelPolicy = GAM,
    ) -> None:
        self.config = config or CoreConfig.haswell_like()
        self.policy = policy

    # -- public API ---------------------------------------------------------

    def run(self, trace: Trace, max_cycles: Optional[int] = None) -> SimStats:
        """Simulate ``trace`` to completion and return the statistics."""
        config = self.config
        policy = self.policy
        hierarchy = CacheHierarchy(config)
        stats = SimStats(workload=trace.name, policy=policy.name)
        uops = trace.uops
        limit = max_cycles or (600 * len(uops) + 200_000)

        rob: list[_Entry] = []
        last_writer: dict[int, _Entry] = {}
        next_fetch = 0
        fetch_resume = 0
        block_branch: Optional[_Entry] = None
        pending_writes: list[int] = []
        loads_in_rob = 0
        stores_in_rob = 0
        busy_units: dict[UopKind, list[int]] = {kind: [] for kind in _NONPIPELINED}
        # Store-set–style memory dependence predictor: loads that were once
        # killed by a store conflict wait for older store addresses.
        store_conflict_set: set[int] = set()

        def squash_from(position: int, reason: str, now: int) -> None:
            nonlocal next_fetch, fetch_resume, block_branch
            nonlocal loads_in_rob, stores_in_rob
            if reason == "saldld":
                stats.saldld_kills += 1
            else:
                stats.conflict_kills += 1
            next_fetch = rob[position].idx
            for entry in rob[position:]:
                entry.squashed = True
                if entry.uop.kind == UopKind.LOAD:
                    loads_in_rob -= 1
                elif entry.uop.kind == UopKind.STORE:
                    stores_in_rob -= 1
            del rob[position:]
            if block_branch is not None and block_branch.squashed:
                block_branch = None
            last_writer.clear()
            for entry in rob:
                if entry.uop.dst is not None:
                    last_writer[entry.uop.dst] = entry
            fetch_resume = max(fetch_resume, now + config.kill_penalty)

        def resolve_address(position: int, entry: _Entry, now: int) -> None:
            """Address-resolution kill checks (Compute-Mem-Addr analogue)."""
            kind = entry.uop.kind
            if kind == UopKind.LOAD and not policy.saldld_kills:
                return
            addr = entry.uop.addr
            for later_pos in range(position + 1, len(rob)):
                later = rob[later_pos]
                if not later.uop.kind.is_memory:
                    continue
                if not later.addr_resolved(now) or later.uop.addr != addr:
                    continue
                if later.uop.kind == UopKind.LOAD and later.bound:
                    stale = (
                        later.source_store_idx is None
                        or later.source_store_idx <= entry.idx
                    )
                    if stale:
                        if kind == UopKind.STORE:
                            store_conflict_set.add(later.idx)
                            squash_from(later_pos, "conflict", now)
                        else:
                            squash_from(later_pos, "saldld", now)
                return  # first same-address entry decides; stop either way

        def try_load_action(position: int, entry: _Entry, now: int) -> bool:
            """Attempt the memory action of a load whose address is known.

            Returns True if the load *bound* (value source fixed this cycle).
            """
            addr = entry.uop.addr
            if entry.idx in store_conflict_set:
                # Memory dependence predictor: wait for older store addresses.
                for older_pos in range(position - 1, -1, -1):
                    older = rob[older_pos]
                    if older.uop.kind == UopKind.STORE and not older.addr_resolved(now):
                        return False
            forward_from: Optional[_Entry] = None
            ldld_from: Optional[_Entry] = None
            stalled = False
            for older_pos in range(position - 1, -1, -1):
                older = rob[older_pos]
                if not older.uop.kind.is_memory:
                    continue
                if not older.addr_resolved(now) or older.uop.addr != addr:
                    continue
                if older.uop.kind == UopKind.STORE:
                    forward_from = older
                    break  # same-address store: forwarding barrier
                if not older.bound:
                    if policy.saldld_stalls:
                        stalled = True
                        break
                    continue  # GAM0/Alpha*: unstarted older loads are transparent
                if policy.ldld_forwarding:
                    ldld_from = older
                    break
                continue  # started older loads are transparent (Fig 17 skips done)
            if stalled:
                if not entry.stall_counted:
                    entry.stall_counted = True
                    stats.saldld_stalls += 1
                return False
            if forward_from is not None:
                if not forward_from.result_ready(now):
                    return False  # store data not produced yet (SAStLd timing)
                entry.bound = True
                entry.source_store_idx = forward_from.idx
                entry.done_cycle = now + 1
                stats.sb_forwards += 1
                return True
            if ldld_from is not None:
                entry.bound = True
                entry.source_store_idx = ldld_from.source_store_idx
                entry.done_cycle = max(now + 1, ldld_from.done_cycle + 1)
                stats.ldld_forwards += 1
                if hierarchy.would_miss_l1(addr):
                    stats.ldld_forwards_would_miss += 1
                return True
            if not hierarchy.l1.mshr_available(now) and hierarchy.would_miss_l1(addr):
                return False  # L1 MSHRs full: retry (creates stall windows)
            result = hierarchy.access(addr, now, is_store=False)
            entry.bound = True
            entry.source_store_idx = None
            entry.done_cycle = result.ready_cycle
            if result.level == "l1":
                stats.l1_load_hits += 1
            else:
                stats.l1_load_misses += 1
                if result.level == "l2":
                    stats.l2_load_hits += 1
                elif result.level == "l3":
                    stats.l3_load_hits += 1
                else:
                    stats.memory_loads += 1
            return True

        now = 0
        while next_fetch < len(uops) or rob or pending_writes:
            if now > limit:
                raise RuntimeError(
                    f"simulation of {trace.name!r} exceeded {limit} cycles"
                )
            progressed = False

            # 0. Store-buffer drain completions.
            if pending_writes:
                drained = [t for t in pending_writes if t > now]
                if len(drained) != len(pending_writes):
                    pending_writes = drained
                    progressed = True

            # 1. Address-resolution events (kill checks fire exactly once).
            position = 0
            while position < len(rob):
                entry = rob[position]
                if entry.addr_ready_cycle == now and entry.uop.kind.is_memory:
                    resolve_address(position, entry, now)
                position += 1

            # 2. Memory actions for loads with known addresses (LSU ports).
            action_budget = config.lsu_units
            position = 0
            while position < len(rob) and action_budget > 0:
                entry = rob[position]
                if (
                    entry.uop.kind == UopKind.LOAD
                    and entry.issued
                    and not entry.bound
                    and entry.addr_resolved(now)
                ):
                    if try_load_action(position, entry, now):
                        action_budget -= 1
                        progressed = True
                position += 1

            # 3. In-order commit.
            committed_this_cycle = 0
            while (
                rob
                and committed_this_cycle < config.commit_width
                and rob[0].result_ready(now)
            ):
                head = rob.pop(0)
                head.committed = True
                committed_this_cycle += 1
                progressed = True
                stats.committed_uops += 1
                kind = head.uop.kind
                if kind == UopKind.LOAD:
                    stats.committed_loads += 1
                    loads_in_rob -= 1
                elif kind == UopKind.STORE:
                    stats.committed_stores += 1
                    stores_in_rob -= 1
                    write = hierarchy.access(head.uop.addr, now, is_store=True)
                    pending_writes.append(write.ready_cycle)
                elif kind == UopKind.BRANCH:
                    stats.committed_branches += 1
                    if head.uop.mispredicted:
                        stats.mispredicted_branches += 1
                if head.uop.dst is not None and last_writer.get(head.uop.dst) is head:
                    del last_writer[head.uop.dst]

            # 4. Fetch / rename.
            if block_branch is not None and block_branch.done_cycle is not None:
                resume = block_branch.done_cycle + config.mispredict_penalty
                if now >= resume:
                    block_branch = None
            if block_branch is None and now >= fetch_resume:
                fetched = 0
                while fetched < config.fetch_width and next_fetch < len(uops):
                    if len(rob) >= config.rob_entries:
                        break
                    uop = uops[next_fetch]
                    if uop.kind == UopKind.LOAD and loads_in_rob >= config.lb_entries:
                        break
                    if uop.kind == UopKind.STORE and (
                        stores_in_rob + len(pending_writes) >= config.sb_entries
                    ):
                        break
                    producers = tuple(
                        last_writer[src] for src in uop.srcs if src in last_writer
                    )
                    entry = _Entry(next_fetch, uop, producers)
                    if uop.dst is not None:
                        last_writer[uop.dst] = entry
                    rob.append(entry)
                    if uop.kind == UopKind.LOAD:
                        loads_in_rob += 1
                    elif uop.kind == UopKind.STORE:
                        stores_in_rob += 1
                    next_fetch += 1
                    fetched += 1
                    progressed = True
                    if uop.kind == UopKind.BRANCH and uop.mispredicted:
                        block_branch = entry
                        break

            # 5. Issue (oldest first, within the reservation-station window).
            issue_budget = config.issue_width
            lsu_budget = config.lsu_units
            per_kind_issued: dict[UopKind, int] = {}
            window_seen = 0
            for entry in rob:
                if entry.issued:
                    continue
                window_seen += 1
                if window_seen > config.rs_entries or issue_budget == 0:
                    break
                kind = entry.uop.kind
                if not entry.sources_ready(now):
                    continue
                if kind.is_memory:
                    if lsu_budget == 0:
                        continue
                    entry.issued = True
                    entry.addr_ready_cycle = now + 1
                    if kind == UopKind.STORE:
                        entry.done_cycle = now + 1
                    lsu_budget -= 1
                    issue_budget -= 1
                    progressed = True
                    continue
                cap = config.units_of(kind)
                if per_kind_issued.get(kind, 0) >= cap:
                    continue
                if kind in busy_units:
                    busy = busy_units[kind]
                    busy[:] = [t for t in busy if t > now]
                    if len(busy) >= cap:
                        continue
                latency = config.latency_of(kind)
                entry.issued = True
                entry.done_cycle = now + latency
                if kind in busy_units:
                    busy_units[kind].append(now + latency)
                per_kind_issued[kind] = per_kind_issued.get(kind, 0) + 1
                issue_budget -= 1
                progressed = True

            # 6. Advance time; if the cycle was idle, skip to the next event.
            if progressed:
                now += 1
            else:
                now = self._next_event(
                    now, rob, pending_writes, fetch_resume, block_branch, config
                )

        stats.cycles = now
        return stats

    @staticmethod
    def _next_event(
        now: int,
        rob: list[_Entry],
        pending_writes: list[int],
        fetch_resume: int,
        block_branch: Optional[_Entry],
        config: CoreConfig,
    ) -> int:
        """The next cycle at which anything can change (idle fast-forward)."""
        candidates: list[int] = []
        for entry in rob:
            if entry.done_cycle is not None and entry.done_cycle > now:
                candidates.append(entry.done_cycle)
            if entry.addr_ready_cycle is not None and entry.addr_ready_cycle > now:
                candidates.append(entry.addr_ready_cycle)
        candidates.extend(t for t in pending_writes if t > now)
        if fetch_resume > now:
            candidates.append(fetch_resume)
        if block_branch is not None and block_branch.done_cycle is not None:
            candidates.append(block_branch.done_cycle + config.mispredict_penalty)
        if not candidates:
            return now + 1
        return max(now + 1, min(candidates))


def simulate(
    trace: Trace,
    policy: ModelPolicy = GAM,
    config: Optional[CoreConfig] = None,
) -> SimStats:
    """Convenience wrapper: simulate one trace under one policy."""
    return OOOCore(config=config, policy=policy).run(trace)
