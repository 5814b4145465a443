"""Property-based tests (hypothesis) for core invariants.

The key model-theory properties:

* **strength ordering** — SC ⊆ TSO ⊆ GAM ⊆ GAM0 ⊆ alpha-like outcome sets,
  and GAM ⊆ ARM (SALdLdARM is strictly weaker than SALdLd);
* **per-location SC** — every GAM execution is coherent (Section III-E1);
* **definition equivalence** — the Figure 17 machine and the axioms agree
  on random programs;

plus structural invariants of expressions, dependencies, ppo and the cache.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import enumerate_executions, execution_is_per_location_sc
from repro.core.axiomatic import enumerate_outcomes
from repro.core.dependencies import adep_edges, ddep_edges
from repro.core.ppo import PpoContext, compute_ppo, transitive_closure
from repro.equivalence.checker import check_suite
from repro.equivalence.randprog import RandomProgramConfig, random_litmus_test
from repro.isa.expr import BinOp, Const, Reg, UnOp, evaluate, registers_read
from repro.isa.instructions import Nop
from repro.isa.program import Program
from repro.models.registry import get_model

# ---------------------------------------------------------------------------
# Expression properties
# ---------------------------------------------------------------------------

_REG_NAMES = ("r0", "r1", "r2")


def _exprs(depth=3):
    base = st.one_of(
        st.integers(-100, 100).map(Const),
        st.sampled_from(_REG_NAMES).map(Reg),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*^&|"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(("-", "~", "!")), children).map(
                lambda t: UnOp(t[0], t[1])
            ),
        ),
        max_leaves=8,
    )


@given(_exprs(), st.dictionaries(st.sampled_from(_REG_NAMES), st.integers(-50, 50)))
def test_evaluate_needs_exactly_the_read_set(expr, partial_regs):
    regs = {name: partial_regs.get(name, 0) for name in _REG_NAMES}
    value = evaluate(expr, regs)
    # Restricting the register file to the syntactic read set is enough.
    restricted = {name: regs[name] for name in registers_read(expr)}
    assert evaluate(expr, restricted) == value


@given(_exprs())
def test_registers_read_subset_of_known(expr):
    assert registers_read(expr) <= set(_REG_NAMES)


@given(_exprs(), st.integers(-50, 50))
def test_evaluate_ignores_unread_registers(expr, noise):
    regs = {name: 1 for name in _REG_NAMES}
    value = evaluate(expr, regs)
    regs_plus = dict(regs)
    regs_plus["unrelated"] = noise
    assert evaluate(expr, regs_plus) == value


# ---------------------------------------------------------------------------
# Dependency / ppo invariants on random programs
# ---------------------------------------------------------------------------

_FAST_CONFIG = RandomProgramConfig(num_procs=2, max_instrs=4)
_PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _first_runs(test):
    """A representative run per processor (loads read 0)."""
    runs = []
    for program in test.programs:
        values = {index: 0 for index in program.load_indices()}
        runs.append(program.execute(values))
    return runs


@_PROPERTY_SETTINGS
@given(st.integers(0, 10_000))
def test_adep_subset_of_ddep_on_random_programs(seed):
    test = random_litmus_test(seed, _FAST_CONFIG)
    for run in _first_runs(test):
        assert adep_edges(run) <= ddep_edges(run)


@_PROPERTY_SETTINGS
@given(st.integers(0, 10_000))
def test_ppo_edges_point_forward_and_close(seed):
    test = random_litmus_test(seed, _FAST_CONFIG)
    gam = get_model("gam")
    for run in _first_runs(test):
        ctx = PpoContext.from_run(run)
        ppo = compute_ppo(ctx, gam.clauses)
        position = {e.index: i for i, e in enumerate(ctx.executed)}
        assert all(position[a] < position[b] for a, b in ppo)
        assert transitive_closure(ctx, ppo) == ppo


def _naive_closure(edges):
    closed = set(edges)
    while True:
        extra = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not extra:
            return frozenset(closed)
        closed |= extra


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        )
    )
)
def test_transitive_closure_matches_naive_fixpoint(size_and_edges):
    """The int-row closure equals a naive fixpoint on arbitrary edge sets,
    cycles and self-loops included."""
    n, edges = size_and_edges
    ctx = PpoContext.from_run(Program([Nop()] * n).execute({}))
    assert transitive_closure(ctx, edges) == _naive_closure(edges)


@_PROPERTY_SETTINGS
@given(st.integers(0, 10_000))
def test_gam_memory_ppo_subset_of_sc(seed):
    test = random_litmus_test(seed, _FAST_CONFIG)
    from repro.core.ppo import project_to_memory

    gam, sc = get_model("gam"), get_model("sc")
    for run in _first_runs(test):
        ctx = PpoContext.from_run(run)
        gam_edges = project_to_memory(ctx, compute_ppo(ctx, gam.clauses))
        sc_edges = project_to_memory(ctx, compute_ppo(ctx, sc.clauses))
        assert gam_edges <= sc_edges


# ---------------------------------------------------------------------------
# Model-strength ordering and coherence
# ---------------------------------------------------------------------------

_CHAIN = ("sc", "tso", "gam", "gam0", "alpha_like")


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_model_strength_chain(seed):
    test = random_litmus_test(seed, _FAST_CONFIG)
    outcome_sets = [
        enumerate_outcomes(test, get_model(name), project="full") for name in _CHAIN
    ]
    for weaker_name, stronger, weaker in zip(
        _CHAIN[1:], outcome_sets, outcome_sets[1:]
    ):
        assert stronger <= weaker, f"containment broken entering {weaker_name}"


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_gam_contained_in_arm(seed):
    test = random_litmus_test(seed, _FAST_CONFIG)
    gam = enumerate_outcomes(test, get_model("gam"), project="full")
    arm = enumerate_outcomes(test, get_model("arm"), project="full")
    assert gam <= arm


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_every_gam_execution_is_per_location_sc(seed):
    test = random_litmus_test(seed, _FAST_CONFIG)
    for execution in enumerate_executions(test, get_model("gam")):
        assert execution_is_per_location_sc(execution)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_operational_equals_axiomatic_on_random_programs(seed):
    test = random_litmus_test(seed, _FAST_CONFIG)
    (report,) = check_suite([test], pair_names=("gam",))
    assert report.equivalent


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=120))
def test_cache_accounting_invariants(addresses):
    from repro.sim.cache import CacheLevel
    from repro.sim.config import CacheConfig

    level = CacheLevel("t", CacheConfig(size_kb=1, ways=2, hit_latency=1, mshrs=4))
    lookups = 0
    for addr in addresses:
        hit = level.lookup(addr)
        lookups += 1
        if not hit:
            level.insert(addr)
        assert level.probe(addr)  # present after lookup-or-fill
    assert level.hits + level.misses == lookups
    for ways in level._sets:
        assert len(ways) <= level.config.ways


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=60), st.booleans())
def test_hierarchy_monotonic_ready_times(addresses, as_store):
    from repro.sim.cache import CacheHierarchy
    from repro.sim.config import CoreConfig

    hierarchy = CacheHierarchy(CoreConfig.tiny())
    now = 0
    for addr in addresses:
        result = hierarchy.access(addr, now, is_store=as_store)
        assert result.ready_cycle > now
        assert result.level in ("l1", "l2", "l3", "mem")
        now += 1


# ---------------------------------------------------------------------------
# Simulator conservation laws
# ---------------------------------------------------------------------------


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000), st.sampled_from(["gcc.166", "namd", "lbm"]))
def test_simulator_conserves_uops(seed, workload):
    from repro.sim import ALL_POLICIES, simulate
    from repro.workloads import generate_trace, get_profile

    trace = generate_trace(get_profile(workload), length=600, seed=seed)
    for policy in ALL_POLICIES:
        stats = simulate(trace, policy)
        assert stats.committed_uops == len(trace)
        assert stats.cycles > 0
        mem_levels = (
            stats.l1_load_hits
            + stats.l2_load_hits
            + stats.l3_load_hits
            + stats.memory_loads
        )
        assert stats.l1_load_misses == mem_levels - stats.l1_load_hits
        assert stats.saldld_kills == 0 or policy.saldld_kills
        assert stats.saldld_stalls == 0 or policy.saldld_stalls
        assert stats.ldld_forwards == 0 or policy.ldld_forwarding
