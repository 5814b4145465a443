"""Unit tests for each case of Definition 6 (preserved program order)."""

import pytest

from repro.core.axiomatic import CandidatePrefix
from repro.core.ppo import (
    AddrSt,
    BrSt,
    FenceOrd,
    PairwiseOrder,
    PpoContext,
    RegRAW,
    SALdLd,
    SALdLdARM,
    SAMemSt,
    SAStLd,
    compute_ppo,
    project_to_memory,
    transitive_closure,
)
from repro.isa.expr import BinOp, Const, Reg
from repro.isa.instructions import Branch, Fence, Load, Nop, RegOp, Store
from repro.isa.program import Program
from repro.litmus.frontend.suite import resolve_suite
from repro.models.registry import get_model, model_names

A, B = 0x100, 0x200


def _ctx(*instrs, load_values=None, labels=None):
    program = Program(list(instrs), labels=labels)
    values = dict(load_values or {})
    for index in program.load_indices():
        values.setdefault(index, 0)
    return PpoContext.from_run(program.execute(values))


class TestSAMemSt:
    def test_load_then_store_same_address(self):
        ctx = _ctx(Load("r1", Const(A)), Store(Const(A), Const(1)))
        assert (0, 1) in set(SAMemSt().edges(ctx))

    def test_store_then_store_same_address(self):
        ctx = _ctx(Store(Const(A), Const(1)), Store(Const(A), Const(2)))
        assert (0, 1) in set(SAMemSt().edges(ctx))

    def test_different_address_not_ordered(self):
        ctx = _ctx(Load("r1", Const(A)), Store(Const(B), Const(1)))
        assert set(SAMemSt().edges(ctx)) == set()

    def test_store_then_load_not_ordered_by_this_clause(self):
        ctx = _ctx(Store(Const(A), Const(1)), Load("r1", Const(A)))
        assert set(SAMemSt().edges(ctx)) == set()


class TestSAStLd:
    def test_producer_of_forwarding_store_orders_load(self):
        # Figure 8 shape: the load is ordered after the producer of S's data.
        ctx = _ctx(
            Load("r0", Const(B)),            # I0 produces r0
            Store(Const(A), Const(1)),       # I1: older store (not forwarding)
            Store(Const(A), Reg("r0")),      # I2 = S, forwards to I3
            Load("r2", Const(A)),            # I3
        )
        edges = set(SAStLd().edges(ctx))
        assert (0, 3) in edges

    def test_only_immediately_preceding_store_counts(self):
        ctx = _ctx(
            Load("r0", Const(B)),            # I0
            Store(Const(A), Reg("r0")),      # I1: masked by I2
            Store(Const(A), Const(5)),       # I2 = S (no register producers)
            Load("r2", Const(A)),            # I3
        )
        assert set(SAStLd().edges(ctx)) == set()

    def test_no_same_address_store_no_edges(self):
        ctx = _ctx(Load("r0", Const(B)), Load("r2", Const(A)))
        assert set(SAStLd().edges(ctx)) == set()


class TestSALdLd:
    def test_consecutive_same_address_loads_ordered(self):
        ctx = _ctx(Load("r1", Const(A)), Load("r2", Const(A)))
        assert (0, 1) in set(SALdLd().edges(ctx))

    def test_intervening_store_exempts_pair(self):
        # Figure 14b: I4 and I6 are not ordered because I5 intervenes.
        ctx = _ctx(
            Load("r1", Const(B)),
            Store(Const(B), Const(2)),
            Load("r2", Const(B)),
        )
        edges = set(SALdLd().edges(ctx))
        assert (0, 2) not in edges

    def test_different_addresses_not_ordered(self):
        ctx = _ctx(Load("r1", Const(A)), Load("r2", Const(B)))
        assert set(SALdLd().edges(ctx)) == set()

    def test_store_to_other_address_does_not_exempt(self):
        ctx = _ctx(
            Load("r1", Const(A)),
            Store(Const(B), Const(1)),
            Load("r2", Const(A)),
        )
        assert (0, 2) in set(SALdLd().edges(ctx))


class TestRegRAWAndBrSt:
    def test_regraw_is_ddep(self):
        ctx = _ctx(Load("r1", Const(A)), RegOp("r2", Reg("r1")))
        assert (0, 1) in set(RegRAW().edges(ctx))

    def test_branch_orders_younger_stores_only(self):
        ctx = _ctx(
            Branch(Const(0), "end"),
            Store(Const(A), Const(1)),
            Load("r1", Const(B)),
            labels={"end": 3},
        )
        edges = set(BrSt().edges(ctx))
        assert (0, 1) in edges
        assert (0, 2) not in edges  # loads are NOT ordered after branches

    def test_store_before_branch_unordered(self):
        ctx = _ctx(
            Store(Const(A), Const(1)),
            Branch(Const(0), "end"),
            labels={"end": 2},
        )
        assert set(BrSt().edges(ctx)) == set()


class TestAddrSt:
    def test_address_producer_of_older_access_orders_store(self):
        ctx = _ctx(
            Load("r1", Const(A)),       # I0: produces the address below
            Load("r2", Reg("r1")),      # I1: older memory access
            Store(Const(B), Const(1)),  # I2: must wait for I0
        )
        assert (0, 2) in set(AddrSt().edges(ctx))

    def test_no_edge_when_store_is_older(self):
        ctx = _ctx(
            Store(Const(B), Const(1)),
            Load("r1", Const(A)),
            Load("r2", Reg("r1")),
        )
        assert set(AddrSt().edges(ctx)) == set()

    def test_data_producer_does_not_trigger_addrst(self):
        ctx = _ctx(
            Load("r1", Const(A)),        # produces data of I1, not address
            Store(Const(B), Reg("r1")),  # I1
            Store(Const(A), Const(2)),   # I2
        )
        assert set(AddrSt().edges(ctx)) == set()


class TestFenceOrd:
    def test_fence_ss_orders_stores_both_sides(self):
        ctx = _ctx(
            Store(Const(A), Const(1)),
            Fence("S", "S"),
            Store(Const(B), Const(1)),
            Load("r1", Const(A)),
        )
        edges = set(FenceOrd().edges(ctx))
        assert (0, 1) in edges
        assert (1, 2) in edges
        assert (1, 3) not in edges  # FenceSS does not order younger loads
        assert (0, 2) not in edges  # store-store ordering only via closure

    def test_fence_ll_ignores_stores(self):
        ctx = _ctx(
            Store(Const(A), Const(1)),
            Fence("L", "L"),
            Load("r1", Const(B)),
        )
        edges = set(FenceOrd().edges(ctx))
        assert (0, 1) not in edges
        assert (1, 2) in edges


class TestPairwiseOrder:
    def test_sc_pairs(self):
        ctx = _ctx(Load("r1", Const(A)), Store(Const(B), Const(1)))
        assert (0, 1) in set(PairwiseOrder("L", "S").edges(ctx))
        assert set(PairwiseOrder("S", "L").edges(ctx)) == set()

    def test_name_includes_types(self):
        assert PairwiseOrder("S", "L").name == "OrderSL"


class TestSALdLdARM:
    def test_loads_reading_different_stores_ordered(self):
        ctx = _ctx(Load("r1", Const(A)), Load("r2", Const(A)))
        rf = {0: (1, 0), 1: (-1, 0)}  # different sources
        assert (0, 1) in set(SALdLdARM().edges(ctx, rf))

    def test_loads_reading_same_store_not_ordered(self):
        ctx = _ctx(Load("r1", Const(A)), Load("r2", Const(A)))
        rf = {0: (-1, 0), 1: (-1, 0)}
        assert set(SALdLdARM().edges(ctx, rf)) == set()

    def test_intervening_store_exempts(self):
        ctx = _ctx(
            Load("r1", Const(A)),
            Store(Const(A), Const(2)),
            Load("r2", Const(A)),
        )
        rf = {0: (-1, 0), 2: (0, 1)}
        assert (0, 2) not in set(SALdLdARM().edges(ctx, rf))


class TestClosureAndProjection:
    def test_transitivity_through_regop(self):
        # MP+artificial-addr: load -> regop -> load must close to load -> load.
        ctx = _ctx(
            Load("r1", Const(B)),
            RegOp("r2", Const(A) + Reg("r1") - Reg("r1")),
            Load("r3", Reg("r2")),
            load_values={0: 1, 2: 0},
        )
        ppo = compute_ppo(ctx, (RegRAW(),))
        assert (0, 2) in ppo

    def test_transitivity_through_fence(self):
        ctx = _ctx(
            Load("r1", Const(A)),
            Fence("L", "L"),
            Load("r2", Const(B)),
        )
        ppo = compute_ppo(ctx, (FenceOrd(),))
        assert (0, 2) in ppo

    def test_projection_drops_non_memory(self):
        ctx = _ctx(
            Load("r1", Const(B)),
            RegOp("r2", Reg("r1")),
            Load("r3", Reg("r2")),
            load_values={0: A, 2: 0},
        )
        ppo = compute_ppo(ctx, (RegRAW(),))
        projected = project_to_memory(ctx, ppo)
        assert (0, 2) in projected
        assert all(a != 1 and b != 1 for a, b in projected)

    def test_closure_idempotent(self):
        ctx = _ctx(
            Load("r1", Const(A)),
            RegOp("r2", Reg("r1")),
            Store(Const(B), Reg("r2")),
        )
        once = compute_ppo(ctx, (RegRAW(),))
        assert transitive_closure(ctx, once) == once

    def test_all_edges_go_forward_in_program_order(self):
        ctx = _ctx(
            Load("r1", Const(A)),
            Store(Const(A), Reg("r1")),
            Load("r2", Const(A)),
            Fence("S", "S"),
            Store(Const(B), Const(1)),
        )
        clauses = (SAMemSt(), SAStLd(), SALdLd(), RegRAW(), BrSt(), AddrSt(), FenceOrd())
        ppo = compute_ppo(ctx, clauses)
        position = {e.index: i for i, e in enumerate(ctx.executed)}
        assert all(position[a] < position[b] for a, b in ppo)


def _zoo_clause_sets():
    """One zoo model per distinct static clause set."""
    by_names = {}
    for name in model_names():
        model = get_model(name)
        by_names.setdefault(tuple(c.name for c in model.clauses), model)
    return list(by_names.values())


class TestPrefixStaticPpo:
    """``CandidatePrefix`` shares clause rows and closed pairs per
    (processor, run); its DAG must equal the per-processor fold of
    ``compute_ppo`` and ``project_to_memory``."""

    @pytest.mark.parametrize("suite", ["all", "gen:edges=4", "rand:n=60,seed=3"])
    def test_mem_edges_match_reference_fold(self, suite):
        clause_sets = _zoo_clause_sets()
        assert len(clause_sets) == 6
        checked = 0
        for test in resolve_suite(suite):
            prefix = CandidatePrefix(test)
            for combo_index in range(len(prefix.combos)):
                for model in clause_sets:
                    candidate = prefix.candidate(combo_index, model)
                    if candidate is None:
                        continue
                    expected = set()
                    for proc, ctx in enumerate(candidate.contexts):
                        ppo = compute_ppo(ctx, model.clauses)
                        for a, b in project_to_memory(ctx, ppo):
                            expected.add((candidate.src_eid(proc, a), (proc, b)))
                    assert candidate.mem_edges == expected, (test.name, model.name)
                    checked += 1
        assert checked > 0

    def test_candidate_is_shared_by_equal_clause_sets(self):
        test = resolve_suite("paper")[0]
        prefix = CandidatePrefix(test)
        combo_index = next(
            i for i in range(len(prefix.combos)) if prefix.base(i) is not None
        )
        gam0, arm = get_model("gam0"), get_model("arm")
        assert prefix.candidate(combo_index, gam0) is prefix.candidate(combo_index, arm)
