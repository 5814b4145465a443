"""Unit tests for each case of Definition 6 (preserved program order)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import axiomatic
from repro.core.axiomatic import CandidatePrefix, is_allowed
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
from repro.litmus.dsl import LitmusBuilder
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
    """``CandidatePrefix`` builds each run combination's DAG from per-shape
    predecessor masks; decoded, it must equal the per-processor fold of
    ``compute_ppo`` and ``project_to_memory``."""

    @pytest.mark.parametrize("suite", ["all", "gen:edges=4", "rand:n=60,seed=3"])
    def test_mem_edges_match_reference_fold(self, suite):
        clause_sets = _zoo_clause_sets()
        assert len(clause_sets) == 6
        checked = 0
        for test in resolve_suite(suite):
            prefix = CandidatePrefix(test)
            for combo_index in range(len(prefix.combos)):
                base = prefix.base(combo_index)
                if base is None:
                    continue
                folded = set(base.rmw_pairs.values())
                nodes = [e.eid for e in base.events if e.eid not in folded]
                contexts = [PpoContext.from_run(run) for run in base.runs]
                for model in clause_sets:
                    decoded = {
                        (base.src_eid(*nodes[a]), nodes[b])
                        for b, mask in enumerate(prefix.ppo_masks(combo_index, model))
                        for a in range(len(nodes))
                        if mask >> a & 1
                    }
                    expected = set()
                    for proc, ctx in enumerate(contexts):
                        ppo = compute_ppo(ctx, model.clauses)
                        for a, b in project_to_memory(ctx, ppo):
                            expected.add((base.src_eid(proc, a), (proc, b)))
                    assert decoded == expected, (test.name, model.name)
                    checked += 1
        assert checked > 0

    def test_masks_are_shared_by_equal_clause_sets(self):
        test = resolve_suite("paper")[0]
        prefix = CandidatePrefix(test)
        combo_index = next(
            i for i in range(len(prefix.combos)) if prefix.base(i) is not None
        )
        gam0, arm = get_model("gam0"), get_model("arm")
        assert prefix.ppo_masks(combo_index, gam0) is prefix.ppo_masks(combo_index, arm)


def _fold_masks(run, clauses):
    """One run's closed static ppo as local access predecessor masks,
    folded from ``compute_ppo`` and ``project_to_memory``."""
    ctx = PpoContext.from_run(run)
    local = {e.index: i for i, e in enumerate(run.memory_accesses())}
    masks = [0] * len(local)
    for a, b in project_to_memory(ctx, compute_ppo(ctx, clauses)):
        masks[local[b]] |= 1 << local[a]
    return tuple(masks)


_ZOO = ("sc", "tso", "gam", "gam0", "arm", "wmm", "alpha_like", "plsc")


def _verdicts(tests):
    models = [get_model(name) for name in _ZOO]
    return [is_allowed(test, model) for test in tests for model in models]


_FRESH_VERDICTS = """
import json
from repro.core.axiomatic import is_allowed
from repro.litmus.frontend.suite import resolve_suite
from repro.models.registry import get_model
names = ("sc", "tso", "gam", "gam0", "arm", "wmm", "alpha_like", "plsc")
models = [get_model(name) for name in names]
tests = resolve_suite("gen:edges=4")
print(json.dumps([is_allowed(t, m) for t in tests for m in models]))
"""


class TestShapeMemo:
    """The process-wide static-ppo memo keyed by thread shape."""

    @pytest.fixture
    def memo(self, monkeypatch):
        fresh: dict = {}
        monkeypatch.setattr(axiomatic, "_SHAPE_MASKS", fresh)
        monkeypatch.setattr(axiomatic, "_MASK_TUPLES", {})
        return fresh

    @staticmethod
    def _two_tests():
        first = LitmusBuilder("shape-first", locations=("x", "y"))
        first.proc().ld("r1", "x").st("y", "r1")
        first.proc().st("x", 1)
        second = LitmusBuilder("shape-second", locations=("x", "y"))
        second.proc().st("y", 2).st("x", 1)
        second.proc().ld("r1", "x").st("y", "r1")
        return (
            first.build(asked={"P0.r1": 1}),
            second.build(asked={"P1.r1": 1}),
        )

    def test_same_program_on_another_processor_shares_one_entry(self, memo):
        first, second = self._two_tests()
        assert first.programs[0] == second.programs[1]
        gam = get_model("gam")
        is_allowed(first, gam)
        entries = len(memo)
        is_allowed(second, gam)
        assert len(memo) == entries + 1  # only P0's store pair is new
        prefix = CandidatePrefix(second)
        run = prefix.combos[0][1]
        program_key = axiomatic._program_key(second.programs[1])
        key = axiomatic._ThreadPpo(program_key, run).key
        names = gam.static_clause_names
        shared = [k for k in memo if k[0][0] == key[0]]
        assert shared == [(key, names)]
        assert memo[(key, names)] == _fold_masks(run, gam.clauses) == (0, 0b01)

    def test_verdicts_do_not_depend_on_suite_order(self, memo):
        _verdicts(resolve_suite("all"))
        after_all = _verdicts(resolve_suite("gen:edges=4"))
        env = dict(os.environ, PYTHONPATH=str(Path(axiomatic.__file__).parents[2]))
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_VERDICTS],
            env=env, capture_output=True, text=True, check=True,
        )
        assert after_all == json.loads(fresh.stdout)

    def test_label_position_is_part_of_the_key(self):
        def program(label_at):
            return Program(
                [
                    Load("r1", Const(A)),
                    Branch(Reg("r1"), "L"),
                    Store(Const(B), Const(1)),
                    Nop(),
                ],
                labels={"L": label_at},
            )

        near, far = program(2), program(3)
        keys = [
            axiomatic._ThreadPpo(axiomatic._program_key(p), p.execute({0: 0})).key
            for p in (near, far)
        ]
        assert keys[0][1:] == keys[1][1:]  # same executed indices and addresses
        assert keys[0] != keys[1]

    def test_skipped_instruction_is_part_of_the_key(self, memo):
        # Both runs access the same addresses; only the second skips the
        # fence, which orders the load before the store.
        program = Program(
            [
                Load("r1", Const(A)),
                Branch(Reg("r1"), "L"),
                Fence("L", "S"),
                Store(Const(B), Const(1)),
            ],
            labels={"L": 3},
        )
        fenced, unfenced = program.execute({0: 0}), program.execute({0: 1})
        clauses, names = (FenceOrd(),), ("FenceOrd",)
        key = axiomatic._program_key(program)
        masks = [
            axiomatic._ThreadPpo(key, run).masks(clauses, names)
            for run in (fenced, unfenced)
        ]
        assert masks == [(0, 0b01), (0, 0)]
        assert masks == [_fold_masks(run, clauses) for run in (fenced, unfenced)]
        assert len(memo) == 2

    def test_memo_stays_within_its_cap(self, memo, monkeypatch):
        tests = resolve_suite("paper")
        expected = _verdicts(tests)
        memo.clear()
        monkeypatch.setattr(axiomatic, "_SHAPE_CAP", 5)
        assert _verdicts(tests) == expected
        assert 0 < len(memo) <= 5
        assert len(axiomatic._MASK_TUPLES) <= 5
        for masks in memo.values():
            assert type(masks) is tuple
            assert all(type(mask) is int for mask in masks)
