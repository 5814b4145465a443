"""Tests for the cycle-based litmus generator and its engine integration."""

import hashlib
import pickle

import pytest

from repro.core.axiomatic import is_allowed
from repro.eval.litmus_matrix import litmus_matrix, render_matrix
from repro.litmus.frontend.gen import (
    MIN_CYCLE_EDGES,
    VOCABULARY,
    _well_formed,
    cycle_name,
    cycle_to_test,
    enumerate_cycles,
    generate_suite,
)
from repro.litmus.frontend.parser import parse_litmus
from repro.litmus.frontend.printer import print_litmus
from repro.litmus.registry import get_test
from repro.models.registry import get_model


@pytest.fixture(scope="module")
def default_suite():
    return generate_suite(4)


class TestEnumeration:
    def test_cycles_are_canonical_and_unique(self):
        cycles = list(enumerate_cycles(4))
        names = [cycle_name(cycle) for cycle in cycles]
        assert len(set(names)) == len(names)
        for cycle in cycles:
            assert cycle[-1].external  # canonical rotation invariant

    def test_structural_constraints(self):
        for cycle in enumerate_cycles(4):
            assert sum(1 for edge in cycle if edge.external) >= 2
            assert any(edge.po for edge in cycle)
            assert sum(1 for edge in cycle if edge.advances) != 1
            for edge, successor in zip(cycle, cycle[1:] + cycle[:1]):
                assert edge.dst == successor.src

    def test_budget_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="at least 3 edges"):
            list(enumerate_cycles(2))

    def test_larger_budget_is_superset(self):
        small = {cycle_name(c) for c in enumerate_cycles(4)}
        large = {cycle_name(c) for c in enumerate_cycles(5)}
        assert small < large


def _unpruned_cycles(max_edges):
    """The reference search: every type-matching edge sequence, with the
    closing and well-formedness checks made only on complete ones."""
    ordered = [VOCABULARY[name] for name in sorted(VOCABULARY)]

    def extend(prefix, length):
        if len(prefix) == length:
            if prefix[-1].dst == prefix[0].src and _well_formed(prefix):
                yield prefix
            return
        for edge in ordered:
            if edge.src == prefix[-1].dst:
                yield from extend(prefix + (edge,), length)

    for length in range(MIN_CYCLE_EDGES, max_edges + 1):
        for first in ordered:
            yield from extend((first,), length)


def _count_and_digest(max_edges):
    names = [cycle_name(c) for c in enumerate_cycles(max_edges)]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    return len(names), digest


class TestClosingEdgeSearch:
    """The closing-edge search yields the unpruned search's cycles, in
    the same order."""

    @pytest.mark.parametrize("max_edges", [3, 4, 5])
    def test_matches_unpruned_search(self, max_edges):
        assert list(enumerate_cycles(max_edges)) == list(_unpruned_cycles(max_edges))

    @pytest.mark.parametrize(
        "max_edges, count, digest",
        [(4, 83, "9d2101a11aa36943"), (5, 1856, "8d0a3d47fe675ea1")],
    )
    def test_pinned_digest(self, max_edges, count, digest):
        assert _count_and_digest(max_edges) == (count, digest)

    @pytest.mark.slow
    def test_pinned_digest_six_edges(self):
        assert _count_and_digest(6) == (30743, "867f808736d41af5")


class TestGeneratedSuite:
    def test_default_budget_yields_at_least_50_tests(self, default_suite):
        """The acceptance bar: ``repro gen --edges 4`` => >= 50 tests."""
        assert len(default_suite) >= 50

    def test_names_and_content_deduplicated(self, default_suite):
        names = [test.name for test in default_suite]
        assert len(set(names)) == len(names)
        keys = {test.content_key for test in default_suite}
        assert len(keys) == len(default_suite)

    def test_determinism(self, default_suite):
        again = generate_suite(4)
        assert [t.name for t in again] == [t.name for t in default_suite]
        assert [print_litmus(t) for t in again] == [
            print_litmus(t) for t in default_suite
        ]

    def test_seeded_determinism_and_size_cap(self):
        first = generate_suite(4, size=20, seed=7)
        second = generate_suite(4, size=20, seed=7)
        assert [t.name for t in first] == [t.name for t in second]
        assert len(first) == 20
        # A seeded sample is a permutation-prefix of the full suite.
        full_names = {t.name for t in generate_suite(4)}
        assert {t.name for t in first} <= full_names

    def test_tests_round_trip_and_pickle(self, default_suite):
        for test in default_suite:
            assert parse_litmus(print_litmus(test)) == test
            assert pickle.loads(pickle.dumps(test)) == test

    def test_every_cycle_is_forbidden_under_sc(self, default_suite):
        """A critical cycle is a po+com cycle, so SC must forbid it."""
        sc = get_model("sc")
        allowed = [t.name for t in default_suite if is_allowed(t, sc)]
        assert allowed == []

    def test_weak_models_allow_some_cycles(self, default_suite):
        """The suite must discriminate: weak models allow relaxed cycles."""
        alpha = get_model("alpha_like")
        assert any(is_allowed(t, alpha) for t in default_suite)

    def test_corr_cycle_matches_paper_corr(self):
        """``posrr+fre+rfe`` lowers to exactly the paper's CoRR split."""
        generated = next(
            t for t in generate_suite(4) if t.name == "posrr+fre+rfe"
        )
        corr = get_test("corr")
        for model_name, expected in corr.expect.items():
            assert is_allowed(generated, get_model(model_name)) == expected

    def test_mp_cycle_verdicts(self):
        """``porr+fre+poww+rfe`` is MP: weak models allow, strong forbid."""
        generated = next(
            t for t in generate_suite(4) if t.name == "porr+fre+poww+rfe"
        )
        assert not is_allowed(generated, get_model("sc"))
        assert not is_allowed(generated, get_model("tso"))
        assert is_allowed(generated, get_model("gam"))

    def test_fenced_dependency_cycles_forbidden_in_gam(self):
        """Full ordering on every edge leaves nothing to relax."""
        suite = {t.name: t for t in generate_suite(4)}
        fully_ordered = suite["data+rfe+data+rfe"]  # LB with data deps
        assert not is_allowed(fully_ordered, get_model("gam"))

    def test_edge_vocabulary_table_is_complete(self):
        import repro.litmus.frontend.gen as gen_module

        for name, edge in VOCABULARY.items():
            assert name == edge.name
            assert edge.src in "RW" and edge.dst in "RW"
            # Every edge is documented in the module's vocabulary table.
            assert name in gen_module.__doc__

    def test_cycle_to_test_name_override(self):
        cycle = next(iter(enumerate_cycles(4)))
        assert cycle_to_test(cycle, name="custom").name == "custom"


class TestEngineIntegration:
    def test_generated_suite_through_engine_serial(self):
        suite = generate_suite(4, size=8, seed=0)
        cells = litmus_matrix(tests=suite, jobs=1)
        assert len(cells) == 8 * 8  # tests x zoo models
        assert all(cell.expected is None for cell in cells)

    @pytest.mark.slow
    def test_parallel_matrix_byte_identical_to_serial(self):
        """The acceptance bar: --jobs 2 byte-identical to serial."""
        suite = generate_suite(4)
        assert len(suite) >= 50
        serial = litmus_matrix(tests=suite, jobs=1)
        parallel = litmus_matrix(tests=suite, jobs=2)
        assert render_matrix(parallel) == render_matrix(serial)

    @pytest.mark.slow
    def test_cached_matrix_byte_identical(self, tmp_path):
        suite = generate_suite(4, size=10, seed=2)
        cache = str(tmp_path / "cache")
        warm = litmus_matrix(tests=suite, cache_dir=cache)
        cached = litmus_matrix(tests=suite, cache_dir=cache)
        assert render_matrix(cached) == render_matrix(warm)
