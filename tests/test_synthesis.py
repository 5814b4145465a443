"""Tests for fence synthesis (repro.synthesis)."""

import pytest

from repro.core.axiomatic import enumerate_outcomes, is_allowed
from repro.litmus.registry import get_test
from repro.models.registry import get_model
from repro.synthesis import (
    FencePlacement,
    apply_placements,
    restores_sc,
    synthesize_fences,
)


class TestApplyPlacements:
    def test_insert_one_fence(self):
        test = get_test("mp")
        fenced = apply_placements(test, [FencePlacement(0, 1, "SS")])
        assert len(fenced.programs[0]) == len(test.programs[0]) + 1
        assert fenced.programs[0][1].is_fence

    def test_labels_shift_past_inserted_fences(self):
        test = get_test("mp+ctrl")  # P1 has a branch with an 'end' label
        fenced = apply_placements(test, [FencePlacement(1, 1, "LL")])
        program = fenced.programs[1]
        # The branch target must still point past the last load.
        assert program.labels["end"] == len(program)

    def test_original_test_untouched(self):
        test = get_test("mp")
        before = len(test.programs[0])
        apply_placements(test, [FencePlacement(0, 1, "SS")])
        assert len(test.programs[0]) == before


class TestRestoresSc:
    def test_already_sc_program(self):
        assert restores_sc(get_test("mp+fences"), get_model("gam"))

    def test_weak_program(self):
        assert not restores_sc(get_test("mp"), get_model("gam"))


class TestSynthesis:
    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="max_fences must be >= 0"):
            synthesize_fences(get_test("mp"), get_model("gam"), max_fences=-1)

    def test_mp_needs_ss_plus_ll(self):
        result = synthesize_fences(get_test("mp"), get_model("gam"))
        assert result is not None
        kinds = sorted(p.kind for p in result.placements)
        assert kinds == ["LL", "SS"]
        procs = sorted(p.proc for p in result.placements)
        assert procs == [0, 1]  # one fence on the writer, one on the reader

    def test_dekker_needs_store_to_load_fences(self):
        result = synthesize_fences(get_test("dekker"), get_model("gam"))
        assert result is not None
        assert all(p.kind == "SL" for p in result.placements)
        assert len(result.placements) == 2

    def test_dekker_unfixable_without_fence_sl(self):
        result = synthesize_fences(
            get_test("dekker"),
            get_model("gam"),
            kinds=("LL", "LS", "SS"),
        )
        assert result is None

    def test_fenced_program_forbids_the_asked_outcome(self):
        test = get_test("mp")
        result = synthesize_fences(test, get_model("gam"))
        assert not is_allowed(result.fenced_test, get_model("gam"))

    def test_already_sc_needs_nothing(self):
        result = synthesize_fences(get_test("mp+fences"), get_model("gam"))
        assert result is not None and result.placements == ()

    def test_deterministic(self):
        a = synthesize_fences(get_test("mp"), get_model("gam"))
        b = synthesize_fences(get_test("mp"), get_model("gam"))
        assert a.placements == b.placements

    def test_wmm_mp_needs_fewer_or_equal_fences_than_gam(self):
        # WMM is stronger on load-store ordering, never weaker on MP.
        gam_result = synthesize_fences(get_test("mp"), get_model("gam"))
        wmm_result = synthesize_fences(get_test("mp"), get_model("wmm"))
        assert len(wmm_result.placements) <= len(gam_result.placements)

    def test_synthesized_outcomes_equal_sc(self):
        test = get_test("lb")
        result = synthesize_fences(test, get_model("gam"))
        assert result is not None
        weak = enumerate_outcomes(result.fenced_test, get_model("gam"), project="full")
        strong = enumerate_outcomes(result.fenced_test, get_model("sc"), project="full")
        assert weak == strong
