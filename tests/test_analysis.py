"""Tests for witness extraction and model diffing (repro.analysis)."""

import pytest

from reference import reference_witness
from repro.analysis import diff_models, find_witness, render_diff, render_execution
from repro.core.axiomatic import CandidatePrefix, enumerate_outcomes
from repro.litmus.frontend.suite import resolve_suite
from repro.litmus.registry import all_tests, get_test
from repro.models.registry import get_model, model_names


def _assert_witness_parity(test, model, outcome=None):
    """The kernel's witness is the reference enumerator's first match."""
    witness = find_witness(test, model, outcome)
    reference = reference_witness(test, model, outcome)
    label = f"{test.name} x {model.name}: {outcome or test.asked}"
    if reference is None:
        assert witness is None, label
        return
    assert witness is not None, label
    assert (witness.mo, witness.rf) == (reference.mo, reference.rf), label
    assert render_execution(test, witness) == render_execution(test, reference), label


class TestWitness:
    def test_allowed_outcome_has_witness(self):
        test = get_test("dekker")
        witness = find_witness(test, get_model("gam"))
        assert witness is not None
        assert test.asked.matches(witness.final_regs, witness.final_mem)

    def test_forbidden_outcome_has_none(self):
        assert find_witness(get_test("dekker"), get_model("sc")) is None
        assert find_witness(get_test("oota"), get_model("gam")) is None

    def test_explicit_outcome(self):
        test = get_test("dekker")
        sc_ok = test.parse_outcome({"P0.r1": 1, "P1.r2": 1})
        assert find_witness(test, get_model("sc"), sc_ok) is not None

    def test_witness_requires_asked(self):
        from repro.litmus.dsl import LitmusBuilder

        b = LitmusBuilder("t", locations=("a",))
        b.proc().st("a", 1)
        with pytest.raises(ValueError):
            find_witness(b.build(), get_model("gam"))

    def test_render_contains_mo_and_rf(self):
        test = get_test("dekker")
        witness = find_witness(test, get_model("gam"))
        rendered = render_execution(test, witness)
        assert "global memory order" in rendered
        assert "read-from" in rendered
        assert "init" in rendered
        assert "P0.r1" in rendered

    def test_render_rmw_halves(self):
        test = get_test("rmw-swap")
        outcome = test.parse_outcome({"P0.r1": 0, "P1.r2": 1})
        witness = find_witness(test, get_model("gam"), outcome)
        rendered = render_execution(test, witness)
        assert "load half" in rendered and "store half" in rendered


class TestWitnessParity:
    """``find_witness`` against the reference order enumerator, over every
    registry model."""

    @pytest.mark.parametrize("model_name", model_names())
    def test_asked_outcome_over_catalogue(self, model_name):
        model = get_model(model_name)
        for test in all_tests():
            if test.asked is not None:
                _assert_witness_parity(test, model)

    @pytest.mark.slow
    @pytest.mark.parametrize("suite", ["all", "gen:edges=4", "rand:n=60,seed=3"])
    def test_asked_and_every_full_outcome(self, suite):
        models = [get_model(name) for name in model_names()]
        for test in resolve_suite(suite):
            prefix = CandidatePrefix(test)
            for model in models:
                if test.asked is not None:
                    _assert_witness_parity(test, model)
                outcomes = enumerate_outcomes(test, model, project="full", prefix=prefix)
                for outcome in sorted(outcomes, key=str):
                    _assert_witness_parity(test, model, outcome)


class TestDiff:
    def test_gam0_minus_gam_is_the_corr_read(self):
        test = get_test("corr")
        weak_only, strong_only = diff_models(
            test, get_model("gam0"), get_model("gam")
        )
        assert strong_only == frozenset()
        assert len(weak_only) == 1
        (outcome,) = weak_only
        bindings = outcome.reg_bindings()
        assert bindings[(1, "r1")] == 1 and bindings[(1, "r2")] == 0

    def test_identical_models_diff_empty(self):
        test = get_test("dekker")
        weak_only, strong_only = diff_models(
            test, get_model("gam"), get_model("gam")
        )
        assert not weak_only and not strong_only

    def test_arm_between_gam0_and_gam_on_rsw(self):
        test = get_test("rsw")
        arm_only, gam_only = diff_models(test, get_model("arm"), get_model("gam"))
        assert gam_only == frozenset()
        assert arm_only  # the RSW behaviour survives under ARM

    def test_render_diff(self):
        rendered = render_diff(
            get_test("corr"), get_model("gam0"), get_model("gam")
        )
        assert "only gam0" in rendered

    def test_render_diff_identical(self):
        rendered = render_diff(
            get_test("oota"), get_model("gam"), get_model("gam")
        )
        assert "identical" in rendered
