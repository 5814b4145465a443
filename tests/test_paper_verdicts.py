"""Every paper verdict, asserted: the executable version of Figs. 2-14.

This is the central conformance suite: for each litmus test in the
catalogue and each model the paper (or its direct implications) gives a
verdict for, the axiomatic engine must agree.
"""

import pytest

from repro.core.axiomatic import is_allowed
from repro.litmus.registry import all_tests
from repro.models.registry import get_model

_CASES = [
    (test.name, model_name, expected)
    for test in all_tests()
    for model_name, expected in sorted(test.expect.items())
]


@pytest.mark.parametrize(
    "test_name,model_name,expected",
    _CASES,
    ids=[f"{t}-{m}" for t, m, _ in _CASES],
)
def test_verdict_matches_paper(test_name, model_name, expected):
    from repro.litmus.registry import get_test

    test = get_test(test_name)
    model = get_model(model_name)
    allowed = is_allowed(test, model)
    verdict = "allows" if expected else "forbids"
    assert allowed == expected, (
        f"paper says {model_name} {verdict} {test_name!r} "
        f"({test.source}), implementation disagrees"
    )


def test_every_test_has_gam_verdict():
    """GAM is the paper's model: every catalogued test must pin it down."""
    for test in all_tests():
        assert "gam" in test.expect, test.name


def test_rsw_rnsw_asymmetry():
    """The paper's Section III-E2 argument in one assertion: ARM treats the
    nearly identical RSW and RNSW tests differently; GAM treats them alike."""
    from repro.litmus.registry import get_test

    arm = get_model("arm")
    gam = get_model("gam")
    rsw, rnsw = get_test("rsw"), get_test("rnsw")
    assert is_allowed(rsw, arm) and not is_allowed(rnsw, arm)
    assert not is_allowed(rsw, gam) and not is_allowed(rnsw, gam)


def test_saldldarm_strictly_weaker_than_saldld():
    """SALdLdARM admits every GAM behaviour (strict-weakness, III-E2)."""
    from repro.core.axiomatic import enumerate_outcomes
    from repro.litmus.registry import get_test

    arm = get_model("arm")
    gam = get_model("gam")
    for name in ("corr", "corr+intervening-store", "rsw", "rnsw", "dekker"):
        test = get_test(name)
        gam_outcomes = enumerate_outcomes(test, gam, project="full")
        arm_outcomes = enumerate_outcomes(test, arm, project="full")
        assert gam_outcomes <= arm_outcomes, name


def test_rnsw_read_pattern_forbidden_by_coherence():
    """The paper's per-location SC claim about RNSW (Section III-E2).

    No coherent execution lets I7 read the initialization of ``c`` while I6
    reads ``St [c] 0`` — I10 is coherence-after the initialization.  The
    claim is about the read-from pattern, so we inspect rf directly under
    the weakest coherent model.
    """
    from reference import enumerate_executions
    from repro.core.events import INIT_PROC
    from repro.litmus.registry import get_test

    test = get_test("rnsw")
    plsc = get_model("plsc")
    store_c_index = 2  # P0: St a; FenceSS; St c; FenceSS; St b
    load_i6_index, load_i7_index = 2, 3  # P1: ld, op, ld[c], ld c, op, ld
    seen_pattern = False
    for execution in enumerate_executions(test, plsc):
        rf_i6 = execution.rf.get((1, load_i6_index))
        rf_i7 = execution.rf.get((1, load_i7_index))
        if rf_i6 is None or rf_i7 is None:
            continue
        i6_from_store = rf_i6 == (0, store_c_index)
        i7_from_init = rf_i7[0] == INIT_PROC
        assert not (i6_from_store and i7_from_init)
        seen_pattern = True
    assert seen_pattern  # the enumeration actually exercised the loads
