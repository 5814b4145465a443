"""Axiomatic == operational, over the whole catalogue and random programs.

This is the empirical counterpart of the paper's equivalence proof
(Section IV / reference [80]): for every litmus test, the Figure 17
machine and the GAM axioms must allow exactly the same outcome sets — and
likewise for the GAM0, SC and TSO definition pairs.
"""

import pytest

from repro.equivalence.checker import check_suite
from repro.equivalence.randprog import (
    RandomProgramConfig,
    random_litmus_test,
    random_suite,
)
from repro.litmus.registry import all_tests
from repro.litmus.registry import test_names as litmus_test_names

_PAIR_NAMES = ("gam", "gam0", "sc", "tso")
_CASES = [
    (test_name, pair)
    for test_name in litmus_test_names()
    for pair in _PAIR_NAMES
]


@pytest.mark.parametrize(
    "test_name,pair", _CASES, ids=[f"{t}-{p}" for t, p in _CASES]
)
def test_definitions_equivalent_on_catalogue(test_name, pair):
    from repro.litmus.registry import get_test

    (report,) = check_suite([get_test(test_name)], pair_names=(pair,))
    operational_only, axiomatic_only = report.differences()
    assert report.equivalent, (
        f"{pair} definitions disagree on {test_name}: "
        f"machine-only={sorted(map(str, operational_only))[:3]} "
        f"axioms-only={sorted(map(str, axiomatic_only))[:3]}"
    )


def test_check_suite_aggregates_reports():
    tests = [t for t in all_tests() if t.name in ("dekker", "lb")]
    reports = check_suite(tests, pair_names=("gam",))
    assert len(reports) == 2
    assert all(r.equivalent for r in reports)


def test_fuzz_equivalence_deterministic():
    def fuzz():
        return check_suite(
            random_suite(3, seed=11, name_prefix="fuzz"), pair_names=("gam", "gam0")
        )

    first, second = fuzz(), fuzz()
    assert [r.test_name for r in first] == [r.test_name for r in second]
    assert all(r.equivalent for r in first)


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_programs_equivalent(seed):
    reports = check_suite(
        random_suite(
            4,
            seed=seed,
            config=RandomProgramConfig(num_procs=2, max_instrs=4),
            name_prefix="fuzz",
        ),
        pair_names=("gam", "gam0"),
    )
    for report in reports:
        assert report.equivalent, f"{report.pair_name} differs on {report.test_name}"


def test_random_test_generator_is_loop_free_and_seedable():
    test_a = random_litmus_test(123)
    test_b = random_litmus_test(123)
    assert [list(p) for p in test_a.programs] == [list(p) for p in test_b.programs]
    for program in test_a.programs:
        # Loop-freedom is enforced by Program validation; just re-touch it.
        assert len(program) <= 4


def test_random_tests_with_three_procs():
    config = RandomProgramConfig(num_procs=3, max_instrs=3)
    reports = check_suite(
        random_suite(2, seed=5, config=config, name_prefix="fuzz"), pair_names=("gam",)
    )
    assert all(r.equivalent for r in reports)
