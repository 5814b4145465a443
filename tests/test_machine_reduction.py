"""The partial-order-reduced GAM/GAM0 explorer against the unreduced oracle.

:func:`repro.core.operational.explore` fires only the oldest local moves of
one processor whenever some processor's enabled moves are all local.  The
reduction must keep every terminal state reachable, so over each corpus
the reduced and unreduced (:mod:`reference.unreduced_machine`) explorers
must give equal full-projection outcome sets and equal terminal counts,
while the reduced one never visits more states.
"""

import pytest

from reference.unreduced_machine import explore_unreduced
from repro.core.operational import GAM0_MACHINE, GAM_MACHINE, explore
from repro.equivalence.randprog import RandomProgramConfig, random_suite
from repro.litmus.frontend.suite import resolve_suite

VARIANTS = (GAM_MACHINE, GAM0_MACHINE)

# RMWs, branches and late (register-dependent) addresses: the moves the
# reduction's soundness argument turns on (kills, refetches, forwarding).
KILL_HEAVY = RandomProgramConfig(rmw_weight=1.5, branch_weight=1.0, artificial_dep_prob=0.6)


def assert_parity(tests):
    reduced_total = unreduced_total = 0
    for test in tests:
        for variant in VARIANTS:
            reduced = explore(test, variant, project="full")
            unreduced = explore_unreduced(test, variant, project="full")
            key = (test.name, variant.name)
            assert reduced.outcomes == unreduced.outcomes, key
            assert reduced.terminal_states == unreduced.terminal_states, key
            assert reduced.states_visited <= unreduced.states_visited, key
            reduced_total += reduced.states_visited
            unreduced_total += unreduced.states_visited
    return reduced_total, unreduced_total


@pytest.mark.parametrize("suite", ["all", "gen:edges=4", "rand:n=60,seed=3"])
def test_reduced_explorer_matches_unreduced(suite):
    reduced, unreduced = assert_parity(resolve_suite(suite))
    assert reduced < unreduced


def test_reduced_explorer_matches_unreduced_on_kill_heavy_corpus():
    tests = random_suite(100, seed=1, config=KILL_HEAVY, name_prefix="kill")
    reduced, unreduced = assert_parity(tests)
    assert reduced < unreduced


@pytest.mark.slow
@pytest.mark.parametrize(
    "suite", ["gen:edges=5"] + [f"rand:n=200,seed={seed}" for seed in range(1, 6)]
)
def test_reduced_explorer_matches_unreduced_slow(suite):
    assert_parity(resolve_suite(suite))
