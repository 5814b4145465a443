"""Minimized axioms-vs-machine divergences, kept as regression tests.

Every ``.litmus`` file in this directory once separated a model's axioms
from its abstract machine.  Each must now give the same full-projection
outcome set under both, for GAM and GAM0.

* ``rand-1-8``, ``rand-1-14``, ``rand-1-68`` — the three witnesses
  ``repro hunt --oracle operational --suite rand:n=100,seed=1`` mined and
  minimized.  ``rand-1-68`` is ``St [b] 2; r0 = Ld [b]; r2 = Ld [b]``: the
  GAM0 machine let the younger load read memory before the store's
  address was known, and the store's address resolution stopped its kill
  search at the unissued load in between, so ``r2 = 0`` survived.
* ``rmw-kill`` — the same kill search started by an RMW's address
  resolution.

The engine's explorer is partial-order reduced, and on these one-thread
witnesses it resolves the store's address before any younger load can
run, so it would not show the kill-search bug again.  Each witness is
therefore also explored without the reduction
(:mod:`reference.unreduced_machine`), where the younger load may read
memory first.
"""

from pathlib import Path

import pytest

from reference.unreduced_machine import explore_unreduced
from repro.core.operational import GAM0_MACHINE, GAM_MACHINE, explore
from repro.equivalence.checker import check_suite
from repro.litmus.frontend.parser import parse_litmus_file

WITNESSES = sorted(Path(__file__).parent.glob("*.litmus"))


def test_the_witnesses_are_present():
    names = {path.stem for path in WITNESSES}
    assert {"rand-1-8", "rand-1-14", "rand-1-68", "rmw-kill"} <= names


@pytest.mark.parametrize("pair", ["gam", "gam0"])
@pytest.mark.parametrize("path", WITNESSES, ids=lambda path: path.stem)
def test_axioms_and_machine_agree(path, pair):
    (report,) = check_suite([parse_litmus_file(path)], pair_names=(pair,))
    assert report.equivalent, report.differences()


@pytest.mark.parametrize("variant", [GAM_MACHINE, GAM0_MACHINE], ids=lambda v: v.name)
@pytest.mark.parametrize("path", WITNESSES, ids=lambda path: path.stem)
def test_unreduced_machine_agrees(path, variant):
    test = parse_litmus_file(path)
    unreduced = explore_unreduced(test, variant, project="full")
    assert unreduced.outcomes == explore(test, variant, project="full").outcomes


@pytest.mark.parametrize(
    "stem, values",
    [
        ("rand-1-68", {"r0": 2, "r2": 2}),
        ("rmw-kill", {"r0": 0, "r1": 2, "r2": 2}),
    ],
)
def test_one_thread_witness_has_only_the_sequential_outcome(stem, values):
    test = parse_litmus_file(Path(__file__).parent / f"{stem}.litmus")
    (outcome,) = explore(test, GAM0_MACHINE, project="full").outcomes
    assert outcome.reg_bindings() == {(0, reg): v for reg, v in values.items()}
