"""The GAM, GAM0, SC and TSO explorations against the recorded state-count fixture.

``tests/data/machine_states.json`` (written by
``tools/record_machine_states.py``) pins, per (test, machine), the number
of distinct states the full interleaving visits, the number the engine's
(for GAM/GAM0 partial-order reduced) exploration visits, the number of
terminal states and a digest of the full-projection outcome set, over the
catalogue plus ``rand:n=60,seed=3``.  A change of state encoding must
reproduce every row exactly; a reduction must only lower ``reduced_states``
and re-record the rows it shrinks.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = json.loads((ROOT / "tests" / "data" / "machine_states.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "record_machine_states", ROOT / "tools" / "record_machine_states.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

TESTS = record.fixture_tests()


def test_fixture_covers_every_test_and_machine():
    expected = {f"{t.name}/{m}" for t in TESTS for m in FIXTURE["machines"]}
    assert set(FIXTURE["rows"]) == expected
    assert tuple(FIXTURE["suites"]) == record.SUITES


def test_reduction_never_visits_more_states():
    for key, row in FIXTURE["rows"].items():
        assert row["reduced_states"] <= row["states_visited"], key


@pytest.mark.parametrize("machine", FIXTURE["machines"])
@pytest.mark.parametrize("test", TESTS, ids=lambda t: t.name)
def test_explorer_reproduces_recorded_row(test, machine):
    assert record.record_row(test, machine) == FIXTURE["rows"][f"{test.name}/{machine}"]
