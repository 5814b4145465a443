"""Two hunt campaigns against their recorded bytes.

``tests/data/hunts/`` (written by ``tools/record_hunts.py``) pins one
axiomatic and one operational ``repro hunt``: stdout, both reports, the
shard records, every witness and the ``stats.json`` counters.  Each hunt
reruns here in a fresh interpreter and must reproduce every file exactly,
so the campaign pipeline's output and the engine work it requests stay
fixed across refactors.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "record_hunts", ROOT / "tools" / "record_hunts.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("name", sorted(record.HUNTS))
def test_hunt_reproduces_recorded_files(name, tmp_path):
    expected = record.recorded(name)
    actual = record.run_hunt(name, tmp_path / "campaign")
    assert sorted(actual) == sorted(expected)
    for relpath, data in expected.items():
        assert actual[relpath].decode() == data.decode(), relpath
