"""Two hunt campaigns against their recorded bytes.

``tests/data/hunts/`` (written by ``tools/record_hunts.py``) pins one
axiomatic and one operational ``repro hunt``: stdout, both reports, the
shard records, every witness and the ``stats.json`` counters.  Each hunt
reruns here in a fresh interpreter and must reproduce every file exactly,
so the campaign pipeline's output and the engine work it requests stay
fixed across refactors.  The axiomatic hunt also reruns at ``--jobs 2``:
pooled shards and lockstep minimization rounds must reproduce the same
files, counters included.  A second test re-minimizes every fixture
witness on its own, so lockstep rounds are held to the one-search result.
"""

import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign.driver import _PAIR_KINDS
from repro.campaign.minimize import divergence_check, minimize_divergence
from repro.campaign.state import ORACLE_AXIOMATIC, expand_pair_specs
from repro.litmus.frontend.parser import parse_litmus
from repro.litmus.frontend.printer import print_litmus
from repro.litmus.frontend.suite import resolve_suite

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "record_hunts", ROOT / "tools" / "record_hunts.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize(
    "name, jobs",
    [(name, 1) for name in sorted(record.HUNTS)] + [("axiomatic", 2)],
)
def test_hunt_reproduces_recorded_files(name, jobs, tmp_path):
    expected = record.recorded(name)
    actual = record.run_hunt(name, tmp_path / "campaign", jobs)
    assert sorted(actual) == sorted(expected)
    for relpath, data in expected.items():
        assert actual[relpath].decode() == data.decode(), relpath


@pytest.mark.parametrize("name", sorted(record.HUNTS))
def test_witnesses_equal_one_at_a_time_minimization(name):
    """Lockstep rounds change no search: every fixture witness is what
    :func:`minimize_divergence` makes of its test alone, after as many
    checks as the hunt logged."""
    base = record.DEFAULT_OUT / name
    report = json.loads((base / "report.json").read_text())
    campaign = report["campaign"]
    oracle = campaign.get("oracle", ORACLE_AXIOMATIC)
    kind = _PAIR_KINDS[oracle]
    _pairs, lookup = expand_pair_specs(
        [tuple(pair) for pair in campaign["pairs"]], oracle
    )
    tests = {test.name: test for test in resolve_suite(campaign["suite"])}
    checks = re.findall(r"\((\d+) checks\)$", (base / "stdout.txt").read_text(), re.M)
    assert len(checks) == len(report["discrepancies"]) > 0
    for entry, logged in zip(report["discrepancies"], checks):
        pair = tuple(lookup.get(side, side) for side in entry["pair"])
        result = minimize_divergence(
            tests[entry["test"]], divergence_check(pair, kind=kind)
        )
        assert result.checks == int(logged), entry["witness"]
        text = (base / entry["witness"]).read_text()
        witness = parse_litmus(text)
        alone = replace(
            result.test,
            name=witness.name,
            source=witness.source,
            description=witness.description,
        )
        assert print_litmus(alone) == text, entry["witness"]
