"""Self-tests of the benchmark.

Run from the repository root (smoke inputs, about a minute)::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

import run
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
        "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_names_match_the_naming_rule(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    def identity(seed):
        inputs = workloads.build_inputs(workload, seed, smoke=True)
        if not inputs.tests:
            inputs.tests = workloads.hunt_tests(inputs)
        return workloads.input_identity(workload, seed, inputs.tests)

    first, again, other = identity(3), identity(3), identity(4)
    assert first == again
    assert first["ordered_digest"] != other["ordered_digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload, spec):
    start = time.monotonic()
    result = _run(workload, trace=0)
    assert time.monotonic() - start < 60
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, spec):
    first = run.launch(workload, 5, "traced", smoke=True)
    second = run.launch(workload, 5, "traced", smoke=True)
    assert first["counts"] == second["counts"]
    assert first["counts"]["engine.cells.requested"] > 0
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(first["layers"]) | {"trace.overhead_share"} == per_layer
