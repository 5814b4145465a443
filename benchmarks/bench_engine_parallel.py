"""Batch evaluation engine vs the seed serial path (full paper matrix).

The seed architecture evaluated every (test, model) verdict independently:
each ``is_allowed`` call re-derived the test's value domains, program runs
and candidate events from scratch, once per model in the zoo.  The engine
(:mod:`repro.engine`) computes that model-independent prefix once per test
and shares static-ppo DAGs and solved kernel DPs between models with
identical clause sets.

This module times three configurations of the full paper-suite matrix —
the faithful seed path, the engine at ``jobs=1``, and the engine on a warm
on-disk cache — asserts the rendered output is byte-identical across all
of them, asserts the tentpole's >= 2x speedup, and writes the wall-times
to ``results/BENCH_engine_parallel.json`` so the perf trajectory of the
matrix workload is tracked run over run.

The seed path recomputes every cell from scratch through the same
frontier kernel the engine uses, so the ratio measures what sharing the
model-independent prefix across the zoo buys.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import write_result
from repro.core.axiomatic import is_allowed
from repro.eval.litmus_matrix import (
    VerdictCell,
    conformance_failures,
    litmus_matrix,
    render_matrix,
)
from repro.models.registry import get_model

_ZOO = ("sc", "tso", "gam", "gam0", "arm", "wmm", "alpha_like", "plsc")


def _seed_serial_matrix(tests, model_names=_ZOO):
    """The seed's litmus_matrix: one independent is_allowed per cell."""
    cells = []
    models = {name: get_model(name) for name in model_names}
    for test in tests:
        if test.asked is None:
            continue
        for name, model in models.items():
            cells.append(
                VerdictCell(
                    test_name=test.name,
                    model_name=name,
                    allowed=is_allowed(test, model),
                    expected=test.expect.get(name),
                )
            )
    return cells


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_seed_serial_paper_matrix(benchmark, paper_tests):
    cells = benchmark(lambda: _seed_serial_matrix(paper_tests))
    assert conformance_failures(cells) == []


def test_engine_shared_paper_matrix(benchmark, paper_tests):
    cells = benchmark(lambda: litmus_matrix(tests=paper_tests, jobs=1))
    assert conformance_failures(cells) == []


def test_engine_cached_paper_matrix(benchmark, paper_tests, tmp_path):
    cache = str(tmp_path / "cache")
    litmus_matrix(tests=paper_tests, cache_dir=cache)  # warm the cache
    cells = benchmark(lambda: litmus_matrix(tests=paper_tests, cache_dir=cache))
    assert conformance_failures(cells) == []


def test_engine_speedup_and_parity(paper_tests, results_dir, tmp_path):
    """The tentpole's acceptance: >= 2x over seed, byte-identical output."""
    seed_time, seed_cells = _best_of(lambda: _seed_serial_matrix(paper_tests))
    engine_time, engine_cells = _best_of(
        lambda: litmus_matrix(tests=paper_tests, jobs=1)
    )
    cache = str(tmp_path / "cache")
    litmus_matrix(tests=paper_tests, cache_dir=cache)
    cached_time, cached_cells = _best_of(
        lambda: litmus_matrix(tests=paper_tests, cache_dir=cache)
    )

    assert render_matrix(engine_cells) == render_matrix(seed_cells)
    assert render_matrix(cached_cells) == render_matrix(seed_cells)

    speedup = seed_time / engine_time
    payload = {
        "workload": "paper-suite verdict matrix, 8-model zoo",
        "seed_serial_s": round(seed_time, 4),
        "engine_shared_s": round(engine_time, 4),
        "engine_cached_s": round(cached_time, 4),
        "shared_speedup": round(speedup, 2),
        "cached_speedup": round(seed_time / cached_time, 2),
    }
    write_result(
        results_dir, "BENCH_engine_parallel.json", json.dumps(payload, indent=2)
    )
    assert speedup >= 2.0, f"shared-candidate speedup regressed: {payload}"
