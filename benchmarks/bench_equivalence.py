"""Cost of the empirical equivalence check (the Section IV validation)."""

from __future__ import annotations

from repro.equivalence.checker import check_suite, fuzz_equivalence
from repro.equivalence.randprog import RandomProgramConfig
from repro.litmus.registry import get_test


def test_equivalence_one_test(benchmark):
    test = get_test("mp+addr")
    (report,) = benchmark(lambda: check_suite([test], pair_names=("gam",)))
    assert report.equivalent


def test_fuzz_batch(benchmark):
    config = RandomProgramConfig(num_procs=2, max_instrs=3)
    reports = benchmark.pedantic(
        lambda: fuzz_equivalence(5, seed=42, config=config, pair_names=("gam",)),
        rounds=1,
        iterations=1,
    )
    assert all(r.equivalent for r in reports)
