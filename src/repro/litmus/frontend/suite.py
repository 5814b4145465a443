"""Suite-spec resolution for the CLI.

:func:`resolve_suite` turns the CLI's ``--suite`` argument into a test
list.  Accepted specs::

    paper | standard | all        the static catalogues
    gen:edges=4[,size=50][,seed=7]  a generated suite (deterministic)
    rand:n=50[,seed=7,...]        a seeded randprog corpus (deterministic)
    path/to/test.litmus           one parsed file
    path/to/dir/                  every *.litmus file in a directory

so ``repro matrix --suite gen:edges=4 --jobs 4`` pushes an unbounded,
systematically generated test space through the batch engine,
``repro hunt --oracle operational --suite rand:n=200`` fuzzes the
abstract machines against the axioms over an addressable random corpus,
and ``repro matrix --suite ./mytests/`` does the same for external
corpora.  A suite is a test list, never a registration: the static
catalogue (:mod:`repro.litmus.registry`) is read-only, and
:func:`litmus_files` is the one directory expansion behind both path
suites and ``repro import``.
"""

from __future__ import annotations

import os
from typing import Sequence

from ...spec_items import parse_items
from .. import registry
from ..test import LitmusTest
from .gen import generate_suite
from .parser import LitmusParseError, parse_litmus_file

__all__ = [
    "litmus_files",
    "load_litmus_path",
    "resolve_suite",
    "parse_gen_spec",
    "parse_rand_spec",
    "shard_suite",
    "STATIC_SUITES",
]

STATIC_SUITES = ("paper", "standard", "all")
"""Suite names resolved against the static catalogue."""


def litmus_files(path: str) -> list[str]:
    """``path`` itself, or a directory's ``*.litmus`` entries sorted by name.

    Raises :class:`LitmusParseError` for a directory holding none.
    """
    if not os.path.isdir(path):
        return [path]
    files = [
        os.path.join(path, entry)
        for entry in sorted(os.listdir(path))
        if entry.endswith(".litmus")
    ]
    if not files:
        raise LitmusParseError(f"no .litmus files in directory {path!r}")
    return files


def load_litmus_path(path: str) -> list[LitmusTest]:
    """Parse ``path`` (a ``.litmus`` file or a directory of them).

    Duplicate test names within a directory raise
    :class:`LitmusParseError`: every downstream consumer (verdict
    matrices, the hunt pipeline) keys results by test name, so a
    collision would silently drop one of the tests.
    """
    files = litmus_files(path)
    tests = [parse_litmus_file(file) for file in files]
    seen: dict[str, str] = {}
    for test, file in zip(tests, files):
        entry = os.path.basename(file)
        if test.name in seen:
            raise LitmusParseError(
                f"duplicate test name {test.name!r} in directory "
                f"{path!r} (files {seen[test.name]!r} and {entry!r})"
            )
        seen[test.name] = entry
    return tests


_GEN_KWARGS = {"edges": "max_edges", "size": "size", "seed": "seed"}
_RAND_KWARGS = {
    "n": "count",
    "seed": "seed",
    "procs": "num_procs",
    "instrs": "max_instrs",
    "locs": "num_locations",
}


def parse_gen_spec(spec: str) -> dict:
    """Parse ``gen:key=value,...`` into :func:`generate_suite` kwargs.

    Accepted keys: ``edges`` (cycle budget), ``size`` (suite cap), and
    ``seed`` (pre-cap shuffle).  ``gen`` alone means the defaults.
    """
    items = parse_items(
        spec[len("gen"):].lstrip(":"),
        dict.fromkeys(_GEN_KWARGS, int),
        usage="gen:edges=N[,size=M][,seed=S]",
        label="generator spec entry",
    )
    return {_GEN_KWARGS[key]: value for key, value in items.items()}


def parse_rand_spec(spec: str) -> dict:
    """Parse ``rand:key=value,...`` into randprog corpus parameters.

    Accepted keys: ``n`` (corpus size), ``seed``, and the generator
    knobs ``procs`` / ``instrs`` / ``locs``.  ``rand`` alone means the
    defaults (``n=10, seed=0`` with the stock
    :class:`~repro.equivalence.randprog.RandomProgramConfig`).
    """
    items = parse_items(
        spec[len("rand"):].lstrip(":"),
        dict.fromkeys(_RAND_KWARGS, int),
        usage="rand:n=N[,seed=S][,procs=P][,instrs=I][,locs=L]",
        label="randprog spec entry",
    )
    return {_RAND_KWARGS[key]: value for key, value in items.items()}


def _random_corpus(spec: str) -> list[LitmusTest]:
    """Materialize a ``rand:`` spec — deterministic per (seed, knobs)."""
    from ...equivalence.randprog import RandomProgramConfig, random_suite

    params = parse_rand_spec(spec)
    count = params.pop("count", 10)
    seed = params.pop("seed", 0)
    config = RandomProgramConfig(**params) if params else None
    return random_suite(count, seed=seed, config=config)


def shard_suite(
    tests: Sequence[LitmusTest], shard_index: int, num_shards: int
) -> list[LitmusTest]:
    """Deterministic round-robin partition: shard ``i`` gets ``tests[i::n]``.

    The partition is a pure function of the (already deterministic) suite
    order, so re-resolving the same suite spec always reproduces the same
    shards — the property campaign resumption and future multi-machine
    sharding rely on.  Round-robin keeps shard sizes within one test of
    each other, and concatenating ``shard_suite(t, i, n)`` for ``i`` in
    ``0..n-1`` covers every test exactly once.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if not 0 <= shard_index < num_shards:
        raise ValueError(
            f"shard_index must be in [0, {num_shards}), got {shard_index}"
        )
    return list(tests[shard_index::num_shards])


def resolve_suite(spec: str) -> list[LitmusTest]:
    """Resolve a CLI ``--suite`` spec to a concrete test list."""
    if spec == "paper":
        return list(registry.paper_suite())
    if spec == "standard":
        return list(registry.standard_suite())
    if spec == "all":
        return list(registry.all_tests())
    if spec == "gen" or spec.startswith("gen:"):
        return generate_suite(**parse_gen_spec(spec))
    if spec == "rand" or spec.startswith("rand:"):
        return _random_corpus(spec)
    if os.path.exists(spec):
        return load_litmus_path(spec)
    raise KeyError(
        f"unknown suite {spec!r}; expected one of {', '.join(STATIC_SUITES)}, "
        "a gen:... or rand:... spec, or a .litmus file/directory path"
    )
