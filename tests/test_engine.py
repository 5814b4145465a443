"""Tests for the batch evaluation engine (repro.engine).

Covers the three tentpole properties: shared candidate prefixes produce
exactly the serial results, the on-disk cache round-trips verdicts
byte-identically, and multi-process fan-out changes nothing but
wall-time.  Worker error reporting (DomainOverflowError with the
offending test's name) is exercised in both serial and pooled modes.
"""

import contextlib
import json
import multiprocessing
import os
import shutil
import signal
import sqlite3

import pytest

from repro.core.axiomatic import (
    CandidatePrefix,
    DomainOverflowError,
    enumerate_outcomes,
    is_allowed,
)
from repro.engine import (
    CellFailure,
    ExecutionPolicy,
    OutcomeSpec,
    ResultCache,
    VerdictSpec,
    cell_cache_key,
    evaluate_cells,
)
from repro.engine.cache import DB_NAME
from repro.equivalence.checker import check_suite
from repro.eval.litmus_matrix import litmus_matrix, render_matrix
from repro.eval.strength import render_strength, strength_matrix
from repro.isa.expr import BinOp, Const, Reg
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.frontend.suite import resolve_suite
from repro.litmus.registry import get_test, paper_suite
from repro.models.registry import get_model
from repro.obs import collecting

_ZOO = ("sc", "tso", "gam", "gam0", "arm", "wmm", "alpha_like", "plsc")


def _rows(root):
    """The committed ``key -> payload`` rows of the cache under ``root``,
    read through a connection of the test's own."""
    with contextlib.closing(sqlite3.connect(os.path.join(root, DB_NAME))) as db:
        return dict(db.execute("SELECT key, payload FROM cells"))


def _overflow_test(name="feedback-overflow"):
    """A non-litmus-style program whose value domain exceeds the cap.

    Each load feeds a store of ``3*r + 1``: the abstract domain roughly
    triples per closure round, crossing the 64-value cap well before the
    per-store round bound.
    """
    builder = LitmusBuilder(name, locations=("a",))
    proc = builder.proc()
    for i in range(8):
        reg = f"r{i}"
        proc.ld(reg, "a")
        proc.st("a", BinOp("+", BinOp("*", Reg(reg), Const(3)), Const(1)))
    return builder.build(asked={"P0.r0": 0})


class TestSharedPrefix:
    @pytest.mark.parametrize("test_name", [t.name for t in paper_suite()] + ["iriw"])
    def test_shared_prefix_matches_fresh_verdicts(self, test_name):
        test = get_test(test_name)
        prefix = CandidatePrefix(test)
        for name in _ZOO:
            model = get_model(name)
            assert is_allowed(test, model, prefix=prefix) == is_allowed(test, model)

    @pytest.mark.parametrize("test_name", ["dekker", "lb"])
    def test_shared_prefix_matches_fresh_outcome_sets(self, test_name):
        test = get_test(test_name)
        prefix = CandidatePrefix(test)
        for name in ("sc", "gam", "alpha_like", "plsc"):
            model = get_model(name)
            shared = enumerate_outcomes(test, model, project="full", prefix=prefix)
            fresh = enumerate_outcomes(test, model, project="full")
            assert shared == fresh

    def test_partial_consumption_then_full_enumeration(self):
        # is_allowed short-circuits; a later full enumeration over the same
        # memoized order stream must still see every execution.
        test = get_test("dekker")
        prefix = CandidatePrefix(test)
        gam = get_model("gam")
        assert is_allowed(test, gam, prefix=prefix)  # consumes a prefix
        shared = enumerate_outcomes(test, gam, project="full", prefix=prefix)
        assert shared == enumerate_outcomes(test, gam, project="full")

    def test_uncovered_extra_values_fall_back(self):
        # A prefix that does not cover the requested extra values must be
        # rebuilt, not silently reused.
        test = get_test("dekker")
        prefix = CandidatePrefix(test)
        assert not prefix.covers({41})
        outcome = test.parse_outcome({"P0.r1": 41})
        gam = get_model("gam")
        assert is_allowed(test, gam, outcome=outcome, prefix=prefix) is False

    def test_engine_cells_match_direct_calls(self):
        tests = [*paper_suite(), get_test("mp")]
        cells = [VerdictSpec(t, get_model(m)) for t in tests for m in _ZOO]
        results = evaluate_cells(cells)
        for cell, result in zip(cells, results):
            assert result == is_allowed(cell.test, cell.model)


class TestCache:
    def test_miss_then_hit_round_trips(self, tmp_path):
        cache = str(tmp_path / "cache")
        test = get_test("dekker")
        cells = [
            VerdictSpec(test, get_model("gam")),
            OutcomeSpec(test, get_model("sc"), project="full"),
            OutcomeSpec(test, None, project="full", oracle="operational:gam"),
        ]
        fresh = evaluate_cells(cells, cache_dir=cache)
        assert sorted(_rows(cache)) == sorted(cell_cache_key(c) for c in cells)
        cached = evaluate_cells(cells, cache_dir=cache)
        assert cached == fresh

    def test_cached_matrix_renders_byte_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        tests = [get_test("dekker"), get_test("mp+fences")]
        first = render_matrix(litmus_matrix(tests=tests, cache_dir=cache))
        second = render_matrix(litmus_matrix(tests=tests, cache_dir=cache))
        baseline = render_matrix(litmus_matrix(tests=tests))
        assert first == second == baseline

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        test = get_test("dekker")
        cell = VerdictSpec(test, get_model("gam"))
        cache = ResultCache(tmp_path)
        cache.write_rows([(cell_cache_key(cell), "{ not json")])
        assert cache.load(cell) is None
        cache.store(cell, True)
        assert cache.load(cell) is True

    def test_key_ignores_name_but_not_content(self):
        dekker = get_test("dekker")
        assert cell_cache_key(VerdictSpec(dekker, get_model("gam"))) != cell_cache_key(
            VerdictSpec(dekker, get_model("sc"))
        )
        assert cell_cache_key(VerdictSpec(dekker, get_model("gam"))) != cell_cache_key(
            VerdictSpec(get_test("mp"), get_model("gam"))
        )

    def test_each_test_is_described_once_in_the_parent(self, tmp_path, monkeypatch):
        """Grouping, cache keys and the pool's pickles share one content key:
        each test object's descriptor is built once, in the parent."""
        import pickle
        from dataclasses import replace

        import repro.litmus.test as test_module
        from repro.engine import cache as cache_module
        from repro.engine import cells as cells_module
        from repro.engine import scheduler as scheduler_module

        log = tmp_path / "described.log"
        original = cells_module.test_descriptor

        def counting(test):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {id(test)}\n")
            return original(test)

        for module in (test_module, cells_module, cache_module, scheduler_module):
            monkeypatch.setattr(module, "test_descriptor", counting, raising=False)
        keyed = []
        original_cell = cache_module.cell_descriptor

        def counting_cell(cell, *args):
            keyed.append(cell)
            return original_cell(cell, *args)

        monkeypatch.setattr(cache_module, "cell_descriptor", counting_cell)

        def described():
            lines = log.read_text().splitlines() if log.exists() else []
            log.unlink(missing_ok=True)
            return [tuple(map(int, line.split())) for line in lines]

        def cells_for(tests):
            return [
                cell
                for test in tests
                for cell in (
                    VerdictSpec(test, get_model("sc")),
                    VerdictSpec(test, get_model("arm")),
                    OutcomeSpec(test, get_model("gam"), project="full"),
                    OutcomeSpec(test, None, project="full", oracle="operational:sc"),
                )
            ]

        def fresh():
            # Copies carry no cached key; the last duplicates the first's
            # content, so it groups with it but is still its own object.
            dekker, mp = get_test("dekker"), get_test("mp")
            return [replace(dekker), replace(mp), replace(dekker)]

        tests = fresh()
        cells = cells_for(tests)
        serial = evaluate_cells(cells, cache_dir=str(tmp_path / "serial"))
        assert sorted(described()) == sorted((os.getpid(), id(t)) for t in tests)
        assert evaluate_cells(cells, cache_dir=str(tmp_path / "serial")) == serial
        assert described() == []
        # One key per cell and call, serving both the lookup and the store.
        assert sorted(map(id, keyed)) == sorted(map(id, cells + cells))
        # Batches store under the per-cell keys, so a lone load (and the
        # corrupt fault, which keys its row the same way) finds them.
        assert set(_rows(tmp_path / "serial")) == {cell_cache_key(c) for c in cells}
        assert "content_key" in pickle.loads(pickle.dumps(tests[0])).__dict__

        tests = fresh()
        pooled = evaluate_cells(
            cells_for(tests), jobs=2, cache_dir=str(tmp_path / "pooled")
        )
        assert pooled == serial
        assert sorted(described()) == sorted((os.getpid(), id(t)) for t in tests)

    def test_cache_payload_is_json(self, tmp_path):
        test = get_test("dekker")
        cell = OutcomeSpec(test, get_model("sc"), project="full")
        evaluate_cells([cell], cache_dir=str(tmp_path))
        (payload_text,) = _rows(tmp_path).values()
        payload = json.loads(payload_text)
        assert payload["kind"] == "outcomes"
        assert payload["outcomes"]  # non-empty, sorted canonical form


def _hammer_store(root, names, rounds, barrier):
    """One writer process: open each of ``rounds`` fresh caches at the
    same moment as its twin, then store and load the same cells in it,
    one at a time or in one batch."""
    cells = [
        VerdictSpec(get_test(name), get_model(model))
        for name in names
        for model in ("sc", "gam")
    ]
    expected = {cell_cache_key(c): evaluate_cells([c])[0] for c in cells}
    try:
        for index in range(rounds):
            barrier.wait(timeout=60)
            cache = ResultCache(os.path.join(root, str(index)))
            with cache.batch() if index % 2 else contextlib.nullcontext():
                for cell in cells:
                    cache.store(cell, expected[cell_cache_key(cell)])
            for cell in cells:
                loaded = cache.load(cell)
                if loaded != expected[cell_cache_key(cell)]:
                    raise SystemExit(f"bad read for {cell_cache_key(cell)}")
    except BaseException:
        barrier.abort()  # fail the twin now, not at its barrier timeout
        raise


def _die_inside_commit(root, cell):
    """Store ``cell`` alone, then SIGKILL this process inside the commit
    of a batch of 500 rows, after they were written to the open
    transaction and spilled to the write-ahead log."""

    class _KillAtCommit:
        def __init__(self, db):
            self._db = db

        def __getattr__(self, name):
            return getattr(self._db, name)

        def execute(self, sql, *args):
            if sql == "COMMIT":
                os.kill(os.getpid(), signal.SIGKILL)
            return self._db.execute(sql, *args)

    cache = ResultCache(root)
    cache.store(cell, True)
    cache._db.execute("PRAGMA cache_size = 1")  # spill pages before commit
    cache._db = _KillAtCommit(cache._db)
    with cache.batch():
        for index in range(500):
            cache.store(cell, False, key=f"{index:064x}")


class TestConcurrentStore:
    def test_two_processes_hammer_one_store(self, tmp_path):
        """Two spawned writers open each fresh cache at the same moment,
        so both race to put a new database in WAL mode, then share it."""
        root = str(tmp_path / "store")
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_hammer_store, args=(root, ("mp", "dekker"), 100, barrier)
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]
        for index in range(100):
            assert ResultCache(os.path.join(root, str(index))).stats().entries == 4

    def test_killed_writer_commits_nothing(self, tmp_path):
        root = str(tmp_path / "store")
        cell = VerdictSpec(get_test("mp"), get_model("sc"))
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_die_inside_commit, args=(root, cell))
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == -signal.SIGKILL
        assert os.path.getsize(os.path.join(root, DB_NAME + "-wal")) > 0
        cache = ResultCache(root)
        assert cache.stats().entries == 1  # the batch's 500 rows never landed
        assert cache.load(cell) is True
        cache.store(cell, False)  # the dead writer's lock is gone
        assert _rows(root) == {cell_cache_key(cell): '{"allowed": false, "kind": "verdict"}'}

    def test_failed_batch_commits_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [VerdictSpec(get_test("mp"), get_model(model)) for model in ("sc", "gam")]
        with pytest.raises(RuntimeError, match="mid-batch"):
            with cache.batch():
                cache.store(cells[0], True)
                assert cache.load(cells[0]) is True  # pending, yet visible
                raise RuntimeError("mid-batch")
        assert cache.load(cells[0]) is None

        def _rows_then_failure():
            yield (cell_cache_key(cells[0]), "{}")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cache.write_rows(_rows_then_failure())
        assert _rows(tmp_path) == {}
        cache.store(cells[1], True)  # no transaction was left open
        assert cache.load(cells[1]) is True

    def test_open_connections_stay_bounded(self, tmp_path):
        from repro.engine import cache as cache_module

        first = ResultCache(tmp_path / "0")
        for index in range(1, 2 * cache_module._MAX_CONNECTIONS):
            ResultCache(tmp_path / str(index))
        own = [slot for slot in cache_module._connections if slot[0] == os.getpid()]
        assert len(own) == cache_module._MAX_CONNECTIONS
        cell = VerdictSpec(get_test("mp"), get_model("sc"))
        first.store(cell, True)  # an open cache keeps its dropped connection
        assert ResultCache(tmp_path / "0").load(cell) is True

    def test_reopens_after_directory_deletion(self, tmp_path):
        root = tmp_path / "store"
        cell = VerdictSpec(get_test("mp"), get_model("sc"))
        ResultCache(root).store(cell, True)
        shutil.rmtree(root)  # the directory is removed under a live process
        cache = ResultCache(root)
        assert cache.load(cell) is None
        cache.store(cell, True)
        assert cache.load(cell) is True
        assert list(_rows(root)) == [cell_cache_key(cell)]


class TestErrorReporting:
    def test_domain_overflow_names_test_serially(self):
        with pytest.raises(DomainOverflowError, match="feedback-overflow"):
            evaluate_cells([VerdictSpec(_overflow_test(), get_model("gam"))])

    @pytest.mark.slow
    def test_domain_overflow_names_test_from_worker(self):
        cells = [
            VerdictSpec(get_test("dekker"), get_model("gam")),
            VerdictSpec(_overflow_test(), get_model("gam")),
        ]
        with pytest.raises(DomainOverflowError, match="feedback-overflow"):
            evaluate_cells(cells, jobs=2)

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.slow)])
    def test_domain_overflow_settles_once_under_skip(self, jobs):
        # An overflow is deterministic: it is finalized on its first
        # attempt, whatever the retry budget, the same serial and pooled.
        cells = [
            VerdictSpec(test, get_model(model))
            for test in (get_test("dekker"), _overflow_test())
            for model in ("sc", "gam")
        ]
        baseline = evaluate_cells(cells[:2])
        policy = ExecutionPolicy(retries=2, on_error="skip")
        with collecting() as recorder:
            results = evaluate_cells(cells, jobs=jobs, policy=policy)
            counters = recorder.snapshot().counters
        assert results[:2] == baseline
        for failure in results[2:]:
            assert isinstance(failure, CellFailure)
            assert failure.test_name == "feedback-overflow"
            assert failure.reason == "domain-overflow"
            assert failure.attempts == 1
        assert "engine.retries" not in counters


class TestOnBatchHook:
    """The streaming hook drivers (campaign, progress) plug into."""

    def test_serial_hook_fires_per_test_in_order(self):
        tests = [get_test("dekker"), get_test("mp"), get_test("corr")]
        cells = [VerdictSpec(t, get_model(m)) for t in tests for m in ("sc", "gam")]
        seen = []
        results = evaluate_cells(
            cells, on_batch=lambda test, batch: seen.append((test.name, list(batch)))
        )
        assert [name for name, _ in seen] == ["dekker", "mp", "corr"]
        # The streamed batches are exactly the ordered results, chunked.
        flattened = [result for _, batch in seen for result in batch]
        assert flattened == results

    def test_hook_sees_cached_results_too(self, tmp_path):
        cell = VerdictSpec(get_test("dekker"), get_model("gam"))
        first = []
        evaluate_cells(
            [cell], cache_dir=str(tmp_path), on_batch=lambda t, b: first.extend(b)
        )
        second = []
        evaluate_cells(
            [cell], cache_dir=str(tmp_path), on_batch=lambda t, b: second.extend(b)
        )
        assert first == second

    @pytest.mark.slow
    def test_pooled_hook_fires_per_test_in_order(self):
        tests = [get_test("dekker"), get_test("mp"), get_test("corr")]
        cells = [VerdictSpec(t, get_model(m)) for t in tests for m in ("sc", "gam")]
        seen = []
        results = evaluate_cells(
            cells,
            jobs=2,
            on_batch=lambda test, batch: seen.append((test.name, list(batch))),
        )
        assert [name for name, _ in seen] == ["dekker", "mp", "corr"]
        assert [r for _, batch in seen for r in batch] == results


@pytest.mark.slow
class TestParallelParity:
    @pytest.mark.parametrize("suite", ["dekker,mp,corr", "gen:edges=4"])
    def test_matrix_jobs2_identical(self, suite):
        if suite.startswith("gen:"):
            tests = resolve_suite(suite)
        else:
            tests = [get_test(name) for name in suite.split(",")]
        serial = render_matrix(litmus_matrix(tests=tests, jobs=1))
        parallel = render_matrix(litmus_matrix(tests=tests, jobs=2))
        assert serial == parallel

    def test_strength_jobs2_identical(self):
        tests = [get_test("dekker"), get_test("mp")]
        names = ("sc", "gam", "gam0")
        serial = render_strength(strength_matrix(tests=tests, model_names=names))
        parallel = render_strength(
            strength_matrix(tests=tests, model_names=names, jobs=2)
        )
        assert serial == parallel

    def test_equiv_jobs2_identical(self):
        tests = [get_test("dekker"), get_test("corr")]
        serial = check_suite(tests, pair_names=("gam",), jobs=1)
        parallel = check_suite(tests, pair_names=("gam",), jobs=2)
        assert [(r.test_name, r.pair_name, r.axiomatic, r.operational) for r in serial] == [
            (r.test_name, r.pair_name, r.axiomatic, r.operational) for r in parallel
        ]


class TestEngineVersion:
    """The kernel change bumped ENGINE_VERSION: stale entries must miss."""

    def test_version_is_post_kernel(self):
        from repro.engine import cells

        assert cells.ENGINE_VERSION >= 2

    def test_version_changes_cache_key(self, monkeypatch):
        from repro.engine import cells

        cell = VerdictSpec(get_test("dekker"), get_model("gam"))
        key_now = cell_cache_key(cell)
        monkeypatch.setattr(cells, "ENGINE_VERSION", 1)
        assert cell_cache_key(cell) != key_now

    def test_pre_kernel_cache_entries_miss(self, tmp_path, monkeypatch):
        """A verdict stored under engine version 1 must never be served."""
        from repro.engine import cells

        cell = VerdictSpec(get_test("dekker"), get_model("gam"))
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(cells, "ENGINE_VERSION", 1)
        cache.store(cell, True)
        assert cache.load(cell) is True  # hit while the old version reigns
        monkeypatch.setattr(cells, "ENGINE_VERSION", 2)
        assert cache.load(cell) is None  # post-kernel engine never sees it

    def test_outcome_cells_also_keyed_by_version(self, tmp_path, monkeypatch):
        from repro.engine import cells

        cell = OutcomeSpec(get_test("corr"), get_model("gam"), project="full")
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(cells, "ENGINE_VERSION", 1)
        cache.store(cell, frozenset())
        monkeypatch.undo()
        assert cache.load(cell) is None
