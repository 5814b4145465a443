"""Chaos suite for the fault-tolerance layer (see ``docs/robustness.md``).

Every recovery path the engine and campaign stack advertise is driven
here by *planned* faults (:mod:`repro.engine.faults`): exceptions raised
mid-batch, workers SIGKILLed under the pool, batches hung past their
deadline, cache entries corrupted after the store.  The assertions pin
the contract: failures cost exactly the faulted test, quarantine records
say why and how many attempts were spent, recovered runs are
byte-identical to fault-free ones, and the default policy reproduces
historical raising behaviour.
"""

import contextlib
import json
import re
import sqlite3
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import (
    FAULT_KINDS,
    CellFailure,
    EngineWorkerError,
    ExecutionPolicy,
    FaultAction,
    InjectedFault,
    OutcomeSpec,
    ResultCache,
    VerdictSpec,
    cell_cache_key,
    evaluate_cells,
    fault_plan_from_env,
    parse_fault_plan,
)
from repro.engine.cache import DB_NAME
from repro.engine.faults import FAULTS_ENV_VAR
from repro.litmus import registry
from repro.litmus.registry import get_test
from repro.models.registry import get_model
from repro.obs import collecting

QUIET = ExecutionPolicy(on_error="skip")
QUARANTINE = ExecutionPolicy(on_error="quarantine")


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retry immediately: the scheduler's backoff sleep is real time."""
    from repro.engine import scheduler

    monkeypatch.setattr(scheduler, "RETRY_BACKOFF", 0.0)


def _verdict_cells(*names):
    tests = [get_test(name) for name in names]
    return [VerdictSpec(test, get_model(model)) for test in tests for model in ("sc", "gam")]


def _essence(result):
    """What a caller keys on: tracebacks name the dispatch frame (serial
    loop vs pool worker), so they are left out."""
    if isinstance(result, CellFailure):
        return (result.test_name, result.reason, result.message, result.attempts)
    return result


class _RecordingPool(ProcessPoolExecutor):
    """A pool that counts its starts and the batches each future carries."""

    starts = 0
    futures: list = []

    def __init__(self, *args, **kwargs):
        type(self).starts += 1
        super().__init__(*args, **kwargs)

    def submit(self, fn, *args, **kwargs):
        self.futures.append(len(args[0]))
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def recording_pool(monkeypatch):
    """Route the scheduler's pools through :class:`_RecordingPool`."""
    from repro.engine import scheduler

    monkeypatch.setattr(_RecordingPool, "starts", 0)
    monkeypatch.setattr(_RecordingPool, "futures", [])
    monkeypatch.setattr(scheduler, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


class TestExecutionPolicy:
    def test_default_policy_is_seed_behaviour(self):
        policy = ExecutionPolicy()
        assert policy.raises
        assert not policy.needs_pool
        assert policy.retries == 0

    def test_deadline_requires_pool(self):
        assert ExecutionPolicy(timeout=5.0).needs_pool

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"on_error": "explode"},
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"retries": -1},
        ],
    )
    def test_validation_is_eager(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_policy_is_picklable(self):
        import pickle

        policy = ExecutionPolicy(timeout=2.0, retries=3, on_error="quarantine")
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_cell_failure_describe(self):
        failure = CellFailure("mp", "timeout", "deadline", attempts=2)
        assert failure.describe() == "mp: timeout after 2 attempts — deadline"


class TestFaultPlanParsing:
    def test_round_trip_describe(self):
        spec = "crash:test=lb,attempts=1;hang:batch=0,seconds=12;raise"
        plan = parse_fault_plan(spec)
        assert plan.describe() == spec
        assert parse_fault_plan(plan.describe()) == plan

    def test_selectors_scope_matches(self):
        action = FaultAction(kind="raise", test="mp", attempts=2)
        assert action.matches(0, "mp", 1)
        assert action.matches(5, "mp", 2)
        assert not action.matches(0, "mp", 3)  # recovers on attempt 3
        assert not action.matches(0, "lb", 1)

    def test_empty_spec_is_empty_plan(self):
        assert not parse_fault_plan("")
        assert not parse_fault_plan(" ; ")

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:test=mp",        # unknown kind
            "raise:test",             # not key=value
            "raise:color=red",        # unknown selector
            "raise:test=a,test=b",    # duplicate selector
            "hang:seconds=0",         # out-of-range value
            "raise:batch=-1",
            "raise:batch=x",          # not an integer
            "hang:seconds=abc",       # not a number
            "raise:test=",            # empty value
            "raise:=mp",              # empty key
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError):
            parse_fault_plan(spec)

    @pytest.mark.parametrize("spec", ["raise:batch=x", "hang:seconds=abc"])
    def test_bad_value_names_the_fragment(self, spec):
        with pytest.raises(ValueError, match=re.escape(spec)):
            parse_fault_plan(spec)

    def test_env_arming(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert not fault_plan_from_env()
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        assert fault_plan_from_env() == parse_fault_plan("raise:test=mp")

    def test_every_kind_is_documented(self):
        for kind in ("raise", "hang", "crash", "corrupt"):
            assert kind in FAULT_KINDS


class TestSerialFailures:
    def test_default_policy_raises_with_cause(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        with pytest.raises(EngineWorkerError, match="mp") as excinfo:
            evaluate_cells(_verdict_cells("mp"))
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_skip_costs_only_the_faulted_test(self, monkeypatch):
        cells = _verdict_cells("mp", "lb", "corr")
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=lb")
        results = evaluate_cells(cells, policy=QUIET)
        for cell, got, want in zip(cells, results, baseline):
            if cell.test.name == "lb":
                assert isinstance(got, CellFailure)
                assert got.reason == "error"
                assert got.attempts == 1
                assert "InjectedFault" in got.message
            else:
                assert got == want

    def test_quarantine_counts_batches(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        with collecting() as recorder:
            results = evaluate_cells(
                _verdict_cells("mp"), policy=QUARANTINE
            )
            counters = recorder.snapshot().counters
        assert all(isinstance(r, CellFailure) for r in results)
        assert counters["engine.batches.quarantined"] == 1

    def test_skip_mode_does_not_count_quarantine(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        with collecting() as recorder:
            evaluate_cells(_verdict_cells("mp"), policy=QUIET)
            counters = recorder.snapshot().counters
        assert "engine.batches.quarantined" not in counters

    def test_retry_recovers_and_is_counted(self, monkeypatch):
        cells = _verdict_cells("mp")
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp,attempts=1")
        policy = ExecutionPolicy(retries=1, on_error="fail")
        with collecting() as recorder:
            results = evaluate_cells(cells, policy=policy)
            counters = recorder.snapshot().counters
        assert results == baseline
        assert counters["engine.retries"] == 1

    def test_retry_budget_is_bounded(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")  # fires on every attempt
        policy = ExecutionPolicy(retries=2, on_error="skip")
        [failure, _] = evaluate_cells(
            _verdict_cells("mp"), policy=policy
        )
        assert failure.attempts == 3  # 1 initial + 2 retries

    def test_in_process_crash_degrades_to_exception(self, monkeypatch):
        # A crash fault must never SIGKILL the caller's own interpreter.
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash:test=mp")
        [failure, _] = evaluate_cells(
            _verdict_cells("mp"), policy=QUIET
        )
        assert failure.reason == "error"
        assert "degraded from SIGKILL" in failure.message

    def test_on_batch_sees_failures(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        seen = {}

        def on_batch(test, results):
            seen[test.name] = list(results)

        evaluate_cells(
            _verdict_cells("mp", "lb"), policy=QUIET,
            on_batch=on_batch,
        )
        assert all(isinstance(r, CellFailure) for r in seen["mp"])
        assert len(seen["mp"]) == 2  # one sentinel per cell of the batch
        assert all(isinstance(r, bool) for r in seen["lb"])


class TestPooledFailures:
    def test_pooled_skip_matches_serial(self, monkeypatch):
        cells = _verdict_cells("mp", "lb", "corr")
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=lb")
        serial = evaluate_cells(cells, policy=QUIET)
        pooled = evaluate_cells(cells, jobs=2, policy=QUIET)
        assert [_essence(r) for r in pooled] == [_essence(r) for r in serial]

    def test_worker_crash_is_quarantined_and_attributed(self, monkeypatch):
        cells = _verdict_cells("mp", "lb", "corr")
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash:test=lb")
        with collecting() as recorder:
            results = evaluate_cells(
                cells, jobs=2, policy=QUARANTINE
            )
            counters = recorder.snapshot().counters
        for cell, got, want in zip(cells, results, baseline):
            if cell.test.name == "lb":
                assert isinstance(got, CellFailure)
                assert got.reason == "crash"
            else:
                assert got == want  # innocents are never blamed
        assert counters["engine.pool.restarts"] >= 1

    def test_worker_crash_retry_recovers(self, monkeypatch):
        cells = _verdict_cells("mp", "lb")
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash:test=lb,attempts=1")
        policy = ExecutionPolicy(retries=1, on_error="fail")
        results = evaluate_cells(cells, jobs=2, policy=policy)
        assert results == baseline

    def test_timeout_kills_the_batch(self, monkeypatch):
        cells = _verdict_cells("mp", "lb")
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang:test=lb,seconds=30")
        policy = ExecutionPolicy(
            timeout=1.5, on_error="quarantine"
        )
        with collecting() as recorder:
            results = evaluate_cells(
                cells, jobs=2, policy=policy
            )
            counters = recorder.snapshot().counters
        for cell, got, want in zip(cells, results, baseline):
            if cell.test.name == "lb":
                assert isinstance(got, CellFailure)
                assert got.reason == "timeout"
            else:
                assert got == want
        assert counters["engine.timeouts"] == 1
        assert counters["engine.pool.restarts"] >= 1

    def test_deadline_alone_routes_through_pool_unchanged(self):
        # jobs=1 + timeout uses a one-worker pool; results must still be
        # byte-identical to the in-process path.
        cells = _verdict_cells("mp", "lb")
        baseline = evaluate_cells(cells)
        policy = ExecutionPolicy(timeout=120.0)
        assert evaluate_cells(cells, policy=policy) == baseline

    def test_on_stall_fires_for_slow_batches(self, monkeypatch):
        from repro.engine import scheduler

        calls = []
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang:test=lb,seconds=1.0")
        monkeypatch.setattr(scheduler, "STALL_AFTER", 0.25)
        policy = ExecutionPolicy(timeout=30.0)
        evaluate_cells(
            _verdict_cells("mp", "lb"), jobs=2, policy=policy,
            on_stall=lambda test, waited: calls.append((test.name, waited)),
        )
        assert any(name == "lb" and waited >= 0.25 for name, waited in calls)


class TestChunkedFailures:
    """Faults on a batch in the middle of a multi-batch future."""

    JOBS = 2

    @pytest.fixture
    def grid(self, recording_pool):
        """Every registry test x (sc, gam), and the test in mid-chunk."""
        from repro.engine import scheduler

        names = registry.test_names()
        assert len(names) >= 24
        chunk = scheduler._chunk_size(len(names), self.JOBS)
        assert chunk >= 3
        return _verdict_cells(*names), names[chunk + chunk // 2]

    def test_fault_free_counters_match_serial(self, grid):
        cells, _victim = grid
        with collecting() as recorder:
            serial = evaluate_cells(cells)
            serial_counters = recorder.snapshot().counters
        with collecting() as recorder:
            pooled = evaluate_cells(cells, jobs=self.JOBS)
            pooled_counters = recorder.snapshot().counters
        assert pooled == serial
        assert pooled_counters == serial_counters
        assert max(_RecordingPool.futures) > 1  # some future held a run

    def test_raise_mid_chunk_matches_serial(self, grid, monkeypatch):
        cells, victim = grid
        monkeypatch.setenv(FAULTS_ENV_VAR, f"raise:test={victim}")
        serial = evaluate_cells(cells, policy=QUIET)
        pooled = evaluate_cells(cells, jobs=self.JOBS, policy=QUIET)
        assert [_essence(r) for r in pooled] == [_essence(r) for r in serial]
        assert {r.test_name for r in pooled if isinstance(r, CellFailure)} == {victim}
        assert max(_RecordingPool.futures) > 1  # some future held a run

    def test_raise_mid_chunk_retry_recovers_in_order(self, grid, monkeypatch):
        cells, victim = grid
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, f"raise:test={victim},attempts=1")
        policy = ExecutionPolicy(retries=1, on_error="fail")
        seen = []
        with collecting() as recorder:
            results = evaluate_cells(
                cells, jobs=self.JOBS, policy=policy,
                on_batch=lambda test, _results: seen.append(test.name),
            )
            counters = recorder.snapshot().counters
        assert results == baseline
        assert seen == list(dict.fromkeys(cell.test.name for cell in cells))
        assert counters["engine.retries"] == 1

    def test_crash_mid_chunk_blames_only_the_crasher(self, grid, monkeypatch):
        cells, victim = grid
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, f"crash:test={victim}")
        with collecting() as recorder:
            results = evaluate_cells(
                cells, jobs=self.JOBS, policy=QUARANTINE
            )
            counters = recorder.snapshot().counters
        for cell, got, want in zip(cells, results, baseline):
            if cell.test.name == victim:
                assert isinstance(got, CellFailure)
                assert got.reason == "crash"
            else:
                assert got == want  # innocents are never blamed
        assert counters["engine.pool.restarts"] >= 1
        assert counters["engine.batches.quarantined"] == 1
        assert max(_RecordingPool.futures) > 1  # some future held a run

    def test_crash_mid_chunk_retry_recovers(self, grid, monkeypatch):
        cells, victim = grid
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, f"crash:test={victim},attempts=1")
        policy = ExecutionPolicy(retries=1, on_error="fail")
        with collecting() as recorder:
            results = evaluate_cells(
                cells, jobs=self.JOBS, policy=policy
            )
            counters = recorder.snapshot().counters
        assert results == baseline
        assert counters["engine.pool.restarts"] >= 1


class TestWorkerPool:
    def test_one_pool_serves_many_calls(self, recording_pool):
        from repro.engine import WorkerPool

        cells = _verdict_cells("mp", "lb", "corr")
        baseline = evaluate_cells(cells)
        with WorkerPool(2) as pool:
            for _ in range(3):
                assert evaluate_cells(cells, jobs=2, pool=pool) == baseline
        assert recording_pool.starts == 1
        assert pool._executor is None  # shut down and joined on exit

    def test_crash_restart_replaces_the_run_pool(self, recording_pool, monkeypatch):
        from repro.engine import WorkerPool

        cells = _verdict_cells("mp", "lb", "corr")
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash:test=lb,attempts=1")
        policy = ExecutionPolicy(retries=1)
        with WorkerPool(2) as pool:
            results = evaluate_cells(cells, jobs=2, policy=policy, pool=pool)
            assert results == baseline
            # The replacement executor keeps serving later calls.
            monkeypatch.delenv(FAULTS_ENV_VAR)
            assert evaluate_cells(cells, jobs=2, pool=pool) == baseline
        assert recording_pool.starts >= 2


class TestCorruptionRecovery:
    def test_corrupt_entry_is_recounted_as_miss(self, tmp_path, monkeypatch):
        test = get_test("mp")
        cells = [OutcomeSpec(test, get_model("gam"), project="full")]
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "corrupt:test=mp")
        assert evaluate_cells(cells, cache_dir=str(tmp_path)) == baseline
        with contextlib.closing(sqlite3.connect(tmp_path / DB_NAME)) as db:
            (payload,) = db.execute(
                "SELECT payload FROM cells WHERE key = ?", (cell_cache_key(cells[0]),)
            ).fetchone()
        assert "corrupted-by-fault-injection" in payload
        monkeypatch.delenv(FAULTS_ENV_VAR)
        with collecting() as recorder:
            rerun = evaluate_cells(cells, cache_dir=str(tmp_path))
            counters = recorder.snapshot().counters
        assert rerun == baseline
        assert counters["engine.cache.stale"] == 1
        assert counters["engine.cache.store"] == 1  # recomputed + re-stored


class TestCommitBeforeRaise:
    def test_settled_batches_reach_the_cache_before_a_raise(
        self, tmp_path, monkeypatch
    ):
        """Under the default ``fail`` policy the parent commits the rows of
        the batches that settled before the failing one, then raises."""
        cells = _verdict_cells("mp", "lb", "corr", "dekker")
        baseline = evaluate_cells(cells)
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=corr")
        with pytest.raises(EngineWorkerError, match="corr"):
            evaluate_cells(cells, cache_dir=str(tmp_path))
        settled = [cell for cell in cells if cell.test.name in ("mp", "lb")]
        with contextlib.closing(sqlite3.connect(tmp_path / DB_NAME)) as db:
            keys = {key for (key,) in db.execute("SELECT key FROM cells")}
        assert keys == {cell_cache_key(cell) for cell in settled}
        monkeypatch.delenv(FAULTS_ENV_VAR)
        with collecting() as recorder:
            assert evaluate_cells(cells, cache_dir=str(tmp_path)) == baseline
            counters = recorder.snapshot().counters
        assert counters["engine.cache.hit"] == len(settled)
        assert counters["engine.cache.miss"] == len(cells) - len(settled)

    def test_a_failing_commit_does_not_mask_the_failure(
        self, tmp_path, monkeypatch
    ):
        """When the commit before a re-raise fails too, the batch's error is
        still the one raised; the commit's error rides along as a note
        (from Python 3.11, which has ``add_note``)."""

        def full_disk(self, rows):
            raise sqlite3.OperationalError("database or disk is full")

        cells = _verdict_cells("mp", "lb", "corr", "dekker")
        monkeypatch.setattr(ResultCache, "write_rows", full_disk)
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=corr")
        with pytest.raises(EngineWorkerError, match="corr") as caught:
            evaluate_cells(cells, cache_dir=str(tmp_path))
        notes = getattr(caught.value, "__notes__", None)
        if hasattr(caught.value, "add_note"):
            assert notes and "disk is full" in notes[0]
        # With no failure in flight, the commit's own error is raised.
        monkeypatch.delenv(FAULTS_ENV_VAR)
        with pytest.raises(sqlite3.OperationalError, match="disk is full"):
            evaluate_cells(cells, cache_dir=str(tmp_path))


class TestCacheMaintenance:
    def test_stats_inventory(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        test = get_test("mp")
        cells = [VerdictSpec(test, get_model("gam"))]
        evaluate_cells(cells, cache_dir=str(tmp_path))
        stats = cache.stats()
        assert stats.entries == 1
        on_disk = sum(
            path.stat().st_size
            for path in (tmp_path / DB_NAME, tmp_path / (DB_NAME + "-wal"))
        )
        assert stats.disk_bytes == on_disk > 0

    def test_cli_stats(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        evaluate_cells([VerdictSpec(get_test("mp"), get_model("gam"))], cache_dir=str(cache_dir))
        assert main(["cache", "stats", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1\n" in out
        disk_bytes = ResultCache(cache_dir).stats().disk_bytes
        assert f"on disk: {disk_bytes} bytes" in out

    def test_cli_rejects_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", str(tmp_path / "missing")]) == 2
        assert "not a cache directory" in capsys.readouterr().err
        # A directory without a database (an old JSON-file cache, a typo)
        # is refused rather than turned into an empty cache.
        assert main(["cache", "stats", str(tmp_path)]) == 2
        assert "not a cache directory" in capsys.readouterr().err
        assert not (tmp_path / DB_NAME).exists()


class TestPolicyCli:
    def test_check_skips_on_injected_fault(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=dekker")
        status = main(["check", "dekker", "-m", "gam", "--on-error", "skip"])
        assert status == 1
        out = capsys.readouterr().out
        assert "SKIPPED" in out and "error after 1 attempt(s)" in out

    def test_policy_flags_validate(self, capsys):
        from repro.cli import main

        assert main(["check", "dekker", "-m", "gam", "--timeout", "-3"]) == 2
        assert "timeout must be > 0" in capsys.readouterr().err


class TestHarnessRendering:
    def test_matrix_renders_skips(self, monkeypatch):
        from repro.eval.litmus_matrix import (
            conformance_failures,
            litmus_matrix,
            render_matrix,
        )

        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        cells = litmus_matrix(
            tests=[get_test("mp"), get_test("lb")],
            model_names=("sc", "gam"),
            policy=QUIET,
        )
        skipped = [c for c in cells if c.failure is not None]
        assert {c.test_name for c in skipped} == {"mp"}
        assert all(c.conforms for c in skipped)  # no verdict, no failure
        assert conformance_failures(cells) == []
        rendered = render_matrix(cells)
        assert "skip" in rendered

    def test_strength_excludes_skipped_tests(self, monkeypatch):
        from repro.eval.strength import render_strength, strength_matrix

        tests = [get_test("mp"), get_test("lb"), get_test("corr")]
        clean = strength_matrix(tests=tests, model_names=("sc", "gam"))
        assert clean.skipped == ()
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=corr")
        survived = strength_matrix(
            tests=tests, model_names=("sc", "gam"),
            policy=QUIET,
        )
        assert survived.skipped == ("corr",)
        expected = strength_matrix(tests=tests[:2], model_names=("sc", "gam"))
        assert survived.stronger_or_equal == expected.stronger_or_equal
        assert "corr" in render_strength(survived)

    def test_equiv_reports_unanswered_pairs(self, monkeypatch):
        from repro.equivalence.checker import check_suite

        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        reports = check_suite(
            [get_test("mp"), get_test("lb")], pair_names=("gam",),
            policy=QUIET,
        )
        by_name = {report.test_name: report for report in reports}
        assert by_name["mp"].failure == "error"
        assert not by_name["mp"].equivalent  # unanswered, not equivalent
        assert by_name["lb"].failure is None
        assert by_name["lb"].equivalent


class TestHuntQuarantine:
    SUITE = "paper"

    def _hunt(self, out, **kwargs):
        from repro.campaign.driver import run_hunt

        kwargs.setdefault("log", None)
        return run_hunt(str(out), **kwargs)

    def test_quarantine_records_and_resume_identity(self, tmp_path, monkeypatch):
        from repro.litmus.frontend.suite import resolve_suite

        victim = resolve_suite(self.SUITE)[0].name
        out = tmp_path / "camp"
        monkeypatch.setenv(FAULTS_ENV_VAR, f"raise:test={victim}")
        policy = ExecutionPolicy(retries=1, on_error="quarantine")
        report = self._hunt(
            out, suite=self.SUITE, pairs=[("wmm", "arm")], num_shards=2,
            policy=policy,
        )
        assert sorted(report.quarantined) == [victim]
        payload = json.loads((out / "quarantine.json").read_text())
        record = payload["records"][victim]
        assert record["reason"] == "error"
        assert record["attempts"] == 2  # the fault fires on every attempt
        assert record["shard"] in (0, 1)
        assert "InjectedFault" in record["traceback"]
        text = (out / "report.txt").read_text()
        assert f"{victim}: error after 2 attempts" in text
        assert all(d.test_name != victim for d in report.discrepancies)

        # A fault-free re-run resumes the completed shards and must
        # reproduce the report byte-for-byte, quarantine included.
        monkeypatch.delenv(FAULTS_ENV_VAR)
        rerun = self._hunt(out, resume=True)
        assert (out / "report.txt").read_text() == text
        assert sorted(rerun.quarantined) == [victim]

    def test_skip_and_quarantine_differ_only_in_the_counter(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=corr")
        runs = {}
        for mode in ("skip", "quarantine"):
            out = tmp_path / mode
            argv = ["hunt", "--suite", self.SUITE, "--pair", "sc:gam"]
            assert main(argv + ["--on-error", mode, "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            files = {
                name: (out / name).read_text()
                for name in ("report.txt", "report.json", "quarantine.json")
            }
            counters = json.loads((out / "stats.json").read_text())["counters"]
            runs[mode] = (stdout, files, counters)
        assert runs["skip"][:2] == runs["quarantine"][:2]
        assert "corr" in runs["skip"][1]["quarantine.json"]
        assert "engine.batches.quarantined" not in runs["skip"][2]
        assert runs["quarantine"][2]["engine.batches.quarantined"] == 1

    def test_fault_free_hunt_writes_no_quarantine(self, tmp_path):
        out = tmp_path / "clean"
        report = self._hunt(
            out, suite=self.SUITE, pairs=[("wmm", "arm")], num_shards=1,
        )
        assert report.quarantined == {}
        assert not (out / "quarantine.json").exists()
        assert "quarantined" not in (out / "report.txt").read_text()

    def test_heartbeat_reports_batch_gaps(self, tmp_path, monkeypatch):
        from repro.engine import scheduler

        monkeypatch.setattr(scheduler, "STALL_AFTER", 1e-6)
        lines = []
        self._hunt(
            tmp_path / "hb", suite=self.SUITE, pairs=[("wmm", "arm")],
            num_shards=1, log=lines.append, heartbeat=True,
        )
        beats = [line for line in lines if "heartbeat:" in line]
        assert beats
        # With a sub-microsecond stall deadline every heartbeat flags it.
        assert any("stalled past" in line for line in beats)

    def test_quarantine_state_round_trip(self, tmp_path):
        from repro.campaign.state import CampaignDir

        campaign = CampaignDir(str(tmp_path / "c"))
        campaign.ensure_layout()
        assert campaign.load_quarantine() == {}
        records = {
            "t1": {"reason": "crash", "message": "boom", "traceback": "",
                   "attempts": 2, "shard": 0},
        }
        campaign.write_quarantine(records)
        assert campaign.load_quarantine() == records
        campaign.write_quarantine({})  # empty wipes the file
        assert not campaign.quarantine_path.exists()
        assert campaign.load_quarantine() == {}
