"""Telemetry subsystem tests: recorders, reports, parity, CLI surfaces.

The load-bearing guarantees under test:

* **off by default** — the null recorder no-ops, instrumented commands
  produce byte-identical stdout with and without ``--stats``;
* **closed vocabulary** — active recorders reject names missing from
  :data:`repro.obs.METRICS`, and every report validates against it;
* **pool parity** — ``--jobs N`` merged counter totals equal the serial
  run exactly (the snapshot-merge protocol in the scheduler);
* **artifacts** — ``repro hunt`` persists ``stats.json`` and
  ``repro stats`` renders/diffs it.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

from repro.obs import (
    METRICS,
    RunReport,
    StatsRecorder,
    collecting,
    current,
    diff_reports,
    incr,
    load_report,
    metric_for,
    observe,
    time_block,
    validate_report,
)


class TestRecorder:
    def test_null_recorder_is_default_and_silent(self):
        assert not current().active
        # No-ops, including for names outside the registry: the disabled
        # path must never pay for validation.
        incr("totally.bogus.name")
        observe("also.bogus", 1.0)
        with time_block("engine.wall.seconds"):
            pass
        assert not current().active

    def test_collecting_installs_and_restores(self):
        with collecting() as recorder:
            assert current() is recorder
            assert recorder.active
            incr("engine.batches")
            incr("engine.batches", 2)
            observe("engine.batch.cells", 8.0)
        assert not current().active
        snapshot = recorder.snapshot()
        assert snapshot.counters["engine.batches"] == 3
        assert snapshot.series["engine.batch.cells"] == [8.0]

    def test_active_recorder_rejects_unknown_names(self):
        with collecting():
            with pytest.raises(ValueError, match="bogus"):
                incr("bogus.counter")
            with pytest.raises(ValueError, match="bogus"):
                observe("bogus.series", 1.0)

    def test_dynamic_prefix_families(self):
        assert metric_for("engine.cache.hit.by.gam").name == "engine.cache.hit.by"
        assert metric_for("engine.cache.hit.by").dynamic
        assert metric_for("not.a.metric") is None
        with collecting() as recorder:
            incr("engine.cache.hit.by.gam")
        assert recorder.snapshot().counters == {"engine.cache.hit.by.gam": 1}

    def test_merge_sums_counters_and_extends_series(self):
        a, b = StatsRecorder(), StatsRecorder()
        a.incr("engine.batches", 2)
        a.observe("engine.batch.cells", 4.0)
        b.incr("engine.batches", 3)
        b.incr("engine.cells.evaluated")
        b.observe("engine.batch.cells", 6.0)
        a.merge(b.snapshot())
        merged = a.snapshot()
        assert merged.counters == {
            "engine.batches": 5,
            "engine.cells.evaluated": 1,
        }
        assert merged.series["engine.batch.cells"] == [4.0, 6.0]

    def test_time_block_records_only_when_active(self):
        with collecting() as recorder:
            with time_block("engine.wall.seconds"):
                pass
        assert len(recorder.snapshot().series["engine.wall.seconds"]) == 1
        with time_block("engine.wall.seconds"):
            pass  # disabled: nothing recorded anywhere

    def test_nested_collecting_and_reuse(self):
        with collecting() as outer:
            with collecting() as inner:
                incr("engine.batches")
            # The inner block restored the outer recorder.
            assert current() is outer
            incr("kernel.builds")
            with collecting(reuse=True) as reused:
                assert reused is outer
        assert inner.snapshot().counters == {"engine.batches": 1}
        assert outer.snapshot().counters == {"kernel.builds": 1}


class TestRunReport:
    def _snapshot(self):
        recorder = StatsRecorder()
        recorder.incr("engine.cells.evaluated", 96)
        recorder.incr("engine.batches", 12)
        recorder.observe("engine.wall.seconds", 0.5)
        recorder.observe("engine.batch.seconds", 0.4)
        recorder.observe("engine.batch.cells", 8.0)
        return recorder.snapshot()

    def test_from_snapshot_sorts_and_splits_by_kind(self):
        report = RunReport.from_snapshot(self._snapshot(), command="matrix")
        assert list(report.counters) == ["engine.batches", "engine.cells.evaluated"]
        assert set(report.timers) == {
            "engine.wall.seconds",
            "engine.batch.seconds",
        }
        assert set(report.histograms) == {"engine.batch.cells"}

    def test_json_round_trip_validates(self):
        report = RunReport.from_snapshot(
            self._snapshot(), command="matrix", meta={"suite": "paper"}
        )
        payload = json.loads(report.render_json())
        assert validate_report(payload) == []
        assert RunReport.from_json(payload) == report

    def test_render_text_sections(self):
        report = RunReport.from_snapshot(self._snapshot(), command="matrix")
        text = report.render_text()
        assert "command=matrix" in text
        assert "counters:" in text and "engine.batches" in text
        assert "worker utilization:" in text  # both wall + batch timers set

    def test_validate_rejects_unknown_and_malformed(self):
        assert validate_report("nope") == ["report is not a JSON object"]
        payload = RunReport.from_snapshot(self._snapshot(), command="x").to_json()
        payload["counters"]["made.up"] = 1
        payload["counters"]["engine.batches"] = -1
        payload["schema"] = 99
        problems = validate_report(payload)
        assert any("made.up" in p for p in problems)
        assert any("engine.batches" in p for p in problems)
        assert any("schema" in p for p in problems)

    def test_diff_reports_counters_only(self):
        a = RunReport(command="hunt", counters={"engine.cache.hit": 0,
                                                "engine.cache.miss": 8})
        b = RunReport(command="hunt", counters={"engine.cache.hit": 8,
                                                "engine.cache.miss": 0})
        text = diff_reports(a, b)
        assert "engine.cache.hit" in text and "(+8)" in text
        assert "(-8)" in text
        assert "(identical)" in diff_reports(a, a)

    def test_load_report_resolves_dirs_and_rejects_junk(self, tmp_path):
        report = RunReport.from_snapshot(self._snapshot(), command="hunt")
        (tmp_path / "stats.json").write_text(report.render_json())
        assert load_report(str(tmp_path)) == report
        assert load_report(str(tmp_path / "stats.json")) == report
        with pytest.raises(OSError):
            load_report(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_report(str(bad))
        bad.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="invalid run report"):
            load_report(str(bad))


class TestEngineCounters:
    def test_cache_cold_then_warm_counters(self, tmp_path):
        from repro.engine import evaluate_cells
        from repro.engine.cells import VerdictSpec
        from repro.litmus.registry import get_test
        from repro.models.registry import get_model

        cells = [
            VerdictSpec(get_test(name), get_model(model))
            for name in ("dekker", "mp")
            for model in ("sc", "gam")
        ]
        with collecting() as cold:
            evaluate_cells(cells, cache_dir=str(tmp_path))
        cold_counts = cold.snapshot().counters
        assert cold_counts["engine.cache.miss"] == len(cells)
        assert cold_counts["engine.cache.store"] == len(cells)
        assert cold_counts["engine.cells.evaluated"] == len(cells)
        assert "engine.cache.hit" not in cold_counts
        with collecting() as warm:
            evaluate_cells(cells, cache_dir=str(tmp_path))
        warm_counts = warm.snapshot().counters
        assert warm_counts["engine.cache.hit"] == len(cells)
        assert warm_counts["engine.cache.hit.by.gam"] == 2
        assert "engine.cache.miss" not in warm_counts
        assert "engine.cells.evaluated" not in warm_counts

    def test_dispatch_counters_partition_the_queries(self):
        from repro.engine import evaluate_cells
        from repro.engine.cells import VerdictSpec
        from repro.litmus.registry import get_test
        from repro.models.registry import get_model

        cells = [
            VerdictSpec(get_test("mp"), get_model(model)) for model in ("sc", "gam", "arm")
        ]
        with collecting() as recorder:
            evaluate_cells(cells)
        counts = recorder.snapshot().counters
        dispatched = {
            name: count
            for name, count in counts.items()
            if name.startswith("engine.dispatch.")
        }
        # One dispatch per verdict query, all to the kernel.
        assert dispatched == {"engine.dispatch.kernel": len(cells)}

    @pytest.mark.slow
    def test_jobs2_counters_equal_serial(self):
        from repro.eval.litmus_matrix import litmus_matrix
        from repro.litmus.registry import get_test

        tests = [get_test("dekker"), get_test("mp"), get_test("corr")]
        with collecting() as serial:
            serial_cells = litmus_matrix(tests=tests, jobs=1)
        with collecting() as pooled:
            pooled_cells = litmus_matrix(tests=tests, jobs=2)
        assert serial_cells == pooled_cells
        assert serial.snapshot().counters == pooled.snapshot().counters


class TestWorkerErrors:
    def test_run_batch_ships_traceback_as_data(self):
        from repro.engine.scheduler import _run_batch

        from repro.engine.faults import FaultPlan

        broken = types.SimpleNamespace(name="boom")
        outcome = _run_batch((0, 1, broken, [object()], None, False, FaultPlan(), True))
        tag, test_name, message, worker_tb, cause = outcome
        assert tag == "error"
        assert test_name == "boom"
        assert "Traceback (most recent call last)" in worker_tb
        assert cause is None  # live exceptions never cross a pool boundary

    @pytest.mark.slow
    def test_pooled_failure_raises_with_worker_traceback(self, monkeypatch):
        from repro.engine import FAULTS_ENV_VAR, EngineWorkerError, evaluate_cells
        from repro.engine.cells import VerdictSpec
        from repro.litmus.registry import get_test
        from repro.models.registry import get_model

        cells = [
            VerdictSpec(get_test("dekker"), get_model("gam")),
            VerdictSpec(get_test("mp"), get_model("gam")),
        ]
        # The worker-side failure is a planned fault in mp's batch.
        monkeypatch.setenv(FAULTS_ENV_VAR, "raise:test=mp")
        with pytest.raises(EngineWorkerError) as excinfo:
            evaluate_cells(cells, jobs=2)
        assert excinfo.value.test_name == "mp"
        assert "worker traceback" in str(excinfo.value)
        assert "Traceback (most recent call last)" in excinfo.value.worker_traceback


class TestHuntStats:
    def _hunt(self, out, **kwargs):
        from repro.campaign import run_hunt

        return run_hunt(out=str(out), suite="gen:edges=3", num_shards=2,
                        log=lambda line: None, **kwargs)

    def test_hunt_writes_validating_stats_json(self, tmp_path):
        self._hunt(tmp_path / "camp")
        report = load_report(str(tmp_path / "camp"))
        assert report.command == "hunt"
        assert validate_report(report.to_json()) == []
        assert report.counters["campaign.shards.evaluated"] == 2
        assert report.meta["suite"] == "gen:edges=3"

    def test_resume_overwrites_with_resumed_counters(self, tmp_path):
        self._hunt(tmp_path / "camp")
        cold = load_report(str(tmp_path / "camp"))
        self._hunt(tmp_path / "camp", resume=True)
        warm = load_report(str(tmp_path / "camp"))
        assert warm.counters["campaign.shards.resumed"] == 2
        assert "campaign.shards.evaluated" not in warm.counters
        # The cold/warm pair is exactly what `repro stats A B` is for.
        assert "campaign.shards.resumed" in diff_reports(cold, warm)

    def test_heartbeat_lines_are_opt_in(self, tmp_path):
        from repro.campaign import run_hunt

        # Match the line shape, not the bare word: pytest's tmp_path
        # contains this test's name, which run_hunt logs in path lines.
        lines: list[str] = []
        run_hunt(out=str(tmp_path / "a"), suite="gen:edges=3", num_shards=2,
                 log=lines.append)
        assert not any(line.lstrip().startswith("heartbeat:") for line in lines)
        beats: list[str] = []
        run_hunt(out=str(tmp_path / "b"), suite="gen:edges=3", num_shards=2,
                 log=beats.append, heartbeat=True)
        assert any(line.lstrip().startswith("heartbeat:") for line in beats)


class TestCliStats:
    def test_stats_off_stdout_is_byte_identical(self, capsys):
        from repro.cli import main

        main(["matrix", "--suite", "gen:edges=3"])
        plain = capsys.readouterr()
        main(["matrix", "--suite", "gen:edges=3", "--stats"])
        with_stats = capsys.readouterr()
        assert with_stats.out == plain.out
        assert plain.err == ""
        assert "run report" in with_stats.err

    def test_stats_json_goes_to_stderr_and_validates(self, capsys):
        from repro.cli import main

        assert main(["matrix", "--suite", "gen:edges=3", "--stats", "json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.err)
        assert validate_report(payload) == []
        assert payload["command"] == "matrix"
        assert payload["meta"]["suite"] == "gen:edges=3"

    def test_equiv_counts_reference_machine_explorations(self, capsys):
        # The SC and TSO machines run on the shared exploration loop, so
        # their explorations feed the operational.explore.* counters.
        from repro.cli import main

        assert main(["equiv", "dekker", "--pairs", "sc,tso", "--stats", "json"]) == 0
        counters = json.loads(capsys.readouterr().err)["counters"]
        assert counters["operational.explore.runs"] == 2
        assert counters["operational.explore.states"] == 47
        assert counters["operational.explore.terminals"] == 7

    def test_equiv_counts_reduced_machine_states(self, capsys):
        # The GAM/GAM0 explorations count the partial-order-reduced
        # states, as pinned in the machine state fixture's reduced column.
        # dekker meets no same-address load pair, so the GAM run answers
        # the GAM0 cell too and only one exploration is counted.
        from repro.cli import main

        rows = json.loads(
            (Path(__file__).parent / "data" / "machine_states.json").read_text()
        )["rows"]
        assert not rows["dekker/gam"]["saldld_met"]
        assert main(["equiv", "dekker", "--pairs", "gam,gam0", "--stats", "json"]) == 0
        counters = json.loads(capsys.readouterr().err)["counters"]
        assert counters["operational.explore.runs"] == 1
        assert counters["engine.oracle.operational.shared"] == 1
        assert counters["operational.explore.states"] == rows["dekker/gam"]["reduced_states"]
        assert counters["operational.explore.terminals"] == rows["dekker/gam"]["terminal_states"]

    def test_stats_command_renders_and_diffs(self, tmp_path, capsys):
        from repro.cli import main

        camp = tmp_path / "camp"
        assert main(["hunt", "--out", str(camp), "--suite", "gen:edges=3",
                     "--shards", "2", "--stats"]) == 0
        hunt_out = capsys.readouterr()
        assert "heartbeat" in hunt_out.out
        assert "command=hunt" in hunt_out.err
        assert main(["stats", str(camp)]) == 0
        assert "run report — command=hunt" in capsys.readouterr().out
        assert main(["stats", str(camp), "--format", "json"]) == 0
        assert validate_report(json.loads(capsys.readouterr().out)) == []
        assert main(["stats", str(camp), str(camp)]) == 0
        assert "(identical)" in capsys.readouterr().out

    def test_stats_command_rejects_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99}')
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


def test_registry_is_documented_and_typed():
    # Every metric has a kind the report layer understands and docs text.
    for name, spec in METRICS.items():
        assert spec.kind in ("counter", "timer", "histogram"), name
        assert spec.unit and spec.description, name
        assert spec.name == name
