"""Oracle campaigns end-to-end: rand suites, hunts, and CLI byte-identity.

Three satellite contracts of the differential-oracle PR live here:

* randprog corpora are addressable and deterministic — ``rand:`` suite
  specs resolve to byte-identical ``.litmus`` text for a fixed seed, so
  a discrepancy found in a fuzzing campaign is reproducible from its
  spec alone (and survives a campaign interrupt/resume);
* ``repro hunt --oracle operational`` shards, mines, minimizes and
  re-verifies axiomatic-vs-machine divergences, resumes byte-
  identically, and agrees exactly between ``--jobs 1`` and ``--jobs 2``
  (report text *and* telemetry counter totals);
* the engine rewrite under ``repro equiv`` and ``repro check
  --operational`` keeps their stdout byte-identical to the historical
  serial path — the expected text is pinned verbatim below — cold and
  warm cache alike.
"""

import json

import pytest

from repro.campaign import run_hunt
from repro.campaign.state import CampaignDir, CampaignError, CampaignSpec
from repro.cli import main
from repro.engine import OutcomeSpec, evaluate_cells
from repro.equivalence.randprog import RandomProgramConfig, random_suite
from repro.litmus.frontend.parser import parse_litmus
from repro.litmus.frontend.printer import print_litmus
from repro.litmus.frontend.suite import parse_rand_spec, resolve_suite
from repro.litmus.registry import get_test
from repro.models.registry import get_model
from repro.obs import collecting


class TestRandSuites:
    def test_random_suite_round_trips_byte_identically(self):
        for test in random_suite(6, seed=9):
            text = print_litmus(test)
            assert print_litmus(parse_litmus(text)) == text

    def test_same_spec_resolves_to_identical_corpora(self):
        first = resolve_suite("rand:n=5,seed=21")
        second = resolve_suite("rand:n=5,seed=21")
        assert [print_litmus(t) for t in first] == [
            print_litmus(t) for t in second
        ]
        assert [t.name for t in first] == [f"rand-21-{i}" for i in range(5)]

    def test_knobs_reach_the_generator(self):
        params = parse_rand_spec("rand:n=3,seed=2,procs=3,instrs=2,locs=4")
        assert params == {
            "count": 3,
            "seed": 2,
            "num_procs": 3,
            "max_instrs": 2,
            "num_locations": 4,
        }
        tests = resolve_suite("rand:n=3,seed=2,procs=3,instrs=2")
        assert all(len(t.programs) == 3 for t in tests)
        assert all(all(len(p) <= 2 for p in t.programs) for t in tests)

    def test_bad_rand_spec_is_rejected(self):
        with pytest.raises(ValueError, match="randprog spec"):
            parse_rand_spec("rand:count=3")
        with pytest.raises(ValueError, match="integer"):
            parse_rand_spec("rand:n=many")

    def test_seed_and_config_change_the_corpus(self):
        base = [print_litmus(t) for t in random_suite(4, seed=0)]
        reseeded = [print_litmus(t) for t in random_suite(4, seed=1)]
        assert base != reseeded
        small = random_suite(
            4, seed=0, config=RandomProgramConfig(num_procs=2, max_instrs=2)
        )
        assert [print_litmus(t) for t in small] != base


def _counter_totals(cells, jobs):
    with collecting() as recorder:
        results = evaluate_cells(cells, jobs=jobs)
        snapshot = recorder.snapshot()
    return results, snapshot.counters


class TestJobsDeterminism:
    def test_counter_totals_match_serial_exactly(self):
        tests = resolve_suite("rand:n=6,seed=4")
        cells = [
            OutcomeSpec(
                t, get_model(m) if o == "axiomatic" else None,
                project="full", oracle=o,
            )
            for t in tests
            for m in ("gam", "gam0")
            for o in ("axiomatic", f"operational:{m}")
        ]
        serial_results, serial_counters = _counter_totals(cells, jobs=1)
        pooled_results, pooled_counters = _counter_totals(cells, jobs=2)
        assert serial_results == pooled_results
        assert serial_counters == pooled_counters


def _write_suite_dir(tmp_path, names):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    for name in names:
        (suite_dir / f"{name}.litmus").write_text(
            print_litmus(get_test(name))
        )
    return str(suite_dir)


class _Interrupt(Exception):
    """Stands in for a mid-campaign kill."""


class TestOracleHunt:
    def test_self_pairs_find_no_discrepancies(self, tmp_path):
        report = run_hunt(
            out=str(tmp_path / "campaign"),
            suite="rand:n=4,seed=3",
            num_shards=2,
            oracle="operational",
        )
        assert report.tests_evaluated == 4
        assert report.discrepancies == ()
        assert "0 discrepancies" in report.text

    def test_divergent_pair_yields_verified_witnesses(self, tmp_path):
        # gam axioms vs the gam0 machine genuinely diverge (per-location
        # SC for same-address loads), so corr must be mined and minimized.
        suite = _write_suite_dir(tmp_path, ["mp", "corr"])
        out = tmp_path / "campaign"
        report = run_hunt(
            out=str(out),
            suite=suite,
            pairs=[("gam", "gam0")],
            num_shards=2,
            oracle="operational",
        )
        assert [d.test_name for d in report.discrepancies] == ["corr"]
        disc = report.discrepancies[0]
        assert disc.pair == ("gam", "operational:gam0")
        assert disc.machine_only + disc.axiomatic_only > 0
        (record,) = report.witnesses
        assert record.minimized_instrs <= record.original_instrs
        witness_path = out / record.relpath
        assert witness_path.exists()
        # The written witness still diverges after a parse round trip.
        reparsed = parse_litmus(witness_path.read_text())
        axiomatic, operational = evaluate_cells(
            [
                OutcomeSpec(reparsed, get_model("gam"), project="full"),
                OutcomeSpec(
                    reparsed, None, project="full",
                    oracle="operational:gam0",
                ),
            ]
        )
        assert axiomatic != operational
        payload = json.loads((out / "report.json").read_text())
        (entry,) = payload["discrepancies"]
        assert entry["pair"] == ["gam", "operational:gam0"]
        assert set(entry) >= {"machine_only", "axiomatic_only", "witness"}

    def test_interrupted_rand_hunt_resumes_byte_identically(self, tmp_path):
        # The rand: spec re-resolves on resume; the regenerated corpus
        # must match the original or the report could not reproduce.
        interrupted = tmp_path / "interrupted"
        fresh = tmp_path / "fresh"
        kwargs = dict(
            suite="rand:n=4,seed=6", num_shards=2, oracle="operational"
        )

        def exploding_log(message: str) -> None:
            if message.startswith("shard 2/2: evaluating"):
                raise _Interrupt(message)

        with pytest.raises(_Interrupt):
            run_hunt(out=str(interrupted), log=exploding_log, **kwargs)
        assert (interrupted / "shards" / "shard-0000.json").exists()
        assert not (interrupted / "shards" / "shard-0001.json").exists()
        resumed = run_hunt(out=str(interrupted))
        baseline = run_hunt(out=str(fresh), **kwargs)
        assert resumed.text == baseline.text

    def test_jobs_do_not_change_the_report(self, tmp_path):
        suite = _write_suite_dir(tmp_path, ["mp", "corr", "rsw"])
        serial = run_hunt(
            out=str(tmp_path / "serial"),
            suite=suite,
            pairs=[("gam", "gam0")],
            num_shards=2,
            oracle="operational",
        )
        pooled = run_hunt(
            out=str(tmp_path / "pooled"),
            suite=suite,
            pairs=[("gam", "gam0")],
            num_shards=2,
            jobs=2,
            oracle="operational",
        )
        assert serial.text == pooled.text
        for left, right in zip(serial.witnesses, pooled.witnesses):
            assert (tmp_path / "serial" / left.relpath).read_bytes() == (
                tmp_path / "pooled" / right.relpath
            ).read_bytes()

    def test_unknown_machine_is_a_campaign_error(self, tmp_path):
        with pytest.raises(CampaignError, match="unknown operational machine"):
            run_hunt(
                out=str(tmp_path / "campaign"),
                suite="rand:n=2",
                pairs=[("gam", "arm")],
                oracle="operational",
            )

    def test_oracle_mode_is_sticky_across_resume(self, tmp_path):
        out = str(tmp_path / "campaign")
        first = run_hunt(
            out=out, suite="rand:n=3,seed=8", num_shards=1,
            oracle="operational",
        )
        # No oracle argument on resume: the stored spec supplies it.
        second = run_hunt(out=out)
        assert first.text == second.text
        assert "oracle operational" in second.text

    def test_resume_under_a_different_oracle_names_both(self, tmp_path):
        out = str(tmp_path / "campaign")
        run_hunt(out=out, suite="paper", num_shards=1)
        # The stored wmm:arm pair is refused before "arm" is read as a
        # machine name.
        with pytest.raises(
            CampaignError, match="'axiomatic' oracle.*'operational' oracle"
        ):
            run_hunt(out=out, oracle="operational")

    def test_spec_mismatch_lists_the_oracle(self, tmp_path):
        campaign = CampaignDir(tmp_path)
        campaign.write_spec(CampaignSpec("paper", (("gam", "gam0"),), 1))
        with pytest.raises(CampaignError, match="oracle=axiomatic.*oracle,"):
            campaign.check_spec(
                CampaignSpec(
                    "paper", (("gam", "gam0"),), 1, oracle="operational"
                )
            )


class TestHuntOracleCLI:
    @pytest.mark.parametrize("pair", ["gam:gam", "gam"])
    def test_resume_reads_pairs_under_the_stored_oracle(
        self, tmp_path, capsys, pair
    ):
        out = str(tmp_path / "campaign")
        argv = ["hunt", "--suite", "paper", "--shards", "2", "--out", out]
        assert main(argv + ["--oracle", "operational", "--pair", "gam"]) == 0
        first = capsys.readouterr().out
        # --oracle is not restated: the campaign's own oracle picks the
        # --pair grammar, so both spellings of the self-pair resume.
        assert main(["hunt", "--out", out, "--pair", pair]) == 0
        resumed = capsys.readouterr().out
        assert "shard 2/2: already complete" in resumed
        report = first[first.index("Hunt report"):]
        assert resumed[resumed.index("Hunt report"):] == report

    def test_bare_pair_name_is_self_pair_shorthand(self, tmp_path, capsys):
        status = main(
            [
                "hunt",
                "--oracle", "operational",
                "--suite", "rand:n=2,seed=1",
                "--pair", "gam0",
                "--shards", "1",
                "--out", str(tmp_path / "campaign"),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "pairs gam0:gam0" in out
        assert "0 discrepancies" in out

    def test_bad_oracle_pair_reports_supported_machines(self, tmp_path, capsys):
        status = main(
            [
                "hunt",
                "--oracle", "operational",
                "--suite", "rand:n=2",
                "--pair", "gam:wmm",
                "--out", str(tmp_path / "campaign"),
            ]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "unknown operational machine" in err
        assert "gam, gam0, sc, tso" in err


# The exact stdout of the historical (pre-engine) serial implementations,
# captured before the oracle refactor.  These commands are scripted in CI
# and docs, so their output is a compatibility surface: any drift here is
# a regression even when the verdicts are right.
_GOLDEN_EQUIV = """\
ok  mp                       gam   |axiomatic|=4 |machine|=4
ok  mp                       gam0  |axiomatic|=4 |machine|=4
ok  mp                       sc    |axiomatic|=3 |machine|=3
ok  mp                       tso   |axiomatic|=3 |machine|=3
ok  dekker                   gam   |axiomatic|=4 |machine|=4
ok  dekker                   gam0  |axiomatic|=4 |machine|=4
ok  dekker                   sc    |axiomatic|=3 |machine|=3
ok  dekker                   tso   |axiomatic|=4 |machine|=4
ok  corr                     gam   |axiomatic|=3 |machine|=3
ok  corr                     gam0  |axiomatic|=4 |machine|=4
ok  corr                     sc    |axiomatic|=3 |machine|=3
ok  corr                     tso   |axiomatic|=3 |machine|=3
"""

_GOLDEN_CHECK_OP = (
    "mp: P1.r1=1, P1.r2=0 is ALLOWED under gam (abstract machine)\n"
)


class TestByteIdentity:
    def _equiv_argv(self, cache=None):
        argv = ["equiv", "mp", "dekker", "corr", "--pairs", "gam,gam0,sc,tso"]
        if cache is not None:
            argv += ["--cache", cache]
        return argv

    def test_equiv_matches_pre_refactor_output(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self._equiv_argv()) == 0
        assert capsys.readouterr().out == _GOLDEN_EQUIV
        # Cold cache, then warm cache: same bytes.
        assert main(self._equiv_argv(cache)) == 0
        assert capsys.readouterr().out == _GOLDEN_EQUIV
        assert main(self._equiv_argv(cache)) == 0
        assert capsys.readouterr().out == _GOLDEN_EQUIV

    def test_check_operational_matches_pre_refactor_output(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert main(["check", "mp", "--operational"]) == 0
        assert capsys.readouterr().out == _GOLDEN_CHECK_OP
        for _ in range(2):  # cold then warm cache
            assert (
                main(["check", "mp", "--operational", "--cache", cache]) == 0
            )
            assert capsys.readouterr().out == _GOLDEN_CHECK_OP
