"""Tests for the differential model-hunt campaign (repro.campaign).

Covers the tentpole properties end to end: deterministic suite
sharding, atomic resumable state (interrupt mid-campaign, re-run,
byte-identical report), discrepancy mining over verdict tables, greedy
witness minimization that provably preserves the divergence, and the
``repro hunt`` CLI wiring.
"""

import hashlib
import json

import pytest

from repro.campaign import (
    CampaignDir,
    CampaignError,
    CampaignSpec,
    divergence_check,
    instruction_count,
    minimize_divergence,
    run_hunt,
)
from repro.eval.discrepancy import (
    Discrepancy,
    mine_discrepancies,
    parse_pair,
    render_discrepancies,
    verdict_table,
)
from repro.eval.litmus_matrix import litmus_matrix
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.frontend.suite import load_litmus_path, resolve_suite, shard_suite
from repro.litmus.registry import get_test

# gen:edges=3 is the smallest generated suite (the CoRR family), and it
# already contains a wmm/arm divergence — ideal for fast campaign tests.
_SUITE = "gen:edges=3"
_PAIR = ("wmm", "arm")


class TestShardSuite:
    def test_partition_covers_every_test_once(self):
        tests = resolve_suite("paper")
        shards = [shard_suite(tests, i, 4) for i in range(4)]
        names = [t.name for shard in shards for t in shard]
        assert sorted(names) == sorted(t.name for t in tests)

    def test_round_robin_is_deterministic_and_balanced(self):
        tests = resolve_suite("paper")
        again = [t.name for t in shard_suite(tests, 1, 3)]
        assert again == [t.name for t in shard_suite(resolve_suite("paper"), 1, 3)]
        sizes = [len(shard_suite(tests, i, 3)) for i in range(3)]
        assert max(sizes) - min(sizes) <= 1

    def test_bad_shard_arguments(self):
        tests = resolve_suite("paper")
        with pytest.raises(ValueError, match="num_shards"):
            shard_suite(tests, 0, 0)
        with pytest.raises(ValueError, match="shard_index"):
            shard_suite(tests, 3, 3)


class TestDiscrepancyMining:
    def test_parse_pair(self):
        assert parse_pair("wmm:arm") == ("wmm", "arm")
        for bad in ("wmm", "wmm:", ":arm", "wmm:wmm"):
            with pytest.raises(ValueError):
                parse_pair(bad)

    def test_mine_finds_only_disagreements(self):
        table = {
            "t1": {"wmm": True, "arm": False},
            "t2": {"wmm": True, "arm": True},
            "t3": {"wmm": False, "arm": True},
        }
        found = mine_discrepancies(table, [("wmm", "arm")])
        assert [(d.test_name, d.allowed_a, d.allowed_b) for d in found] == [
            ("t1", True, False),
            ("t3", False, True),
        ]
        assert found[0].splitter == "wmm"
        assert found[1].splitter == "arm"

    def test_mine_skips_partial_rows(self):
        table = {"t1": {"wmm": True}}
        assert mine_discrepancies(table, [("wmm", "arm")]) == []

    def test_verdict_table_pivots_matrix_cells(self):
        cells = litmus_matrix(
            tests=[get_test("dekker")], model_names=["sc", "gam"]
        )
        table = verdict_table(cells)
        assert table == {"dekker": {"sc": False, "gam": True}}
        mined = mine_discrepancies(table, [("gam", "sc")])
        assert len(mined) == 1 and mined[0].test_name == "dekker"

    def test_render_ranks_by_size(self):
        discs = [
            Discrepancy("big", ("a", "b"), True, False),
            Discrepancy("small", ("a", "b"), False, True),
        ]
        sizes = {("big", ("a", "b")): 9, ("small", ("a", "b")): 2}
        text = render_discrepancies(discs, sizes=sizes)
        assert text.index("small") < text.index("big")
        assert "2 discrepancies" in text

    def test_render_sizes_distinguish_pairs(self):
        # One test diverging for two pairs may minimize to different
        # witnesses; each row must show its own pair's size.
        discs = [
            Discrepancy("t", ("a", "b"), True, False),
            Discrepancy("t", ("a", "c"), True, False),
        ]
        sizes = {("t", ("a", "b")): 3, ("t", ("a", "c")): 7}
        text = render_discrepancies(discs, sizes=sizes)
        ab_row = next(line for line in text.splitlines() if "a:b" in line)
        ac_row = next(line for line in text.splitlines() if "a:c" in line)
        assert "3" in ab_row and "7" in ac_row


def _padded_dekker(extra_proc: bool = False):
    """Dekker plus semantically irrelevant padding (and optionally an
    irrelevant third processor), for exercising the minimizer."""
    builder = LitmusBuilder("dekker-padded", locations=("a", "b"))
    p0 = builder.proc()
    p0.st("a", 1).nop().ld("r1", "b")
    p1 = builder.proc()
    p1.op("r9", 7).st("b", 1).ld("r2", "a")
    if extra_proc:
        builder.proc().ld("r5", "a")
    return builder.build(asked={"P0.r1": 0, "P1.r2": 0})


class TestMinimization:
    def test_removes_padding_but_keeps_divergence(self):
        check = divergence_check(("sc", "gam"))
        result = minimize_divergence(_padded_dekker(), check)
        assert result.original_instrs == 6
        assert result.minimized_instrs == 4  # exactly the dekker core
        assert check(result.test)
        assert result.checks > 0

    def test_already_minimal_test_is_unchanged(self):
        check = divergence_check(("sc", "gam"))
        dekker = get_test("dekker")
        result = minimize_divergence(dekker, check)
        assert result.minimized_instrs == instruction_count(dekker) == 4
        assert [list(p.instructions) for p in result.test.programs] == [
            list(p.instructions) for p in dekker.programs
        ]

    def test_empty_processor_is_dropped_and_renumbered(self):
        check = divergence_check(("sc", "gam"))
        result = minimize_divergence(_padded_dekker(extra_proc=True), check)
        assert result.test.num_procs == 2
        assert result.minimized_instrs == 4
        # Asked bindings survived the renumbering and still diverge.
        assert check(result.test)

    def test_non_diverging_input_is_rejected(self):
        check = divergence_check(("sc", "tso"))
        with pytest.raises(ValueError, match="does not diverge"):
            # SC and TSO agree about CoRR (both forbid).
            minimize_divergence(get_test("corr"), check)

    def test_divergence_check_false_for_askless_test(self):
        check = divergence_check(("sc", "gam"))
        builder = LitmusBuilder("no-asked", locations=("a",))
        builder.proc().st("a", 1)
        assert not check(builder.build())


class TestCampaignState:
    def test_spec_round_trip(self, tmp_path):
        campaign = CampaignDir(tmp_path)
        assert campaign.load_spec() is None
        spec = CampaignSpec(suite=_SUITE, pairs=(_PAIR,), num_shards=2)
        campaign.write_spec(spec)
        assert campaign.load_spec() == spec
        assert spec.model_names == ("wmm", "arm")

    def test_mismatched_spec_is_refused(self, tmp_path):
        campaign = CampaignDir(tmp_path)
        campaign.write_spec(CampaignSpec(_SUITE, (_PAIR,), 2))
        with pytest.raises(CampaignError, match="different spec"):
            campaign.check_spec(CampaignSpec(_SUITE, (_PAIR,), 3))
        with pytest.raises(CampaignError, match="different spec"):
            campaign.check_spec(CampaignSpec(_SUITE, (("gam", "gam0"),), 2))

    def test_corrupt_spec_is_an_error_not_a_fresh_start(self, tmp_path):
        campaign = CampaignDir(tmp_path)
        campaign.spec_path.write_text("{ not json")
        with pytest.raises(CampaignError, match="unreadable"):
            campaign.load_spec()

    @pytest.mark.parametrize("suite", ["all", "gen:edges=4"])
    def test_suite_digest_is_the_descriptor_list_digest(self, suite):
        # Campaign directories record this digest, so resuming one written
        # before tests carried a content key must read the same digest.
        from repro.campaign.state import suite_digest
        from repro.engine import cells

        tests = resolve_suite(suite)
        payload = json.dumps(
            [cells.test_descriptor(test) for test in tests],
            sort_keys=True,
            separators=(",", ":"),
        )
        assert suite_digest(tests) == hashlib.sha256(payload.encode()).hexdigest()

    def test_incomplete_shard_reads_as_missing(self, tmp_path):
        campaign = CampaignDir(tmp_path)
        campaign.ensure_layout()
        assert campaign.load_shard(0) is None
        campaign.shard_path(0).write_text(json.dumps({"complete": False}))
        assert campaign.load_shard(0) is None
        campaign.write_shard(0, {"tests": [], "complete": True})
        assert campaign.load_shard(0) is not None
        assert campaign.completed_shards(2) == [0]


class _Interrupt(Exception):
    """Stands in for a mid-campaign kill."""


class TestRunHunt:
    def test_end_to_end_finds_and_minimizes_divergences(self, tmp_path):
        out = tmp_path / "campaign"
        report = run_hunt(
            out=str(out), suite=_SUITE, pairs=[_PAIR], num_shards=2
        )
        assert report.tests_evaluated > 0
        assert report.discrepancies  # at least one wmm/arm divergence
        assert len(report.witnesses) == len(report.discrepancies)
        # Every witness re-parses and still diverges through the standard
        # matrix path.
        witnesses = load_litmus_path(str(out / "witnesses"))
        cells = litmus_matrix(tests=witnesses, model_names=list(_PAIR))
        table = verdict_table(cells)
        for verdicts in table.values():
            assert verdicts["wmm"] != verdicts["arm"]
        # Witnesses never grew.
        for record in report.witnesses:
            assert record.minimized_instrs <= record.original_instrs
        # Report files are on disk and agree with the returned report.
        assert (out / "report.txt").read_text() == report.text
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["discrepancies"]) == len(report.discrepancies)
        for entry in payload["discrepancies"]:
            assert (out / entry["witness"]).exists()

    def test_interrupted_campaign_resumes_to_identical_report(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        fresh = tmp_path / "fresh"

        def exploding_log(message: str) -> None:
            if message.startswith("shard 2/2: evaluating"):
                raise _Interrupt(message)

        with pytest.raises(_Interrupt):
            run_hunt(
                out=str(interrupted),
                suite=_SUITE,
                pairs=[_PAIR],
                num_shards=2,
                log=exploding_log,
            )
        assert (interrupted / "shards" / "shard-0000.json").exists()
        assert not (interrupted / "shards" / "shard-0001.json").exists()

        logs: list[str] = []
        resumed = run_hunt(out=str(interrupted), log=logs.append)
        assert any("resuming campaign" in line for line in logs)
        assert any("shard 1/2: already complete" in line for line in logs)

        baseline = run_hunt(
            out=str(fresh), suite=_SUITE, pairs=[_PAIR], num_shards=2
        )
        assert resumed.text == baseline.text
        # Witness files are byte-identical across the two campaigns.
        for record, other in zip(resumed.witnesses, baseline.witnesses):
            left = (interrupted / record.relpath).read_bytes()
            right = (fresh / other.relpath).read_bytes()
            assert left == right

    def test_rerun_of_complete_campaign_is_idempotent(self, tmp_path):
        out = str(tmp_path / "campaign")
        first = run_hunt(out=out, suite=_SUITE, pairs=[_PAIR], num_shards=2)
        second = run_hunt(out=out)  # spec comes entirely from disk
        assert first.text == second.text

    def test_resume_flag_requires_existing_state(self, tmp_path):
        with pytest.raises(CampaignError, match="nothing to resume"):
            run_hunt(out=str(tmp_path / "nope"), suite=_SUITE, resume=True)

    def test_new_campaign_requires_suite(self, tmp_path):
        with pytest.raises(CampaignError, match="needs a --suite"):
            run_hunt(out=str(tmp_path / "new"))

    def test_conflicting_spec_is_refused(self, tmp_path):
        out = str(tmp_path / "campaign")
        run_hunt(out=out, suite=_SUITE, pairs=[_PAIR], num_shards=2)
        with pytest.raises(CampaignError, match="different spec"):
            run_hunt(out=out, suite=_SUITE, pairs=[_PAIR], num_shards=3)
        with pytest.raises(CampaignError, match="different spec"):
            run_hunt(out=out, suite="gen:edges=4", pairs=[_PAIR], num_shards=2)

    def test_bad_shard_count(self, tmp_path):
        with pytest.raises(CampaignError, match="--shards"):
            run_hunt(out=str(tmp_path / "x"), suite=_SUITE, num_shards=0)

    def test_invalid_suite_does_not_poison_the_directory(self, tmp_path):
        out = tmp_path / "campaign"
        with pytest.raises(CampaignError, match="at least 3 edges"):
            run_hunt(out=str(out), suite="gen:edges=2", pairs=[_PAIR])
        # No state was persisted, so the corrected spec starts cleanly.
        assert not (out / "campaign.json").exists()
        report = run_hunt(
            out=str(out), suite=_SUITE, pairs=[_PAIR], num_shards=2
        )
        assert report.discrepancies

    def test_failed_resume_leaves_no_litter(self, tmp_path):
        out = tmp_path / "typo"
        with pytest.raises(CampaignError, match="nothing to resume"):
            run_hunt(out=str(out), resume=True)
        assert not out.exists()

    def test_duplicate_names_in_directory_suite_are_refused(self, tmp_path):
        # Name-keyed pipelines (verdict table, minimization) would
        # silently drop one of the colliding tests, so loading must fail.
        from repro.litmus.frontend.parser import LitmusParseError
        from repro.litmus.frontend.printer import print_litmus
        from dataclasses import replace as dc_replace

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        dekker = get_test("dekker")
        corr_renamed = dc_replace(get_test("corr"), name="dekker")
        (corpus / "a.litmus").write_text(print_litmus(dekker), encoding="utf-8")
        (corpus / "b.litmus").write_text(
            print_litmus(corr_renamed), encoding="utf-8"
        )
        with pytest.raises(LitmusParseError, match="duplicate test name"):
            load_litmus_path(str(corpus))
        with pytest.raises(LitmusParseError, match="duplicate test name"):
            run_hunt(
                out=str(tmp_path / "campaign"),
                suite=str(corpus),
                pairs=[("sc", "gam")],
            )

    def test_changed_suite_content_is_refused(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        from repro.litmus.frontend.printer import print_litmus

        (corpus / "dekker.litmus").write_text(
            print_litmus(get_test("dekker")), encoding="utf-8"
        )
        out = str(tmp_path / "campaign")
        run_hunt(out=out, suite=str(corpus), pairs=[("sc", "gam")], num_shards=1)
        # Same spec string, different resolved content: must be refused,
        # not silently mixed with the recorded shards.
        (corpus / "dekker.litmus").write_text(
            print_litmus(get_test("corr")), encoding="utf-8"
        )
        with pytest.raises(CampaignError, match="different spec"):
            run_hunt(out=out)


class TestHuntCLI:
    def test_hunt_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "campaign"
        status = main(
            [
                "hunt",
                "--suite",
                _SUITE,
                "--pair",
                "wmm:arm",
                "--shards",
                "2",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "Hunt report" in captured.out
        assert "witnesses" in captured.out
        assert (out / "report.txt").exists()

    def test_bad_pair_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        status = main(
            ["hunt", "--suite", _SUITE, "--pair", "wmm", "--out", str(tmp_path)]
        )
        assert status == 2
        assert "bad model pair" in capsys.readouterr().err

    def test_unknown_model_is_reported(self, tmp_path, capsys):
        from repro.cli import main

        status = main(
            [
                "hunt",
                "--suite",
                _SUITE,
                "--pair",
                "wmm:nosuchmodel",
                "--out",
                str(tmp_path / "campaign"),
            ]
        )
        assert status == 2
        assert "nosuchmodel" in capsys.readouterr().err

    def test_resume_without_state_is_reported(self, tmp_path, capsys):
        from repro.cli import main

        status = main(
            ["hunt", "--resume", "--out", str(tmp_path / "missing")]
        )
        assert status == 2
        assert "nothing to resume" in capsys.readouterr().err
