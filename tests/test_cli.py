"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.obs import collecting
from test_engine import _overflow_test


class TestList:
    def test_list_tests(self, capsys):
        assert main(["list", "tests"]) == 0
        out = capsys.readouterr().out
        assert "dekker" in out and "rnsw" in out

    def test_list_tests_suite_filter(self, capsys):
        assert main(["list", "tests", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "dekker" in out and "iriw" not in out
        assert main(["list", "tests", "--suite", "standard"]) == 0
        out = capsys.readouterr().out
        assert "iriw" in out and "rnsw" not in out

    def test_list_tests_generated_suite(self, capsys):
        assert main(["list", "tests", "--suite", "gen:edges=4,size=3"]) == 0
        assert "Critical cycle" in capsys.readouterr().out

    def test_list_tests_unknown_suite(self, capsys):
        assert main(["list", "tests", "--suite", "nope"]) == 2

    def test_list_models(self, capsys):
        assert main(["list", "models"]) == 0
        out = capsys.readouterr().out
        assert "gam" in out and "alpha_like" in out

    def test_list_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "zeusmp" in out


class TestShowAndCheck:
    def test_show(self, capsys):
        assert main(["show", "dekker"]) == 0
        out = capsys.readouterr().out
        assert "St" in out and "Ld" in out and "asked" in out

    def test_show_litmus_format(self, capsys):
        assert main(["show", "dekker", "--format", "litmus"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("GAM dekker\n")
        assert "exists (0:r1=0 /\\ 1:r2=0)" in out
        from repro.litmus.frontend.parser import parse_litmus
        from repro.litmus.registry import get_test

        assert parse_litmus(out) == get_test("dekker")

    def test_check_allowed(self, capsys):
        assert main(["check", "dekker", "-m", "gam"]) == 0
        assert "ALLOWED" in capsys.readouterr().out

    def test_check_forbidden(self, capsys):
        assert main(["check", "dekker", "-m", "sc"]) == 0
        assert "FORBIDDEN" in capsys.readouterr().out

    def test_check_operational(self, capsys):
        assert main(["check", "corr", "-m", "gam", "--operational"]) == 0
        out = capsys.readouterr().out
        assert "FORBIDDEN" in out and "abstract machine" in out

    def test_check_operational_reference_machines(self, capsys):
        # sc/tso gained machines with the oracle abstraction; they run
        # through the same engine path as gam/gam0.
        assert main(["check", "dekker", "-m", "sc", "--operational"]) == 0
        out = capsys.readouterr().out
        assert "FORBIDDEN" in out and "abstract machine" in out

    def test_check_operational_rejects_machineless_models(self, capsys):
        assert main(["check", "corr", "-m", "arm", "--operational"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            captured.err
            == "error: --operational supports models: gam, gam0, sc, tso\n"
        )

    def test_check_unknown_test(self, capsys):
        assert main(["check", "not-a-test"]) == 2

    def test_outcomes(self, capsys):
        assert main(["outcomes", "dekker", "-m", "sc"]) == 0
        out = capsys.readouterr().out
        assert "3 outcome(s)" in out


class TestWitnessDiff:
    def test_witness_allowed(self, capsys):
        assert main(["witness", "dekker", "-m", "gam"]) == 0
        out = capsys.readouterr().out
        assert "global memory order" in out

    def test_witness_forbidden(self, capsys):
        assert main(["witness", "oota", "-m", "gam"]) == 1
        assert "no witness" in capsys.readouterr().out

    def test_diff(self, capsys):
        assert main(["diff", "corr", "gam0", "gam"]) == 0
        assert "only gam0" in capsys.readouterr().out


class TestSynthStrength:
    def test_synth_dekker(self, capsys):
        assert main(["synth", "dekker", "-m", "gam"]) == 0
        out = capsys.readouterr().out
        assert "FenceSL" in out and "2 fences" in out

    def test_synth_already_sc(self, capsys):
        assert main(["synth", "mp+fences", "-m", "gam"]) == 0
        assert "no fences needed" in capsys.readouterr().out

    def test_synth_unfixable_budget(self, capsys):
        assert main(["synth", "dekker", "-m", "gam", "--max-fences", "0"]) == 1

    @pytest.mark.parametrize("test, bound", [("dekker", "-1"), ("mp+fences", "-5")])
    def test_synth_rejects_a_negative_budget(self, capsys, test, bound):
        assert main(["synth", test, "--max-fences", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max_fences must be >= 0, got {bound}\n"

    def test_strength_paper(self, capsys):
        assert main(["strength", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "strength" in out.lower() and "<=" in out


class TestEngineRouting:
    """Every verdict or outcome-set command asks the batch engine."""

    @pytest.mark.parametrize(
        "argv, requested, batches",
        [
            (["outcomes", "corr", "-m", "gam0"], 1, 1),
            (["diff", "corr", "gam0", "gam"], 2, 1),  # one batch, one prefix
            (["synth", "dekker", "-m", "gam"], 40, 20),  # first check + 19 plans
            (["synth", "mp+fences", "-m", "gam"], 2, 1),
        ],
        ids=["outcomes", "diff", "synth", "synth-already-sc"],
    )
    def test_command_reaches_the_engine(self, capsys, argv, requested, batches):
        with collecting() as recorder:
            assert main(argv) == 0
            counters = recorder.snapshot().counters
        assert counters["engine.cells.requested"] == requested
        assert counters["engine.batches"] == batches

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "t"],
            ["outcomes", "t"],
            ["diff", "t", "gam0", "gam"],
            ["synth", "t"],
            ["witness", "t"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_overflow_names_the_test_once(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            "repro.litmus.registry.get_test", lambda name: _overflow_test()
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: test 'feedback-overflow': value domain exceeded 64 values\n"
        )


class TestMatrixEquivSim:
    def test_matrix_paper(self, capsys):
        assert main(["matrix", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "rsw" in out and "all verdicts agree" in out

    def test_equiv_on_named_tests(self, capsys):
        assert main(["equiv", "dekker", "corr", "--pairs", "gam"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 2

    def test_matrix_generated_suite(self, capsys):
        assert main(["matrix", "--suite", "gen:edges=4,size=4"]) == 0
        out = capsys.readouterr().out
        assert "gen:edges=4,size=4 suite" in out
        assert "paper is silent on this suite" in out

    def test_equiv_suite_flag(self, capsys):
        assert main(
            ["equiv", "--suite", "gen:edges=4,size=2", "--pairs", "gam"]
        ) == 0
        assert capsys.readouterr().out.count("ok ") == 2

    def test_sim_small(self, capsys):
        assert main(["sim", "--workloads", "namd", "--length", "800"]) == 0
        out = capsys.readouterr().out
        assert "Figure 18" in out and "Table II" in out and "Table III" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestGenImportExport:
    def test_gen_summary(self, capsys):
        assert main(["gen", "--edges", "4", "--quiet"]) == 0
        out = capsys.readouterr().out
        count = int(out.split("generated ")[1].split()[0])
        assert count >= 50

    def test_gen_is_idempotent_in_process(self, capsys):
        assert main(["gen", "--edges", "4", "--size", "1", "--quiet"]) == 0
        assert main(["gen", "--edges", "4", "--size", "1", "--quiet"]) == 0
        capsys.readouterr()

    def test_gen_leaves_the_catalogue_unchanged(self, capsys):
        from repro.litmus import registry

        before = registry.test_names()
        assert main(["gen", "--edges", "4", "--size", "3", "--quiet"]) == 0
        capsys.readouterr()
        assert registry.test_names() == before

    def test_gen_writes_files(self, capsys, tmp_path):
        out_dir = tmp_path / "generated"
        assert main(
            ["gen", "--edges", "4", "--size", "3", "--seed", "1",
             "--quiet", "-o", str(out_dir)]
        ) == 0
        files = sorted(p.name for p in out_dir.glob("*.litmus"))
        assert len(files) == 3

    def test_export_import_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        assert main(["export", "--suite", "paper", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        files = sorted(str(p) for p in out_dir.glob("*.litmus"))
        assert len(files) == 12
        assert main(["import", *files]) == 0
        out = capsys.readouterr().out
        assert "12 test(s) imported" in out and "imported dekker" in out

    def test_export_stdout(self, capsys):
        assert main(["export", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        headers = [l for l in out.splitlines() if l.startswith("GAM ")]
        assert len(headers) == 12

    def test_matrix_from_exported_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        assert main(["export", "--suite", "paper", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["matrix", "--suite", str(out_dir)]) == 0
        assert "all verdicts agree with the paper" in capsys.readouterr().out

    def test_import_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text("GAM broken\n{ a; }\n P0 ;\n Wat ;\n")
        assert main(["import", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err

    def test_import_duplicate_names(self, capsys, tmp_path):
        from repro.litmus.frontend.printer import print_litmus
        from repro.litmus.registry import get_test

        text = print_litmus(get_test("mp"))
        one = tmp_path / "one.litmus"
        two = tmp_path / "two.litmus"
        one.write_text(text)
        two.write_text(text)
        assert main(["import", str(one), str(two)]) == 2
        assert "collision" in capsys.readouterr().err


class TestUsageErrors:
    """Arguments that would run nothing, or misread, exit 2 up front."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["matrix", "--suite", "gen:edges=4,size=-2"], "size=-2"),
            (["matrix", "--suite", "gen:edges=4,size=0"], "size=0"),
            (["gen", "--edges", "4", "--size", "-2"], "size=-2"),
            (["matrix", "--suite", "rand:n=-3"], "n=-3"),
            (["matrix", "--suite", "rand:n=3,procs=0"], "procs=0"),
            (["matrix", "--suite", "rand:n=3,locs=0"], "locs=0"),
            (["matrix", "--suite", "rand:n=3,instrs=0"], "instrs=0"),
        ],
    )
    def test_non_positive_suite_size_is_rejected(self, capsys, argv, key):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"must be >= 1, got {key}" in captured.err

    @pytest.mark.parametrize("pairs", [",", ""])
    def test_equiv_with_no_pairs_is_rejected(self, capsys, pairs):
        assert main(["equiv", "mp", "--pairs", pairs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --pairs {pairs!r} names no definition pair\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "mp"],
            ["matrix", "--suite", "paper"],
            ["equiv", "mp"],
            ["strength", "--suite", "paper"],
            ["hunt", "--suite", "gen:edges=3"],
        ],
    )
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_rejected(self, capsys, tmp_path, argv, jobs):
        if argv[0] == "hunt":
            argv = argv + ["--out", str(tmp_path / "campaign")]
        assert main(argv + ["--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "campaign").exists()

