"""Tests for the lint subsystem (``repro.lint``) and its surfaces.

Coverage contract: every code in the diagnostic catalog has at least one
*firing* case and one *non-firing* case here, plus corpus-cleanliness
gates (the registered tests and the model zoo must lint with zero
errors) and behavioural tests for the CLI/campaign surfaces
(``repro lint``, ``repro gen --dedupe``, hunt pre-flight, import
collision diagnostics).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.axiomatic import MemoryModel
from repro.core.ppo import Clause, build_clause
from repro.lint import (
    CODES,
    LintReport,
    Severity,
    canonical_hash,
    dedupe_tests,
    edge_signature,
    lint_model,
    lint_models,
    lint_test,
    lint_tests,
    make,
    preflight_models,
    preflight_tests,
)
from repro.lint.repo import check_engine_version_bump, lint_source
from repro.litmus.frontend.parser import parse_litmus
from repro.litmus.registry import all_tests, get_test
from repro.models.registry import REGISTRY


def _codes(findings) -> list[str]:
    return [finding.code for finding in findings]


def _parse(text: str):
    return parse_litmus(text)


# A clean two-thread message-passing shape no litmus check fires on.
CLEAN = """\
GAM clean
{ a; b; }
 P0       | P1          ;
 St [a] 1 | r1 = Ld [b] ;
 St [b] 1 | r2 = Ld [a] ;
exists (1:r1=1 /\\ 1:r2=0)
"""


def _clause(spec: str):
    name, _, args = spec.partition("(")
    if args:
        return build_clause(name, tuple(args.rstrip(")").split(",")))
    return build_clause(name)


def _model(name: str, *specs: str, dynamic=(), **kwargs) -> MemoryModel:
    return MemoryModel(
        name=name,
        clauses=tuple(_clause(spec) for spec in specs),
        dynamic_clauses=tuple(_clause(spec) for spec in dynamic),
        **kwargs,
    )


class TestDiagnosticsVocabulary:
    def test_make_validates_codes(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            make("L999", "x", "y")

    def test_make_uses_catalog_severity(self):
        assert make("L004", "t", "m").severity is Severity.ERROR
        assert make("L001", "t", "m").severity is Severity.WARNING
        assert make("L010", "t", "m").severity is Severity.INFO

    def test_severity_rank_orders(self):
        assert Severity.INFO.rank < Severity.WARNING.rank < Severity.ERROR.rank

    def test_render_includes_span(self):
        finding = make("R001", "f.py", "msg", source="src/f.py", line=3)
        assert finding.render() == "error   R001 src/f.py:3: f.py: msg"

    def test_catalog_is_complete(self):
        for code, info in CODES.items():
            assert info.code == code
            assert info.title and info.summary and info.example
        assert sorted(CODES) == list(CODES)  # catalog stays in code order

    def test_report_counts_and_exit(self):
        report = LintReport(
            findings=(make("L010", "t", "m"), make("L001", "t", "m"))
        )
        assert report.counts() == {"error": 0, "warning": 1, "info": 1}
        assert report.exit_status() == 0
        assert report.exit_status(strict=True) == 1
        with_error = LintReport(findings=(make("L004", "t", "m"),))
        assert with_error.exit_status() == 1
        assert with_error.errors() == with_error.findings

    def test_report_json_is_stable(self):
        report = LintReport(findings=(make("M002", "m", "dup"),))
        payload = json.loads(report.render_json())
        assert payload["version"] == 1
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["code"] == "M002"


class TestLitmusCodes:
    def test_clean_test_has_no_findings(self):
        assert lint_test(_parse(CLEAN)) == []

    def test_l001_undefined_register(self):
        test = _parse(
            "GAM t\n{ a; }\n P0          ;\n St [a] r9   ;\n"
        )
        assert "L001" in _codes(lint_test(test))

    def test_l002_unused_register(self):
        test = _parse(
            "GAM t\n{ a; }\n P0          | P1          ;\n"
            " St [a] 1    | r1 = Ld [a] ;\n"
            "             | r2 = Ld [a] ;\n"
            "exists (1:r1=1)\n"
        )
        findings = lint_test(test)
        assert "L002" in _codes(findings)
        # r1 is asked about, so only r2 fires.
        assert all("r2" in f.message for f in findings if f.code == "L002")

    def test_l002_respects_observed_and_rmw_data(self):
        # An RMW's data expression consumes its own dst (fetch-add), so
        # the register is read even though Definition 1 excludes it.
        test = _parse(
            "GAM t\n{ a; }\n P0                 ;\n"
            " r1 = RMW [a] r1+1  ;\nexists (0:r1=0)\n"
        )
        assert "L002" not in _codes(lint_test(test))

    def test_l003_unobserved_store(self):
        test = _parse(
            "GAM t\n{ a; b; }\n P0       | P1          ;\n"
            " St [a] 1 | r1 = Ld [a] ;\n St [b] 1 |             ;\n"
            "exists (1:r1=1)\n"
        )
        assert "L003" in _codes(lint_test(test))

    def test_l003_suppressed_by_dynamic_load(self):
        # The load's address comes from a register, so it may read any
        # location; no store can be declared unobserved.
        test = _parse(
            "GAM t\n{ a; b; }\n P0       | P1          ;\n"
            " St [a] b | r1 = Ld [a] ;\n St [b] 1 | r2 = Ld [r1] ;\n"
            "exists (1:r2=1)\n"
        )
        assert "L003" not in _codes(lint_test(test))

    def test_l003_observed_via_asked_memory(self):
        test = _parse(
            "GAM t\n{ a; }\n P0       ;\n St [a] 1 ;\nexists (a=1)\n"
        )
        assert "L003" not in _codes(lint_test(test))

    def test_l004_vacuous_condition(self):
        test = _parse(
            "GAM t\n{ a; }\n P0       | P1          ;\n"
            " St [a] 1 | r1 = Ld [a] ;\nexists (1:r9=1)\n"
        )
        findings = lint_test(test)
        assert "L004" in _codes(findings)
        assert make("L004", "", "").severity is Severity.ERROR

    def test_l005_trivial_condition(self):
        test = _parse(
            "GAM t\n{ a; }\n P0       | P1          ;\n"
            " St [a] 1 | r1 = Ld [a] ;\nexists (1:r9=0)\n"
        )
        codes = _codes(lint_test(test))
        assert "L005" in codes and "L004" not in codes

    def test_l006_bad_processor_index(self):
        test = _parse(
            "GAM t\n{ a; }\n P0       | P1          ;\n"
            " St [a] 1 | r1 = Ld [a] ;\nexists (2:r1=1)\n"
        )
        assert "L006" in _codes(lint_test(test))

    def test_l007_location_aliasing(self):
        test = _parse(
            "GAM t\n{ a @ 0x100; b @ 0x100; }\n P0       | P1          ;\n"
            " St [a] 1 | r1 = Ld [b] ;\nexists (1:r1=1)\n"
        )
        assert "L007" in _codes(lint_test(test))

    def test_l008_orphan_initial_value(self):
        test = replace(
            _parse(CLEAN), initial_memory={0x9999: 7}, name="orphan"
        )
        assert "L008" in _codes(lint_test(test))

    def test_l009_isomorphic_duplicate(self):
        corr = get_test("corr")
        clone = replace(corr, name="corr-clone")
        findings = lint_tests([corr, clone], signature_edges=0)
        dups = [f for f in findings if f.code == "L009"]
        assert len(dups) == 1
        assert dups[0].subject == "corr-clone"
        assert "corr" in dups[0].message

    def test_l009_quiet_on_distinct_tests(self):
        findings = lint_tests(
            [get_test("corr"), get_test("dekker")], signature_edges=0
        )
        assert "L009" not in _codes(findings)

    def test_l010_edge_signature(self):
        findings = lint_tests([get_test("corr")], signature_edges=4)
        sigs = [f for f in findings if f.code == "L010"]
        assert len(sigs) == 1
        assert "posrr+fre+rfe" in sigs[0].message

    def test_l010_disabled_below_minimum_budget(self):
        findings = lint_tests([get_test("corr")], signature_edges=0)
        assert "L010" not in _codes(findings)


class TestCanonicalHash:
    def test_register_rename_invariant(self):
        renamed = CLEAN.replace("r1", "r7").replace("r2", "r3")
        assert canonical_hash(_parse(CLEAN)) == canonical_hash(_parse(renamed))

    def test_location_rename_and_readdress_invariant(self):
        moved = CLEAN.replace(
            "{ a; b; }", "{ x @ 0x700; y @ 0x900; }"
        ).replace("[a]", "[x]").replace("[b]", "[y]")
        assert canonical_hash(_parse(CLEAN)) == canonical_hash(_parse(moved))

    def test_thread_swap_invariant(self):
        swapped = _parse(
            "GAM swapped\n{ a; b; }\n"
            " P0          | P1       ;\n"
            " r1 = Ld [b] | St [a] 1 ;\n"
            " r2 = Ld [a] | St [b] 1 ;\n"
            "exists (0:r1=1 /\\ 0:r2=0)\n"
        )
        assert canonical_hash(_parse(CLEAN)) == canonical_hash(swapped)

    def test_distinct_tests_hash_differently(self):
        hashes = {canonical_hash(get_test(n)) for n in ("dekker", "mp", "corr")}
        assert len(hashes) == 3

    def test_asked_value_matters(self):
        changed = CLEAN.replace("1:r2=0", "1:r2=1")
        assert canonical_hash(_parse(CLEAN)) != canonical_hash(_parse(changed))

    def test_edge_signature_of_known_tests(self):
        assert edge_signature(get_test("corr")) == "posrr+fre+rfe"
        assert edge_signature(get_test("dekker")) == "powr+fre+powr+fre"
        # A test with address dependencies is outside the 4-edge space.
        assert edge_signature(get_test("oota")) is None

    def test_dedupe_tests(self):
        corr, dekker = get_test("corr"), get_test("dekker")
        clone = replace(corr, name="corr-clone")
        kept, dropped = dedupe_tests([corr, clone, dekker])
        assert [t.name for t in kept] == ["corr", "dekker"]
        assert [(t.name, kept_name) for t, kept_name in dropped] == [
            ("corr-clone", "corr")
        ]

    def test_dedupe_preserves_generated_suite(self):
        # The cycle generator's structural dedup is already canonical-
        # hash-tight at edges<=4: --dedupe must be a verdict-preserving
        # no-op there (the acceptance bar for gen --dedupe).
        from repro.litmus.frontend.gen import generate_suite

        tests = generate_suite(max_edges=4)
        kept, dropped = dedupe_tests(tests)
        assert dropped == []
        assert kept == tests


class TestModelCodes:
    GAM_SPECS = (
        "SAMemSt",
        "SAStLd",
        "SALdLd",
        "SARmwLd",
        "RegRAW",
        "BrSt",
        "AddrSt",
        "FenceOrd",
    )

    def test_zoo_models_are_clean(self):
        models = [REGISTRY.get(name) for name in REGISTRY.names()]
        assert lint_models(models) == []

    def test_m001_uncataloged_clause(self):
        class Bogus(Clause):
            name = "Bogus"
            paper_ref = "nowhere"

        model = MemoryModel(
            name="m", clauses=(_clause("SAMemSt"), Bogus())
        )
        assert "M001" in _codes(lint_model(model))

    def test_m002_duplicate_clause(self):
        model = _model("m", "SAMemSt", "SALdLd", "SAMemSt")
        findings = [f for f in lint_model(model) if f.code == "M002"]
        assert len(findings) == 1  # reported once, not per extra copy

    def test_m003_subsumed_clause(self):
        model = _model("m", "PairwiseOrder(L,L)", "SALdLd", "SAMemSt")
        findings = [f for f in lint_model(model) if f.code == "M003"]
        assert len(findings) == 1
        assert "SALdLd" in findings[0].message

    def test_m003_needs_all_antecedents(self):
        # SAMemSt is implied only by PairwiseOrder(L,S) + PairwiseOrder(S,S)
        # together; either alone must stay quiet.
        model = _model("m", "PairwiseOrder(S,S)", "SAMemSt")
        assert "M003" not in _codes(lint_model(model))

    def test_m004_conflicting_same_address_policy(self):
        model = _model("m", "SAMemSt", "SALdLd", dynamic=("SALdLdARM",))
        assert "M004" in _codes(lint_model(model))

    def test_m004_quiet_on_either_alone(self):
        assert "M004" not in _codes(lint_model(_model("m", "SAMemSt", "SALdLd")))
        assert "M004" not in _codes(
            lint_model(_model("m", "SAMemSt", dynamic=("SALdLdARM",)))
        )

    def test_m005_registry_twin(self):
        twin = replace(REGISTRY.get("gam"), name="mygam")
        findings = [f for f in lint_models([twin]) if f.code == "M005"]
        assert len(findings) == 1
        assert "'gam'" in findings[0].message

    def test_m005_quiet_under_registry_aliases(self):
        # `rmo` is an alias of gam0: canonically identical by design, but
        # canonical_name flattens the alias so no twin is reported.
        assert "M005" not in _codes(lint_models([REGISTRY.get("rmo")]))

    def test_m006_duplicate_model_name(self):
        a = _model("m", *self.GAM_SPECS)
        b = _model("m", "SAMemSt")
        findings = [f for f in lint_models([a, b]) if f.code == "M006"]
        assert len(findings) == 1


class TestRepoCodes:
    ENGINE = "src/repro/engine/x.py"

    def test_r001_module_level_rng(self):
        src = "import random\nrandom.shuffle(items)\n"
        assert "R001" in _codes(lint_source(src, self.ENGINE))

    def test_r001_unseeded_random_instance(self):
        src = "import random\nrng = random.Random()\n"
        assert "R001" in _codes(lint_source(src, self.ENGINE))

    def test_r001_from_import(self):
        src = "from random import shuffle\n"
        assert "R001" in _codes(lint_source(src, self.ENGINE))

    def test_r001_seeded_rng_is_fine(self):
        src = "import random\nrng = random.Random(7)\nrng.shuffle(items)\n"
        assert lint_source(src, self.ENGINE) == []

    def test_r002_set_iteration(self):
        assert "R002" in _codes(
            lint_source("for x in {1, 2}:\n    pass\n", self.ENGINE)
        )
        assert "R002" in _codes(
            lint_source("out = tuple(set(names))\n", self.ENGINE)
        )
        assert "R002" in _codes(
            lint_source("out = [x for x in {1, 2}]\n", self.ENGINE)
        )

    def test_r002_sorted_set_is_fine(self):
        src = "for x in sorted({1, 2}):\n    pass\n"
        assert lint_source(src, self.ENGINE) == []

    def test_r003_engine_lambda(self):
        assert "R003" in _codes(
            lint_source("callback = lambda cell: cell\n", self.ENGINE)
        )

    def test_r003_key_callback_exempt(self):
        src = "out = sorted(items, key=lambda item: item.name)\n"
        assert lint_source(src, self.ENGINE) == []

    def test_scope_limits_checks(self):
        # The same violations outside the declared scopes are silent.
        src = "import random\nrandom.shuffle(x)\nf = lambda: 0\n"
        assert lint_source(src, "src/repro/analysis.py") == []

    def test_findings_carry_line_numbers(self):
        src = "import random\n\nrandom.shuffle(items)\n"
        (finding,) = lint_source(src, self.ENGINE)
        assert finding.line == 3
        assert finding.source == self.ENGINE

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", self.ENGINE)

    def test_r005_raw_clock_call(self):
        src = "import time\nstart = time.perf_counter()\n"
        findings = lint_source(src, self.ENGINE)
        assert _codes(findings) == ["R005"]
        assert "time_block" in findings[0].message
        assert "R005" in _codes(
            lint_source(
                "import time\nnow = time.time()\n",
                "src/repro/campaign/driver.py",
            )
        )

    def test_r005_from_import(self):
        src = "from time import perf_counter, sleep\n"
        findings = lint_source(src, self.ENGINE)
        assert _codes(findings) == ["R005"]
        assert "perf_counter" in findings[0].message

    def test_r005_obs_wrapper_and_non_clock_time_are_fine(self):
        # sleep is not a clock read; the obs package is the sanctioned
        # wrapper; out-of-scope files are silent.
        assert lint_source("import time\ntime.sleep(1)\n", self.ENGINE) == []
        src = "import time\nstart = time.perf_counter()\n"
        assert lint_source(src, "src/repro/obs/core.py") == []
        assert lint_source(src, "src/repro/analysis.py") == []

    def test_r004_requires_bump(self):
        findings = check_engine_version_bump(
            ["src/repro/engine/cells.py"], version_bumped=False
        )
        assert _codes(findings) == ["R004"]
        assert "src/repro/engine/cells.py" in findings[0].message

    def test_r004_kernel_counts_as_engine(self):
        findings = check_engine_version_bump(
            ["src/repro/core/kernel.py", "README.md"], version_bumped=False
        )
        assert _codes(findings) == ["R004"]

    def test_r004_machines_count_as_result_code(self):
        findings = check_engine_version_bump(
            ["src/repro/core/operational.py"], version_bumped=False
        )
        assert _codes(findings) == ["R004"]
        assert "src/repro/core/operational.py" in findings[0].message

    def test_r004_litmus_test_descriptor_counts_as_result_code(self):
        # The test descriptor behind every cache key lives there.
        findings = check_engine_version_bump(
            ["src/repro/litmus/test.py"], version_bumped=False
        )
        assert _codes(findings) == ["R004"]
        assert "src/repro/litmus/test.py" in findings[0].message

    def test_r004_quiet_for_dispatch_only_diffs(self):
        # Scheduling, policies and fault injection never change a result.
        assert check_engine_version_bump(
            [
                "src/repro/engine/scheduler.py",
                "src/repro/engine/policy.py",
                "src/repro/engine/faults.py",
            ],
            version_bumped=False,
        ) == []

    def test_r004_quiet_when_bumped_or_untouched(self):
        assert check_engine_version_bump(
            ["src/repro/engine/cells.py"], version_bumped=True
        ) == []
        assert check_engine_version_bump(
            ["src/repro/cli.py"], version_bumped=False
        ) == []

    def test_live_tree_is_clean(self):
        import os

        from repro.lint.repo import lint_tree

        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        assert lint_tree(root, "src") == []


class TestCorpusGates:
    def test_registered_corpus_has_no_errors(self):
        findings = lint_tests(list(all_tests()), signature_edges=4)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert errors == []

    def test_zoo_preflight_is_clean(self):
        models = [REGISTRY.get(name) for name in REGISTRY.names()]
        assert preflight_models(models) == []

    def test_generated_suite_preflight_is_clean(self):
        from repro.litmus.frontend.gen import generate_suite

        assert preflight_tests(generate_suite(max_edges=4)) == []

    def test_preflight_is_error_filtered_lint_without_hashing(self, monkeypatch):
        from repro.lint import canon
        from repro.lint import litmus as litmus_lint
        from repro.litmus.frontend.suite import resolve_suite

        def tripping(name, locations, condition):
            return _parse(
                f"GAM {name}\n{{ {locations} }}\n P0       | P1          ;\n"
                f" St [a] 1 | r1 = Ld [b] ;\nexists ({condition})\n"
            )

        tests = (
            list(resolve_suite("all"))
            + list(resolve_suite("gen:edges=4"))
            + [
                tripping("vacuous", "a; b;", "1:r9=1"),
                tripping("bad-proc", "a; b;", "2:r1=1"),
                tripping("aliased", "a @ 0x100; b @ 0x100;", "1:r1=1"),
            ]
        )
        expected = [f for f in lint_tests(tests) if f.severity is Severity.ERROR]
        assert {"L004", "L006", "L007"} <= set(_codes(expected))

        def no_hash(test):
            raise AssertionError("pre-flight computed a canonical hash")

        monkeypatch.setattr(litmus_lint, "canonical_hash", no_hash)
        monkeypatch.setattr(canon, "canonical_hash", no_hash)
        assert preflight_tests(tests) == expected

    def test_preflight_reports_only_errors(self):
        vacuous = _parse(
            "GAM t\n{ a; }\n P0       ;\n St [a] 1 ;\nexists (0:r9=1)\n"
        )
        findings = preflight_tests([vacuous])
        assert _codes(findings) == ["L004"]
        assert all(f.severity is Severity.ERROR for f in findings)


class TestLintCli:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        """Undo the global registrations ``repro gen`` makes in-process."""
        from repro.litmus import registry

        before = set(registry.test_names())
        yield
        for name in set(registry.test_names()) - before:
            registry.unregister(name)

    def test_lint_corpus_and_zoo_exits_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "--suite", "paper", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["counts"]["error"] == 0

    def test_lint_strict_fails_on_warnings(self, capsys):
        # The corpus carries deliberate warnings (e.g. store-forwarding's
        # L001), so --strict over the paper suite must exit non-zero.
        assert main(["lint", "--suite", "paper", "--strict"]) == 1

    def test_lint_explicit_model(self, capsys):
        assert main(["lint", "--suite", "paper", "-m", "gam"]) == 0

    def test_lint_zoo_model_spec(self, capsys):
        assert (
            main(["lint", "--suite", "all", "--model", "zoo", "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 0

    def test_lint_rejects_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text(
            "GAM bad\n{ a; }\n P0       ;\n St [a] 1 ;\nexists (0:r9=1)\n"
        )
        assert main(["lint", "--suite", str(bad)]) == 1
        assert "L004" in capsys.readouterr().out

    def test_gen_dedupe_logs_drop_count(self, capsys):
        assert main(["gen", "--edges", "3", "--dedupe", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "dedupe: dropped 0 isomorphic duplicate(s)" in out

    def test_import_collision_diagnostic(self, capsys, tmp_path):
        from repro.litmus.frontend.printer import print_litmus

        text = print_litmus(get_test("dekker"))
        one = tmp_path / "one.litmus"
        two = tmp_path / "two.litmus"
        one.write_text(text)
        two.write_text(text)
        assert main(["import", str(one), str(two)]) == 2
        err = capsys.readouterr().err
        assert "L011" in err
        assert "collision" in err
        # The diagnostic points at both definition sites, with lines.
        assert f"{two}:1" in err and f"{one}:1" in err

    def test_import_directory_collision(self, capsys, tmp_path):
        from repro.litmus.frontend.printer import print_litmus

        (tmp_path / "a.litmus").write_text(print_litmus(get_test("dekker")))
        (tmp_path / "b.litmus").write_text(print_litmus(get_test("dekker")))
        assert main(["import", str(tmp_path)]) == 2
        assert "L011" in capsys.readouterr().err


class TestHuntPreflight:
    BAD = (
        "GAM bad\n{ a; b; }\n"
        " P0          | P1          ;\n"
        " St [a] 1    | r1 = Ld [b] ;\n"
        " St [b] 1    | r2 = Ld [a] ;\n"
        "exists (1:r1=1 /\\ 1:r9=1)\n"
    )

    def test_hunt_refuses_error_findings(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text(self.BAD)
        out = tmp_path / "camp"
        assert main(["hunt", "--out", str(out), "--suite", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "lint pre-flight" in err and "L004" in err
        assert "--no-lint" in err
        # Refusal happens before any campaign state is written.
        assert not (out / "campaign.json").exists()

    def test_hunt_no_lint_overrides(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text(self.BAD)
        out = tmp_path / "camp"
        assert (
            main(["hunt", "--out", str(out), "--suite", str(bad), "--no-lint"])
            == 0
        )
        assert (out / "campaign.json").exists()

    def test_run_hunt_raises_campaign_error(self, tmp_path):
        from repro.campaign import run_hunt
        from repro.campaign.state import CampaignError

        bad = tmp_path / "bad.litmus"
        bad.write_text(self.BAD)
        with pytest.raises(CampaignError, match="lint pre-flight"):
            run_hunt(out=str(tmp_path / "camp"), suite=str(bad))
