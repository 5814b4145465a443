"""The declarative model-spec API: .model format, zoo table, resolution.

Covers the PR-5 redesign end to end:

* parse∘print byte-stability across the full zoo, and parser error paths
  carrying line numbers;
* the read-only zoo table (aliases, the sorted unknown-name listing);
* ``resolve_model``/``resolve_models`` over every spec form (names,
  files, directories, ``ctor:``, ``space:``);
* engine-cache behaviour: an edited ``.model`` file changes the cache
  key, a renamed-but-identical one still hits;
* ``hunt --pair space:...`` — differential hunts over an enumerated
  family, with content digests refusing stale resumes.
"""

import pytest

from repro.core.axiomatic import MemoryModel
from repro.core.construction import CTOR_KNOBS, assemble
from repro.core.ppo import DynamicClause, build_clause, clause_spec
from repro.engine import (
    ResultCache,
    VerdictSpec,
    cell_cache_key,
    evaluate_cells,
)
from repro.engine.cells import model_descriptor
from repro.litmus.registry import get_test
from repro.models import (
    ModelSpecError,
    canonical_name,
    canonical_names,
    get_model,
    load_model_path,
    model_names,
    parse_model,
    parse_model_file,
    print_model,
    resolve_model,
    resolve_models,
    split_pair_spec,
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(model_names()))
    def test_zoo_round_trips_byte_stably(self, name):
        model = get_model(name)
        text = print_model(model)
        assert print_model(parse_model(text)) == text

    @pytest.mark.parametrize("name", list(model_names()))
    def test_round_trip_preserves_content(self, name):
        model = get_model(name)
        reparsed = parse_model(print_model(model))
        assert reparsed.name == model.name
        assert reparsed.clause_names() == model.clause_names()
        assert reparsed.load_value == model.load_value
        assert reparsed.requires_coherence == model.requires_coherence
        assert reparsed.description == model.description
        assert model_descriptor(reparsed) == model_descriptor(model)

    def test_to_spec_from_spec_on_memory_model(self):
        gam = get_model("gam")
        text = gam.to_spec()
        assert text.startswith("model gam\n")
        assert MemoryModel.from_spec(text).to_spec() == text

    def test_description_escaping_round_trips(self):
        model = assemble("esc", description='say "hi" \\ bye')
        reparsed = parse_model(print_model(model))
        assert reparsed.description == 'say "hi" \\ bye'
        assert print_model(reparsed) == print_model(model)

    def test_hash_in_description_round_trips(self):
        model = assemble("hashy", description="issue #5 regression")
        text = print_model(model)
        reparsed = parse_model(text)
        assert reparsed.description == "issue #5 regression"
        assert print_model(reparsed) == text

    def test_unprintable_models_are_rejected(self):
        with pytest.raises(ModelSpecError, match="multi-line description"):
            print_model(assemble("m", description="two\nlines"))
        with pytest.raises(ModelSpecError, match="whitespace-free"):
            print_model(assemble("two words"))

    def test_comments_and_blank_lines_are_ignored(self):
        text = print_model(get_model("tso"))
        noisy = "# leading comment\n\n" + text.replace(
            "loadvalue gam", "loadvalue gam  # forwarding"
        )
        assert print_model(parse_model(noisy)) == text


class TestParserErrors:
    def _error(self, text):
        with pytest.raises(ModelSpecError) as excinfo:
            parse_model(text)
        return str(excinfo.value)

    def test_missing_model_header(self):
        message = self._error("loadvalue gam\n")
        assert "line 1" in message and "model <name>" in message

    def test_unknown_directive_with_line(self):
        message = self._error("model m\nppo SAMemSt\nfrobnicate x\n")
        assert "line 3" in message and "frobnicate" in message

    def test_unknown_clause_lists_vocabulary(self):
        message = self._error("model m\nppo NotAClause\n")
        assert "line 2" in message and "SAMemSt" in message

    def test_bad_pairwise_args(self):
        message = self._error("model m\nppo PairwiseOrder(L)\n")
        assert "line 2" in message and "two access kinds" in message

    def test_dynamic_clause_on_ppo_line(self):
        message = self._error("model m\nppo SALdLdARM\n")
        assert "line 2" in message and "dynamic" in message

    def test_static_clause_on_dynamic_line(self):
        message = self._error("model m\ndynamic SAMemSt\n")
        assert "line 2" in message and "ppo" in message

    def test_duplicate_scalar_directive(self):
        message = self._error("model m\nloadvalue gam\nloadvalue sc\n")
        assert "line 3" in message and "duplicate" in message

    def test_duplicate_clause(self):
        message = self._error("model m\nppo SAMemSt\nppo SAMemSt\n")
        assert "line 3" in message and "duplicate" in message

    def test_bad_loadvalue(self):
        message = self._error("model m\nloadvalue tso\n")
        assert "line 2" in message and "gam, sc" in message

    def test_model_invariant_reported_on_model_line(self):
        # A model without SAMemSt/OrderSS violates the engine invariant.
        message = self._error("model weird\nppo FenceOrd\n")
        assert "line 1" in message and "same-address stores" in message

    def test_coherence_without_samemst_refused(self):
        # Stores ordered by PairwiseOrder(S,S) alone leave coRW patterns
        # open, which the engine's same-source check does not cover.
        message = self._error(
            "model plsc-orderss\n"
            "loadvalue gam\n"
            "coherence required\n"
            "ppo PairwiseOrder(S,S)\n"
            "ppo SARmwLd\n"
            "ppo FenceOrd\n"
        )
        assert "line 1" in message and "SAMemSt" in message

    def test_coherence_under_load_value_sc_refused(self):
        message = self._error(
            "model plsc-sclv\nloadvalue sc\ncoherence required\nppo SAMemSt\n"
        )
        assert "line 1" in message and "LoadValueGAM" in message

    def test_constructor_refuses_what_the_engine_cannot_check(self):
        plsc = MemoryModel.from_spec("model p\ncoherence required\nppo SAMemSt\n")
        assert plsc.requires_coherence
        with pytest.raises(ValueError, match="SAMemSt and LoadValueGAM"):
            MemoryModel(
                name="plsc-sclv",
                clauses=plsc.clauses,
                load_value="sc",
                requires_coherence=True,
            )
        with pytest.raises(ValueError, match="SAMemSt and LoadValueGAM"):
            MemoryModel(
                name="plsc-orderss",
                clauses=(build_clause("PairwiseOrder", ("S", "S")),),
                requires_coherence=True,
            )

        class OtherDynamic(DynamicClause):
            name = "OtherDynamic"

        with pytest.raises(ValueError, match="only execution-dependent"):
            MemoryModel(
                name="m", clauses=plsc.clauses, dynamic_clauses=(OtherDynamic(),)
            )

    def test_empty_input(self):
        assert "empty model definition" in self._error("# nothing here\n")

    def test_file_errors_carry_the_path(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("model m\nppo Nope\n", encoding="utf-8")
        with pytest.raises(ModelSpecError) as excinfo:
            parse_model_file(bad)
        assert str(bad) in str(excinfo.value)
        assert "line 2" in str(excinfo.value)


class TestClauseCatalog:
    def test_build_clause_round_trips_spec(self):
        for spec in ("SAMemSt", "FenceOrd", "SALdLdARM"):
            assert clause_spec(build_clause(spec)) == spec
        pairwise = build_clause("PairwiseOrder", ("S", "L"))
        assert clause_spec(pairwise) == "PairwiseOrder(S,L)"
        assert pairwise.name == "OrderSL"

    def test_build_clause_rejects_args_on_plain_clauses(self):
        with pytest.raises(ValueError, match="takes no arguments"):
            build_clause("SAMemSt", ("L",))


class TestZooTable:
    """The read-only zoo: names, the ``rmo`` alias and the error listing."""

    @pytest.mark.parametrize("name", list(model_names()))
    def test_every_name_builds_its_canonical_model(self, name):
        # A row's key is the name its model carries (cache keys, ``list
        # models`` and lint's twin check all read ``model.name``).
        assert get_model(name).name == canonical_name(name)

    def test_alias_builds_the_same_model_as_its_target(self):
        assert canonical_name("rmo") == "gam0"
        assert model_descriptor(get_model("rmo")) == model_descriptor(
            get_model("gam0")
        )
        assert canonical_name("gam") == "gam"
        # Unknown names pass through for the caller's own lookup.
        assert canonical_name("nope") == "nope"

    def test_names_list_each_alias_after_its_target(self):
        assert model_names() == (
            "sc", "sc-gamlv", "tso", "gam", "gam0", "rmo",
            "arm", "wmm", "alpha_like", "plsc",
        )
        assert canonical_names() == tuple(
            name for name in model_names() if name != "rmo"
        )

    def test_unknown_model_lists_sorted_names_with_aliases(self):
        with pytest.raises(KeyError) as excinfo:
            get_model("nope")
        assert excinfo.value.args[0] == (
            "unknown model 'nope'; available: alpha_like, arm, gam, gam0, "
            "plsc, rmo (= gam0), sc, sc-gamlv, tso, wmm"
        )

    def test_matrix_zoo_strongest_first(self):
        from repro.eval.litmus_matrix import litmus_matrix

        cells = litmus_matrix(tests=[get_test("dekker")])
        assert [cell.model_name for cell in cells] == [
            "sc", "tso", "gam", "gam0", "arm", "wmm", "alpha_like", "plsc",
        ]

    def test_catalogues_expose_no_mutator(self):
        from repro.litmus import registry as litmus_registry
        from repro.models import registry as model_registry

        for module in (model_registry, litmus_registry):
            for name in ("register", "unregister", "alias"):
                assert not hasattr(module, name), (module.__name__, name)
        # Lookups hand out tuples, so a caller cannot edit a table
        # through them.
        assert isinstance(model_names(), tuple)
        assert isinstance(canonical_names(), tuple)
        assert isinstance(litmus_registry.test_names(), tuple)


class TestResolve:
    def test_registry_names_and_aliases(self):
        assert resolve_model("gam").name == "gam"
        assert resolve_model("rmo").name == "gam0"

    def test_built_model_passes_through(self):
        gam = get_model("gam")
        assert resolve_models(gam) == [gam]

    def test_file_and_directory(self, tmp_path):
        (tmp_path / "a.model").write_text(
            print_model(get_model("gam")), encoding="utf-8"
        )
        (tmp_path / "b.model").write_text(
            print_model(get_model("tso")), encoding="utf-8"
        )
        assert resolve_model(str(tmp_path / "a.model")).name == "gam"
        family = resolve_models(str(tmp_path))
        assert [model.name for model in family] == ["gam", "tso"]
        with pytest.raises(ModelSpecError, match="family of 2"):
            resolve_model(str(tmp_path))

    def test_directory_duplicate_names_raise(self, tmp_path):
        (tmp_path / "a.model").write_text(
            print_model(get_model("gam")), encoding="utf-8"
        )
        (tmp_path / "b.model").write_text(
            print_model(get_model("gam")), encoding="utf-8"
        )
        with pytest.raises(ModelSpecError, match="duplicate model name"):
            load_model_path(str(tmp_path))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ModelSpecError, match="no .model files"):
            resolve_models(str(tmp_path))

    def test_ctor_defaults_equal_gam0(self):
        model = resolve_model("ctor:")
        assert model.name == "ctor()"
        assert model.clause_names() == get_model("gam0").clause_names()
        assert model_descriptor(model) == model_descriptor(get_model("gam0"))

    def test_bare_ctor_and_space_are_unknown_names(self):
        # a truncated "ctor:..." spec must error, not silently resolve to
        # the all-defaults construction
        for bare in ("ctor", "space"):
            with pytest.raises(KeyError, match="unknown model"):
                resolve_model(bare)

    def test_ctor_knobs_and_name_override(self):
        model = resolve_model("ctor:same_address_loads=saldld,name=mygam")
        assert model.name == "mygam"
        assert model.clause_names() == get_model("gam").clause_names()

    def test_ctor_bad_knob_and_value(self):
        with pytest.raises(ModelSpecError, match="unknown construction knob"):
            resolve_model("ctor:frobnicate=1")
        with pytest.raises(ModelSpecError, match="bad value"):
            resolve_model("ctor:same_address_loads=maybe")

    def test_space_enumerates_declared_order(self):
        family = resolve_models("space:same_address_loads=*")
        assert [model.name for model in family] == [
            "ctor(same_address_loads=none)",
            "ctor(same_address_loads=saldld)",
            "ctor(same_address_loads=arm)",
        ]

    def test_space_pins_and_stars_combine(self):
        family = resolve_models(
            "space:dependency_ordering=0,same_address_loads=*"
        )
        assert len(family) == len(CTOR_KNOBS["same_address_loads"])
        assert all("dependency_ordering=0" in model.name for model in family)

    def test_space_without_star_raises(self):
        with pytest.raises(ModelSpecError, match="enumerates nothing"):
            resolve_models("space:same_address_loads=arm")

    def test_space_is_single_model_error_for_resolve_model(self):
        with pytest.raises(ModelSpecError, match="family of 3"):
            resolve_model("space:same_address_loads=*")

    def test_registry_name_wins_over_a_path(self, tmp_path, monkeypatch):
        # a stray directory called "gam" in the cwd must not shadow the zoo
        (tmp_path / "gam").mkdir()
        monkeypatch.chdir(tmp_path)
        assert resolve_model("gam").clause_names() == get_model(
            "gam"
        ).clause_names()

    def test_unknown_name_mentions_spec_forms(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_model("not-a-model")
        message = str(excinfo.value)
        assert "ctor:" in message and "space:" in message and ".model" in message


class TestPairSpecs:
    def test_plain_pair(self):
        assert split_pair_spec("wmm:arm") == ("wmm", "arm")

    def test_space_side_consumes_its_colon(self):
        assert split_pair_spec("space:same_address_loads=*:gam") == (
            "space:same_address_loads=*",
            "gam",
        )
        assert split_pair_spec("gam:space:same_address_loads=*") == (
            "gam",
            "space:same_address_loads=*",
        )

    def test_ctor_both_sides(self):
        assert split_pair_spec(
            "ctor:dependency_ordering=0:ctor:same_address_loads=arm"
        ) == ("ctor:dependency_ordering=0", "ctor:same_address_loads=arm")

    def test_bad_shapes(self):
        for bad in ("gam", "gam:", ":gam", "a:b:c", "gam:gam"):
            with pytest.raises(ValueError):
                split_pair_spec(bad)


class TestEngineCacheKeys:
    def _write(self, path, model):
        path.write_text(print_model(model), encoding="utf-8")

    def _cell(self, test, path):
        """A cell over the file's current content, resolved afresh."""
        return VerdictSpec(test, resolve_model(str(path)))

    def test_file_spec_key_matches_registry_content(self, tmp_path):
        test = get_test("dekker")
        path = tmp_path / "mine.model"
        self._write(path, get_model("gam"))
        assert cell_cache_key(self._cell(test, path)) == cell_cache_key(
            VerdictSpec(test, get_model("gam"))
        )

    def test_editing_file_content_changes_the_key(self, tmp_path):
        test = get_test("dekker")
        path = tmp_path / "mine.model"
        self._write(path, get_model("gam"))
        before = cell_cache_key(self._cell(test, path))
        # drop the SALdLd clause: same name, different content
        text = path.read_text(encoding="utf-8").replace("ppo SALdLd\n", "")
        path.write_text(text, encoding="utf-8")
        assert cell_cache_key(self._cell(test, path)) != before

    def test_renaming_the_model_keeps_the_key(self, tmp_path):
        test = get_test("dekker")
        path = tmp_path / "mine.model"
        self._write(path, get_model("gam"))
        before = cell_cache_key(self._cell(test, path))
        text = path.read_text(encoding="utf-8").replace(
            "model gam", "model renamed"
        )
        path.write_text(text, encoding="utf-8")
        assert cell_cache_key(self._cell(test, path)) == before

    def test_cache_hits_across_rename_and_misses_across_edit(self, tmp_path):
        test = get_test("dekker")
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "mine.model"
        self._write(path, get_model("gam"))
        (result,) = evaluate_cells(
            [self._cell(test, path)], cache_dir=str(tmp_path / "cache")
        )
        assert cache.load(self._cell(test, path)) == result
        # rename: identical content -> hit
        path.write_text(
            path.read_text(encoding="utf-8").replace("model gam", "model other"),
            encoding="utf-8",
        )
        assert cache.load(self._cell(test, path)) == result
        # edit: different content -> miss
        path.write_text(
            path.read_text(encoding="utf-8").replace("ppo SALdLd\n", ""),
            encoding="utf-8",
        )
        assert cache.load(self._cell(test, path)) is None

    def test_built_model_cells_evaluate_and_key_by_content(self):
        test = get_test("corr")
        member = resolve_model("ctor:same_address_loads=saldld")
        assert cell_cache_key(VerdictSpec(test, member)) == cell_cache_key(
            VerdictSpec(test, get_model("gam"))
        )
        (allowed,) = evaluate_cells([VerdictSpec(test, member)])
        assert allowed is False  # SALdLd restores per-location SC


class TestMatrixWithSpecs:
    def test_litmus_matrix_accepts_model_objects_and_paths(self, tmp_path):
        from repro.eval.litmus_matrix import litmus_matrix, render_matrix

        path = tmp_path / "mine.model"
        path.write_text(print_model(get_model("gam")), encoding="utf-8")
        test = get_test("corr")
        cells = litmus_matrix(
            tests=[test],
            model_names=["gam0", str(path), resolve_model("ctor:")],
        )
        by_model = {cell.model_name: cell.allowed for cell in cells}
        assert by_model["gam0"] is True
        assert by_model[str(path)] is False  # the file holds gam
        assert by_model["ctor()"] is True
        render_matrix(cells)  # non-zoo columns render fine

    def test_strength_matrix_accepts_model_objects(self):
        from repro.eval.strength import strength_matrix

        members = resolve_models("space:same_address_loads=*")
        matrix = strength_matrix(
            tests=[get_test("corr"), get_test("rsw")],
            model_names=[*members, "gam"],
        )
        assert matrix.is_stronger_or_equal("gam", "ctor(same_address_loads=none)")

    def test_strength_matrix_rejects_duplicate_display_names(self):
        from repro.eval.strength import strength_matrix

        with pytest.raises(ValueError, match="duplicate"):
            strength_matrix(tests=[get_test("corr")], model_names=["gam", "gam"])


class TestResolveOnce:
    """Entry points resolve each model spec once, not once per cell."""

    @pytest.fixture
    def resolves(self, monkeypatch):
        import collections

        import repro.models.spec as spec

        counts = collections.Counter()
        real = spec.resolve_models

        def counting(model_spec):
            counts[model_spec] += 1
            return real(model_spec)

        monkeypatch.setattr(spec, "resolve_models", counting)
        return counts

    def test_matrix_resolves_each_zoo_spec_once(self, resolves):
        from repro.eval.litmus_matrix import _MATRIX_MODELS, litmus_matrix
        from repro.litmus.frontend.suite import resolve_suite

        tests = resolve_suite("gen:edges=4")
        assert len(tests) > 8
        litmus_matrix(tests=tests, model_names=_MATRIX_MODELS)
        assert resolves == {name: 1 for name in _MATRIX_MODELS}

    def test_equiv_resolves_each_pair_once(self, resolves):
        from repro.equivalence.checker import check_suite
        from repro.litmus.registry import all_tests

        check_suite(list(all_tests()))
        assert resolves == {name: 1 for name in ("gam", "gam0", "sc", "tso")}

    def test_hunt_resolves_each_side_a_fixed_number_of_times(self, resolves, tmp_path):
        from repro.campaign import run_hunt

        run_hunt(str(tmp_path / "campaign"), suite="gen:edges=3")
        # One resolve per expansion of the pair specs (the run's lookup,
        # campaign.json and report.json), none per cell.
        assert set(resolves) == {"wmm", "arm"}
        assert max(resolves.values()) <= 3


@pytest.mark.slow
class TestParallelSpecCells:
    def test_file_specs_cross_the_pool(self, tmp_path):
        path = tmp_path / "mine.model"
        path.write_text(print_model(get_model("gam")), encoding="utf-8")
        tests = [get_test("dekker"), get_test("corr")]
        cells = [VerdictSpec(test, model) for test in tests for model in
                 (resolve_model(str(path)), resolve_model("ctor:"))]
        assert evaluate_cells(cells, jobs=2) == evaluate_cells(cells, jobs=1)


class TestHuntSpace:
    def test_space_pair_hunt_completes(self, tmp_path):
        from repro.campaign import run_hunt

        report = run_hunt(
            out=str(tmp_path / "hunt"),
            suite="gen:edges=3",
            pairs=[("space:same_address_loads=*", "gam")],
            num_shards=2,
        )
        pairs = {disc.pair for disc in report.discrepancies}
        # the none-member loses per-location SC and splits from gam
        assert ("ctor(same_address_loads=none)", "gam") in pairs
        assert report.witnesses  # minimized, re-verified .litmus files exist
        # identical re-run resumes to a byte-identical report
        again = run_hunt(out=str(tmp_path / "hunt"), resume=True)
        assert again.text == report.text

    def test_alias_pair_passes_lint_under_its_own_name(self, tmp_path):
        from repro.campaign import run_hunt

        # The lint pre-flight sees the lookup's models, each named as
        # its spec was written, so rmo and gam0 are two names, not a
        # duplicate (M006); the two are one model and never split.
        report = run_hunt(
            out=str(tmp_path / "hunt"), suite="gen:edges=3", pairs=[("rmo", "gam0")]
        )
        assert not report.discrepancies

    def test_member_content_change_refuses_resume(self, tmp_path):
        from repro.campaign import run_hunt
        from repro.campaign.state import CampaignError

        family = tmp_path / "family"
        family.mkdir()
        (family / "a.model").write_text(
            print_model(get_model("wmm")), encoding="utf-8"
        )
        run_hunt(
            out=str(tmp_path / "hunt"),
            suite="paper",
            pairs=[(str(family), "arm")],
            num_shards=1,
        )
        # editing a member's content changes the campaign digest
        text = (family / "a.model").read_text(encoding="utf-8")
        assert "ppo PairwiseOrder(L,S)\n" in text
        (family / "a.model").write_text(
            text.replace("ppo PairwiseOrder(L,S)\n", ""), encoding="utf-8"
        )
        with pytest.raises(CampaignError, match="different spec"):
            run_hunt(out=str(tmp_path / "hunt"), resume=True)

    def test_name_collision_across_specs_raises(self, tmp_path):
        from repro.campaign.state import CampaignError, expand_pair_specs

        family = tmp_path / "family"
        family.mkdir()
        renamed = print_model(get_model("wmm")).replace("model wmm", "model gam2")
        (family / "a.model").write_text(renamed, encoding="utf-8")
        other = tmp_path / "other"
        other.mkdir()
        renamed_tso = print_model(get_model("tso")).replace(
            "model tso", "model gam2"
        )
        (other / "b.model").write_text(renamed_tso, encoding="utf-8")
        with pytest.raises(CampaignError, match="collides"):
            expand_pair_specs([(str(family), "gam"), (str(other), "gam")])

    def test_registry_name_collides_with_earlier_file_member(self, tmp_path):
        # a file member named like a registry model must not be conflated
        # with a later registry-name pair side (order-independent guard)
        from repro.campaign.state import CampaignError, expand_pair_specs

        family = tmp_path / "family"
        family.mkdir()
        renamed = print_model(get_model("tso")).replace("model tso", "model gam")
        (family / "a.model").write_text(renamed, encoding="utf-8")
        with pytest.raises(CampaignError, match="collides"):
            expand_pair_specs([(str(family), "wmm"), ("gam", "arm")])
        with pytest.raises(CampaignError, match="collides"):
            expand_pair_specs([("gam", "arm"), (str(family), "wmm")])

    def test_operational_oracle_pairs_members_with_the_machine(self):
        from repro.campaign.state import ORACLE_OPERATIONAL, expand_pair_specs

        concrete, lookup = expand_pair_specs(
            [("space:same_address_loads=*", "gam"), ("sc", "sc")],
            ORACLE_OPERATIONAL,
        )
        assert all(machine == "operational:gam" for _, machine in concrete[:-1])
        assert len(concrete) > 2
        assert concrete[-1] == ("sc", "operational:sc")
        assert set(lookup) == {model for model, _ in concrete}

    def test_expansion_errors_name_the_oracle(self):
        from repro.campaign.state import (
            ORACLE_OPERATIONAL,
            CampaignError,
            expand_pair_specs,
        )

        with pytest.raises(CampaignError, match="unknown operational machine 'arm'"):
            expand_pair_specs([("gam", "arm")], ORACLE_OPERATIONAL)
        with pytest.raises(CampaignError, match="expand to no oracle pairs"):
            expand_pair_specs([], ORACLE_OPERATIONAL)
        with pytest.raises(CampaignError, match="expand to no two-sided pairs"):
            expand_pair_specs([("gam", "gam")])


class TestCliModelSpecs:
    def test_list_models_marks_aliases_once(self, capsys):
        from repro.cli import main

        assert main(["list", "models"]) == 0
        # The static table in order: the alias row points at its target
        # right after it, so gam0's description appears exactly once.
        assert capsys.readouterr().out == (
            "sc           Sequential consistency (Lamport); no reordering "
            "at all.\n"
            "sc-gamlv     SC with LoadValueGAM; provably equivalent to sc.\n"
            "tso          Total Store Order with store-buffer forwarding.\n"
            "gam          General Atomic Memory Model: all four reorderings, "
            "syntactic dependency ordering, per-location SC.\n"
            "gam0         GAM without same-address load-load ordering; a "
            "corrected RMO.\n"
            "rmo          -> gam0\n"
            "arm          GAM0 + SALdLdARM: same-address loads reading "
            "different stores stay ordered (ARMv8-style).\n"
            "wmm          WMM-like [43]: no dependency ordering, loads always "
            "ordered before younger stores (OOTA-free by construction).\n"
            "alpha_like   Alpha-like relaxation: no dependency, branch or "
            "same-address load ordering; demonstrates the OOTA problem.\n"
            "plsc         Per-location SC yardstick: coherence only, no "
            "cross-address ordering constraints.\n"
        )

    def test_model_show_and_family(self, capsys):
        from repro.cli import main

        assert main(["model", "show", "gam"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model gam\n")
        assert main(["model", "show", "space:same_address_loads=*"]) == 0
        out = capsys.readouterr().out
        assert "family of 3 models" in out

    def test_model_export_import_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "models"
        assert main(["model", "export", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        files = sorted(out_dir.glob("*.model"))
        assert len(files) == 9  # canonical zoo, aliases not duplicated
        assert main(["model", "import", str(out_dir)]) == 0
        assert "9 model(s) imported" in capsys.readouterr().out

    def test_model_import_duplicate_within_import_fails(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.model"
        path.write_text(print_model(get_model("gam")), encoding="utf-8")
        assert main(["model", "import", str(path), str(path)]) == 2
        assert "duplicate model name" in capsys.readouterr().err

    def test_check_with_model_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["check", "lb+addrpo-st", "-m", "examples/no_addrst.model"]
        ) == 0
        assert "ALLOWED" in capsys.readouterr().out

    def test_check_operational_accepts_alias(self, capsys, monkeypatch):
        import repro.engine
        from repro.cli import main

        seen = []
        evaluate = repro.engine.evaluate_cells

        def spy(cells, **kwargs):
            seen.extend(cells)
            return evaluate(cells, **kwargs)

        monkeypatch.setattr(repro.engine, "evaluate_cells", spy)
        assert main(["check", "corr", "-m", "rmo", "--operational"]) == 0
        assert [(cell.model, cell.oracle) for cell in seen] == [
            (None, "operational:gam0")
        ]
        assert capsys.readouterr().out == (
            "corr: P1.r1=1, P1.r2=0 is ALLOWED under rmo (abstract machine)\n"
        )

    def test_diff_with_ctor_spec(self, capsys):
        from repro.cli import main

        assert main(["diff", "corr", "ctor:", "gam"]) == 0
        assert "only ctor()" in capsys.readouterr().out

    def test_bad_model_spec_reports_cleanly(self, capsys):
        from repro.cli import main

        assert main(["check", "dekker", "-m", "ctor:bogus=1"]) == 2
        assert "unknown construction knob" in capsys.readouterr().err

    def test_unknown_model_lists_aliases(self, capsys):
        from repro.cli import main

        assert main(["check", "dekker", "-m", "nope"]) == 2
        # The zoo sorted by name, each alias annotated with its target.
        assert capsys.readouterr().err == (
            "error: unknown model 'nope'; available: alpha_like, arm, gam, "
            "gam0, plsc, rmo (= gam0), sc, sc-gamlv, tso, wmm; a model spec "
            "may also be a .model file or directory path, ctor:knob=value,... "
            "or space:knob=*,...\n"
        )
