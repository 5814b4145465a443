"""Tests for the ``.litmus`` frontend: printer, parser, suites, catalogue."""

import pytest

from repro.isa.expr import BinOp, Const, Reg, UnOp
from repro.isa.instructions import Fence, Load, Nop, Store
from repro.isa.program import Program
from repro.litmus import registry
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.frontend.parser import (
    LitmusParseError,
    parse_litmus,
    parse_litmus_file,
)
from repro.litmus.frontend.printer import (
    LitmusPrintError,
    format_expr,
    print_litmus,
)
from repro.litmus.frontend.suite import (
    litmus_files,
    load_litmus_path,
    parse_gen_spec,
    resolve_suite,
)
from repro.litmus.registry import all_tests, get_test


ALL_TEST_NAMES = sorted(registry.test_names())


class TestRoundTrip:
    """Every registered test must round-trip byte-stably."""

    @pytest.mark.parametrize("name", ALL_TEST_NAMES)
    def test_parse_print_equals_original(self, name):
        test = get_test(name)
        assert parse_litmus(print_litmus(test)) == test

    @pytest.mark.parametrize("name", ALL_TEST_NAMES)
    def test_print_is_byte_stable(self, name):
        test = get_test(name)
        text = print_litmus(test)
        assert print_litmus(parse_litmus(text)) == text

    def test_golden_dekker(self):
        """The printed form is a stable interchange format, not an accident."""
        assert print_litmus(get_test("dekker")) == (
            "GAM dekker\n"
            '"Store buffering; SC forbids r1=r2=0."\n'
            "(* source: Figure 2 *)\n"
            "(* expect: alpha_like=allow arm=allow gam=allow gam0=allow "
            "sc=forbid tso=allow wmm=allow *)\n"
            "{ a; b; }\n"
            " P0          | P1          ;\n"
            " St [a] 1    | St [b] 1    ;\n"
            " r1 = Ld [b] | r2 = Ld [a] ;\n"
            "exists (0:r1=0 /\\ 1:r2=0)\n"
        )

    def test_round_trip_file(self, tmp_path):
        test = get_test("mp+fences")
        path = tmp_path / "mp+fences.litmus"
        path.write_text(print_litmus(test))
        assert parse_litmus_file(path) == test

    def test_initial_memory_address_value(self):
        """Figure 9's ``a = &b`` init survives the round trip."""
        test = get_test("load-speculation")
        text = print_litmus(test)
        assert "a = &b;" in text
        assert parse_litmus(text) == test

    def test_labels_round_trip(self):
        test = get_test("mp+ctrl")
        text = print_litmus(test)
        assert "end:" in text
        assert parse_litmus(text).programs[1].labels == {"end": 3}

    def test_observed_clause_round_trip(self):
        builder = LitmusBuilder("obs", locations=("a",))
        builder.proc().ld("r1", "a").ld("r2", "a")
        test = builder.build(asked={"P0.r1": 0}, observed=[(0, "r2")])
        text = print_litmus(test)
        assert "observed [0:r2]" in text
        back = parse_litmus(text)
        assert back == test
        assert back.observed == frozenset({(0, "r2")})


class TestExprFormatting:
    def test_minimal_parens_preserve_shape(self):
        exprs = [
            BinOp("+", BinOp("+", Reg("r1"), Const(1)), Reg("r2")),
            BinOp("+", Reg("r1"), BinOp("+", Const(1), Reg("r2"))),
            BinOp("*", BinOp("+", Reg("r1"), Const(1)), Reg("r2")),
            BinOp("-", BinOp("+", Const(0x100), Reg("r1")), Reg("r1")),
            UnOp("-", BinOp("+", Reg("r1"), Const(2))),
            BinOp("==", Reg("r1"), Const(0)),
            UnOp("!", Reg("r1")),
        ]
        for expr in exprs:
            text = format_expr(expr, {})
            builder = LitmusBuilder("t", locations=("a",))
            builder.proc().op("rt", expr).st("a", 1)
            parsed = parse_litmus(print_litmus(builder.build()))
            assert parsed.programs[0][0].expr == expr, text

    def test_right_nested_addition_keeps_parens(self):
        expr = BinOp("+", Reg("r1"), BinOp("+", Const(1), Reg("r2")))
        assert format_expr(expr, {}) == "r1 + (1 + r2)"

    def test_location_constants_print_as_names(self):
        assert format_expr(Const(0x100), {0x100: "a"}) == "a"

    def test_negative_constant_rejected(self):
        with pytest.raises(LitmusPrintError, match="negative"):
            format_expr(Const(-1), {})

    def test_bitwise_or_rejected(self):
        """'|' is the column separator, so the dialect cannot spell it."""
        with pytest.raises(LitmusPrintError, match="no .litmus spelling"):
            format_expr(BinOp("|", Reg("r1"), Reg("r2")), {})

    def test_precedence_tables_are_shared(self):
        from repro.litmus.frontend import parser, printer

        assert printer.PRECEDENCE is parser.BIN_PRECEDENCE


class TestParserErrors:
    def _parse(self, text):
        return parse_litmus(text)

    def test_empty_input(self):
        with pytest.raises(LitmusParseError, match="empty litmus input"):
            self._parse("")

    def test_bad_header(self):
        with pytest.raises(LitmusParseError, match=r"line 1: header"):
            self._parse("justoneword\n{ a; }\n P0 ;\n Nop ;\n")

    def test_missing_init(self):
        with pytest.raises(LitmusParseError, match=r"line 2: expected init"):
            self._parse("GAM t\n P0 ;\n")

    def test_duplicate_location(self):
        with pytest.raises(LitmusParseError, match="duplicate location 'a'"):
            self._parse("GAM t\n{ a; a; }\n P0 ;\n Nop ;\n")

    def test_bad_initial_value(self):
        with pytest.raises(LitmusParseError, match="bad initial value"):
            self._parse("GAM t\n{ a = wat; }\n P0 ;\n Nop ;\n")

    def test_init_references_unknown_location(self):
        with pytest.raises(LitmusParseError, match="unknown location 'b'"):
            self._parse("GAM t\n{ a = &b; }\n P0 ;\n Nop ;\n")

    def test_unknown_instruction(self):
        with pytest.raises(LitmusParseError, match=r"line 4"):
            self._parse("GAM t\n{ a; }\n P0 ;\n Frob [a] 1 ;\n")

    def test_unknown_fence(self):
        with pytest.raises(LitmusParseError, match="unknown fence 'FenceXY'"):
            self._parse("GAM t\n{ a; }\n P0 ;\n FenceXY ;\n")

    def test_trailing_tokens(self):
        with pytest.raises(LitmusParseError, match="trailing input"):
            self._parse("GAM t\n{ a; }\n P0 ;\n St [a] 1 2 ;\n")

    def test_undefined_branch_target(self):
        with pytest.raises(LitmusParseError, match="undefined branch target"):
            self._parse("GAM t\n{ a; }\n P0 ;\n if (r1) goto nowhere ;\n")

    def test_backward_branch(self):
        text = (
            "GAM t\n{ a; }\n P0 ;\n back: ;\n Nop ;\n if (r1) goto back ;\n"
        )
        with pytest.raises(LitmusParseError, match="loop-free"):
            self._parse(text)

    def test_too_many_columns(self):
        with pytest.raises(LitmusParseError, match="columns"):
            self._parse("GAM t\n{ a; }\n P0 ;\n Nop | Nop ;\n")

    def test_too_few_columns(self):
        """A missing '|' must fail loudly, not misattribute instructions."""
        text = (
            "GAM t\n{ a; b; }\n"
            " P0       | P1 ;\n"
            " St [a] 1 | Nop ;\n"
            " r1 = Ld [b] ;\n"
        )
        with pytest.raises(LitmusParseError, match="1 columns, expected 2"):
            self._parse(text)

    def test_duplicate_observed_clause(self):
        with pytest.raises(LitmusParseError, match="duplicate observed"):
            self._parse(
                "GAM t\n{ a; }\n P0 ;\n r1 = Ld [a] ;\n"
                "observed [0:r1]\nobserved [0:r9]\n"
            )

    def test_condition_unknown_name(self):
        with pytest.raises(LitmusParseError, match="unknown location or register"):
            self._parse("GAM t\n{ a; }\n P0 ;\n Nop ;\nexists (zz=1)\n")

    def test_condition_bad_value(self):
        with pytest.raises(LitmusParseError, match="bad condition value"):
            self._parse("GAM t\n{ a; }\n P0 ;\n Nop ;\nexists (a=x)\n")

    def test_duplicate_final_condition(self):
        with pytest.raises(LitmusParseError, match="duplicate final condition"):
            self._parse(
                "GAM t\n{ a; }\n P0 ;\n Nop ;\nexists (a=1)\nexists (a=0)\n"
            )

    def test_error_carries_line_number(self):
        try:
            self._parse("GAM t\n{ a; }\n P0 ;\n Wat ;\n")
        except LitmusParseError as exc:
            assert exc.line == 4
            assert "line 4" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected LitmusParseError")


class TestParserSlack:
    """Accepted synonym spellings beyond what the printer emits."""

    def test_forbidden_and_tilde_exists(self):
        base = "GAM t\n{ a; }\n P0 ;\n r1 = Ld [a] ;\n"
        for keyword in ("exists", "~exists", "forbidden"):
            test = parse_litmus(base + f"{keyword} (0:r1=0)\n")
            assert test.asked is not None
            assert test.asked.regs == frozenset({(0, "r1", 0)})

    def test_proc_dot_register_spelling(self):
        test = parse_litmus(
            "GAM t\n{ a; }\n P0 ;\n r1 = Ld [a] ;\nexists (P0.r1=0)\n"
        )
        assert test.asked.regs == frozenset({(0, "r1", 0)})

    def test_explicit_address_declaration(self):
        test = parse_litmus("GAM t\n{ a @ 0x400; }\n P0 ;\n St [a] 1 ;\n")
        assert test.locations == {"a": 0x400}

    def test_no_condition_means_exploratory(self):
        test = parse_litmus("GAM t\n{ a; }\n P0 ;\n St [a] 1 ;\n")
        assert test.asked is None

    def test_hex_values(self):
        test = parse_litmus(
            "GAM t\n{ a = 0x10; }\n P0 ;\n St [a] 0xff ;\n"
        )
        assert test.initial_memory == {0x100: 16}
        assert test.programs[0][0].data == Const(255)


class TestProgramEquality:
    def test_structural_equality(self):
        p1 = Program([Store(Const(1), Const(2)), Nop()], {"end": 2})
        p2 = Program([Store(Const(1), Const(2)), Nop()], {"end": 2})
        p3 = Program([Store(Const(1), Const(2)), Nop()], {"end": 1})
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert p1 != p3
        assert p1 != [Store(Const(1), Const(2)), Nop()]

    def test_instruction_difference(self):
        assert Program([Load("r1", Const(1))]) != Program([Load("r2", Const(1))])


class TestRegistryCollisions:
    def test_merged_static_suites_are_disjoint(self):
        from repro.litmus.paper_tests import PAPER_TESTS
        from repro.litmus.standard_tests import STANDARD_TESTS

        assert not set(PAPER_TESTS) & set(STANDARD_TESTS)

    def test_merge_raises_on_duplicate(self):
        with pytest.raises(ValueError, match="duplicate litmus test name"):
            registry._merged({"x": lambda: None}, {"x": lambda: None})


class TestCatalogueLookups:
    def test_names_list_paper_figures_first(self):
        from repro.litmus.paper_tests import PAPER_TESTS
        from repro.litmus.standard_tests import STANDARD_TESTS

        assert registry.test_names() == tuple(PAPER_TESTS) + tuple(STANDARD_TESTS)
        assert [t.name for t in registry.paper_suite()] == list(PAPER_TESTS)
        assert [t.name for t in registry.standard_suite()] == list(STANDARD_TESTS)

    def test_unknown_test_lists_the_catalogue(self):
        with pytest.raises(KeyError) as excinfo:
            get_test("nope")
        assert excinfo.value.args[0] == (
            "unknown litmus test 'nope'; available: "
            + ", ".join(registry.test_names())
        )


class TestLoadLitmusPath:
    def test_load_path_file_and_dir(self, tmp_path):
        for name in ("mp", "lb"):
            (tmp_path / f"{name}.litmus").write_text(
                print_litmus(get_test(name))
            )
        (tmp_path / "notes.txt").write_text("not a test")
        tests = load_litmus_path(str(tmp_path))
        assert [test.name for test in tests] == ["lb", "mp"]  # by file name
        assert tests[1] == get_test("mp")
        assert load_litmus_path(str(tmp_path / "mp.litmus")) == [get_test("mp")]

    def test_litmus_files_expands_directories_only(self, tmp_path):
        for entry in ("b.litmus", "a.litmus", "c.txt"):
            (tmp_path / entry).write_text("")
        assert litmus_files(str(tmp_path)) == [
            str(tmp_path / "a.litmus"),
            str(tmp_path / "b.litmus"),
        ]
        # A file passes through unchecked: parsing reports its errors.
        assert litmus_files(str(tmp_path / "c.txt")) == [str(tmp_path / "c.txt")]

    def test_load_path_empty_dir(self, tmp_path):
        with pytest.raises(LitmusParseError, match="no .litmus files"):
            load_litmus_path(str(tmp_path))

    def test_import_empty_dir_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "one.litmus").write_text(print_litmus(get_test("mp")))
        empty = tmp_path / "empty"
        empty.mkdir()
        # Every argument expands before anything is imported.
        assert main(["import", str(tmp_path / "one.litmus"), str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no .litmus files in directory {str(empty)!r}\n"
        )


class TestResolveSuite:
    def test_static_names(self):
        assert len(resolve_suite("all")) == len(list(all_tests()))
        paper = resolve_suite("paper")
        standard = resolve_suite("standard")
        assert len(paper) + len(standard) == len(resolve_suite("all"))

    def test_gen_spec(self):
        assert parse_gen_spec("gen:edges=4,size=10,seed=3") == {
            "max_edges": 4,
            "size": 10,
            "seed": 3,
        }
        assert parse_gen_spec("gen") == {}
        assert parse_gen_spec("gen:edges = 4") == {"max_edges": 4}
        assert parse_gen_spec("gen:,edges=4, ,") == {"max_edges": 4}
        suite = resolve_suite("gen:edges=4,size=5")
        assert len(suite) == 5

    def test_gen_spec_errors(self):
        with pytest.raises(ValueError, match="bad generator spec"):
            parse_gen_spec("gen:bogus=1")
        with pytest.raises(ValueError, match="must be an integer"):
            parse_gen_spec("gen:edges=four")
        with pytest.raises(ValueError, match="repeated key 'edges'"):
            resolve_suite("gen:edges=4,edges=5")
        with pytest.raises(ValueError, match="bad generator spec"):
            parse_gen_spec("gen:edges=")
        with pytest.raises(ValueError, match="bad generator spec"):
            parse_gen_spec("gen:=4")

    def test_path_spec(self, tmp_path):
        path = tmp_path / "dekker.litmus"
        path.write_text(print_litmus(get_test("dekker")))
        assert resolve_suite(str(path)) == [get_test("dekker")]

    def test_unknown_spec(self):
        with pytest.raises(KeyError, match="unknown suite"):
            resolve_suite("no-such-suite")


class TestResolveSuiteErrorPaths:
    """Every way a --suite spec can be wrong fails loudly and precisely."""

    def test_bad_gen_key_through_resolve(self):
        with pytest.raises(ValueError, match="bad generator spec"):
            resolve_suite("gen:bogus=1")
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_suite("gen:edges=x")

    def test_gen_budget_below_minimum(self):
        with pytest.raises(ValueError, match="at least 3 edges"):
            resolve_suite("gen:edges=2")

    def test_missing_litmus_path_is_unknown_suite(self):
        # A path that does not exist falls through to the unknown-suite
        # error, which names every accepted spec form.
        with pytest.raises(KeyError, match=r"\.litmus file/directory"):
            resolve_suite("does/not/exist.litmus")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(LitmusParseError, match="no .litmus files"):
            resolve_suite(str(tmp_path))

    def test_directory_with_unparsable_file(self, tmp_path):
        (tmp_path / "bad.litmus").write_text("GAM broken\nnot litmus at all\n")
        with pytest.raises(LitmusParseError):
            resolve_suite(str(tmp_path))

    def test_cli_reports_bad_suite_as_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["matrix", "--suite", "gen:bogus=1"]) == 2
        assert "bad generator spec" in capsys.readouterr().err
        assert main(["list", "tests", "--suite", "nope.litmus"]) == 2
        assert "unknown suite" in capsys.readouterr().err
        assert main(["strength", "--suite", str(tmp_path)]) == 2
        assert "no .litmus files" in capsys.readouterr().err
