"""Docs-tree consistency: generated CLI reference, links, docstrings.

Keeps the ``docs/`` satellite honest: ``docs/cli.md`` must match what
``tools/gen_cli_docs.py`` renders from the live argparse tree, every
relative markdown link must resolve, and the public API of the engine,
litmus frontend and campaign packages must be fully docstring'd.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool(name: str):
    """Import a script from tools/ (not a package) as a module."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCliReference:
    def test_cli_md_is_in_sync(self):
        gen_cli_docs = _load_tool("gen_cli_docs")
        rendered = gen_cli_docs.render_cli_docs()
        committed = (ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        assert committed == rendered, (
            "docs/cli.md is stale; regenerate with "
            "`PYTHONPATH=src python tools/gen_cli_docs.py`"
        )

    def test_every_command_is_documented(self):
        from repro.cli import _COMMANDS

        text = (ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        for command in _COMMANDS:
            assert f"## `repro {command}`" in text

    def test_model_subcommands_are_documented(self):
        text = (ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        for section in ("model", "model show", "model import", "model export"):
            assert f"## `repro {section}`" in text


class TestModelReference:
    def test_models_md_is_in_sync(self):
        gen_model_docs = _load_tool("gen_model_docs")
        rendered = gen_model_docs.render_model_docs()
        committed = (ROOT / "docs" / "models.md").read_text(encoding="utf-8")
        assert committed == rendered, (
            "docs/models.md is stale; regenerate with "
            "`PYTHONPATH=src python tools/gen_model_docs.py`"
        )

    def test_clause_vocabulary_is_covered(self):
        from repro.core.ppo import (
            DYNAMIC_CLAUSES,
            PARAMETRIC_CLAUSES,
            STATIC_CLAUSES,
        )

        text = (ROOT / "docs" / "models.md").read_text(encoding="utf-8")
        for name in (*STATIC_CLAUSES, *DYNAMIC_CLAUSES, *PARAMETRIC_CLAUSES):
            assert f"`{name}" in text, f"clause {name} missing from models.md"

    def test_ctor_knobs_are_covered(self):
        from repro.core.construction import CTOR_KNOBS

        text = (ROOT / "docs" / "models.md").read_text(encoding="utf-8")
        for knob in CTOR_KNOBS:
            assert f"`{knob}`" in text, f"knob {knob} missing from models.md"


class TestLintReference:
    def test_lint_md_is_in_sync(self):
        gen_lint_docs = _load_tool("gen_lint_docs")
        rendered = gen_lint_docs.render_lint_docs()
        committed = (ROOT / "docs" / "lint.md").read_text(encoding="utf-8")
        assert committed == rendered, (
            "docs/lint.md is stale; regenerate with "
            "`PYTHONPATH=src python tools/gen_lint_docs.py`"
        )

    def test_every_code_is_documented(self):
        from repro.lint import CODES

        text = (ROOT / "docs" / "lint.md").read_text(encoding="utf-8")
        for code, info in CODES.items():
            assert f"### `{code}` — {info.title}" in text, (
                f"diagnostic {code} missing from lint.md"
            )


class TestObsReference:
    def test_observability_md_is_in_sync(self):
        gen_obs_docs = _load_tool("gen_obs_docs")
        rendered = gen_obs_docs.render_obs_docs()
        committed = (ROOT / "docs" / "observability.md").read_text(
            encoding="utf-8"
        )
        assert committed == rendered, (
            "docs/observability.md is stale; regenerate with "
            "`PYTHONPATH=src python tools/gen_obs_docs.py`"
        )

    def test_every_metric_is_documented(self):
        from repro.obs import METRICS

        text = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
        for name, spec in METRICS.items():
            shown = f"`{name}.<label>`" if spec.dynamic else f"`{name}`"
            assert shown in text, f"metric {name} missing from observability.md"


class TestRobustnessReference:
    def test_robustness_md_is_in_sync(self):
        gen = _load_tool("gen_robustness_docs")
        rendered = gen.render_robustness_docs()
        committed = (ROOT / "docs" / "robustness.md").read_text(
            encoding="utf-8"
        )
        assert committed == rendered, (
            "docs/robustness.md is stale; regenerate with "
            "`PYTHONPATH=src python tools/gen_robustness_docs.py`"
        )

    def test_vocabulary_is_covered(self):
        from repro.engine import FAILURE_REASONS, FAULT_KINDS, ON_ERROR_MODES

        text = (ROOT / "docs" / "robustness.md").read_text(encoding="utf-8")
        for name in (*ON_ERROR_MODES, *FAILURE_REASONS, *FAULT_KINDS):
            assert f"`{name}`" in text, f"{name} missing from robustness.md"


@pytest.mark.parametrize(
    "tool, page",
    [
        ("gen_cli_docs", "cli.md"),
        ("gen_model_docs", "models.md"),
        ("gen_lint_docs", "lint.md"),
        ("gen_obs_docs", "observability.md"),
        ("gen_robustness_docs", "robustness.md"),
    ],
)
def test_check_mode_detects_staleness(tool, page, tmp_path, monkeypatch, capsys):
    gen = _load_tool(tool)
    stale = tmp_path / page
    stale.write_text("out of date", encoding="utf-8")
    monkeypatch.setattr(gen, "OUTPUT", str(stale))
    assert gen.main(["--check"]) == 1
    assert "out of sync" in capsys.readouterr().err
    assert gen.main([]) == 0
    assert gen.main(["--check"]) == 0


class TestLintReproTool:
    def test_clean_paths_exit_zero(self, capsys):
        lint_repro = _load_tool("lint_repro")
        assert lint_repro.main(["src/repro/lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_violation_fails(self, capsys, tmp_path, monkeypatch):
        lint_repro = _load_tool("lint_repro")
        engine_dir = tmp_path / "src" / "repro" / "engine"
        engine_dir.mkdir(parents=True)
        (engine_dir / "bad.py").write_text(
            "import random\nrandom.shuffle(x)\n", encoding="utf-8"
        )
        monkeypatch.setattr(lint_repro, "_ROOT", str(tmp_path))
        assert lint_repro.main(["src"]) == 1
        assert "R001" in capsys.readouterr().out

    def test_diff_base_runs_r004(self, capsys):
        # Against HEAD the worktree either bumped ENGINE_VERSION or did
        # not touch engine paths; both are exit-0 outcomes and exercise
        # the full git glue.
        lint_repro = _load_tool("lint_repro")
        assert lint_repro.main(["--diff-base", "HEAD", "src/repro/lint"]) == 0


class TestDocsLinks:
    def test_no_broken_relative_links(self):
        check = _load_tool("check_docs_links")
        assert check.broken_links() == []

    def test_checker_catches_a_broken_link(self, tmp_path):
        check = _load_tool("check_docs_links")
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[ok](doc.md) [web](https://example.com) [bad](missing.md)",
            encoding="utf-8",
        )
        assert [target for _, target in check.broken_links([str(doc)])] == [
            "missing.md"
        ]

    def test_docs_tree_exists(self):
        names = (
            "architecture.md",
            "edges.md",
            "cli.md",
            "models.md",
            "lint.md",
            "observability.md",
            "robustness.md",
        )
        for name in names:
            assert (ROOT / "docs" / name).is_file()

    def test_models_md_is_link_checked(self):
        check = _load_tool("check_docs_links")
        covered = [pathlib.Path(p).name for p in check._documents()]
        assert "models.md" in covered


def _public_members(obj):
    """Public methods/properties defined directly on a class."""
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        fn = member
        if isinstance(member, (staticmethod, classmethod)):
            fn = member.__func__
        elif isinstance(member, property):
            fn = member.fget
        if callable(fn):
            yield name, fn


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.engine",
        "repro.engine.cells",
        "repro.engine.cache",
        "repro.engine.scheduler",
        "repro.engine.policy",
        "repro.engine.faults",
        "repro.litmus.frontend",
        "repro.litmus.frontend.gen",
        "repro.litmus.frontend.parser",
        "repro.litmus.frontend.printer",
        "repro.litmus.frontend.suite",
        "repro.campaign",
        "repro.eval.discrepancy",
        "repro.models",
        "repro.models.spec",
        "repro.models.registry",
        "repro.lint",
        "repro.lint.diagnostics",
        "repro.lint.canon",
        "repro.lint.litmus",
        "repro.lint.model",
        "repro.lint.repo",
        "repro.obs",
        "repro.obs.core",
        "repro.obs.registry",
        "repro.obs.report",
    ],
)
def test_public_api_is_docstringed(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"
    for name in module.__all__:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue  # constants are documented in the module docstring
        assert obj.__doc__, f"{module_name}.{name} has no docstring"
        if inspect.isclass(obj):
            for member_name, member in _public_members(obj):
                assert member.__doc__, (
                    f"{module_name}.{name}.{member_name} has no docstring"
                )
