"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list {tests|models|workloads} [--suite SUITE]`` — catalogue contents;
* ``show TEST [--format {pretty,litmus}]`` — print a litmus test;
* ``check TEST [-m MODEL] [--operational] [--jobs N] [--cache DIR]`` —
  allowed or forbidden?
* ``outcomes TEST [-m MODEL] [--full]`` — enumerate the outcome set;
* ``witness TEST [-m MODEL]`` — a concrete ``<mo, rf>`` for the outcome;
* ``diff TEST WEAKER STRONGER`` — outcome-set difference of two models;
* ``matrix [--suite SUITE] [--jobs N] [--cache DIR]`` — the verdict matrix;
* ``equiv [TEST ...] [--suite SUITE] [--jobs N] [--cache DIR]`` —
  axiomatic-vs-operational agreement;
* ``hunt --out DIR [--suite SUITE] [--pair A:B ...] [--shards N]
  [--oracle {axiomatic,operational}]`` — a sharded, resumable
  differential hunt campaign with minimized ``.litmus`` witnesses:
  model-pair verdict splits by default, axiomatic-vs-abstract-machine
  outcome-set divergences under ``--oracle operational``
  (see :mod:`repro.campaign`);
* ``synth TEST [-m MODEL]`` — minimal fences restoring SC;
* ``strength [--suite SUITE] [--jobs N] [--cache DIR]`` — the measured
  model-strength lattice;
* ``gen [--edges N] [--size M] [--seed S] [--dedupe] [-o DIR]`` —
  cycle-based litmus test generation (diy-style);
* ``lint [--suite SUITE] [-m MODEL ...] [--format {text,json}]
  [--strict] [--edges N]`` — static diagnostics over tests and models
  (see :mod:`repro.lint` and ``docs/lint.md``);
* ``stats PATH [OTHER] [--format {text,json}]`` — render a telemetry
  run report (a ``stats.json`` file or a campaign directory), or diff
  the counters of two (see :mod:`repro.obs` and
  ``docs/observability.md``);
* ``cache stats DIR`` — inspect an engine result cache (entry count and
  the database's bytes on disk);
* ``import FILE [FILE ...]`` — parse and validate ``.litmus`` files;
* ``export [--suite SUITE] [-o DIR]`` — print/write tests as ``.litmus``;
* ``model show MODEL`` / ``model import FILE ...`` /
  ``model export [--model MODEL ...] [-o DIR]`` — print, validate
  and write ``.model`` definitions (see :mod:`repro.models.spec`);
* ``sim [--workloads ...] [--length N] [--checkpoints K]`` — Figure 18 +
  Tables II/III.

``SUITE`` is either a static suite name (``paper``, ``standard``,
``all``), a generator spec (``gen:edges=4[,size=50][,seed=7]``), a
seeded randprog corpus (``rand:n=50[,seed=7]``), or a path to a
``.litmus`` file or a directory of them — so generated, random and
imported suites flow through the same harnesses as the built-in
catalogue.

``MODEL`` — every ``--model``/``-m``, ``WEAKER``/``STRONGER`` and
``--pair`` side — is a *model spec* resolved by
:func:`repro.models.spec.resolve_model`: a registry name or alias, a
``.model`` file or directory, an inline construction point
(``ctor:same_address_loads=arm``), or — where a family makes sense, as in
``hunt --pair "space:same_address_loads=*:gam"`` — a ``space:``
enumeration over the construction lattice.

The engine-backed commands (``check``, ``matrix``, ``equiv``,
``strength``) run on the batch evaluation engine (:mod:`repro.engine`):
per-test candidate work is shared across the model zoo, ``--jobs N``
fans tests out over a process pool, and ``--cache DIR`` keeps a
content-hashed on-disk result cache so repeated runs are incremental.
Operational cells (``check --operational``, ``equiv``, ``hunt --oracle
operational``) flow through the same engine and cache, keyed by the
abstract-machine variant instead of model clauses.  The defaults (one
process, no cache) produce output identical to the historical serial
path.

The same commands take the fault-tolerance flags ``--timeout S``
(per-batch deadline), ``--retries N`` (re-run failed batches) and
``--on-error {fail,skip,quarantine}`` (what a failed batch becomes after
retries — see ``docs/robustness.md``).  The defaults (no deadline, no
retries, fail) leave behaviour and output byte-identical to a build
without the flags.

The evaluating commands (``matrix``, ``check``, ``equiv``, ``strength``,
``hunt``) also take ``--stats [text|json]``: the run executes under an
active telemetry recorder (:mod:`repro.obs`) and a run report is printed
to **stderr** after the normal output — stdout stays byte-identical to a
run without the flag, and ``repro matrix --stats json 2> stats.json``
captures a machine-readable report.  Without ``--stats`` the recorder is
the no-op null recorder and the instrumentation costs nothing.

Every command prints plain text and exits non-zero on a failed check, so
the CLI composes with shell scripts and CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser", "CLIUsageError"]


class CLIUsageError(Exception):
    """Bad command-line input detected after argparse (exit status 2).

    Wraps user-input errors (bad ``gen:`` specs, import name collisions)
    so :func:`main` can report them cleanly without catching the broad
    exception types that real bugs raise.
    """


def _resolve_suite(spec: str):
    """Resolve a ``--suite`` spec, mapping bad input to :class:`CLIUsageError`."""
    from .litmus.frontend.parser import LitmusParseError
    from .litmus.frontend.suite import resolve_suite

    try:
        return resolve_suite(spec)
    except LitmusParseError:
        raise  # reported with its line/path context
    except ValueError as exc:  # bad gen:... spec or budget
        raise CLIUsageError(str(exc)) from exc


def _resolve_model(spec: str):
    """Resolve a model spec — the one call site behind every model argument.

    Registry names, ``.model`` paths and ``ctor:`` specs all land here;
    unknown names surface as the registry's listing ``KeyError`` and
    malformed specs as :class:`repro.models.spec.ModelSpecError`, both
    rendered by :func:`main`.
    """
    from .models.spec import resolve_model

    return resolve_model(spec)


def _policy_from_args(args: argparse.Namespace):
    """The :class:`ExecutionPolicy` the fault-tolerance flags describe.

    Returns ``None`` — not ``DEFAULT_POLICY`` — when every flag is at its
    default, so the engine's default dispatch path (and its
    byte-identical output) is untouched by the flags merely existing.
    """
    if args.timeout is None and args.retries == 0 and args.on_error == "fail":
        return None
    from .engine import ExecutionPolicy

    try:
        return ExecutionPolicy(
            timeout=args.timeout, retries=args.retries, on_error=args.on_error
        )
    except ValueError as exc:
        raise CLIUsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GAM memory-model reproduction (ISCA 2018) toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite_help = (
        "paper|standard|all, gen:edges=N[,size=M][,seed=S], "
        "rand:n=N[,seed=S], or a .litmus file/directory path"
    )
    model_help = (
        "a registry model name, a .model file/directory path, "
        "or ctor:knob=value,..."
    )

    def add_stats_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--stats",
            nargs="?",
            const="text",
            choices=("text", "json"),
            default=None,
            metavar="FORMAT",
            help="collect engine telemetry and print a run report to "
            "stderr: text (default when the flag is bare) or json "
            "(see docs/observability.md); stdout is unchanged",
        )

    def add_engine_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for the batch engine (default: 1, serial)",
        )
        cmd.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="on-disk result cache directory (default: no cache)",
        )

    def add_policy_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="S",
            help="per-batch deadline in seconds; a batch past it is "
            "killed and retried/failed per --on-error (default: none; "
            "forces pooled execution so batches are killable)",
        )
        cmd.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="re-run a failed batch up to N more times with "
            "exponential backoff (default: 0)",
        )
        cmd.add_argument(
            "--on-error",
            choices=("fail", "skip", "quarantine"),
            default="fail",
            help="what a failed batch becomes once retries are spent: "
            "fail raises (default), skip and quarantine record the "
            "failure and keep going (see docs/robustness.md)",
        )

    list_cmd = sub.add_parser("list", help="list catalogue contents")
    list_cmd.add_argument(
        "what",
        choices=("tests", "models", "workloads"),
        help="which catalogue to list",
    )
    list_cmd.add_argument(
        "--suite",
        default="all",
        metavar="SUITE",
        help=f"restrict 'list tests' to one suite ({suite_help})",
    )

    show = sub.add_parser("show", help="print a litmus test")
    show.add_argument("test", help="litmus test name")
    show.add_argument(
        "--format",
        choices=("pretty", "litmus"),
        default="pretty",
        help="output format: annotated programs or .litmus text",
    )

    check = sub.add_parser("check", help="is the asked outcome allowed?")
    check.add_argument("test", help="litmus test name")
    check.add_argument("-m", "--model", default="gam", help=f"memory model spec ({model_help})")
    check.add_argument(
        "--operational",
        action="store_true",
        help="use the abstract machine instead of the axioms "
        "(models with a machine: gam, gam0, sc, tso)",
    )
    add_engine_flags(check)
    add_policy_flags(check)
    add_stats_flag(check)

    outcomes = sub.add_parser("outcomes", help="enumerate allowed outcomes")
    outcomes.add_argument("test", help="litmus test name")
    outcomes.add_argument("-m", "--model", default="gam", help=f"memory model spec ({model_help})")
    outcomes.add_argument(
        "--full", action="store_true", help="project onto all registers"
    )

    witness = sub.add_parser(
        "witness", help="show an execution witnessing the asked outcome"
    )
    witness.add_argument("test", help="litmus test name")
    witness.add_argument("-m", "--model", default="gam", help=f"memory model spec ({model_help})")

    diff = sub.add_parser("diff", help="outcome-set difference of two models")
    diff.add_argument("test", help="litmus test name")
    diff.add_argument("weaker", help=f"the (expectedly) weaker model ({model_help})")
    diff.add_argument("stronger", help=f"the (expectedly) stronger model ({model_help})")

    matrix = sub.add_parser("matrix", help="verdict matrix across the model zoo")
    matrix.add_argument(
        "--suite",
        default="paper",
        metavar="SUITE",
        help=f"which test suite to evaluate ({suite_help})",
    )
    add_engine_flags(matrix)
    add_policy_flags(matrix)
    add_stats_flag(matrix)

    equiv = sub.add_parser("equiv", help="axiomatic vs operational agreement")
    equiv.add_argument("tests", nargs="*", help="test names (default: paper suite)")
    equiv.add_argument(
        "--suite",
        default=None,
        metavar="SUITE",
        help=f"check a whole suite instead of named tests ({suite_help})",
    )
    equiv.add_argument(
        "--pairs",
        default="gam,gam0",
        help="comma-separated definition pairs (gam,gam0,sc,tso)",
    )
    add_engine_flags(equiv)
    add_policy_flags(equiv)
    add_stats_flag(equiv)

    synth = sub.add_parser(
        "synth", help="synthesize minimal fences restoring SC"
    )
    synth.add_argument("test", help="litmus test name")
    synth.add_argument("-m", "--model", default="gam", help=f"weak model spec ({model_help})")
    synth.add_argument(
        "--max-fences", type=int, default=3, help="search bound on fence count"
    )

    hunt = sub.add_parser(
        "hunt", help="differential model-hunt campaign (sharded, resumable)"
    )
    hunt.add_argument(
        "--suite",
        default=None,
        metavar="SUITE",
        help=f"suite to hunt over ({suite_help}); optional when resuming",
    )
    hunt.add_argument(
        "--pair",
        action="append",
        default=None,
        metavar="A:B",
        help="pair to differentiate (repeatable).  Axiomatic oracle: a "
        "model-spec pair, e.g. wmm:arm or space:same_address_loads=*:gam "
        "(default: wmm:arm).  Operational oracle: model:machine, or a "
        "bare name for a model vs its own machine (default: gam gam0)",
    )
    hunt.add_argument(
        "--oracle",
        choices=("axiomatic", "operational"),
        default=None,
        help="what each pair differences: two models' verdicts "
        "(axiomatic, the default) or a model's axioms vs an abstract "
        "machine's outcome sets (operational); optional when resuming",
    )
    hunt.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="split the suite into N deterministic shards (default: 4)",
    )
    hunt.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="campaign directory (state, cache, witnesses, report)",
    )
    hunt.add_argument(
        "--resume",
        action="store_true",
        help="require existing campaign state in --out "
        "(an existing matching campaign also resumes without this flag)",
    )
    hunt.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes shared by the shards and the minimizer "
        "(default: 1, serial)",
    )
    hunt.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the lint pre-flight over the suite and expanded models",
    )
    add_policy_flags(hunt)
    add_stats_flag(hunt)

    strength = sub.add_parser(
        "strength", help="measure the model-strength lattice"
    )
    strength.add_argument(
        "--suite",
        default="paper",
        metavar="SUITE",
        help=f"which test suite to measure over ({suite_help})",
    )
    add_engine_flags(strength)
    add_policy_flags(strength)
    add_stats_flag(strength)

    gen = sub.add_parser(
        "gen", help="generate litmus tests from critical cycles (diy-style)"
    )
    gen.add_argument(
        "--edges", type=int, default=4, metavar="N",
        help="cycle-length budget (default: 4)",
    )
    gen.add_argument(
        "--size", type=int, default=None, metavar="M",
        help="keep at most M tests (default: all)",
    )
    gen.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="deterministic shuffle before the --size cap",
    )
    gen.add_argument(
        "-o", "--out", default=None, metavar="DIR",
        help="write one .litmus file per test into DIR",
    )
    gen.add_argument(
        "--dedupe",
        action="store_true",
        help="drop structurally isomorphic duplicates (canonical-hash)",
    )
    gen.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )

    lint = sub.add_parser(
        "lint", help="static diagnostics for litmus tests and model specs"
    )
    lint.add_argument(
        "--suite",
        default="all",
        metavar="SUITE",
        help=f"which tests to lint ({suite_help}; default: all)",
    )
    lint.add_argument(
        "-m",
        "--model",
        dest="models",
        action="append",
        default=None,
        metavar="MODEL",
        help=f"model spec to lint ({model_help}, or 'zoo' for every "
        "registry model; repeatable; default: zoo)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    lint.add_argument(
        "--edges",
        type=int,
        default=4,
        metavar="N",
        help="cycle budget for edge-signature matching (L010); "
        "0 disables it (default: 4)",
    )

    stats_cmd = sub.add_parser(
        "stats", help="render or diff telemetry run reports (stats.json)"
    )
    stats_cmd.add_argument(
        "path",
        metavar="PATH",
        help="a stats.json file, or a campaign directory containing one",
    )
    stats_cmd.add_argument(
        "other",
        nargs="?",
        default=None,
        metavar="OTHER",
        help="second report; when given, print the counter diff PATH -> OTHER",
    )
    stats_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="single-report rendering (default: text; ignored when diffing)",
    )

    cache_cmd = sub.add_parser("cache", help="inspect engine result caches")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats", help="entry count and bytes on disk of a cache directory"
    )
    cache_stats.add_argument(
        "dir",
        metavar="DIR",
        help="cache directory (a --cache DIR or a campaign's cache/)",
    )

    import_cmd = sub.add_parser(
        "import", help="parse and validate .litmus files"
    )
    import_cmd.add_argument(
        "files", nargs="+", metavar="FILE", help=".litmus files or directories"
    )

    export = sub.add_parser("export", help="write tests out as .litmus text")
    export.add_argument(
        "--suite",
        default="all",
        metavar="SUITE",
        help=f"which tests to export ({suite_help})",
    )
    export.add_argument(
        "-o", "--out", default=None, metavar="DIR",
        help="write one .litmus file per test into DIR (default: stdout)",
    )

    model_cmd = sub.add_parser(
        "model", help="inspect, import and export .model definitions"
    )
    model_sub = model_cmd.add_subparsers(dest="model_command", required=True)

    model_show = model_sub.add_parser(
        "show", help="print a model as canonical .model text"
    )
    model_show.add_argument(
        "model",
        metavar="MODEL",
        help=f"model spec ({model_help}, or space:knob=*,... for a family)",
    )

    model_import = model_sub.add_parser(
        "import", help="parse and validate .model files"
    )
    model_import.add_argument(
        "files", nargs="+", metavar="FILE", help=".model files or directories"
    )

    model_export = model_sub.add_parser(
        "export", help="write models out as .model text"
    )
    model_export.add_argument(
        "--model",
        dest="models",
        action="append",
        default=None,
        metavar="MODEL",
        help=f"model spec to export ({model_help}; repeatable; "
        "default: every registry model)",
    )
    model_export.add_argument(
        "-o", "--out", default=None, metavar="DIR",
        help="write one .model file per model into DIR (default: stdout)",
    )

    sim = sub.add_parser("sim", help="run the Section V evaluation")
    sim.add_argument(
        "--workloads",
        default="mcf,gcc.166,hmmer.retro,namd",
        help="comma-separated workload names, or 'all'",
    )
    sim.add_argument("--length", type=int, default=6000, help="uOPs per workload")
    sim.add_argument("--seed", type=int, default=1, help="trace seed")
    sim.add_argument(
        "--checkpoints",
        type=int,
        default=1,
        help="independent trace samples per workload (paper: 10)",
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "tests":
        for test in _resolve_suite(args.suite):
            source = f" ({test.source})" if test.source else ""
            print(f"{test.name:24s}{source} {test.description}")
    elif args.what == "models":
        from .models.registry import canonical_name, get_model, model_names

        for name in model_names():
            target = canonical_name(name)
            if target != name:
                # An alias row points at its target instead of instantiating
                # (and describing) the same model twice.
                print(f"{name:12s} -> {target}")
            else:
                print(f"{name:12s} {get_model(name).description}")
    else:
        from .workloads.profiles import PROFILES

        for name, profile in sorted(PROFILES.items()):
            print(
                f"{name:18s} ld={profile.load_frac:.2f} st={profile.store_frac:.2f} "
                f"br={profile.branch_frac:.2f} ws={profile.working_set_kb}KB"
            )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from .litmus.registry import get_test

    test = get_test(args.test)
    if args.format == "litmus":
        from .litmus.frontend.printer import print_litmus

        print(print_litmus(test), end="")
    else:
        print(test)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .engine import VerdictSpec, evaluate_cells
    from .litmus.registry import get_test

    test = get_test(args.test)
    if test.asked is None:
        print(f"test {test.name!r} has no asked outcome")
        return 2
    if args.operational:
        from .engine import operational_machines
        from .models.registry import canonical_name

        # Aliases resolve before the machine lookup, so `-m rmo` reaches
        # the gam0 machine rather than being rejected as unknown.
        canonical = canonical_name(args.model)
        if canonical not in operational_machines():
            raise CLIUsageError(
                "--operational supports models: "
                f"{', '.join(operational_machines())}"
            )
        cell = VerdictSpec(test, None, oracle=f"operational:{canonical}")
        definition = "abstract machine"
    else:
        cell = VerdictSpec(test, _resolve_model(args.model))
        definition = "axioms"
    [allowed] = evaluate_cells(
        [cell], jobs=args.jobs, cache_dir=args.cache,
        policy=_policy_from_args(args),
    )
    from .engine import CellFailure

    if isinstance(allowed, CellFailure):
        print(
            f"{test.name}: SKIPPED under {args.model} — {allowed.reason} "
            f"after {allowed.attempts} attempt(s): {allowed.message}"
        )
        return 1
    verdict = "ALLOWED" if allowed else "FORBIDDEN"
    print(f"{test.name}: {test.asked} is {verdict} under {args.model} ({definition})")
    expected = test.expect.get(args.model)
    if expected is not None and expected != allowed:
        print("WARNING: this contradicts the paper's stated verdict!")
        return 1
    return 0


def _cmd_outcomes(args: argparse.Namespace) -> int:
    from .engine import OutcomeSpec, evaluate_cells
    from .litmus.registry import get_test

    test = get_test(args.test)
    project = "full" if args.full else "observed"
    [outcomes] = evaluate_cells([OutcomeSpec(test, _resolve_model(args.model), project)])
    for outcome in sorted(outcomes, key=str):
        print(f"  {outcome}")
    print(f"{len(outcomes)} outcome(s) under {args.model}")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    from .analysis import find_witness, render_execution
    from .litmus.registry import get_test

    test = get_test(args.test)
    witness = find_witness(test, _resolve_model(args.model))
    if witness is None:
        print(
            f"{test.name}: no witness — {args.model} forbids {test.asked} "
            "(no memory order satisfies the axioms)"
        )
        return 1
    print(render_execution(test, witness))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .analysis import render_diff
    from .litmus.registry import get_test

    print(
        render_diff(
            get_test(args.test),
            _resolve_model(args.weaker),
            _resolve_model(args.stronger),
        )
    )
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .eval.litmus_matrix import (
        conformance_failures,
        litmus_matrix,
        render_matrix,
    )
    cells = litmus_matrix(
        tests=_resolve_suite(args.suite), jobs=args.jobs, cache_dir=args.cache,
        policy=_policy_from_args(args),
    )
    # The paper suite keeps its historical figure-listing title; other
    # suites are not the paper's figures and are titled by their spec.
    title = None if args.suite == "paper" else (
        f"Litmus verdict matrix ({args.suite} suite)"
    )
    print(render_matrix(cells, title=title))
    skipped = sorted({c.test_name for c in cells if c.failure is not None})
    if skipped:
        print(
            f"{len(skipped)} test(s) skipped after engine failures: "
            f"{', '.join(skipped)}"
        )
    failures = conformance_failures(cells)
    if failures:
        print(f"{len(failures)} verdicts disagree with the paper")
        return 1
    if all(cell.expected is None for cell in cells):
        print("the paper is silent on this suite; no verdicts to check")
    else:
        print("all verdicts agree with the paper")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .equivalence.checker import check_suite
    from .litmus.registry import get_test, paper_suite

    pair_names = [p.strip() for p in args.pairs.split(",") if p.strip()]
    if not pair_names:
        # An empty comparison would pass vacuously.
        raise CLIUsageError(f"--pairs {args.pairs!r} names no definition pair")
    if args.suite is not None:
        tests = _resolve_suite(args.suite)
        tests += [get_test(name) for name in args.tests]
    elif args.tests:
        tests = [get_test(name) for name in args.tests]
    else:
        tests = list(paper_suite())
    status = 0
    reports = check_suite(
        tests, pair_names=pair_names, jobs=args.jobs, cache_dir=args.cache,
        policy=_policy_from_args(args),
    )
    for report in reports:
        if report.failure is not None:
            # An unanswered comparison is reported but does not fail the
            # run — that is exactly what skip/quarantine opted into.
            print(
                f"skip {report.test_name:24s} {report.pair_name:5s} "
                f"({report.failure})"
            )
            continue
        mark = "ok " if report.equivalent else "DIFF"
        print(
            f"{mark} {report.test_name:24s} {report.pair_name:5s} "
            f"|axiomatic|={len(report.axiomatic)} "
            f"|machine|={len(report.operational)}"
        )
        if not report.equivalent:
            status = 1
    return status


def _cmd_synth(args: argparse.Namespace) -> int:
    from .litmus.registry import get_test
    from .synthesis import synthesize_fences

    test = get_test(args.test)
    model = _resolve_model(args.model)
    try:
        result = synthesize_fences(test, model, max_fences=args.max_fences)
    except ValueError as exc:
        raise CLIUsageError(str(exc)) from exc
    if result is None:
        print(
            f"{test.name}: no fence plan with <= {args.max_fences} fences "
            f"restores SC under {args.model}"
        )
        return 1
    if not result.placements:
        print(f"{test.name}: already SC under {args.model}; no fences needed")
        return 0
    print(f"{test.name}: minimal plan ({len(result.placements)} fences, "
          f"{result.plans_checked} plans checked):")
    for placement in result.placements:
        print(f"  {placement}")
    return 0


def _operational_pair(spec: str) -> tuple[str, str]:
    """Parse an operational ``--pair``: ``model:machine``, or a bare model
    for the model against its own machine (``--pair gam`` is ``gam:gam``).

    Machine names hold no colon, so the split is at the last one and the
    model side may be any model spec, ``space:``/``ctor:`` families too.
    """
    model, colon, machine = (part.strip() for part in spec.rpartition(":"))
    if not colon:  # a bare name, which rpartition leaves in the last part
        return (machine, machine)
    if not model or not machine:
        raise ValueError(
            f"bad oracle pair {spec!r}; expected 'model:machine' or a bare "
            "model name, e.g. gam:gam0 or gam"
        )
    return (model, machine)


def _cmd_hunt(args: argparse.Namespace) -> int:
    from .campaign import CampaignDir, run_hunt
    from .campaign.state import ORACLE_AXIOMATIC, ORACLE_OPERATIONAL
    from .eval.discrepancy import parse_pair

    # --pair is read in the campaign's own grammar: a resumed campaign
    # keeps its stored oracle when --oracle is not restated.
    oracle = args.oracle
    if oracle is None:
        stored = CampaignDir(args.out).load_spec()
        oracle = stored.oracle if stored is not None else ORACLE_AXIOMATIC
    parse = _operational_pair if oracle == ORACLE_OPERATIONAL else parse_pair
    pairs = None
    if args.pair:
        try:
            pairs = [parse(spec) for spec in args.pair]
        except ValueError as exc:
            raise CLIUsageError(str(exc)) from exc
    # Bad suite specs surface as CampaignError from run_hunt's resolution
    # step (handled in main); a ValueError here would be a real bug.
    report = run_hunt(
        out=args.out,
        suite=args.suite,
        pairs=pairs,
        num_shards=args.shards,
        jobs=args.jobs,
        resume=args.resume,
        lint=not args.no_lint,
        log=print,
        oracle=args.oracle,
        policy=_policy_from_args(args),
        # Heartbeat lines ride with --stats so the default hunt log stays
        # byte-identical to the pre-telemetry output.
        heartbeat=args.stats is not None,
    )
    print()
    print(report.text, end="")
    return 0


def _cmd_strength(args: argparse.Namespace) -> int:
    from .eval.strength import render_strength, strength_matrix

    matrix = strength_matrix(
        tests=_resolve_suite(args.suite), jobs=args.jobs, cache_dir=args.cache,
        policy=_policy_from_args(args),
    )
    print(render_strength(matrix))
    return 0


def _write_litmus_dir(tests, out_dir: str) -> None:
    import os

    from .litmus.frontend.printer import print_litmus

    os.makedirs(out_dir, exist_ok=True)
    for test in tests:
        path = os.path.join(out_dir, f"{test.name}.litmus")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(print_litmus(test))


def _cmd_gen(args: argparse.Namespace) -> int:
    from .lint import dedupe_tests, preflight_tests
    from .litmus.frontend.gen import generate_suite

    try:
        tests = generate_suite(
            max_edges=args.edges, size=args.size, seed=args.seed
        )
    except ValueError as exc:  # budget below the minimum cycle length
        raise CLIUsageError(str(exc)) from exc
    if args.dedupe:
        tests, dropped = dedupe_tests(tests)
        for duplicate, kept_name in dropped:
            print(
                f"dedupe: dropped {duplicate.name} "
                f"(isomorphic to {kept_name})"
            )
        print(f"dedupe: dropped {len(dropped)} isomorphic duplicate(s)")
    # Pre-flight: the generator must never emit tests the linter rejects;
    # an error here is a generator bug, reported instead of emitted.
    errors = preflight_tests(tests)
    if errors:
        for finding in errors:
            print(finding.render(), file=sys.stderr)
        print(
            f"error: generated suite fails lint pre-flight "
            f"({len(errors)} error(s))",
            file=sys.stderr,
        )
        return 2
    if not args.quiet:
        for test in tests:
            print(f"{test.name:40s} P={test.num_procs} {test.asked}")
    if args.out is not None:
        _write_litmus_dir(tests, args.out)
        print(f"wrote {len(tests)} .litmus files to {args.out}")
    print(
        f"generated {len(tests)} tests "
        f"(edges<={args.edges}, size={args.size}, seed={args.seed})"
    )
    return 0


def _litmus_header_line(path: str) -> int:
    """1-based line number of a ``.litmus`` file's ``<arch> <name>`` header.

    The header is the first line that is non-blank after comment
    stripping — the same rule the parser uses — so ``L011`` diagnostics
    point at the line that declares the colliding name.
    """
    import re

    comment = re.compile(r"\(\*(.*?)\*\)")
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if comment.sub("", raw).strip():
                return lineno
    return 1


def _cmd_import(args: argparse.Namespace) -> int:
    from .lint import make
    from .litmus.frontend.parser import parse_litmus, parse_litmus_file
    from .litmus.frontend.printer import print_litmus
    from .litmus.frontend.suite import litmus_files

    # Importing a file that shadows a catalogue name is fine for
    # validation; only duplicate names *within* the import fail, with a
    # file:line diagnostic pointing at both definition sites.  Every
    # argument expands first, so an empty directory fails before output.
    files = [file for path in args.files for file in litmus_files(path)]
    seen: dict[str, tuple[str, int]] = {}
    for path in files:
        test = parse_litmus_file(path)  # LitmusParseError reported by main
        header_line = _litmus_header_line(path)
        if test.name in seen:
            first_path, first_line = seen[test.name]
            finding = make(
                "L011",
                test.name,
                f"test name collision: already imported from "
                f"{first_path}:{first_line}",
                source=path,
                line=header_line,
            )
            print(finding.render(), file=sys.stderr)
            return 2
        seen[test.name] = (path, header_line)
        # Validate the printer/parser round trip on every import.
        if parse_litmus(print_litmus(test)) != test:
            print(f"error: {test.name!r} does not round-trip", file=sys.stderr)
            return 2
        instrs = sum(len(program) for program in test.programs)
        print(
            f"imported {test.name:32s} P={test.num_procs} "
            f"instrs={instrs} asked={test.asked}"
        )
    print(f"{len(seen)} test(s) imported")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import LintReport, lint_models, lint_tests

    from .models.registry import canonical_names, get_model
    from .models.spec import resolve_models

    tests = _resolve_suite(args.suite)
    models = []
    for spec in args.models or ["zoo"]:
        if spec == "zoo":
            models.extend(get_model(name) for name in canonical_names())
        else:
            models.extend(resolve_models(spec))
    findings = lint_tests(tests, signature_edges=args.edges)
    findings.extend(lint_models(models))
    report = LintReport(findings=tuple(findings))
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_status(strict=args.strict)


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import diff_reports, load_report

    # Missing files surface as OSError (handled in main); malformed or
    # schema-violating payloads are user input, hence CLIUsageError.
    try:
        report = load_report(args.path)
        other = load_report(args.other) if args.other is not None else None
    except ValueError as exc:
        raise CLIUsageError(str(exc)) from exc
    if other is not None:
        print(diff_reports(report, other), end="")
    elif args.format == "json":
        print(report.render_json(), end="")
    else:
        print(report.render_text(), end="")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from .engine import ResultCache
    from .engine.cache import DB_NAME

    # Guard before ResultCache touches the path: opening a cache creates
    # its directory and database, and a typo'd path must not become one.
    if not os.path.isfile(os.path.join(args.dir, DB_NAME)):
        raise CLIUsageError(f"not a cache directory: {args.dir!r}")
    stats = ResultCache(args.dir).stats()
    print(f"cache {args.dir}")
    print(f"  entries: {stats.entries}")
    print(f"  on disk: {stats.disk_bytes} bytes")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .litmus.frontend.printer import print_litmus

    tests = _resolve_suite(args.suite)
    if args.out is not None:
        _write_litmus_dir(tests, args.out)
        print(f"wrote {len(tests)} .litmus files to {args.out}")
        return 0
    for i, test in enumerate(tests):
        if i:
            print()
        print(print_litmus(test), end="")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .models.spec import load_model_path, print_model, resolve_models

    if args.model_command == "show":
        models = resolve_models(args.model)
        for i, model in enumerate(models):
            if i:
                print()
            print(print_model(model), end="")
        if len(models) != 1:
            print(f"# family of {len(models)} models from {args.model!r}")
        return 0
    if args.model_command == "import":
        from .models.spec import parse_model

        # Like `repro import` for .litmus files this only validates:
        # shadowing a zoo name is fine, only duplicates *within* the
        # import fail.
        seen: dict[str, str] = {}
        for path in args.files:
            for model in load_model_path(path):
                if model.name in seen:
                    raise CLIUsageError(
                        f"duplicate model name {model.name!r} in import "
                        f"(files {seen[model.name]!r} and {path!r})"
                    )
                seen[model.name] = path
                # Validate the printer/parser round trip on every import.
                text = print_model(model)
                if print_model(parse_model(text)) != text:
                    print(
                        f"error: {model.name!r} does not round-trip",
                        file=sys.stderr,
                    )
                    return 2
                print(
                    f"imported {model.name:32s} "
                    f"clauses={','.join(model.clause_names())} "
                    f"loadvalue={model.load_value}"
                )
        print(f"{len(seen)} model(s) imported")
        return 0
    # export
    if args.models:
        models = [model for spec in args.models for model in resolve_models(spec)]
    else:
        from .models.registry import canonical_names, get_model

        models = [get_model(name) for name in canonical_names()]
    if args.out is not None:
        import os

        os.makedirs(args.out, exist_ok=True)
        for model in models:
            path = os.path.join(args.out, f"{model.name}.model")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(print_model(model))
        print(f"wrote {len(models)} .model files to {args.out}")
        return 0
    for i, model in enumerate(models):
        if i:
            print()
        print(print_model(model), end="")
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    from .eval.figure18 import render_figure18, run_figure18
    from .eval.table2 import render_table2, table2
    from .eval.table3 import render_table3, table3
    from .workloads.profiles import profile_names

    if args.workloads == "all":
        workloads: Sequence[str] = profile_names()
    else:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    result = run_figure18(
        workloads=workloads,
        trace_length=args.length,
        seed=args.seed,
        checkpoints=args.checkpoints,
    )
    print(render_figure18(result))
    print()
    print(render_table2(table2(result)))
    print()
    print(render_table3(table3(result)))
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "check": _cmd_check,
    "outcomes": _cmd_outcomes,
    "witness": _cmd_witness,
    "diff": _cmd_diff,
    "matrix": _cmd_matrix,
    "equiv": _cmd_equiv,
    "hunt": _cmd_hunt,
    "synth": _cmd_synth,
    "strength": _cmd_strength,
    "gen": _cmd_gen,
    "lint": _cmd_lint,
    "stats": _cmd_stats,
    "cache": _cmd_cache,
    "import": _cmd_import,
    "export": _cmd_export,
    "model": _cmd_model,
    "sim": _cmd_sim,
}


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, under a stats recorder when asked.

    With ``--stats`` the command executes inside
    :func:`repro.obs.collecting` and its run report is printed to
    *stderr* after the command's own output — stdout stays byte-for-byte
    what it would have been without the flag, and shell redirection
    (``2> stats.json``) captures the report alone.
    """
    stats_format = getattr(args, "stats", None)
    if stats_format is None:
        return _COMMANDS[args.command](args)
    from .obs import RunReport, collecting

    with collecting() as recorder:
        status = _COMMANDS[args.command](args)
        snapshot = recorder.snapshot()
    # Only deterministic inputs belong in meta; skip unset optionals.
    meta = {
        key: value
        for key in ("suite", "jobs", "oracle")
        if (value := getattr(args, key, None)) is not None
    }
    report = RunReport.from_snapshot(snapshot, command=args.command, meta=meta)
    if stats_format == "json":
        print(report.render_json(), end="", file=sys.stderr)
    else:
        print(report.render_text(), end="", file=sys.stderr)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from .campaign.state import CampaignError
    from .core.axiomatic import DomainOverflowError
    from .engine import EngineWorkerError
    from .litmus.frontend.parser import LitmusParseError
    from .litmus.frontend.printer import LitmusPrintError
    from .models.spec import ModelSpecError

    try:
        # Every engine command and hunt take --jobs.
        if getattr(args, "jobs", 1) < 1:
            raise CLIUsageError(f"--jobs must be >= 1, got {args.jobs}")
        return _dispatch(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (
        CampaignError,
        DomainOverflowError,
        EngineWorkerError,
        LitmusParseError,
        LitmusPrintError,
        ModelSpecError,
        CLIUsageError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
