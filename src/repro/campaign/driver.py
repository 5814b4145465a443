"""The hunt driver: sharded differential evaluation → mining → witnesses.

:func:`run_hunt` is the long-running orchestrator behind ``repro hunt``.
One call advances a campaign as far as it can and is always safe to
interrupt and re-invoke:

1. **Shard evaluation** — the suite spec is resolved (deterministically)
   and split into round-robin shards; each incomplete shard's cell grid
   (one engine cell per test and pair *column*, see
   :class:`~repro.eval.discrepancy.PairKind`) runs through the batch
   engine with the campaign's own result cache, then lands on disk as an
   atomic shard record holding one row per test, from which each pair's
   divergence profile reads back.  Completed shards are never
   re-evaluated.
2. **Mining** — the accumulated records are pivoted into a row table (in
   suite order, independent of which run produced which shard) and every
   diverging pair becomes a :class:`~repro.eval.discrepancy.Discrepancy`
   (two models' verdicts differ) or
   :class:`~repro.eval.discrepancy.OracleDiscrepancy` (a model's axioms
   and an abstract machine allow different outcomes).  Tests an
   :class:`~repro.engine.ExecutionPolicy` quarantined (crash, deadline,
   poison test) are excluded from the table, re-derived from the shard
   records in the same pass into ``quarantine.json``, and listed in the
   report — skipped work is reported, never silently dropped.
3. **Minimization** — each discrepant test is greedily shrunk while the
   pair still diverges (:mod:`.minimize`), all of them in lockstep rounds
   of one engine call each, written to ``witnesses/*.litmus``, re-parsed,
   and re-checked through the pair's own divergence, so every reported
   witness is *known* to still diverge as a ``.litmus`` file.
4. **Report** — the ranked report (smallest witness first) is written as
   ``report.txt`` + ``report.json`` and returned, alongside a telemetry
   run report (``stats.json``, see :mod:`repro.obs`) covering shard
   timing, cache hit rates and engine dispatch for *this* run.

Every stage is a deterministic function of the campaign spec, so a
killed-and-rerun campaign reaches byte-identical final reports (the
wall-clock sections of ``stats.json`` are per-run by design and excluded
from that guarantee).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Union

from ..core.axiomatic import MemoryModel
from ..engine import (
    CellFailure,
    ExecutionPolicy,
    WorkerPool,
    evaluate_cells,
    scheduler,
)
from ..eval.discrepancy import (
    AXIOMATIC_PAIRS,
    OPERATIONAL_PAIRS,
    Discrepancy,
    OracleDiscrepancy,
    PairKind,
    mine_discrepancies,
    render_discrepancies,
)
from ..litmus.frontend.printer import print_litmus
from ..litmus.frontend.parser import LitmusParseError, parse_litmus_file
from ..litmus.frontend.suite import resolve_suite, shard_suite
from ..litmus.test import LitmusTest
from ..obs import RunReport, collecting, incr, monotonic, time_block
# ``minimize_divergence`` is not called here (the lockstep rounds drive the
# same search); it stays importable from this module because perfbench's
# traced runs wrap it under this name.
from .minimize import (
    build_columns,
    divergences,
    instruction_count,
    minimize_divergence,
    minimize_in_lockstep,
)
from .state import (
    ORACLE_AXIOMATIC,
    ORACLE_OPERATIONAL,
    CampaignDir,
    CampaignError,
    CampaignSpec,
    member_names,
    suite_digest,
)

__all__ = [
    "WitnessRecord",
    "HuntReport",
    "run_hunt",
    "DEFAULT_PAIRS",
    "DEFAULT_ORACLE_PAIRS",
]

DEFAULT_PAIRS: tuple[tuple[str, str], ...] = (("wmm", "arm"),)
"""The pair a fresh campaign hunts when none is given: the paper's
central WMM-vs-ARM positioning claim."""

DEFAULT_ORACLE_PAIRS: tuple[tuple[str, str], ...] = (
    ("gam", "gam"),
    ("gam0", "gam0"),
)
"""The (model, machine) pairs a fresh ``--oracle operational`` campaign
hunts when none is given: the paper's two equivalence theorems."""

_DEFAULT_SHARDS = 4

AnyDiscrepancy = Union[Discrepancy, OracleDiscrepancy]

_PAIR_KINDS: dict[str, PairKind] = {
    ORACLE_AXIOMATIC: AXIOMATIC_PAIRS,
    ORACLE_OPERATIONAL: OPERATIONAL_PAIRS,
}
"""The pair kind each campaign oracle mode hunts with."""


@dataclass(frozen=True)
class WitnessRecord:
    """One minimized, re-verified witness of a discrepancy.

    Attributes:
        discrepancy: the (test, pair) disagreement this witnesses.
        path: the written ``.litmus`` file.
        relpath: the same file relative to the campaign root (used in the
            report, so reports of identical hunts are byte-identical no
            matter where their campaign directories live).
        original_instrs / minimized_instrs: shrink achieved.
        checks: divergence re-checks the minimizer spent.
    """

    discrepancy: AnyDiscrepancy
    path: str
    relpath: str
    original_instrs: int
    minimized_instrs: int
    checks: int


@dataclass(frozen=True)
class HuntReport:
    """The result of one (possibly resumed) campaign run.

    Attributes:
        spec: the campaign's identity.
        tests_evaluated: suite tests with an asked outcome.
        discrepancies: every mined (test, pair) disagreement.
        witnesses: one record per discrepancy, ranking order.
        text: the rendered report (also written to ``report.txt``).
        quarantined: test name → failure record (reason, message,
            traceback, attempts, shard) for tests the execution policy
            quarantined; empty for fault-free default-policy runs.
    """

    spec: CampaignSpec
    tests_evaluated: int
    discrepancies: tuple[AnyDiscrepancy, ...]
    witnesses: tuple[WitnessRecord, ...]
    text: str
    quarantined: Mapping[str, dict] = field(default_factory=dict)


def _witness_stem(disc: AnyDiscrepancy) -> str:
    """Deterministic file/test name for a discrepancy's witness.

    Constructed member names (``ctor(same_address_loads=arm)``) carry
    characters that are awkward in filenames; runs of them collapse to a
    single ``-``.  Registry-name pairs pass through untouched, keeping
    historical reports byte-identical.
    """
    stem = f"{disc.test_name}__{disc.pair[0]}-vs-{disc.pair[1]}"
    return re.sub(r"[^A-Za-z0-9._+=-]+", "-", stem).strip("-")


def _quarantined_entry(test: LitmusTest, failure: CellFailure) -> dict:
    """The shard-record entry for a batch the policy quarantined.

    Replaces the pair kind's row key with the tagged failure
    record, so the quarantine travels inside the crash-safe shard file
    and ``quarantine.json`` can always be re-derived from the shards.
    """
    return {
        "name": test.name,
        "instrs": instruction_count(test),
        "quarantined": {
            "reason": failure.reason,
            "message": failure.message,
            "traceback": failure.traceback,
            "attempts": failure.attempts,
        },
    }


class _Progress:
    """Per-shard heartbeat/stall bookkeeping for the shard loop.

    All wall-clock text it emits is gated on ``heartbeat`` (opt-in via
    ``--stats``), so the default log output stays byte-identical run to
    run.  Stall visibility has two halves: :meth:`on_stall` is the
    engine's callback while one batch is *pending* (fires even though
    ``on_batch`` cannot), and :meth:`note_batch` warns after the fact
    when the gap since the previous completed batch exceeded the
    scheduler's :data:`~repro.engine.scheduler.STALL_AFTER` deadline.
    """

    def __init__(
        self,
        log: Callable[[str], None],
        heartbeat: bool,
        label: str,
        total: int,
    ) -> None:
        self.log = log
        self.heartbeat = heartbeat
        self.label = label
        self.total = total
        self.count = 0
        self.started = monotonic()
        self.last_batch = self.started

    def on_stall(self, test: LitmusTest, waited: float) -> None:
        """Engine stall callback: a batch has been pending too long."""
        self.log(
            f"  stall warning: {self.label} test {test.name!r} still "
            f"evaluating after {waited:.1f}s (no batch completed for "
            f"{monotonic() - self.last_batch:.1f}s)"
        )

    def note_batch(self) -> None:
        """Heartbeat after each completed batch, flagging stalled gaps."""
        now = monotonic()
        gap = now - self.last_batch
        self.last_batch = now
        if not self.heartbeat:
            return
        line = (
            f"  heartbeat: {self.label} {self.count}/{self.total} tests "
            f"{now - self.started:.1f}s elapsed, {gap:.1f}s since last batch"
        )
        deadline = scheduler.STALL_AFTER
        if deadline > 0 and gap > deadline:
            line += f" (stalled past the {deadline:g}s deadline)"
        self.log(line)


def _evaluate_shards(
    campaign: CampaignDir,
    spec: CampaignSpec,
    tests: Sequence[LitmusTest],
    kind: PairKind,
    pairs: Sequence[tuple[str, str]],
    lookup: Mapping[str, MemoryModel],
    jobs: int,
    log: Callable[[str], None],
    heartbeat: bool = False,
    policy: Optional[ExecutionPolicy] = None,
    pool: Optional[WorkerPool] = None,
) -> None:
    """Run every incomplete shard's cell grid and persist its record.

    Each test gets one engine cell per distinct column of ``pairs`` (see
    :class:`~repro.eval.discrepancy.PairKind`).  Its shard entry stores
    the kind's row under the kind's record key: enough to read back
    every pair's divergence profile, which is all mining needs (outcome
    sets stay in the engine cache).

    ``heartbeat`` adds per-batch progress lines with elapsed wall time to
    the log — wall-clock text, so it is off unless stats were requested
    (the default log output stays byte-identical run to run).  Under a
    ``skip``/``quarantine`` policy, batches the engine finalized as
    :class:`~repro.engine.CellFailure` land in the shard record as
    ``quarantined`` entries instead of rows.
    """
    columns = list(
        dict.fromkeys(column for pair in pairs for column in kind.columns(pair))
    )
    slots = [
        [columns.index(column) for column in kind.columns(pair)]
        for pair in pairs
    ]
    built = build_columns(columns, lookup.__getitem__)

    def row(results: Sequence[object]) -> dict:
        """The kind's shard row for one test's column results."""
        entries: dict = {}
        for pair, (a, b) in zip(pairs, slots):
            entries.update(kind.store(pair, kind.profile(results[a], results[b])))
        return entries

    for index in range(spec.num_shards):
        if campaign.load_shard(index) is not None:
            incr("campaign.shards.resumed")
            log(f"shard {index + 1}/{spec.num_shards}: already complete")
            continue
        shard_tests = shard_suite(tests, index, spec.num_shards)
        incr("campaign.shards.evaluated")
        incr("campaign.tests.evaluated", len(shard_tests))
        log(
            f"shard {index + 1}/{spec.num_shards}: evaluating "
            f"{len(shard_tests)} tests x {kind.extent(pairs)}"
        )
        cells = [
            kind.cell(test, model, oracle)
            for test in shard_tests
            for model, oracle in built
        ]
        progress = _Progress(
            log,
            heartbeat,
            f"shard {index + 1}/{spec.num_shards}",
            len(shard_tests),
        )

        def on_batch(test: LitmusTest, results: Sequence[object]) -> None:
            progress.count += 1
            first = results[0] if results else None
            if isinstance(first, CellFailure):
                noun = "attempt" if first.attempts == 1 else "attempts"
                log(
                    f"  [{progress.count}/{len(shard_tests)}] {test.name}: "
                    f"QUARANTINED ({first.reason}, {first.attempts} {noun})"
                )
            else:
                log(
                    f"  [{progress.count}/{len(shard_tests)}] {test.name}: "
                    + " ".join(
                        kind.describe(key, value)
                        for key, value in row(results).items()
                    )
                )
            progress.note_batch()

        with time_block("campaign.shard.seconds"):
            results = evaluate_cells(
                cells,
                jobs=jobs,
                cache_dir=campaign.cache_dir,
                on_batch=on_batch,
                policy=policy,
                on_stall=progress.on_stall if heartbeat else None,
                pool=pool,
            )
            width = len(columns)
            entries = []
            for position, test in enumerate(shard_tests):
                test_results = results[position * width:(position + 1) * width]
                if isinstance(test_results[0], CellFailure):
                    entries.append(_quarantined_entry(test, test_results[0]))
                    continue
                entries.append(
                    {
                        "name": test.name,
                        "instrs": instruction_count(test),
                        kind.record_key: row(test_results),
                    }
                )
            campaign.write_shard(
                index,
                {
                    "shard": index,
                    "num_shards": spec.num_shards,
                    "tests": entries,
                    "complete": True,
                },
            )


def _shard_table(
    campaign: CampaignDir,
    spec: CampaignSpec,
    tests: Sequence[LitmusTest],
    kind: PairKind,
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Pivot the shard records into a row table and a quarantine map.

    The table is keyed in suite order (not shard-completion order), so
    mining is independent of *which run* produced each shard.
    Quarantined tests have no row and are excluded — mining proceeds over
    the surviving cells — and land in the quarantine map (test name →
    failure record) instead.  The shard records are the single source of
    truth: ``quarantine.json`` is rebuilt from them on every run, which
    makes it crash-safe (a killed run re-derives it) and resume-correct
    (records from previous runs' shards are still there).
    """
    rows: dict[str, dict] = {}
    quarantined: dict[str, dict] = {}
    for index in range(spec.num_shards):
        record = campaign.load_shard(index)
        if record is None:  # unreachable after _evaluate_shards
            raise CampaignError(f"shard {index} is missing its record")
        for entry in record["tests"]:
            info = entry.get("quarantined")
            if info is not None:
                quarantined[entry["name"]] = dict(info, shard=index)
            else:
                rows[entry["name"]] = entry[kind.record_key]
    table = {test.name: rows[test.name] for test in tests if test.name in rows}
    return table, quarantined


def _minimize_and_write(
    campaign: CampaignDir,
    kind: PairKind,
    discrepancies: Sequence[AnyDiscrepancy],
    tests_by_name: dict[str, LitmusTest],
    lookup: Mapping[str, MemoryModel],
    log: Callable[[str], None],
    jobs: int,
    pool: WorkerPool,
) -> list[WitnessRecord]:
    """Minimize every discrepancy in lockstep, write its witness, re-verify it.

    Each lockstep round judges every unfinished search's next candidate
    in one engine call over the run's workers, and the written
    ``.litmus`` files are re-checked in one more round; each round is one
    ``campaign.minimize.seconds`` sample.
    """
    if not discrepancies:
        return []
    columns = [
        build_columns(kind.columns(disc.pair), lookup.__getitem__)
        for disc in discrepancies
    ]

    def judge(round_: list[tuple[int, LitmusTest]]) -> list[bool]:
        with time_block("campaign.minimize.seconds"):
            return divergences(
                [(candidate, columns[index]) for index, candidate in round_],
                kind,
                campaign.cache_dir,
                jobs,
                pool,
            )

    results = minimize_in_lockstep(
        [tests_by_name[disc.test_name] for disc in discrepancies], judge
    )
    paths = []
    for disc, result in zip(discrepancies, results):
        stem = _witness_stem(disc)
        witness = replace(
            result.test,
            name=stem,
            source="hunt minimizer",
            description=(
                f"Minimized {kind.title(disc.pair)} divergence "
                f"of {disc.test_name}."
            ),
        )
        path = campaign.witness_dir / f"{stem}.litmus"
        path.write_text(print_litmus(witness), encoding="utf-8")
        paths.append(path)
    # Re-check the *files*: a reported witness must still diverge as
    # .litmus text, not just in memory.
    verified = judge(
        [(index, parse_litmus_file(str(path))) for index, path in enumerate(paths)]
    )
    records: list[WitnessRecord] = []
    for disc, result, path, ok in zip(discrepancies, results, paths, verified):
        if not ok:
            raise CampaignError(
                f"witness {path.stem!r} lost its divergence in the .litmus "
                "round trip — this is a bug in the minimizer or printer"
            )
        log(
            f"minimized {disc.describe()} — "
            f"{result.original_instrs} -> {result.minimized_instrs} instrs "
            f"({result.checks} checks)"
        )
        incr("campaign.witnesses")
        records.append(
            WitnessRecord(
                discrepancy=disc,
                path=str(path),
                relpath=str(path.relative_to(campaign.root)),
                original_instrs=result.original_instrs,
                minimized_instrs=result.minimized_instrs,
                checks=result.checks,
            )
        )
    return records


def _render_report(
    spec: CampaignSpec,
    kind: PairKind,
    tests_evaluated: int,
    discrepancies: Sequence[AnyDiscrepancy],
    witnesses: Sequence[WitnessRecord],
    quarantined: Optional[Mapping[str, dict]] = None,
) -> str:
    """The human-readable hunt report, smallest witness first."""
    pairs = " ".join(":".join(pair) for pair in spec.pairs)
    oracle_note = (
        "" if spec.oracle == ORACLE_AXIOMATIC else f"oracle {spec.oracle}, "
    )
    header = (
        f"Hunt report — {oracle_note}suite {spec.suite!r}, pairs {pairs}, "
        f"{spec.num_shards} shards, {tests_evaluated} tests"
    )
    sizes = {
        (record.discrepancy.test_name, record.discrepancy.pair):
            record.minimized_instrs
        for record in witnesses
    }
    table = render_discrepancies(
        discrepancies,
        sizes=sizes,
        title="Discrepancies (ranked by witness size)",
        kind=kind,
    )
    lines = [header, "", table]
    if witnesses:
        lines.append("")
        lines.append("witnesses (minimized, re-verified .litmus):")
        for record in sorted(
            witnesses, key=lambda r: (r.minimized_instrs, r.relpath)
        ):
            lines.append(
                f"  {record.relpath}  "
                f"{record.original_instrs} -> {record.minimized_instrs} instrs"
            )
    # Rendered only when non-empty, and without wall-clock text or
    # tracebacks, so fault-free reports stay byte-identical to the
    # pre-policy format and resumed reports stay byte-stable.
    if quarantined:
        lines.append("")
        lines.append(
            f"quarantined: {len(quarantined)} test(s) excluded from mining "
            "(see quarantine.json):"
        )
        for name in sorted(quarantined):
            info = quarantined[name]
            attempts = int(info.get("attempts", 1))
            noun = "attempt" if attempts == 1 else "attempts"
            lines.append(
                f"  {name}: {info.get('reason', 'error')} "
                f"after {attempts} {noun}"
            )
    return "\n".join(lines) + "\n"


def _witness_json(kind: PairKind, record: WitnessRecord) -> dict:
    """One witness's ``report.json`` entry (the profile follows the kind)."""
    disc = record.discrepancy
    return {
        "test": disc.test_name,
        "pair": list(disc.pair),
        "witness": record.relpath,
        "original_instrs": record.original_instrs,
        "minimized_instrs": record.minimized_instrs,
        **kind.to_json(disc),
    }


def run_hunt(
    out: str,
    suite: Optional[str] = None,
    pairs: Optional[Sequence[tuple[str, str]]] = None,
    num_shards: Optional[int] = None,
    jobs: int = 1,
    resume: bool = False,
    lint: bool = True,
    log: Optional[Callable[[str], None]] = None,
    heartbeat: bool = False,
    oracle: Optional[str] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> HuntReport:
    """Run (or resume) a differential hunt campaign in ``out``.

    Args:
        out: the campaign directory (created if missing).  An existing
            campaign resumes automatically when the requested spec matches
            the stored one, and is refused otherwise.
        suite: any ``--suite`` spec (``gen:...``, ``rand:...``, static
            names, ``.litmus`` paths).  Optional when resuming: the
            stored spec supplies it.
        pairs: the pair specs to differentiate.  Under the default
            (axiomatic) oracle these are ``(weaker, stronger)``
            model-*spec* pairs; each side is anything
            :func:`repro.models.spec.resolve_models` accepts, so
            ``("space:same_address_loads=*", "gam")`` hunts a whole
            constructed family against a baseline, defaulting to
            :data:`DEFAULT_PAIRS` for a fresh campaign.  Under the
            operational oracle these are ``(model spec, machine)`` pairs
            defaulting to :data:`DEFAULT_ORACLE_PAIRS`.
        num_shards: deterministic suite chunks (default 4 when fresh).
        jobs: worker processes for the run, shared by the shards'
            engine runs and the minimizer's rounds.
        resume: require existing state (a guard against typo'd ``--out``
            silently starting a fresh hunt).
        lint: run the lint pre-flight (:func:`repro.lint.preflight_tests`
            / :func:`repro.lint.preflight_models`) over the resolved
            suite and the expanded member models before any campaign
            state is written; error-level findings abort with
            :class:`CampaignError`.  ``repro hunt --no-lint`` disables it.
        log: progress sink (e.g. ``print``); ``None`` is silent.
        heartbeat: emit per-batch heartbeat lines with elapsed wall time
            (``repro hunt --stats`` turns this on; the default log output
            carries no wall-clock text and stays byte-identical).
        oracle: ``"axiomatic"`` (model-vs-model verdict hunting, the
            default) or ``"operational"`` (axiomatic-vs-machine
            outcome-set hunting over *all* suite tests, asked or not).
            Optional when resuming: the stored spec supplies it.
        policy: the :class:`~repro.engine.ExecutionPolicy` for shard
            evaluation (``--timeout/--retries/--on-error``).  Under
            ``skip``/``quarantine`` a failing, hanging or crashing test
            no longer aborts the hunt: its batch becomes a ``quarantined``
            shard entry, mining proceeds over the surviving cells, and
            the failure records are persisted to ``quarantine.json``.
            Like ``jobs``, the policy is *not* part of the campaign's
            identity — a campaign may be resumed under a different one.
            Planned faults (chaos tests) are armed through the
            ``REPRO_FAULTS`` environment variable.

    Returns:
        the :class:`HuntReport`; identical for identical specs no matter
        how many interrupted runs it took to get there.  Every run also
        persists a telemetry report as ``stats.json`` in the campaign
        directory (see :mod:`repro.obs`), collected into the caller's
        recorder when one is already active (``--stats``) or a private
        one otherwise.
    """
    log = log or (lambda message: None)
    if oracle is not None and oracle not in _PAIR_KINDS:
        raise CampaignError(
            f"unknown oracle {oracle!r}; expected "
            f"{ORACLE_AXIOMATIC!r} or {ORACLE_OPERATIONAL!r}"
        )
    campaign = CampaignDir(out)
    stored = campaign.load_spec()
    if stored is None:
        if resume:
            raise CampaignError(f"nothing to resume: {out} has no campaign.json")
        if suite is None:
            raise CampaignError("a new campaign needs a --suite spec")
        if num_shards is not None and num_shards < 1:
            raise CampaignError(f"--shards must be >= 1, got {num_shards}")
        suite_spec = suite
        mode = oracle if oracle is not None else ORACLE_AXIOMATIC
        requested_pairs = tuple(pairs) if pairs else (
            DEFAULT_ORACLE_PAIRS if mode == ORACLE_OPERATIONAL else DEFAULT_PAIRS
        )
        shards = num_shards if num_shards is not None else _DEFAULT_SHARDS
    else:
        # The stored pairs only mean something under the stored oracle, so
        # a different oracle is refused before they are reinterpreted.
        if oracle is not None and oracle != stored.oracle:
            raise CampaignError(
                f"campaign at {out} hunts with the {stored.oracle!r} oracle; "
                f"it cannot resume with the {oracle!r} oracle — use a fresh "
                "--out directory"
            )
        suite_spec = suite if suite is not None else stored.suite
        mode = stored.oracle
        requested_pairs = tuple(pairs) if pairs else stored.pairs
        shards = num_shards if num_shards is not None else stored.num_shards

    # Resolve (and thereby validate) the suite *before* any state is
    # written: a typo'd spec must not poison the campaign directory, and
    # the resolved content digest is part of the campaign's identity.
    # Spec-shaped mistakes become CampaignError (a usage error at the
    # CLI); parse errors and unknown names keep their own types.
    try:
        resolved = resolve_suite(suite_spec)
    except LitmusParseError:
        raise  # reported with its file/line context
    except ValueError as exc:
        raise CampaignError(str(exc)) from exc
    # The verdict oracle needs an asked outcome per test; the operational
    # oracle compares whole outcome sets, so asked-less tests (randprog
    # corpora) stay in.
    if mode == ORACLE_OPERATIONAL:
        tests = list(resolved)
    else:
        tests = [test for test in resolved if test.asked is not None]
    spec = CampaignSpec(
        suite=suite_spec,
        pairs=requested_pairs,
        num_shards=shards,
        suite_digest=suite_digest(tests),
        oracle=mode,
    )
    # Expand pair specs (space:/file families fan out to concrete member
    # pairs) before any state is written: a bad model spec must not poison
    # the campaign directory either, and the expansion's content digests
    # are part of the campaign's identity via spec.to_json().
    concrete_pairs, lookup = spec.expansion()
    model_names = tuple(
        name for name in member_names(concrete_pairs) if name in lookup
    )
    # Lint pre-flight: refuse tests/models the linter rejects *before*
    # any campaign state is written, so a bad input cannot poison the
    # campaign directory.  Warnings pass; only error findings veto.
    if lint:
        from ..lint import preflight_models, preflight_tests

        findings = preflight_tests(tests)
        findings.extend(preflight_models([lookup[name] for name in model_names]))
        if findings:
            listing = "\n".join(
                "  " + finding.render() for finding in findings
            )
            raise CampaignError(
                f"lint pre-flight found {len(findings)} error(s) "
                f"(rerun with --no-lint to override):\n{listing}"
            )
    if len(concrete_pairs) != len(spec.pairs):
        log(
            f"expanded {len(spec.pairs)} pair spec(s) into "
            f"{len(concrete_pairs)} concrete pairs over "
            f"{len(model_names)} models"
        )
    if stored is None:
        campaign.write_spec(spec)
        log(f"new campaign at {out}: {spec.suite!r}, shards={spec.num_shards}")
    else:
        campaign.check_spec(spec)  # raises on any mismatch, incl. content
        done = len(campaign.completed_shards(spec.num_shards))
        log(
            f"resuming campaign at {out}: "
            f"{done}/{spec.num_shards} shards complete"
        )

    # Telemetry: reuse the CLI's recorder when --stats already installed
    # one (so the printed report covers the whole hunt), else collect
    # privately — stats.json is written either way.
    kind = _PAIR_KINDS[spec.oracle]
    # One worker pool serves the shards and the minimizer; it starts on
    # the first pooled call and is joined before this function returns.
    with collecting(reuse=True) as recorder, WorkerPool(jobs) as pool:
        _evaluate_shards(
            campaign,
            spec,
            tests,
            kind,
            concrete_pairs,
            lookup,
            jobs,
            log,
            heartbeat,
            policy,
            pool,
        )

        with time_block("campaign.mine.seconds"):
            table, quarantined = _shard_table(campaign, spec, tests, kind)
            discrepancies = mine_discrepancies(table, concrete_pairs, kind)
        # Quarantine records are derived from the shard files (the crash
        # safety comes from re-deriving, not from keeping the two in
        # sync) and persisted before minimization, so even a run that
        # dies mid-minimization reports what it skipped.
        campaign.write_quarantine(quarantined)
        if quarantined:
            log(
                f"quarantined {len(quarantined)} test(s); "
                "records in quarantine.json"
            )
        incr("campaign.discrepancies", len(discrepancies))
        log(f"mined {len(discrepancies)} discrepancies over {len(tests)} tests")

        tests_by_name = {test.name: test for test in tests}
        witnesses = _minimize_and_write(
            campaign, kind, discrepancies, tests_by_name, lookup, log, jobs, pool
        )

        text = _render_report(
            spec, kind, len(tests), discrepancies, witnesses, quarantined
        )
        report_data = {
            "campaign": spec.to_json(),
            "tests_evaluated": len(tests),
            "discrepancies": [
                _witness_json(kind, record) for record in witnesses
            ],
        }
        if quarantined:
            # Key present only when non-empty: fault-free reports keep
            # the historical payload byte-for-byte.
            report_data["quarantined"] = {
                name: {
                    "reason": info.get("reason", "error"),
                    "attempts": int(info.get("attempts", 1)),
                    "shard": int(info.get("shard", 0)),
                }
                for name, info in sorted(quarantined.items())
            }
        campaign.write_report(text, report_data)
        meta = {
            "suite": spec.suite,
            "shards": spec.num_shards,
            "pairs": [":".join(pair) for pair in spec.pairs],
            "jobs": jobs,
        }
        if spec.oracle != ORACLE_AXIOMATIC:
            meta["oracle"] = spec.oracle
        if policy is not None:
            meta["policy"] = {
                "timeout": policy.timeout,
                "retries": policy.retries,
                "on_error": policy.on_error,
            }
        stats = RunReport.from_snapshot(
            recorder.snapshot(), command="hunt", meta=meta
        )
        campaign.write_stats(stats.to_json())
    return HuntReport(
        spec=spec,
        tests_evaluated=len(tests),
        discrepancies=tuple(discrepancies),
        witnesses=tuple(witnesses),
        text=text,
        quarantined=quarantined,
    )
