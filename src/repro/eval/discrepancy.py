"""Discrepancy mining: where do two sides of a pair disagree over a suite?

The paper's positioning argument — WMM/WMM-S sit between SC/TSO and
ARM/Alpha — is an argument about *differences*: behaviours one model
allows and another forbids.  Its equivalence theorems are claims of *no*
difference: GAM's axioms and its abstract machine allow the same
outcomes.  This module mines both kinds of difference out of accumulated
per-test tables for a chosen set of *pairs*, in the tradition of Herding
Cats' mass differential litmus runs.

A :class:`PairKind` says what a pair compares: two models' verdicts
(:data:`AXIOMATIC_PAIRS`, mined into :class:`Discrepancy` records) or a
model's axioms against an abstract machine's outcome sets
(:data:`OPERATIONAL_PAIRS`, mined into :class:`OracleDiscrepancy`
records).  Mining is a pure function of the table, so it can be re-run
over a campaign's accumulated shards at any time — including after an
interrupt — and always yields the same, deterministically ordered list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from ..engine import ORACLE_AXIOMATIC, OutcomeSpec, VerdictSpec
from .litmus_matrix import VerdictCell
from .render import render_table

__all__ = [
    "AXIOMATIC_PAIRS",
    "Discrepancy",
    "OPERATIONAL_PAIRS",
    "OracleDiscrepancy",
    "PairKind",
    "verdict_table",
    "mine_discrepancies",
    "render_discrepancies",
]


@dataclass(frozen=True)
class Discrepancy:
    """One (test, model-pair) disagreement.

    Attributes:
        test_name: the diverging test.
        pair: the ``(a, b)`` model names, as given to the miner.
        allowed_a / allowed_b: the two verdicts (always unequal).
    """

    test_name: str
    pair: tuple[str, str]
    allowed_a: bool
    allowed_b: bool

    @property
    def splitter(self) -> str:
        """The model that *allows* the behaviour (the weaker side here)."""
        return self.pair[0] if self.allowed_a else self.pair[1]

    def describe(self) -> str:
        """One-line human-readable summary of the disagreement."""
        a, b = self.pair
        va = "allows" if self.allowed_a else "forbids"
        vb = "allows" if self.allowed_b else "forbids"
        return f"{self.test_name}: {a} {va}, {b} {vb}"


@dataclass(frozen=True)
class OracleDiscrepancy:
    """One (test, model-vs-machine) outcome-set divergence.

    Where :class:`Discrepancy` records a boolean verdict split between
    two models, this records an *outcome-set* split between an axiomatic
    model and an abstract machine — the unit an ``--oracle operational``
    hunt mines.  The sets themselves live in the engine cache; the
    discrepancy keeps only the divergence profile.

    Attributes:
        test_name: the diverging test.
        pair: ``(model name, oracle label)``, e.g.
            ``("gam", "operational:gam0")``.
        machine_only: outcomes the machine allows but the axioms forbid.
        axiomatic_only: outcomes the axioms allow but the machine forbids.
    """

    test_name: str
    pair: tuple[str, str]
    machine_only: int
    axiomatic_only: int

    def describe(self) -> str:
        """One-line human-readable summary of the divergence."""
        model, oracle = self.pair
        return (
            f"{self.test_name}: {model} vs {oracle} — "
            f"{self.machine_only} machine-only, "
            f"{self.axiomatic_only} axioms-only outcomes"
        )


@dataclass(frozen=True)
class PairKind:
    """How a hunt compares a concrete pair: two columns plus a divergence.

    A concrete pair ``(a, b)`` names two *columns*, each a ``(model,
    oracle)`` engine cell over the same test.  ``profile`` reduces the two
    column results to a divergence profile, and the pair diverges when
    ``diverges(profile)``.  The campaign's shard loop, table pivot, miner,
    renderer and minimizer take a kind as data, so the two kinds below
    hold all that differs between axiomatic and operational hunts.

    Attributes:
        record_key: the shard-entry key a test's row is stored under.
        discrepancy: the mined record, built as ``(test, pair, *profile)``.
        headers: the report table's two profile columns.
        columns: ``pair`` → its two ``(model, oracle)`` columns; a
            machine column's model is ``None``.
        cell: ``(test, model, oracle)`` → the column's engine cell, with
            the column's model built.
        evaluable: whether a test can diverge at all; the minimizer
            counts variants that cannot as non-diverging.
        profile / diverges: the divergence function.
        store / load: a pair's profile as shard-row entries, and back
            (``None`` when the row lacks the pair).
        extent: what one row covers, for the shard progress log.
        describe: one row entry ``(key, value)`` as progress-log text.
        show: a discrepancy's two profile cells in the report table.
        title: the pair as a witness description names it.
        to_json: a discrepancy's profile as ``report.json`` fields.
    """

    record_key: str
    discrepancy: Callable[..., Any]
    headers: tuple[str, str]
    columns: Callable[[tuple[str, Any]], tuple[tuple[Any, str], tuple[Any, str]]]
    cell: Callable[..., Any]
    evaluable: Callable[[Any], bool]
    profile: Callable[[Any, Any], tuple]
    diverges: Callable[[tuple], bool]
    store: Callable[[tuple[str, str], tuple], dict]
    load: Callable[[Mapping[str, Any], tuple[str, str]], Optional[tuple]]
    extent: Callable[[Sequence[tuple[str, str]]], str]
    describe: Callable[[str, Any], str]
    show: Callable[[Any], tuple]
    title: Callable[[tuple[str, str]], str]
    to_json: Callable[[Any], dict]


def _verdict(allowed: bool) -> str:
    return "allow" if allowed else "forbid"


def _label(pair: tuple[str, str]) -> str:
    """A pair's key in an operational shard row: ``"model|oracle"``."""
    return "|".join(pair)


AXIOMATIC_PAIRS = PairKind(
    record_key="verdicts",
    discrepancy=Discrepancy,
    headers=("weaker", "stronger"),
    columns=lambda pair: tuple((side, ORACLE_AXIOMATIC) for side in pair),
    cell=VerdictSpec,
    evaluable=lambda test: test.asked is not None
    and bool(test.asked.regs or test.asked.mem),
    profile=lambda a, b: (bool(a), bool(b)),
    diverges=lambda profile: profile[0] != profile[1],
    store=lambda pair, profile: dict(zip(pair, profile)),
    load=lambda row, pair: (
        (row[pair[0]], row[pair[1]]) if pair[0] in row and pair[1] in row else None
    ),
    extent=lambda pairs: f"{len({name for pair in pairs for name in pair})} models",
    describe=lambda model, allowed: f"{model}={_verdict(allowed)}",
    show=lambda disc: (_verdict(disc.allowed_a), _verdict(disc.allowed_b)),
    title=lambda pair: "/".join(pair),
    to_json=lambda disc: {
        "verdicts": {disc.pair[0]: disc.allowed_a, disc.pair[1]: disc.allowed_b}
    },
)
"""Model-vs-model pairs: each side is a model's verdict on the asked
outcome, and a pair diverges when the two verdicts differ.  A shard row
maps each model to its verdict."""

OPERATIONAL_PAIRS = PairKind(
    record_key="oracle",
    discrepancy=OracleDiscrepancy,
    headers=("machine-only", "axioms-only"),
    columns=lambda pair: ((pair[0], ORACLE_AXIOMATIC), (None, pair[1])),
    cell=lambda test, model, oracle: OutcomeSpec(test, model, "full", oracle),
    evaluable=lambda test: any(len(program) for program in test.programs),
    profile=lambda axiomatic, machine: (
        len(machine - axiomatic),
        len(axiomatic - machine),
    ),
    diverges=any,
    store=lambda pair, profile: {_label(pair): list(profile)},
    load=lambda row, pair: (
        tuple(int(count) for count in row[_label(pair)])
        if _label(pair) in row
        else None
    ),
    extent=lambda pairs: f"{len(pairs)} oracle pairs",
    describe=lambda label, counts: (
        f"{'~'.join(label.rsplit('|', 1))}={'DIFF' if any(counts) else 'ok'}"
    ),
    show=lambda disc: (disc.machine_only, disc.axiomatic_only),
    title=lambda pair: f"{pair[0]}-axioms vs {pair[1]}",
    to_json=lambda disc: {
        "machine_only": disc.machine_only,
        "axiomatic_only": disc.axiomatic_only,
    },
)
"""Axioms-vs-machine pairs ``(model, "operational:<machine>")``: the
columns are the model's full-projection outcome sets under its axioms
and under the machine, and the profile counts the machine-only and
axioms-only outcomes.  A shard row maps ``"model|oracle"`` to the
profile; the sets themselves stay in the engine cache."""


def verdict_table(
    cells: Iterable[VerdictCell],
) -> dict[str, dict[str, bool]]:
    """Pivot verdict cells into a ``test -> model -> allowed`` table.

    Insertion order of the outer dict follows first appearance of each
    test in ``cells``, so matrices built in suite order keep that order.
    """
    table: dict[str, dict[str, bool]] = {}
    for cell in cells:
        table.setdefault(cell.test_name, {})[cell.model_name] = cell.allowed
    return table


def mine_discrepancies(
    table: Mapping[str, Mapping[str, Any]],
    pairs: Sequence[tuple[str, str]],
    kind: PairKind = AXIOMATIC_PAIRS,
) -> list:
    """All (test, pair) divergences in a per-test table of ``kind`` rows.

    Tests whose row lacks a pair are skipped (an interrupted campaign may
    have partial rows); the output is ordered by the table's test order,
    then by pair order, so mining is deterministic for any fixed table.
    The default kind reads a ``test -> model -> allowed`` verdict table
    (see :func:`verdict_table`) and yields :class:`Discrepancy` records.
    """
    found = []
    for test_name, row in table.items():
        for pair in pairs:
            profile = kind.load(row, pair)
            if profile is not None and kind.diverges(profile):
                found.append(kind.discrepancy(test_name, pair, *profile))
    return found


def render_discrepancies(
    discrepancies: Sequence,
    sizes: Optional[Mapping[tuple[str, tuple[str, str]], int]] = None,
    title: str = "Model discrepancies",
    kind: PairKind = AXIOMATIC_PAIRS,
) -> str:
    """Render discrepancies as an aligned table, smallest witnesses first.

    ``sizes`` maps ``(test_name, pair)`` keys to a size metric (the
    campaign uses the minimized witness's instruction count — one test
    can minimize differently for different pairs, so the pair is part of
    the key); when given, rows are ranked by ascending size — the
    shortest divergence is the most story-telling — with name order
    breaking ties.  Without it, table order is kept.  ``kind`` supplies
    the two profile columns: verdicts for model pairs, machine-only /
    axioms-only outcome counts for operational pairs.
    """
    ordered = list(discrepancies)
    if sizes is not None:
        ordered.sort(
            key=lambda d: (
                sizes.get((d.test_name, d.pair), 1 << 30),
                d.test_name,
                d.pair,
            )
        )
    rows = []
    for disc in ordered:
        size: object = "-"
        if sizes is not None:
            size = sizes.get((disc.test_name, disc.pair), "-")
        rows.append([disc.test_name, ":".join(disc.pair), *kind.show(disc), size])
    table = render_table(
        ["test", "pair", *kind.headers, "instrs"], rows, title=title
    )
    return table + f"\n{len(ordered)} discrepanc{'y' if len(ordered) == 1 else 'ies'}"
