"""Model-spec analyzers: the ``M###`` diagnostics.

:func:`lint_model` checks one :class:`~repro.core.axiomatic.MemoryModel`
against the Definition 6 clause vocabulary: unknown clause specs,
duplicates, the SALdLd-vs-SALdLdARM policy conflict, and clauses that
are statically *subsumed* by stronger clauses already present, per the
declared implication lattice :data:`IMPLICATIONS`.  :func:`lint_models`
adds the cross-model checks — name collisions within the linted set and
canonical identity with a registry model under a different name.

The lattice is deliberately conservative: it declares only implications
that hold *per edge set* for every program (a clause is subsumed only
when every edge it can ever contribute is contributed by the
antecedents).  Clauses whose edges reach non-memory instructions
(``AddrSt``, ``SAStLd``, ``RegRAW``, ``BrSt``, ``FenceOrd``) are never
claimed subsumed by memory-to-memory pairwise orders.
"""

from __future__ import annotations

from typing import Sequence

from ..core.axiomatic import MemoryModel
from ..core.ppo import (
    DYNAMIC_CLAUSES,
    PARAMETRIC_CLAUSES,
    STATIC_CLAUSES,
    clause_spec,
)
from .diagnostics import Diagnostic, make

__all__ = [
    "IMPLICATIONS",
    "canonical_model_key",
    "lint_model",
    "lint_models",
]

IMPLICATIONS: tuple[tuple[frozenset[str], str, str], ...] = (
    (
        frozenset(("PairwiseOrder(L,L)",)),
        "SALdLd",
        "PairwiseOrder(L,L) orders every same-thread load pair; the "
        "same-address subset SALdLd adds nothing",
    ),
    (
        frozenset(("PairwiseOrder(L,L)",)),
        "SALdLdARM",
        "PairwiseOrder(L,L) orders every same-thread load pair; the "
        "dynamic same-address subset SALdLdARM adds nothing and still "
        "turns on the kernel's same-source check",
    ),
    (
        frozenset(("PairwiseOrder(S,L)",)),
        "SARmwLd",
        "PairwiseOrder(S,L) orders every store (RMWs included) before "
        "every younger load; the same-address RMW-to-load subset SARmwLd "
        "adds nothing",
    ),
    (
        frozenset(("PairwiseOrder(L,S)", "PairwiseOrder(S,S)")),
        "SAMemSt",
        "PairwiseOrder(L,S) and PairwiseOrder(S,S) together order every "
        "older memory access before every younger store; the "
        "same-address subset SAMemSt adds nothing",
    ),
)
"""The declared implication lattice: ``(antecedent specs, implied spec,
why)``.  A model carrying all antecedents *and* the implied clause gets
an ``M003`` subsumed-clause finding for the implied clause."""


def canonical_model_key(model: MemoryModel) -> tuple[object, ...]:
    """Canonical content identity of a model, ignoring its name.

    Sorted static clause specs, sorted dynamic clause specs, the
    load-value axiom, and the coherence side condition — exactly the
    semantic content; clause order, description and name are erased.
    """
    return (
        tuple(sorted(clause_spec(clause) for clause in model.clauses)),
        tuple(sorted(clause_spec(clause) for clause in model.dynamic_clauses)),
        model.load_value,
        model.requires_coherence,
    )


def _all_specs(model: MemoryModel) -> list[str]:
    """Every clause spec of a model, static then dynamic, in order."""
    return [clause_spec(clause) for clause in model.clauses] + [
        clause_spec(clause) for clause in model.dynamic_clauses
    ]


def lint_model(model: MemoryModel) -> list[Diagnostic]:
    """Run the per-model checks (``M001``-``M004``) on one model."""
    findings: list[Diagnostic] = []
    specs = _all_specs(model)
    present = frozenset(specs)

    # M001: clause specs outside the vocabulary catalogs.
    for spec in specs:
        base = spec.split("(", 1)[0]
        if (
            base not in STATIC_CLAUSES
            and base not in DYNAMIC_CLAUSES
            and base not in PARAMETRIC_CLAUSES
        ):
            findings.append(
                make(
                    "M001",
                    model.name,
                    f"clause {spec!r} is outside the Definition 6 "
                    "vocabulary; .model round trips and docs cannot "
                    "represent it",
                )
            )

    # M002: the same clause twice (across static + dynamic lists).
    reported: set[str] = set()
    seen: set[str] = set()
    for spec in specs:
        if spec in seen and spec not in reported:
            reported.add(spec)
            findings.append(
                make(
                    "M002",
                    model.name,
                    f"clause {spec!r} appears more than once; the "
                    "duplicate adds no edges but changes the model's "
                    "content digest",
                )
            )
        seen.add(spec)

    # M004: rival same-address load-load policies together.
    if "SALdLd" in present and "SALdLdARM" in present:
        findings.append(
            make(
                "M004",
                model.name,
                "carries both SALdLd and SALdLdARM; the static clause "
                "dominates and the dynamic one is dead code that still "
                "turns on the kernel's same-source check",
            )
        )

    # M003: statically subsumed clauses.
    for antecedents, implied, why in IMPLICATIONS:
        if implied in present and antecedents <= present:
            sources = " + ".join(sorted(antecedents))
            findings.append(
                make(
                    "M003",
                    model.name,
                    f"clause {implied!r} is statically subsumed by "
                    f"{sources}: {why}",
                )
            )
    return findings


def lint_models(models: Sequence[MemoryModel]) -> list[Diagnostic]:
    """Lint a model set: per-model checks plus ``M005``/``M006``.

    Args:
        models: the models, in a deterministic order; ``M005`` compares
            their canonical content against the zoo.

    Returns:
        every finding, grouped per model in input order.
    """
    # runtime import stays lazy to keep lint imports light
    from ..models.registry import canonical_name, canonical_names, get_model

    twin_index: dict[tuple[object, ...], str] = {}
    for name in canonical_names():
        twin_index.setdefault(canonical_model_key(get_model(name)), name)

    findings: list[Diagnostic] = []
    first_by_name: dict[str, int] = {}
    for position, model in enumerate(models):
        findings.extend(lint_model(model))
        if model.name in first_by_name:
            findings.append(
                make(
                    "M006",
                    model.name,
                    f"duplicate model name: position {position} shadows "
                    f"position {first_by_name[model.name]} in the linted "
                    "set; downstream tables key models by name",
                )
            )
        else:
            first_by_name[model.name] = position
        twin = twin_index.get(canonical_model_key(model))
        if twin is not None and twin != canonical_name(model.name):
            findings.append(
                make(
                    "M005",
                    model.name,
                    f"canonically identical to registry model {twin!r} "
                    "(same clauses, load-value axiom and coherence flag)",
                )
            )
    return findings
