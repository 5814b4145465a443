"""Witness minimization: greedy deletion that preserves a divergence.

A discrepant test found by a hunt is rarely minimal — generated cycles
carry fences, dependencies and observer reads that may be irrelevant to
the *particular* disagreement between two models.  This module shrinks a
diverging test the way C-reduce shrinks a crashing program: repeatedly
try deleting one instruction, keep the deletion if the pair still
diverges (see :func:`divergence_check`), stop at a fixpoint.  Deleting an
instruction that wrote an asked-about register also drops that register's
binding from the asked outcome (a condition over a value nobody produces
can never diverge), and processors left with no instructions are removed
with the remaining processors renumbered.

Everything is deterministic: candidate deletions are tried in (processor,
instruction-index) order and the first success restarts the scan, so a
given (test, pair) always minimizes to the same witness — which is what
lets an interrupted campaign reproduce its report exactly on re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.axiomatic import DomainOverflowError
from ..engine import EngineWorkerError, ModelLike, evaluate_cells
from ..eval.discrepancy import AXIOMATIC_PAIRS, PairKind
from ..isa.program import Program, ProgramError
from ..litmus.test import LitmusTest, Outcome

__all__ = [
    "MinimizationResult",
    "divergence_check",
    "minimize_divergence",
    "instruction_count",
]


def instruction_count(test: LitmusTest) -> int:
    """Total static instructions across all of a test's processors."""
    return sum(len(program) for program in test.programs)


@dataclass(frozen=True)
class MinimizationResult:
    """The outcome of minimizing one diverging test.

    Attributes:
        test: the minimized witness (still diverging, by construction).
        original_instrs / minimized_instrs: size before and after.
        checks: how many divergence re-checks the greedy search performed.
    """

    test: LitmusTest
    original_instrs: int
    minimized_instrs: int
    checks: int


def divergence_check(
    pair: tuple[ModelLike, ModelLike],
    cache_dir: Optional[str] = None,
    kind: PairKind = AXIOMATIC_PAIRS,
) -> Callable[[LitmusTest], bool]:
    """A predicate "do the pair's two sides disagree about ``test``?".

    ``kind`` (a :class:`~repro.eval.discrepancy.PairKind`) says what the
    sides are.  By default both are models — registry names or resolved
    :class:`~repro.core.axiomatic.MemoryModel` objects, the way the
    campaign driver passes constructed family members — and the pair
    diverges when their verdicts on the asked outcome differ.  Under
    :data:`~repro.eval.discrepancy.OPERATIONAL_PAIRS` the pair is
    ``(model, "operational:<machine>")`` and it diverges when the axioms
    and the machine allow different full-projection outcome sets.

    Both cells go through the batch engine, sharing one candidate prefix
    per variant, and — with ``cache_dir`` set — every check is cached:
    re-running an interrupted minimization replays its prior decisions
    from disk.  Variants the engine cannot evaluate (domain overflow and
    kin) count as non-diverging, which simply makes the minimizer reject
    that deletion.
    """
    columns = kind.columns(pair)

    def check(test: LitmusTest) -> bool:
        if not kind.evaluable(test):
            return False
        try:
            a, b = evaluate_cells(
                [kind.cell(test, *column) for column in columns],
                cache_dir=cache_dir,
            )
        except (DomainOverflowError, EngineWorkerError):
            return False
        return kind.diverges(kind.profile(a, b))

    return check


def _written_registers(program: Program) -> frozenset[str]:
    """Every register some instruction of ``program`` can write."""
    written: set[str] = set()
    for instr in program:
        written |= instr.write_set()
    return frozenset(written)


def _prune_asked(
    asked: Optional[Outcome], programs: Sequence[Program]
) -> Optional[Outcome]:
    """Drop asked register bindings no remaining instruction can produce."""
    if asked is None:
        return None
    regs = frozenset(
        (proc, reg, value)
        for proc, reg, value in asked.regs
        if proc < len(programs) and reg in _written_registers(programs[proc])
    )
    return Outcome(regs, asked.mem)


def _rebuild(test: LitmusTest, programs: Sequence[Program]) -> LitmusTest:
    """A structural variant of ``test`` with new programs.

    Paper verdict expectations are dropped (they were claims about the
    original structure) and the observed set is re-derived from the pruned
    asked outcome.
    """
    return LitmusTest(
        name=test.name,
        programs=tuple(programs),
        locations=dict(test.locations),
        initial_memory=dict(test.initial_memory),
        asked=_prune_asked(test.asked, programs),
        expect={},
        observed=frozenset(),
        source=test.source,
        description=test.description,
    )


def _delete_instruction(
    test: LitmusTest, proc_index: int, instr_index: int
) -> Optional[LitmusTest]:
    """The variant with one instruction removed, or ``None`` if removal
    leaves the program malformed (e.g. a branch loses its target)."""
    program = test.programs[proc_index]
    instructions = list(program.instructions)
    del instructions[instr_index]
    labels = {
        name: target - 1 if target > instr_index else target
        for name, target in program.labels.items()
    }
    try:
        shrunk = Program(instructions, labels)
    except ProgramError:
        return None
    programs = list(test.programs)
    programs[proc_index] = shrunk
    return _rebuild(test, programs)


def _drop_empty_programs(test: LitmusTest) -> LitmusTest:
    """Remove instruction-less processors, renumbering the rest.

    An empty program contributes no events, so this is semantics-
    preserving; asked/observed processor ids shift down accordingly.
    """
    keep = [i for i, program in enumerate(test.programs) if len(program)]
    if len(keep) == len(test.programs) or not keep:
        return test
    renumber = {old: new for new, old in enumerate(keep)}
    asked = test.asked
    if asked is not None:
        asked = Outcome(
            frozenset(
                (renumber[proc], reg, value)
                for proc, reg, value in asked.regs
                if proc in renumber
            ),
            asked.mem,
        )
    return LitmusTest(
        name=test.name,
        programs=tuple(test.programs[i] for i in keep),
        locations=dict(test.locations),
        initial_memory=dict(test.initial_memory),
        asked=asked,
        expect={},
        observed=frozenset(),
        source=test.source,
        description=test.description,
    )


def minimize_divergence(
    test: LitmusTest,
    check: Callable[[LitmusTest], bool],
    max_checks: int = 10_000,
) -> MinimizationResult:
    """Greedily shrink ``test`` while ``check`` (the divergence) holds.

    Args:
        test: a diverging test (``check(test)`` must be true).
        check: the divergence predicate, typically from
            :func:`divergence_check`.
        max_checks: hard bound on predicate evaluations (a safety net; the
            greedy loop is quadratic in the instruction count, which for
            litmus-sized tests stays in the low hundreds).

    Returns:
        the fixpoint witness: no single instruction can be deleted without
        losing the divergence.

    Raises:
        ValueError: if ``test`` does not diverge to begin with.
    """
    if not check(test):
        raise ValueError(
            f"test {test.name!r} does not diverge for this model pair"
        )
    current = test
    checks = 0
    progress = True
    while progress and checks < max_checks:
        progress = False
        for proc_index in range(len(current.programs)):
            for instr_index in range(len(current.programs[proc_index])):
                variant = _delete_instruction(current, proc_index, instr_index)
                if variant is None:
                    continue
                checks += 1
                if check(variant):
                    current = variant
                    progress = True
                    break
                if checks >= max_checks:
                    break
            if progress or checks >= max_checks:
                break
    current = _drop_empty_programs(current)
    return MinimizationResult(
        test=current,
        original_instrs=instruction_count(test),
        minimized_instrs=instruction_count(current),
        checks=checks,
    )
