"""Fence synthesis: restore SC under a weak model with minimal fences.

Section III-D introduces fences so programmers can recover SC; this module
automates the exercise: given a litmus test and a weak model, find the
smallest set of fence insertions whose fenced program has *exactly* the SC
outcome set under the weak model.

The search enumerates insertion plans by increasing fence count over all
(gap, fence-type) combinations — exact and exhaustive, which litmus-sized
programs afford.  Two classic results fall out immediately and are locked
in by tests: message passing needs FenceSS + FenceLL, while Dekker
fundamentally needs the expensive store-to-load fence (FenceSL).  Each
plan is one engine call for two outcome cells, the weak model's and SC's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core.axiomatic import MemoryModel
from .engine import OutcomeSpec, evaluate_cells
from .isa.instructions import Fence
from .isa.program import Program
from .litmus.test import LitmusTest
from .models.registry import get_model

__all__ = ["FencePlacement", "SynthesisResult", "restores_sc", "synthesize_fences"]

_FENCE_TYPES = ("LL", "LS", "SL", "SS")


@dataclass(frozen=True, order=True)
class FencePlacement:
    """One inserted fence: ``FenceXY`` in front of instruction ``index``.

    ``index`` may equal the program length (a trailing fence, rarely
    useful but included for completeness).
    """

    proc: int
    index: int
    kind: str

    def __str__(self) -> str:
        return f"P{self.proc}: Fence{self.kind} before I{self.index}"


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a synthesis run.

    Attributes:
        placements: the minimal plan found (empty if none needed).
        fenced_test: the litmus test with the fences inserted.
        plans_checked: how many candidate plans were evaluated.
    """

    placements: tuple[FencePlacement, ...]
    fenced_test: LitmusTest
    plans_checked: int


def apply_placements(
    test: LitmusTest, placements: Iterable[FencePlacement]
) -> LitmusTest:
    """A copy of ``test`` with the given fences inserted.

    Insertion indices refer to the *original* programs; multiple fences in
    one gap are applied in placement order.
    """
    by_proc: dict[int, list[FencePlacement]] = {}
    for placement in placements:
        by_proc.setdefault(placement.proc, []).append(placement)
    programs = []
    for proc, program in enumerate(test.programs):
        todo = sorted(by_proc.get(proc, []), key=lambda p: p.index)
        instrs = []
        labels = dict(program.labels)
        shift_at: list[int] = []
        for position, instr in enumerate(program.instructions):
            for placement in todo:
                if placement.index == position:
                    instrs.append(Fence(placement.kind[0], placement.kind[1]))
                    shift_at.append(position)
            instrs.append(instr)
        for placement in todo:
            if placement.index == len(program.instructions):
                instrs.append(Fence(placement.kind[0], placement.kind[1]))
        # Labels move past every fence inserted before them.
        for name, target in labels.items():
            labels[name] = target + sum(1 for s in shift_at if s < target)
        programs.append(Program(instrs, labels))
    return LitmusTest(
        name=f"{test.name}+synth",
        programs=tuple(programs),
        locations=test.locations,
        initial_memory=test.initial_memory,
        asked=test.asked,
        expect={},
        observed=test.observed,
        source=test.source,
        description=f"{test.description} (with synthesized fences)",
    )


def restores_sc(test: LitmusTest, model: MemoryModel) -> bool:
    """Does ``test`` already have exactly its SC outcomes under ``model``?"""
    weak, strong = evaluate_cells(
        [
            OutcomeSpec(test, model, "full"),
            OutcomeSpec(test, get_model("sc"), "full"),
        ]
    )
    return weak == strong


def synthesize_fences(
    test: LitmusTest,
    model: Optional[MemoryModel] = None,
    max_fences: int = 3,
    kinds: Sequence[str] = _FENCE_TYPES,
) -> Optional[SynthesisResult]:
    """Find a minimal fence plan making ``model`` agree with SC on ``test``.

    Args:
        test: the program to harden.
        model: the weak model (default GAM).
        max_fences: search bound, >= 0; litmus tests rarely need more than 2.
        kinds: allowed fence types, e.g. ``("SS", "LL")`` to exclude the
            expensive FenceSL and see which tests become unfixable.

    Returns:
        the minimal :class:`SynthesisResult`, or ``None`` if no plan within
        ``max_fences`` works.  Plans are explored smallest-first, and among
        equal sizes in deterministic lexicographic order, so results are
        stable.
    """
    if max_fences < 0:
        raise ValueError(f"max_fences must be >= 0, got {max_fences}")
    model = model or get_model("gam")
    if restores_sc(test, model):
        return SynthesisResult((), test, plans_checked=1)
    plans_checked = 0

    slots = [
        FencePlacement(proc, index, kind)
        for proc, program in enumerate(test.programs)
        for index in range(1, len(program))  # gaps between instructions
        for kind in kinds
    ]
    for count in range(1, max_fences + 1):
        for plan in itertools.combinations(slots, count):
            if len({(p.proc, p.index) for p in plan}) < count:
                continue  # one fence per gap is enough (stronger = union)
            plans_checked += 1
            fenced = apply_placements(test, plan)
            if restores_sc(fenced, model):
                return SynthesisResult(
                    placements=tuple(sorted(plan)),
                    fenced_test=fenced,
                    plans_checked=plans_checked,
                )
    return None
