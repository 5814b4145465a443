"""The unreduced GAM/GAM0 successor function: the parity oracle for the reduction.

:class:`repro.core.operational._Machine` fires only the oldest local
moves of one processor whenever some processor's enabled moves are all
processor-local (partial-order reduction).  This machine fires every
enabled rule of every processor from every state, as Figure 17 reads, so
the parity tests hold the reduced explorer's outcome sets and terminal
counts equal to the full interleaving's, and the state-count fixture
records how much the reduction saves.

It shares the rule implementations (``_interned_moves``), the interned
state encoding and the exploration loop with the engine; only the choice
of which moves to fire differs.
"""

from __future__ import annotations

from typing import Optional

from repro.core.operational import (
    GAM_MACHINE,
    ExplorationResult,
    MachineVariant,
    _Machine,
    _place,
    explore_machine,
)
from repro.litmus.test import LitmusTest

__all__ = ["UnreducedMachine", "explore_unreduced"]


class UnreducedMachine(_Machine):
    """The GAM/GAM0 machine with every enabled rule firing from every state."""

    def __init__(self, test: LitmusTest, variant: MachineVariant) -> None:
        super().__init__(test, variant)
        self._all_moves: dict[tuple[int, int], list] = {}

    def successors(self, state: tuple) -> list[tuple]:
        memory_id = state[0]
        out: list[tuple] = []
        for p in range(len(self.ends)):
            key = (memory_id, state[p + 1])
            moves = self._all_moves.get(key)
            if moves is None:
                moves = self._all_moves[key] = self._interned_moves(p, *key)[0]
            out.extend(_place(state, p, moves))
        return out


def explore_unreduced(
    test: LitmusTest,
    variant: MachineVariant = GAM_MACHINE,
    project: str = "observed",
    max_states: Optional[int] = None,
) -> ExplorationResult:
    """:func:`repro.core.operational.explore` without the reduction."""
    return explore_machine(UnreducedMachine(test, variant), project, max_states)
