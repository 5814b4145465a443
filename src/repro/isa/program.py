"""Programs: per-processor instruction sequences with labels.

A :class:`Program` is the code one processor runs in a litmus test.  Its key
capability beyond storage is *replay*, the repository's one sequential
interpreter.  :meth:`Program.runs` replays the program and forks at every
executed load over the values a caller supplies, which fixes the concrete
addresses, store data and branch paths each choice implies;
:meth:`Program.execute` is the same replay with one value per load.  The
axiomatic engine (:class:`repro.core.axiomatic.CandidatePrefix`) gets every
candidate run from :meth:`Program.runs` over its value domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .expr import evaluate
from .instructions import Branch, Fence, Instruction, Load, Nop, RegOp, Rmw, Store

__all__ = ["Program", "ExecutedInstr", "ProgramRun", "ProgramError"]


class ProgramError(ValueError):
    """Raised for malformed programs (bad labels, backward branches...)."""


@dataclass(frozen=True)
class ExecutedInstr:
    """One dynamic instruction instance of a replay (:meth:`Program.runs`).

    Attributes:
        index: static index of the instruction within its program.
        instr: the instruction itself.
        addr: resolved memory address (loads/stores), else ``None``.
        value: load result or store data (memory instructions), branch
            condition value (branches), ALU result (reg-ops), else ``None``.
            For an RMW, ``value`` is the *loaded* old value.
        data: for an RMW, the value its store half writes.
        taken: for branches, whether the branch was taken.
    """

    index: int
    instr: Instruction
    addr: Optional[int] = None
    value: Optional[int] = None
    data: Optional[int] = None
    taken: Optional[bool] = None


@dataclass(frozen=True)
class ProgramRun:
    """The result of replaying a program under a load-value assignment.

    Attributes:
        executed: the dynamic instruction sequence, in program order.
        final_regs: register file after the last instruction.
    """

    executed: tuple[ExecutedInstr, ...]
    final_regs: Mapping[str, int]

    def loads(self) -> tuple[ExecutedInstr, ...]:
        """Dynamic loads, in program order."""
        return tuple(e for e in self.executed if e.instr.is_load)

    def stores(self) -> tuple[ExecutedInstr, ...]:
        """Dynamic stores, in program order."""
        return tuple(e for e in self.executed if e.instr.is_store)

    def memory_accesses(self) -> tuple[ExecutedInstr, ...]:
        """Dynamic loads and stores, in program order (built once per run)."""
        return self._memory

    @cached_property
    def _memory(self) -> tuple[ExecutedInstr, ...]:
        return tuple(e for e in self.executed if e.instr.is_memory)


class Program:
    """An ordered sequence of instructions with optional branch labels.

    Args:
        instructions: the instruction sequence.
        labels: mapping from label name to instruction index.  Labels may
            also point one past the last instruction (a "end" label).

    Programs must be loop-free: every branch target must be *after* the
    branch.  This keeps litmus-test state spaces finite, which both the
    axiomatic enumeration and the operational exploration rely on.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        labels: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.instructions: tuple[Instruction, ...] = tuple(instructions)
        self.labels: dict[str, int] = dict(labels or {})
        self._validate()

    def _validate(self) -> None:
        n = len(self.instructions)
        for name, idx in self.labels.items():
            if not 0 <= idx <= n:
                raise ProgramError(f"label {name!r} points outside the program ({idx})")
        for i, instr in enumerate(self.instructions):
            if isinstance(instr, Branch):
                if instr.target not in self.labels:
                    raise ProgramError(f"undefined branch target {instr.target!r} at index {i}")
                if self.labels[instr.target] <= i:
                    raise ProgramError(
                        f"backward branch at index {i}: litmus programs must be loop-free"
                    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __repr__(self) -> str:
        lines = [f"  I{i}: {instr!r}" for i, instr in enumerate(self.instructions)]
        return "Program(\n" + "\n".join(lines) + "\n)"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same instructions and same labels.

        Needed so litmus tests compare by content — the ``.litmus``
        round-trip property ``parse(print(t)) == t`` relies on it.
        """
        if not isinstance(other, Program):
            return NotImplemented
        return self.instructions == other.instructions and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.instructions, tuple(sorted(self.labels.items()))))

    def load_indices(self) -> tuple[int, ...]:
        """Static indices of all load instructions."""
        return tuple(i for i, ins in enumerate(self.instructions) if ins.is_load)

    def store_indices(self) -> tuple[int, ...]:
        """Static indices of all store instructions."""
        return tuple(i for i, ins in enumerate(self.instructions) if ins.is_store)

    def registers(self) -> frozenset[str]:
        """Every register name this program mentions."""
        regs: set[str] = set()
        for instr in self.instructions:
            regs |= instr.read_set() | instr.write_set()
        return frozenset(regs)

    def has_branches(self) -> bool:
        """True if the program contains any branch instruction."""
        return any(ins.is_branch for ins in self.instructions)

    def execute(
        self,
        load_values: Mapping[int, int],
        initial_regs: Optional[Mapping[str, int]] = None,
    ) -> ProgramRun:
        """Replay the program with each load returning an assigned value.

        Args:
            load_values: maps the *static index* of each executed load to the
                value it returns.  Loads skipped by branches need no entry.
            initial_regs: initial register values; unmentioned registers
                default to 0 (the litmus-test convention).

        Returns:
            the one :class:`ProgramRun` of :meth:`runs` under those values.

        Raises:
            KeyError: if an executed load has no assigned value.
        """

        def assigned(pc: int, addr: int) -> tuple[int]:
            if pc not in load_values:
                raise KeyError(f"no value assigned to the load at index {pc}")
            return (load_values[pc],)

        (run,) = self.runs(assigned, initial_regs)
        return run

    def runs(
        self,
        values: Callable[[int, int], Iterable[int]],
        initial_regs: Optional[Mapping[str, int]] = None,
    ) -> list[ProgramRun]:
        """Replay the program, forking at each executed load over ``values``.

        Args:
            values: called as ``values(pc, addr)`` when the load (or RMW) at
                static index ``pc`` executes with resolved address ``addr``;
                the replay forks once per value returned, in that order.
            initial_regs: as for :meth:`execute`.

        Returns:
            every :class:`ProgramRun`, depth first: the runs of a load's
            first value before those of its second.  Branches resolve during
            the replay, so a load a branch skips consumes no choice, and an
            instruction on a prefix shared by several runs executes once.
        """
        instructions = self.instructions
        labels = self.labels
        runs: list[ProgramRun] = []

        def step(pc: int, regs: dict[str, int], executed: list[ExecutedInstr]) -> None:
            while pc < len(instructions):
                instr = instructions[pc]
                next_pc = pc + 1
                if isinstance(instr, Rmw):
                    addr = evaluate(instr.addr, regs)
                    for value in values(pc, addr):
                        forked = dict(regs)
                        forked[instr.dst] = value
                        data = evaluate(instr.data, forked)
                        step(
                            next_pc,
                            forked,
                            executed
                            + [ExecutedInstr(pc, instr, addr=addr, value=value, data=data)],
                        )
                    return
                if isinstance(instr, Load):
                    addr = evaluate(instr.addr, regs)
                    for value in values(pc, addr):
                        forked = dict(regs)
                        forked[instr.dst] = value
                        step(
                            next_pc,
                            forked,
                            executed + [ExecutedInstr(pc, instr, addr=addr, value=value)],
                        )
                    return
                if isinstance(instr, Store):
                    addr = evaluate(instr.addr, regs)
                    data = evaluate(instr.data, regs)
                    executed.append(ExecutedInstr(pc, instr, addr=addr, value=data))
                elif isinstance(instr, RegOp):
                    result = evaluate(instr.expr, regs)
                    regs[instr.dst] = result
                    executed.append(ExecutedInstr(pc, instr, value=result))
                elif isinstance(instr, Branch):
                    cond = evaluate(instr.cond, regs)
                    taken = cond != 0
                    executed.append(ExecutedInstr(pc, instr, value=cond, taken=taken))
                    if taken:
                        next_pc = labels[instr.target]
                elif isinstance(instr, (Fence, Nop)):
                    executed.append(ExecutedInstr(pc, instr))
                else:
                    raise ProgramError(f"unknown instruction kind: {instr!r}")
                pc = next_pc
            runs.append(ProgramRun(tuple(executed), regs))

        regs: dict[str, int] = dict(initial_regs or {})
        for name in self.registers():
            regs.setdefault(name, 0)
        step(0, regs, [])
        return runs
