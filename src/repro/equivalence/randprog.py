"""Seeded random litmus-program generation for equivalence fuzzing.

The paper's axiomatic and operational GAM definitions are proven equivalent
(reference [80]); our empirical analogue compares outcome sets over the
hand-written suite *and* over randomly generated programs.  The generator
below produces small loop-free multi-processor programs biased toward the
interesting features: same-address accesses, register dependencies
(including artificial ``x + r - r`` chains), fences and forward branches.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

from ..isa.expr import BinOp, Const, Expr, Reg
from ..isa.instructions import Branch, Fence, Instruction, Load, Nop, RegOp, Rmw, Store
from ..isa.program import Program
from ..litmus.dsl import LOCATION_STRIDE
from ..litmus.test import LitmusTest

__all__ = ["RandomProgramConfig", "random_litmus_test", "random_suite"]


class RandomProgramConfig:
    """Knobs for :func:`random_litmus_test`.

    Attributes:
        num_procs: number of processors.
        max_instrs: maximum instructions per processor.
        num_locations: shared memory locations (addresses stride-spaced).
        values: data values stores may write.
        registers: register names available per processor.
        fence_weight / branch_weight / regop_weight / load_weight /
        store_weight / rmw_weight: relative instruction-kind frequencies
            (``rmw_weight`` defaults to 0, so the default corpora have no
            read-modify-writes).
        artificial_dep_prob: probability a load/store address becomes an
            artificial dependency expression ``loc + r - r``.
    """

    def __init__(
        self,
        num_procs: int = 2,
        max_instrs: int = 4,
        num_locations: int = 2,
        values: Sequence[int] = (1, 2),
        registers: Sequence[str] = ("r0", "r1", "r2"),
        load_weight: float = 4.0,
        store_weight: float = 4.0,
        regop_weight: float = 1.0,
        fence_weight: float = 1.0,
        branch_weight: float = 0.5,
        rmw_weight: float = 0.0,
        artificial_dep_prob: float = 0.2,
    ) -> None:
        self.num_procs = num_procs
        self.max_instrs = max_instrs
        self.num_locations = num_locations
        self.values = tuple(values)
        self.registers = tuple(registers)
        self.load_weight = load_weight
        self.store_weight = store_weight
        self.regop_weight = regop_weight
        self.fence_weight = fence_weight
        self.branch_weight = branch_weight
        self.rmw_weight = rmw_weight
        self.artificial_dep_prob = artificial_dep_prob


def _address_expr(
    rng: random.Random,
    config: RandomProgramConfig,
    addresses: Sequence[int],
) -> Expr:
    """A concrete or artificially dependent address expression."""
    addr = Const(rng.choice(addresses))
    if rng.random() < config.artificial_dep_prob:
        reg = Reg(rng.choice(config.registers))
        return BinOp("-", BinOp("+", addr, reg), reg)
    return addr


def _data_expr(rng: random.Random, config: RandomProgramConfig) -> Expr:
    """Store data: a constant or a register (creating data dependencies)."""
    if rng.random() < 0.5:
        return Const(rng.choice(config.values))
    return Reg(rng.choice(config.registers))


def _random_program(
    rng: random.Random,
    config: RandomProgramConfig,
    addresses: Sequence[int],
) -> Program:
    count = rng.randint(1, config.max_instrs)
    kinds = ["load", "store", "regop", "fence", "branch", "rmw"]
    weights = [
        config.load_weight,
        config.store_weight,
        config.regop_weight,
        config.fence_weight,
        config.branch_weight,
        config.rmw_weight,
    ]
    instrs: list[Instruction] = []
    labels: dict[str, int] = {}
    pending_branch: Optional[int] = None
    for i in range(count):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "load":
            instrs.append(
                Load(rng.choice(config.registers), _address_expr(rng, config, addresses))
            )
        elif kind == "store":
            instrs.append(
                Store(_address_expr(rng, config, addresses), _data_expr(rng, config))
            )
        elif kind == "regop":
            source = Reg(rng.choice(config.registers))
            instrs.append(
                RegOp(
                    rng.choice(config.registers),
                    BinOp("+", source, Const(rng.choice(config.values))),
                )
            )
        elif kind == "fence":
            instrs.append(Fence(rng.choice("LS"), rng.choice("LS")))
        elif kind == "rmw":
            instrs.append(
                Rmw(
                    rng.choice(config.registers),
                    Const(rng.choice(addresses)),
                    Const(rng.choice(config.values)),
                )
            )
        elif kind == "branch" and pending_branch is None:
            label = f"L{len(labels)}"
            cond = BinOp("==", Reg(rng.choice(config.registers)), Const(0))
            instrs.append(Branch(cond, label))
            pending_branch = len(instrs)
            labels[label] = len(instrs)  # patched to a later position below
    # Point any pending branch label past a random later suffix.
    for label in labels:
        labels[label] = rng.randint(labels[label], len(instrs))
    return Program(instrs, labels)


def random_litmus_test(
    seed_or_rng: Union[int, random.Random],
    config: Optional[RandomProgramConfig] = None,
    name: Optional[str] = None,
) -> LitmusTest:
    """Generate a random loop-free litmus test (no asked outcome).

    Deterministic for a given seed and config, so failures reproduce.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    config = config or RandomProgramConfig()
    locations = {
        chr(ord("a") + i): LOCATION_STRIDE * (i + 1)
        for i in range(config.num_locations)
    }
    addresses = tuple(locations.values())
    programs = tuple(
        _random_program(rng, config, addresses) for _ in range(config.num_procs)
    )
    observed = frozenset(
        (proc, reg)
        for proc, program in enumerate(programs)
        for reg in program.registers()
    )
    return LitmusTest(
        name=name or f"random-{rng.getrandbits(32):08x}",
        programs=programs,
        locations=locations,
        initial_memory={},
        asked=None,
        expect={},
        observed=observed,
        source="random",
        description="randomly generated program for equivalence fuzzing",
    )


def random_suite(
    count: int,
    seed: int = 0,
    config: Optional[RandomProgramConfig] = None,
    name_prefix: str = "rand",
) -> list[LitmusTest]:
    """A deterministic corpus of ``count`` random tests from one seed.

    One :class:`random.Random` stream drives the whole corpus, so test
    ``i`` depends on the seed and its index only — the property the
    ``rand:`` suite spec and resumable campaigns rely on.  Tests are
    named ``{name_prefix}-{seed}-{i}``.
    """
    rng = random.Random(seed)
    return [
        random_litmus_test(rng, config, name=f"{name_prefix}-{seed}-{i}")
        for i in range(count)
    ]
