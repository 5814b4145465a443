"""One-thread programs must run sequentially under every oracle.

A single processor has no one to race with, so each machine — GAM, GAM0,
SC and TSO — and each axiomatic model of the comparison zoo, under both
the frontier kernel and the reference order enumerator, must allow exactly one
outcome on a one-thread program: the one a straight-line interpreter
computes.  The corpus comes from
``equivalence/randprog.py`` with one processor, enough instructions for
same-address access pairs, frequent ``loc + r - r`` addresses that resolve
late, and RMWs; the GAM0 store-address kill bug broke this property on
``St [b] 2; r0 = Ld [b]; r2 = Ld [b]``.
"""

from __future__ import annotations

import pytest

from reference import reference_outcomes
from repro.core.axiomatic import enumerate_outcomes, project_outcome
from repro.core.operational import GAM0_MACHINE, GAM_MACHINE, explore
from repro.core.reference_machines import sc_outcomes, tso_outcomes
from repro.equivalence.randprog import RandomProgramConfig, random_suite
from repro.eval.litmus_matrix import _MATRIX_MODELS
from repro.isa.expr import evaluate
from repro.isa.instructions import Branch, Load, RegOp, Rmw, Store
from repro.models.spec import resolve_model

CONFIG = RandomProgramConfig(
    num_procs=1,
    max_instrs=7,
    num_locations=2,
    artificial_dep_prob=0.5,
    rmw_weight=1.0,
)
CORPUS = random_suite(150, seed=20261017, config=CONFIG, name_prefix="seq")

MACHINES = {
    "gam": lambda test: explore(test, GAM_MACHINE, project="full").outcomes,
    "gam0": lambda test: explore(test, GAM0_MACHINE, project="full").outcomes,
    "sc": lambda test: sc_outcomes(test, project="full"),
    "tso": lambda test: tso_outcomes(test, project="full"),
}

ENGINES = {"reference": reference_outcomes, "kernel": enumerate_outcomes}

ORACLES = [
    (model, engine) for engine in ("reference", "kernel") for model in _MATRIX_MODELS
]


def straight_line(test):
    """The single-thread outcome: run the program in order against memory."""
    (program,) = test.programs
    regs = dict.fromkeys(program.registers(), 0)
    memory = dict(test.initial_memory)
    pc = 0
    while pc < len(program):
        instr = program[pc]
        pc += 1
        if isinstance(instr, Rmw):
            addr = evaluate(instr.addr, regs)
            regs[instr.dst] = memory.get(addr, 0)
            memory[addr] = evaluate(instr.data, regs)
        elif isinstance(instr, Load):
            regs[instr.dst] = memory.get(evaluate(instr.addr, regs), 0)
        elif isinstance(instr, Store):
            memory[evaluate(instr.addr, regs)] = evaluate(instr.data, regs)
        elif isinstance(instr, RegOp):
            regs[instr.dst] = evaluate(instr.expr, regs)
        elif isinstance(instr, Branch) and evaluate(instr.cond, regs) != 0:
            pc = program.labels[instr.target]
    final_regs = {(0, reg): value for reg, value in regs.items()}
    return project_outcome(test, final_regs, memory, "full")


def test_corpus_exercises_the_hazards():
    """Same-address pairs, late-resolving addresses and RMWs all occur."""
    def addresses(test):
        return [str(i.addr) for i in test.programs[0] if hasattr(i, "addr")]

    assert any(len(set(a)) < len(a) for a in map(addresses, CORPUS))
    assert any("-" in a for t in CORPUS for a in addresses(t))
    assert any(isinstance(i, Rmw) for t in CORPUS for i in t.programs[0])


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("test", CORPUS, ids=lambda test: test.name)
def test_one_thread_program_has_exactly_the_sequential_outcome(test, machine):
    assert MACHINES[machine](test) == {straight_line(test)}


@pytest.mark.parametrize("model, engine", ORACLES)
def test_every_axiomatic_oracle_runs_one_thread_programs_sequentially(
    model, engine
):
    resolved = resolve_model(model)
    for test in CORPUS:
        outcomes = ENGINES[engine](test, resolved, project="full")
        assert outcomes == {straight_line(test)}, test.name

