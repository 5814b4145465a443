"""Differential oracle parity: operational engine cells vs the axioms.

The oracle abstraction makes the Figure 17 abstract machines a
first-class engine backend: any ``VerdictSpec``/``OutcomeSpec`` can
target ``oracle="operational:<machine>"`` and flows through the same
batching, pooling and caching as axiomatic cells.  These tests are the
paper's equivalence theorem (Section IV) run through that new path —
machine cells must agree with their axiomatic twins on every registered
test, a generated suite and random programs — plus the engine-contract
properties (verdict semantics, machine-keyed caching, ``--jobs``
determinism) the equivalence checker and oracle campaigns rely on.

Mirrors the structure of ``test_kernel.py``: a tier-1 representative
sweep plus slow-marked exhaustive sweeps.
"""

import pytest

from repro.engine import (
    ORACLE_AXIOMATIC,
    OutcomeSpec,
    VerdictSpec,
    cell_cache_key,
    evaluate_cells,
    operational_machines,
    oracle_descriptor,
    parse_oracle,
)
from repro.litmus.frontend.suite import resolve_suite
from repro.litmus.registry import all_tests, get_test
from repro.models.registry import get_model

_MACHINES = ("gam", "gam0", "sc", "tso")


def _parity_cells(tests, machines=_MACHINES):
    """Interleaved (axiomatic, operational) outcome cells per test x machine.

    Each machine name doubles as the axiomatic registry model it must
    agree with — the same convention the equivalence checker's
    definition pairs use.
    """
    cells = []
    for test in tests:
        for machine in machines:
            cells.append(OutcomeSpec(test, get_model(machine), project="full"))
            cells.append(
                OutcomeSpec(
                    test, None, project="full",
                    oracle=f"operational:{machine}",
                )
            )
    return cells


def _assert_oracle_parity(tests, machines=_MACHINES, jobs=1, cache_dir=None):
    cells = _parity_cells(tests, machines)
    results = evaluate_cells(cells, jobs=jobs, cache_dir=cache_dir)
    for i in range(0, len(cells), 2):
        assert results[i] == results[i + 1], (
            f"{cells[i].test.name} x {cells[i + 1].oracle}: "
            "axioms and machine outcome sets diverge"
        )


class TestOracleContract:
    def test_machine_listing_is_sorted_and_complete(self):
        assert operational_machines() == ("gam", "gam0", "sc", "tso")

    def test_parse_oracle(self):
        assert parse_oracle(ORACLE_AXIOMATIC) == ("axiomatic", None)
        assert parse_oracle("operational:gam0") == ("operational", "gam0")
        with pytest.raises(ValueError):
            parse_oracle("operational:arm")
        with pytest.raises(ValueError):
            parse_oracle("oracular")

    def test_descriptor_distinguishes_machines(self):
        descriptors = [
            oracle_descriptor(f"operational:{m}") for m in _MACHINES
        ]
        assert len({str(d) for d in descriptors}) == len(_MACHINES)
        assert oracle_descriptor(ORACLE_AXIOMATIC) == {"kind": "axiomatic"}

    def test_cell_model_must_fit_its_oracle(self):
        # Models are resolved before cells are built: an axiomatic cell
        # carries a built model, a machine cell none, and any other shape
        # fails when the cell is built rather than inside a worker.
        test = get_test("dekker")
        with pytest.raises(TypeError, match="built MemoryModel"):
            VerdictSpec(test, "gam")
        with pytest.raises(TypeError, match="built MemoryModel"):
            OutcomeSpec(test, None, project="full")
        with pytest.raises(TypeError, match="carries no model"):
            OutcomeSpec(test, get_model("sc"), project="full", oracle="operational:sc")

    def test_operational_key_depends_on_machine_and_oracle(self):
        test = get_test("dekker")
        keys = {
            cell_cache_key(OutcomeSpec(test, get_model("gam"), project="full"))
        } | {
            cell_cache_key(
                OutcomeSpec(test, None, project="full", oracle=f"operational:{m}")
            )
            for m in _MACHINES
        }
        assert len(keys) == 1 + len(_MACHINES)

    def test_operational_verdict_requires_asked(self):
        from repro.engine import EngineWorkerError

        stripped = resolve_suite("rand:n=1,seed=0")[0]
        assert stripped.asked is None
        # Serial failures are translated like pooled ones: an
        # EngineWorkerError naming the test, the original ValueError
        # chained on __cause__.
        with pytest.raises(EngineWorkerError, match="asked") as excinfo:
            evaluate_cells(
                [VerdictSpec(stripped, None, oracle="operational:gam")]
            )
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_bad_machine_rejected_at_evaluation(self):
        from repro.engine import EngineWorkerError

        test = get_test("dekker")
        with pytest.raises(EngineWorkerError) as excinfo:
            evaluate_cells(
                [OutcomeSpec(test, None, project="full",
                             oracle="operational:wmm")]
            )
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestParityQuick:
    """Machine vs axioms on representative figures (tier-1)."""

    @pytest.mark.parametrize(
        "test_name",
        ["dekker", "mp", "corr", "coww", "iriw", "rsw", "store-forwarding"],
    )
    def test_paper_figures_outcome_parity(self, test_name):
        _assert_oracle_parity([get_test(test_name)])

    @pytest.mark.parametrize("test_name", ["dekker", "mp+addr", "corr"])
    def test_verdict_parity(self, test_name):
        test = get_test(test_name)
        cells = []
        for machine in _MACHINES:
            cells.append(VerdictSpec(test, get_model(machine)))
            cells.append(
                VerdictSpec(test, None, oracle=f"operational:{machine}")
            )
        results = evaluate_cells(cells)
        for i in range(0, len(cells), 2):
            assert results[i] == results[i + 1], (
                f"{test_name} x {cells[i + 1].oracle}: verdicts diverge"
            )

    def test_cache_round_trip(self, tmp_path):
        tests = [get_test("mp"), get_test("corr")]
        cells = _parity_cells(tests, machines=("gam", "gam0"))
        cold = evaluate_cells(cells, cache_dir=str(tmp_path))
        warm = evaluate_cells(cells, cache_dir=str(tmp_path))
        assert cold == warm
        _assert_oracle_parity(tests, machines=("gam", "gam0"),
                              cache_dir=str(tmp_path))


@pytest.mark.slow
class TestParityFull:
    """The exhaustive oracle sweep: every registered test, a generated
    suite and a random corpus, across every machine, through the pool."""

    def test_registered_suite_parity(self):
        _assert_oracle_parity(list(all_tests()))

    def test_generated_suite_parity(self):
        _assert_oracle_parity(resolve_suite("gen:edges=3"))

    def test_random_corpus_parity_pooled(self):
        # A jobs=2 run must produce the same (ordered) results as serial;
        # parity is asserted on the pooled results.
        tests = resolve_suite("rand:n=12,seed=5")
        cells = _parity_cells(tests, machines=("gam", "gam0"))
        serial = evaluate_cells(cells, jobs=1)
        pooled = evaluate_cells(cells, jobs=2)
        assert serial == pooled
        for i in range(0, len(cells), 2):
            assert pooled[i] == pooled[i + 1], cells[i].test.name
