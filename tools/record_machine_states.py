"""Record the abstract machines' state counts for the parity fixture.

Explores every catalogue test plus the ``rand:n=60,seed=3`` corpus under
the GAM, GAM0, SC and TSO machines (all on the one exploration loop,
:func:`repro.core.operational.explore_machine`) and writes, per (test,
machine), the number of distinct states the full interleaving visits
(``states_visited``; for GAM/GAM0 the unreduced oracle in
``tests/reference/unreduced_machine.py``), the number the engine's
explorer visits (``reduced_states``; GAM/GAM0 are partial-order reduced,
SC/TSO are not), the number of terminal states reached and a digest of
the full-projection outcome set to ``tests/data/machine_states.json``;
GAM/GAM0 rows also record ``saldld_met``, whether the engine's run met a
same-address load pair on which the two variants differ.
``tests/test_machine_state_parity.py`` holds both explorers to that file,
so a change to the state encoding must reproduce the same state graphs,
and a further reduction shows exactly which rows it shrinks.

Run from the repository root::

    PYTHONPATH=src python tools/record_machine_states.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SUITES = ("all", "rand:n=60,seed=3")
MACHINES = ("gam", "gam0", "sc", "tso")
TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
DEFAULT_OUT = TESTS_DIR / "data" / "machine_states.json"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))  # for the reference oracles


def outcome_digest(outcomes) -> str:
    """Order-independent digest of an outcome set."""
    lines = sorted(str(outcome) for outcome in outcomes)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def fixture_tests():
    """Every test the fixture covers, in a stable order."""
    from repro.litmus.frontend import resolve_suite

    return [test for suite in SUITES for test in resolve_suite(suite)]


def record_row(test, machine: str) -> dict:
    """One fixture row: what exploring ``test`` under ``machine`` produces."""
    from repro.core.operational import GAM0_MACHINE, GAM_MACHINE, explore, explore_machine
    from repro.core.reference_machines import _SeqMachine

    if machine in ("sc", "tso"):
        seq = _SeqMachine(test, with_store_buffer=machine == "tso")
        result = unreduced = explore_machine(seq, project="full")
    else:
        from reference.unreduced_machine import explore_unreduced

        variant = {"gam": GAM_MACHINE, "gam0": GAM0_MACHINE}[machine]
        result = explore(test, variant, project="full")
        unreduced = explore_unreduced(test, variant, project="full")
    row = {
        "states_visited": unreduced.states_visited,
        "reduced_states": result.states_visited,
        "terminal_states": result.terminal_states,
        "outcomes": outcome_digest(result.outcomes),
    }
    if machine in ("gam", "gam0"):
        row["saldld_met"] = result.saldld_met
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    rows = {}
    for test in fixture_tests():
        for machine in MACHINES:
            rows[f"{test.name}/{machine}"] = record_row(test, machine)
    payload = {"suites": list(SUITES), "machines": list(MACHINES), "rows": rows}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
