#!/usr/bin/env python3
"""Quickstart: check a litmus test under GAM, both definitions.

Builds the paper's Dekker test (Figure 2), asks whether the non-SC outcome
``r1 = r2 = 0`` is allowed under several memory models using the axiomatic
engine, and cross-checks GAM's verdict against the Figure 17 abstract
machine.

Run:  python examples/quickstart.py
"""

from repro import LitmusBuilder, get_model, is_allowed
from repro.engine import VerdictSpec, evaluate_cells


def main() -> None:
    # --- 1. Write the litmus test (Figure 2) -----------------------------
    b = LitmusBuilder("my-dekker", locations=("a", "b"))
    b.proc().st("a", 1).ld("r1", "b")   # P0:  St [a] 1 ; r1 = Ld [b]
    b.proc().st("b", 1).ld("r2", "a")   # P1:  St [b] 1 ; r2 = Ld [a]
    test = b.build(asked={"P0.r1": 0, "P1.r2": 0})
    print(test)
    print()

    # --- 2. Ask the axiomatic definitions --------------------------------
    for model_name in ("sc", "tso", "gam", "gam0", "arm"):
        model = get_model(model_name)
        verdict = "ALLOWS" if is_allowed(test, model) else "FORBIDS"
        print(f"  {model_name:6s} {verdict}  r1=0, r2=0")
    print()

    # --- 3. Cross-check with the operational definition ------------------
    (machine_says,) = evaluate_cells(
        [VerdictSpec(test, "gam", oracle="operational:gam")]
    )
    axioms_say = is_allowed(test, get_model("gam"))
    print(f"GAM abstract machine allows the outcome: {machine_says}")
    print(f"GAM axioms allow the outcome:            {axioms_say}")
    assert machine_says == axioms_say, "the two definitions must agree!"
    print("The operational and axiomatic definitions agree, as Section IV promises.")


if __name__ == "__main__":
    main()
