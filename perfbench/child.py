"""One benchmark pass in a fresh interpreter; prints one JSON line.

Launched by ``run.py`` with ``--t0`` set to the parent's monotonic clock
just before the launch, so ``setup_s`` covers interpreter start, imports
and input construction up to the first engine or campaign call.  Modes:

* ``setup`` — set up and stop (extra set-up samples);
* ``pass`` — set up, run the workload once untraced, check the answers
  (``--full-check`` adds the slower independent checks);
* ``traced`` — the same with layer spans and ``repro.obs`` collection on.

The checkout's ``src`` directory must be importable (``run.py`` puts it
on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from contextlib import ExitStack

import workloads


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), default="pass")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--full-check", action="store_true",
        help="also run the slower independent checks (once per run is enough)",
    )
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    return parser.parse_args(argv)


def _minimized(result: dict) -> tuple:
    """``(checks, accepted deletions)`` over a hunt's witnesses."""
    report = result.get("report")
    if report is None:
        return (0, 0)
    checks = sum(record.checks for record in report.witnesses)
    accepted = sum(r.original_instrs - r.minimized_instrs for r in report.witnesses)
    return (checks, accepted)


def main(argv: list) -> int:
    args = _parse(argv)
    with ExitStack() as workdir:
        workdir.callback(shutil.rmtree, args.workdir, True)
        with ExitStack() as traced:
            tracer = None
            if args.mode == "traced":
                import spans

                tracer = traced.enter_context(spans.tracing())
            span = tracer.span if tracer is not None else None
            inputs = workloads.build_inputs(args.workload, args.seed, args.smoke, span)
            setup_s = time.monotonic() - args.t0
            if args.mode == "setup":
                print(json.dumps({"setup_s": setup_s}))
                return 0
            os.makedirs(args.workdir, exist_ok=True)
            result = workloads.run_workload(inputs, args.workdir, span)
        # Outside the timed window and the tracer from here on.
        rss = workloads.peak_rss_mb()
        if args.workload == "hunt-wmm-arm":
            inputs.tests = workloads.hunt_tests(inputs)
            # The shards run first, one batch per suite test; the
            # minimizer's batches on shrunken variants follow them.
            result["per_test"] = result["per_test"][: len(inputs.tests)]
        identity = workloads.input_identity(args.workload, args.seed, inputs.tests)
        outcome = workloads.check(inputs, result, identity, args.full_check)
        identity["cells"] = outcome["attempted"]
    record = {
        "setup_s": setup_s,
        "wall_s": result["wall_s"],
        "per_test_s": result["per_test"],
        "peak_rss_mb": rss,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "notes": outcome["notes"],
        "identity": identity,
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer, len(inputs.tests), _minimized(result))
        record["counts"] = spans.exact_counts(tracer)
        record["costliest"] = spans.costliest_tests(tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
