"""End-to-end verdict benchmark for ``repro``: one command, one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matrix-gen5 --seed 1 --seconds 25 --trace 0

Each pass is a fresh interpreter (``child.py``) that imports the program
from ``src/``, builds the seeded inputs, runs the workload through the
public API and checks the answers outside its timed window.  With
``--trace 0`` passes repeat until ``--seconds`` have gone by (at least
:data:`MIN_PASSES`) and the end-to-end metrics are medians over passes;
per-test times are each test's fastest over passes.  Extra set-up-only launches
give ``setup_s`` at least :data:`SETUP_SAMPLES` samples.  With
``--trace 1`` a traced pass between two untraced ones gives the
per-layer metrics and the tracing overhead.  Metric names and units come
from ``BENCHMARK.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record is also written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150


class PassError(RuntimeError):
    """A child pass failed to produce a result."""


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="small inputs, for the self-tests"
    )
    return parser.parse_args(argv)


def launch(
    workload: str, seed: int, mode: str, smoke: bool = False, full_check: bool = True
) -> dict:
    """Run one child pass to completion and return its JSON record.

    The child gets its own process group, so a pass that outlives its
    timeout is killed together with any pool workers it started.
    """
    workdir = os.path.join(HERE, "_work", f"{os.getpid()}-{workload}")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--workdir", workdir,
    ] + (["--smoke"] if smoke else []) + (["--full-check"] if full_check else [])
    t0 = time.monotonic()
    child = subprocess.Popen(
        command + ["--t0", repr(t0)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise PassError(f"{mode} pass of {workload} timed out") from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    if child.returncode != 0:
        raise PassError(f"{mode} pass of {workload} exited with {child.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def _identity(passes: list) -> dict:
    identities = {json.dumps(p["identity"], sort_keys=True) for p in passes}
    if len(identities) != 1:
        raise PassError("passes of one run saw different inputs")
    return passes[0]["identity"]


def _latency(passes: list) -> dict:
    """Per-test latency: each test's fastest time over passes, then p50 and tail.

    Tests are aligned by position; the passes saw identical inputs, and
    the engine hands back batches (pooled ones too) in submission order.
    A burst of load on a shared host then shows only where it hit the same
    test in every pass.
    """
    per_test = [min(times) for times in zip(*(p["per_test_s"] for p in passes))]
    return workloads.latency_summary(per_test)


def _report_lines(workload: str, passes: list, metrics: dict, latency: dict) -> list:
    identity = _identity(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lines = [
        f"workload {workload}: seed {identity['seed']}, {identity['tests']} tests, "
        f"{identity['cells']} cells, inputs {identity['ordered_digest'][:16]} "
        f"(content {identity['content_digest'][:16]}), {len(passes)} passes",
    ]
    for name, entry in metrics.items():
        lines.append(f"  {name:<24} {entry['value']:>14.6f} {entry['unit']}")
    lines.append(
        f"  test tail = p{latency['tail_pct']:.2f} of {latency['samples']} samples"
    )
    lines.append(f"  failed_share             {failed}/{attempted} cells")
    for note in sorted({n for p in passes for n in p["notes"]}):
        lines.append(f"  check: {note}")
    return lines


def _trace_lines(layers: dict, costliest: dict) -> list:
    lines = ["  self time by layer:"]
    for name, value in sorted(
        ((n, v) for n, v in layers.items() if n.startswith("self_s.")),
        key=lambda item: -item[1],
    ):
        lines.append(f"    {name[len('self_s.'):]:<24} {value:10.4f} s")
    lines.append(
        f"  coverage {layers['trace.coverage_share']:.4f} of traced wall "
        f"{layers['trace.wall_s']:.4f} s; overhead {layers['trace.overhead_share']:+.4f}"
    )
    for key, label in (("by_seconds", "seconds"), ("by_states", "states")):
        lines.append(f"  10 costliest tests by {label}:")
        for row in costliest[key]:
            lines.append(
                f"    {row['test']:<36} {row['seconds']:9.4f} s "
                f"{row['dp_states']:>8} dp {row['machine_states']:>8} machine"
            )
    return lines


def measure(args: argparse.Namespace, spec: dict) -> tuple:
    """Run the passes of one benchmark run.

    Returns the result record, the detailed record written to ``_out``
    and the human-readable report lines.  Only the first pass runs the
    slower independent checks; every pass is checked against the
    recorded known answers.
    """
    start = time.monotonic()
    passes = [launch(args.workload, args.seed, "pass", args.smoke)]
    if args.trace:
        # Untraced passes either side of the traced one, so that a drift
        # in machine speed does not pass for tracing overhead.
        traced = launch(args.workload, args.seed, "traced", args.smoke, full_check=False)
        passes += [traced, launch(args.workload, args.seed, "pass", args.smoke, full_check=False)]
        untraced = (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2
        layers = dict(traced["layers"])
        layers["trace.overhead_share"] = traced["wall_s"] / untraced - 1.0
        metrics = _with_units(spec["per_layer"], layers)
        latency = _latency([passes[0], passes[2]])
        lines = _report_lines(args.workload, passes, {}, latency)
        lines += _trace_lines(layers, traced["costliest"])
        extra = {"counts": traced["counts"], "costliest": traced["costliest"]}
    else:
        while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
            passes.append(
                launch(args.workload, args.seed, "pass", args.smoke, full_check=False)
            )
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(launch(args.workload, args.seed, "setup", args.smoke)["setup_s"])
        latency = _latency(passes)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "test_p50_ms": latency["p50_ms"],
            "test_tail_ms": latency["tail_ms"],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = _with_units(spec["end_to_end"], values)
        lines = _report_lines(args.workload, passes, metrics, latency)
        extra = {"setup_samples": setups}
    record = {
        "correct": all(p["failed"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    for entry in passes:
        del entry["per_test_s"]
    detail = dict(record, identity=_identity(passes), latency=latency, passes=passes, **extra)
    return record, detail, lines


def _with_units(declared: list, values: dict) -> dict:
    """Attach each metric's declared unit; the names must match exactly."""
    if {m["name"] for m in declared} != set(values):
        raise PassError("measured metrics differ from those BENCHMARK.json declares")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv: list) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        record, detail, lines = measure(args, spec)
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
