"""Record the known answers the benchmark checks every run against.

Writes ``known_answers.json`` next to this file: the content digests of
each workload's full inputs, the full ``gen:edges=5`` x zoo verdict grid
(one ``a``/``f`` letter per zoo model and test, plus its digest) and the
``wmm:arm`` hunt's witness digests.  Re-record only when a change is meant to alter those
answers, and say so in its description.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads


def main() -> int:
    known: dict = {"inputs": {}}
    matrix = workloads.build_inputs("matrix-gen5", 0, smoke=False)
    result = workloads.run_workload(matrix, "")
    grid = {(cell.test_name, cell.model_name): cell.allowed for cell in result["cells"]}
    known["matrix"] = {
        "grid_digest": workloads.grid_digest(grid),
        "grid": workloads.grid_rows(grid),
    }
    hunt = workloads.build_inputs("hunt-wmm-arm", 0, smoke=False)
    os.makedirs(os.path.join(workloads.HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(workloads.HERE, "_work"), prefix="record-")
    try:
        result = workloads.run_workload(hunt, workdir)
        known["hunt"] = {"witnesses": workloads.witness_digests(result["report"])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    hunt.tests = workloads.hunt_tests(hunt)
    equiv = workloads.build_inputs("equiv-rand", 0, smoke=False)
    for inputs in (matrix, hunt, equiv):
        identity = workloads.input_identity(inputs.workload, 0, inputs.tests)
        known["inputs"][inputs.workload] = identity["content_digest"]
    with open(workloads.KNOWN_ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(workloads.KNOWN_ANSWERS)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
