"""Compare two benchmark records, refusing runs whose inputs differ.

Usage (from the repository root)::

    python3 perfbench/compare.py BEFORE.json AFTER.json

The records are the files ``run.py`` writes to ``perfbench/_out/``.  Two
runs are comparable only when they saw identical inputs: same workload,
seed, test and cell counts and input digests.  A frontend change that
alters ``gen:`` or ``rand:`` output therefore cannot pass as a speed-up;
the comparison exits with status 2 instead.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare(before: dict, after: dict) -> list:
    """Lines comparing every metric both records share."""
    lines = []
    for name in sorted(set(before["metrics"]) & set(after["metrics"])):
        old = before["metrics"][name]["value"]
        new = after["metrics"][name]["value"]
        change = f"{(new - old) / old:+.2%}" if old else "n/a"
        lines.append(
            f"{name:<32} {old:>14.6g} {new:>14.6g} {change:>9} "
            f"{after['metrics'][name]['unit']}"
        )
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load(path) for path in argv)
    if before["identity"] != after["identity"]:
        print("refusing to compare: the runs saw different inputs", file=sys.stderr)
        for key in sorted(before["identity"]):
            old, new = before["identity"][key], after["identity"].get(key)
            if old != new:
                print(f"  {key}: {old} != {new}", file=sys.stderr)
        return 2
    for line in compare(before, after):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
