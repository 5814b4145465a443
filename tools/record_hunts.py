"""Record the golden hunt fixture: two campaigns pinned byte for byte.

Runs one axiomatic (model-vs-model) and one operational (axioms-vs-
machine) ``repro hunt`` in a fresh interpreter each and writes what they
leave behind to ``tests/data/hunts/<name>/``:

* ``stdout.txt`` — the command's stdout, campaign path replaced by
  ``<campaign>``;
* ``report.txt`` and ``report.json``;
* ``shards/*.json`` — the per-shard records;
* ``witnesses/*.litmus`` — every minimized witness;
* ``counters.json`` — the ``counters`` block of ``stats.json`` (cells
  requested, cache traffic, kernel and machine work, campaign counts).

``tests/test_hunt_golden.py`` reruns both hunts and asserts the same
bytes, so a refactor of the campaign pipeline must keep every stage's
output, and the work it asks of the engine, unchanged.

Run from the repository root::

    PYTHONPATH=src python tools/record_hunts.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "tests" / "data" / "hunts"
CAMPAIGN = "<campaign>"

HUNTS = {
    "axiomatic": [
        "--suite", "paper",
        "--pair", "space:same_address_loads=*:gam",
        "--pair", "wmm:arm",
        "--pair", "sc:tso",
        "--shards", "2",
    ],
    "operational": [
        "--oracle", "operational",
        "--suite", "all",
        "--pair", "gam:gam0",
        "--pair", "gam0:gam",
        "--pair", "sc:tso",
        "--shards", "2",
    ],
}


def run_hunt(name: str, out: Path) -> dict[str, bytes]:
    """Run hunt ``name`` into ``out``; its pinned files, by relative path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "hunt", *HUNTS[name], "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    files = {"stdout.txt": proc.stdout.replace(str(out), CAMPAIGN).encode()}
    for relpath in ("report.txt", "report.json"):
        files[relpath] = (out / relpath).read_bytes()
    for pattern in ("shards/*.json", "witnesses/*.litmus"):
        for path in sorted(out.glob(pattern)):
            files[str(path.relative_to(out))] = path.read_bytes()
    counters = json.loads((out / "stats.json").read_text())["counters"]
    files["counters.json"] = (
        json.dumps(counters, indent=1, sort_keys=True) + "\n"
    ).encode()
    return files


def recorded(name: str, root: Path = DEFAULT_OUT) -> dict[str, bytes]:
    """The fixture files of hunt ``name``, by relative path."""
    base = root / name
    return {
        str(path.relative_to(base)): path.read_bytes()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    for name in HUNTS:
        with tempfile.TemporaryDirectory() as scratch:
            files = run_hunt(name, Path(scratch) / "campaign")
        target = args.out / name
        shutil.rmtree(target, ignore_errors=True)
        for relpath, data in files.items():
            path = target / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"wrote {len(files)} files to {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
