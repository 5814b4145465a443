"""The scripts under ``examples/`` run to completion.

Each runs in a fresh interpreter, as a reader would run it, with
``src/`` on ``PYTHONPATH``; only the exit status is checked, so the
examples stay free to word their output as they like.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
SLOW = {"model_comparison_sim.py"}  # the Section V simulator, about 35 s


def _examples():
    for path in sorted(EXAMPLES.glob("*.py")):
        marks = [pytest.mark.slow] if path.name in SLOW else []
        yield pytest.param(path, id=path.name, marks=marks)


@pytest.mark.parametrize("script", _examples())
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
