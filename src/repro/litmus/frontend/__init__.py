"""Litmus frontend: ``.litmus`` parser/printer, cycle generator, suites.

The scenario-diversity seam of the repository: instead of the fixed
hand-coded catalogue, tests can be read from herd-style ``.litmus`` text
(:mod:`.parser`), written back out (:mod:`.printer`), synthesized from
critical cycles over a relaxation-edge vocabulary (:mod:`.gen`), and
named by ``--suite`` specs that resolve to the test lists the batch
engine and the CLI consume (:mod:`.suite`).
"""

from __future__ import annotations

from .gen import VOCABULARY, cycle_to_test, enumerate_cycles, generate_suite
from .parser import LitmusParseError, parse_litmus, parse_litmus_file
from .printer import LitmusPrintError, print_litmus
from .suite import (
    STATIC_SUITES,
    litmus_files,
    load_litmus_path,
    resolve_suite,
    shard_suite,
)

__all__ = [
    "VOCABULARY",
    "cycle_to_test",
    "enumerate_cycles",
    "generate_suite",
    "LitmusParseError",
    "parse_litmus",
    "parse_litmus_file",
    "LitmusPrintError",
    "print_litmus",
    "STATIC_SUITES",
    "litmus_files",
    "load_litmus_path",
    "resolve_suite",
    "shard_suite",
]
