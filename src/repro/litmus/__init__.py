"""Litmus-test infrastructure and the paper's test catalogue.

The catalogue (:mod:`.registry`) is a read-only table built at import.
The ``frontend`` subpackage adds the ``.litmus`` parser/printer, the
cycle-based test generator and ``--suite`` spec resolution; its exports
are re-exported here for convenience.
"""

from .dsl import LitmusBuilder, ProcBuilder
from .frontend import (
    LitmusParseError,
    LitmusPrintError,
    generate_suite,
    parse_litmus,
    print_litmus,
    resolve_suite,
)
from .registry import (
    all_tests,
    get_test,
    paper_suite,
    standard_suite,
    test_names,
)
from .test import LitmusTest, Outcome

__all__ = [
    "LitmusTest",
    "Outcome",
    "LitmusBuilder",
    "ProcBuilder",
    "get_test",
    "all_tests",
    "test_names",
    "paper_suite",
    "standard_suite",
    "parse_litmus",
    "print_litmus",
    "LitmusParseError",
    "LitmusPrintError",
    "generate_suite",
    "resolve_suite",
]
