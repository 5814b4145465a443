"""The litmus catalogue: a read-only name -> builder table.

The static catalogue (paper figures + the classic suite) is merged once,
at import, with a collision check — two suites defining the same name is
always a bug, never a silent overwrite.  Nothing adds to it afterwards:
imported, generated and random tests reach the harnesses as ``--suite``
specs (:func:`repro.litmus.frontend.suite.resolve_suite`), not as
registrations.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .paper_tests import PAPER_TESTS
from .standard_tests import STANDARD_TESTS
from .test import LitmusTest

__all__ = [
    "all_tests",
    "get_test",
    "test_names",
    "paper_suite",
    "standard_suite",
]

TestBuilder = Callable[[], LitmusTest]


def _merged(*suites: Mapping[str, TestBuilder]) -> dict[str, TestBuilder]:
    """Merge suite maps, raising on duplicate names instead of overwriting."""
    merged: dict[str, TestBuilder] = {}
    for suite in suites:
        for name, builder in suite.items():
            if name in merged:
                raise ValueError(
                    f"duplicate litmus test name {name!r}: "
                    "two suites register the same test"
                )
            merged[name] = builder
    return merged


_ALL: dict[str, TestBuilder] = _merged(PAPER_TESTS, STANDARD_TESTS)


def test_names() -> tuple[str, ...]:
    """All catalogue test names, paper figures first."""
    return tuple(_ALL)


def get_test(name: str) -> LitmusTest:
    """Build the catalogue test named ``name``.

    Raises ``KeyError`` with the available names on a miss.
    """
    if name not in _ALL:
        raise KeyError(f"unknown litmus test {name!r}; available: {', '.join(_ALL)}")
    return _ALL[name]()


def all_tests() -> Iterable[LitmusTest]:
    """Yield every catalogue test (paper + standard)."""
    for builder in _ALL.values():
        yield builder()


def paper_suite() -> Iterable[LitmusTest]:
    """Yield the tests that appear as figures in the paper."""
    for builder in PAPER_TESTS.values():
        yield builder()


def standard_suite() -> Iterable[LitmusTest]:
    """Yield the classic (non-paper) tests."""
    for builder in STANDARD_TESTS.values():
        yield builder()
