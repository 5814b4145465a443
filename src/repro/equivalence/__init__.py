"""Empirical equivalence checking of GAM's two definitions (Section IV)."""

from .checker import EquivalenceReport, check_suite
from .randprog import RandomProgramConfig, random_litmus_test

__all__ = [
    "EquivalenceReport",
    "check_suite",
    "RandomProgramConfig",
    "random_litmus_test",
]
