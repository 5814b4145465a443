"""Reference oracles kept out of ``src/`` for the parity tests."""

from .enumerator import (
    enumerate_executions,
    reference_allowed,
    reference_outcomes,
    reference_witness,
)
from .perloc_sc import (
    coherence_edges,
    execution_is_per_location_sc,
    per_location_orders,
)

__all__ = [
    "enumerate_executions",
    "reference_allowed",
    "reference_outcomes",
    "reference_witness",
    "coherence_edges",
    "execution_is_per_location_sc",
    "per_location_orders",
]
