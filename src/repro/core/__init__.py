"""The paper's contribution: GAM's axiomatic and operational definitions.

* :mod:`repro.core.events` / :mod:`repro.core.dependencies` /
  :mod:`repro.core.ppo` — the vocabulary of Section IV-A (events, ddep/adep,
  preserved program order).
* :mod:`repro.core.axiomatic` — the axiomatic checking engine.
* :mod:`repro.core.kernel` — the frontier-memoized bitmask enumeration
  kernel (the engine's fast path for every verdict of the model zoo).
* :mod:`repro.core.operational` — the Figure 17 abstract machine with
  exhaustive exploration.
* :mod:`repro.core.construction` — Section III's construction procedure as
  a model factory.
* :mod:`repro.core.perloc_sc` — the per-location SC property.
"""

from .axiomatic import (
    CandidatePrefix,
    DomainOverflowError,
    MemoryModel,
    enumerate_executions,
    enumerate_outcomes,
    is_allowed,
    value_domain,
)
from .construction import CONSTRAINTS, assemble, derivation_chain
from .dependencies import adep_edges, ddep_edges
from .events import EventId, Execution, MemEvent
from .kernel import FrontierKernel, kernel_supports
from .perloc_sc import execution_is_per_location_sc, per_location_orders
from .ppo import (
    AddrSt,
    BrSt,
    Clause,
    DynamicClause,
    FenceOrd,
    PairwiseOrder,
    PpoContext,
    RegRAW,
    SALdLd,
    SALdLdARM,
    SAMemSt,
    SARmwLd,
    SAStLd,
    compute_ppo,
    project_to_memory,
)

__all__ = [
    "MemoryModel",
    "CandidatePrefix",
    "DomainOverflowError",
    "enumerate_executions",
    "enumerate_outcomes",
    "is_allowed",
    "value_domain",
    "FrontierKernel",
    "kernel_supports",
    "assemble",
    "derivation_chain",
    "CONSTRAINTS",
    "EventId",
    "MemEvent",
    "Execution",
    "ddep_edges",
    "adep_edges",
    "execution_is_per_location_sc",
    "per_location_orders",
    "PpoContext",
    "Clause",
    "DynamicClause",
    "SAMemSt",
    "SAStLd",
    "SALdLd",
    "SARmwLd",
    "RegRAW",
    "BrSt",
    "AddrSt",
    "FenceOrd",
    "PairwiseOrder",
    "SALdLdARM",
    "compute_ppo",
    "project_to_memory",
]
