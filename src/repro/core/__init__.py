"""The paper's contribution: GAM's axiomatic and operational definitions.

* :mod:`repro.core.events` / :mod:`repro.core.dependencies` /
  :mod:`repro.core.ppo` — the vocabulary of Section IV-A (events, ddep/adep,
  preserved program order).
* :mod:`repro.core.axiomatic` — the axiomatic checking engine.
* :mod:`repro.core.kernel` — the frontier-memoized bitmask DP that answers
  every verdict, outcome set and witness of the axiomatic engine.
* :mod:`repro.core.operational` — the Figure 17 abstract machine with
  exhaustive exploration.
* :mod:`repro.core.construction` — Section III's construction procedure as
  a model factory.
"""

from .axiomatic import (
    DomainOverflowError,
    MemoryModel,
    enumerate_outcomes,
    find_execution,
    is_allowed,
)
from .construction import CONSTRAINTS, assemble, derivation_chain
from .dependencies import adep_edges, ddep_edges
from .events import EventId, Execution, MemEvent
from .kernel import FrontierKernel
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
    "DomainOverflowError",
    "enumerate_outcomes",
    "find_execution",
    "is_allowed",
    "FrontierKernel",
    "assemble",
    "derivation_chain",
    "CONSTRAINTS",
    "EventId",
    "MemEvent",
    "Execution",
    "ddep_edges",
    "adep_edges",
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
