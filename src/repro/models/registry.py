"""The memory-model zoo: a read-only name -> model-factory table.

The zoo is the fixed set of points the paper's construction procedure
passes through (Section III: GAM0, GAM, the ARM detour) plus the SC,
TSO, WMM, Alpha-like and per-location-SC yardsticks.  The table is built
at import and never changes; ``"rmo"`` is an alias of ``"gam0"`` (the
paper: GAM0 is a corrected RMO), listed right after its target rather
than as a second row building the same model.

User-defined models never enter the table: they reach the engine as
specs — a ``.model`` path, ``ctor:`` or ``space:`` — which
:func:`repro.models.spec.resolve_model` resolves on top of these names.
"""

from __future__ import annotations

from typing import Callable

from ..core.axiomatic import MemoryModel
from . import alpha, arm, gam, gam0, plsc, sc, tso, wmm

__all__ = [
    "canonical_name",
    "canonical_names",
    "get_model",
    "model_names",
]

ModelFactory = Callable[[], MemoryModel]

_FACTORIES: dict[str, ModelFactory] = {
    "sc": sc.model,
    "sc-gamlv": sc.model_with_gam_load_value,
    "tso": tso.model,
    "gam": gam.model,
    "gam0": gam0.model,
    "arm": arm.model,
    "wmm": wmm.model,
    "alpha_like": alpha.model,
    "plsc": plsc.model,
}

_ALIASES: dict[str, str] = {"rmo": "gam0"}

_NAMES: tuple[str, ...] = tuple(
    entry
    for name in _FACTORIES
    for entry in (name, *(a for a, target in _ALIASES.items() if target == name))
)


def model_names() -> tuple[str, ...]:
    """Every zoo name, each alias right after its target."""
    return _NAMES


def canonical_names() -> tuple[str, ...]:
    """The zoo's canonical (non-alias) names, in table order."""
    return tuple(_FACTORIES)


def canonical_name(name: str) -> str:
    """Resolve an alias to its canonical name (identity otherwise).

    Unknown names pass through unchanged, so callers can canonicalize
    before their own lookup without double-reporting the miss.
    """
    return _ALIASES.get(name, name)


def get_model(name: str) -> MemoryModel:
    """Instantiate the zoo model named ``name`` (or an alias of it).

    Raises ``KeyError`` listing the sorted available names — aliases
    annotated with their target — on a miss.
    """
    factory = _FACTORIES.get(_ALIASES.get(name, name))
    if factory is None:
        entries = [
            f"{n} (= {_ALIASES[n]})" if n in _ALIASES else n
            for n in sorted(_NAMES)
        ]
        raise KeyError(f"unknown model {name!r}; available: {', '.join(entries)}")
    return factory()

