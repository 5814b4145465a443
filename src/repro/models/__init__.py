"""The memory-model zoo: GAM, GAM0, ARM, WMM-like, Alpha-like, SC, TSO.

Models are data here, not just code: every zoo model serializes to the
``.model`` text format (:mod:`repro.models.spec`), the zoo itself is a
read-only name table (:mod:`repro.models.registry`), and
:func:`~repro.models.spec.resolve_model` turns any model spec — a zoo
name, a ``.model`` file or directory, a ``ctor:`` construction point or
a ``space:`` enumeration — into concrete
:class:`~repro.core.axiomatic.MemoryModel` objects.  User models are
specs, never registrations.
"""

from .registry import (
    canonical_name,
    canonical_names,
    get_model,
    model_names,
)
from .spec import (
    ModelSpecError,
    load_model_path,
    parse_model,
    parse_model_file,
    print_model,
    resolve_model,
    resolve_models,
    split_pair_spec,
)

__all__ = [
    "get_model",
    "model_names",
    "canonical_name",
    "canonical_names",
    "ModelSpecError",
    "load_model_path",
    "parse_model",
    "parse_model_file",
    "print_model",
    "resolve_model",
    "resolve_models",
    "split_pair_spec",
]
