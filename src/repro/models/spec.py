"""Declarative model specs: the ``.model`` format and universal resolution.

The paper's point is that memory models are *constructed* from named
constraint choices; this module makes that construction data, not code.
A model is serializable as a small cat-inspired text format (one clause
per line, the Definition 6 vocabulary), and every ``--model``-shaped CLI
argument resolves through one function, :func:`resolve_model`.

The ``.model`` grammar (``#`` comments and blank lines are ignored)::

    model <name>                      required, first directive; no spaces
    description "<text>"             optional; \\" and \\\\ escapes
    loadvalue gam|sc                 the LoadValue axiom (default gam)
    coherence required               per-location-SC side condition (plsc)
    ppo <Clause>[(args)]             one static clause, in ppo order
    dynamic <Clause>                 one execution-dependent clause

Clause vocabulary: ``SAMemSt``, ``SAStLd``, ``SALdLd``, ``SARmwLd``,
``RegRAW``, ``BrSt``, ``AddrSt``, ``FenceOrd``, ``PairwiseOrder(X,Y)``
with ``X``/``Y`` in ``{L, S}`` (static), and ``SALdLdARM`` (dynamic) —
see :data:`repro.core.ppo.STATIC_CLAUSES` and ``docs/models.md``.

:func:`print_model` emits the canonical form; parse∘print is byte-stable
(``print(parse(print(m))) == print(m)``) for every model expressible in
the vocabulary, which the test suite asserts across the whole zoo.

Model *specs* — the strings :func:`resolve_model` / :func:`resolve_models`
accept everywhere a model is named::

    gam                        a registry name (aliases included)
    path/to/file.model         one parsed .model file
    path/to/dir/               every *.model file in a directory (a family)
    ctor:knob=value,...        one construction-lattice point (assemble())
    space:knob=*,...           every lattice point over the starred knobs
                               (a named variant family)

``ctor``/``space`` knobs come from
:data:`repro.core.construction.CTOR_KNOBS`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from ..core.axiomatic import MemoryModel
from ..core.construction import CTOR_KNOBS, assemble_from_knobs, ctor_name
from ..core.ppo import build_clause, clause_spec
from ..spec_items import parse_items

__all__ = [
    "ModelSpecError",
    "parse_model",
    "parse_model_file",
    "print_model",
    "load_model_path",
    "named_model",
    "parse_knob_spec",
    "resolve_model",
    "resolve_models",
    "split_pair_spec",
]

_LOAD_VALUES = ("gam", "sc")
_CLAUSE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\((.*)\))?$")


class ModelSpecError(ValueError):
    """A ``.model`` text or model spec string that cannot be understood.

    Carries the offending line number and source (file path) when known;
    ``str()`` renders them as ``source:line: message``.
    """

    def __init__(
        self,
        message: str,
        lineno: Optional[int] = None,
        source: Optional[str] = None,
    ) -> None:
        prefix = ""
        if source is not None:
            prefix += f"{source}:"
        if lineno is not None:
            prefix += f"line {lineno}: "
        elif prefix:
            prefix += " "
        super().__init__(prefix + message)
        self.lineno = lineno
        self.source = source


# -- the .model text format ----------------------------------------------


def _parse_clause(text: str, lineno: int, source: Optional[str]):
    match = _CLAUSE_RE.match(text.strip())
    if not match:
        raise ModelSpecError(f"malformed clause {text!r}", lineno, source)
    name, arg_text = match.group(1), match.group(2)
    args: tuple[str, ...] = ()
    if arg_text is not None:
        args = tuple(arg.strip() for arg in arg_text.split(","))
    try:
        return build_clause(name, args)
    except ValueError as exc:
        raise ModelSpecError(str(exc), lineno, source) from exc


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _strip_comment(line: str) -> str:
    """Drop a trailing ``#`` comment, respecting quoted strings.

    A ``#`` inside a double-quoted description is content, not a comment
    — otherwise ``description "issue #5"`` would not round-trip.
    """
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and in_string:
            i += 2
            continue
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
        i += 1
    return line


def _unquote(text: str, lineno: int, source: Optional[str]) -> str:
    text = text.strip()
    if len(text) < 2 or not text.startswith('"') or not text.endswith('"'):
        raise ModelSpecError(
            f"description must be a double-quoted string, got {text!r}",
            lineno,
            source,
        )
    body = text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                raise ModelSpecError(
                    f"bad escape in description at column {i + 1}", lineno, source
                )
            out.append(body[i + 1])
            i += 2
            continue
        if ch == '"':
            raise ModelSpecError(
                "unescaped quote inside description", lineno, source
            )
        out.append(ch)
        i += 1
    return "".join(out)


def parse_model(text: str, source: Optional[str] = None) -> MemoryModel:
    """Parse ``.model`` text into a :class:`MemoryModel`.

    Directives may appear in any order after the leading ``model`` line;
    scalar directives (``description``, ``loadvalue``, ``coherence``) may
    appear at most once.  Errors are :class:`ModelSpecError` carrying the
    offending line number (and ``source``, typically a file path).
    """
    name: Optional[str] = None
    name_line = 0
    description: Optional[str] = None
    load_value: Optional[str] = None
    coherence = False
    clauses: list = []
    dynamic: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if name is None:
            if directive != "model":
                raise ModelSpecError(
                    f"expected 'model <name>' as the first directive, "
                    f"got {directive!r}",
                    lineno,
                    source,
                )
        if directive == "model":
            if name is not None:
                raise ModelSpecError("duplicate 'model' directive", lineno, source)
            if not rest or len(rest.split()) != 1:
                raise ModelSpecError(
                    "model name must be a single whitespace-free token",
                    lineno,
                    source,
                )
            name, name_line = rest, lineno
        elif directive == "description":
            if description is not None:
                raise ModelSpecError(
                    "duplicate 'description' directive", lineno, source
                )
            description = _unquote(rest, lineno, source)
        elif directive == "loadvalue":
            if load_value is not None:
                raise ModelSpecError(
                    "duplicate 'loadvalue' directive", lineno, source
                )
            if rest not in _LOAD_VALUES:
                raise ModelSpecError(
                    f"loadvalue must be one of {', '.join(_LOAD_VALUES)}; "
                    f"got {rest!r}",
                    lineno,
                    source,
                )
            load_value = rest
        elif directive == "coherence":
            if coherence:
                raise ModelSpecError(
                    "duplicate 'coherence' directive", lineno, source
                )
            if rest != "required":
                raise ModelSpecError(
                    f"expected 'coherence required', got {rest!r}", lineno, source
                )
            coherence = True
        elif directive == "ppo":
            clause = _parse_clause(rest, lineno, source)
            if clause_spec(clause) in {clause_spec(c) for c in clauses}:
                raise ModelSpecError(
                    f"duplicate ppo clause {clause_spec(clause)}", lineno, source
                )
            if _is_dynamic(clause):
                raise ModelSpecError(
                    f"{clause_spec(clause)} is execution-dependent; "
                    "declare it with 'dynamic', not 'ppo'",
                    lineno,
                    source,
                )
            clauses.append(clause)
        elif directive == "dynamic":
            clause = _parse_clause(rest, lineno, source)
            if not _is_dynamic(clause):
                raise ModelSpecError(
                    f"{clause_spec(clause)} is static; "
                    "declare it with 'ppo', not 'dynamic'",
                    lineno,
                    source,
                )
            if clause_spec(clause) in {clause_spec(c) for c in dynamic}:
                raise ModelSpecError(
                    f"duplicate dynamic clause {clause_spec(clause)}",
                    lineno,
                    source,
                )
            dynamic.append(clause)
        else:
            raise ModelSpecError(
                f"unknown directive {directive!r}; expected model, "
                "description, loadvalue, coherence, ppo or dynamic",
                lineno,
                source,
            )
    if name is None:
        raise ModelSpecError("empty model definition", None, source)
    try:
        return MemoryModel(
            name=name,
            clauses=tuple(clauses),
            dynamic_clauses=tuple(dynamic),
            load_value=load_value or "gam",
            requires_coherence=coherence,
            description=description or "",
        )
    except ValueError as exc:  # model-level invariants (e.g. missing SAMemSt)
        raise ModelSpecError(str(exc), name_line, source) from exc


def _is_dynamic(clause) -> bool:
    from ..core.ppo import DynamicClause

    return isinstance(clause, DynamicClause)


def parse_model_file(path: Union[str, os.PathLike]) -> MemoryModel:
    """Parse one ``.model`` file (errors carry the path and line number)."""
    path = os.fspath(path)
    with open(path, encoding="utf-8") as handle:
        return parse_model(handle.read(), source=path)


def print_model(model: MemoryModel) -> str:
    """Render a model as canonical ``.model`` text.

    The canonical form — directive order ``model``, ``description`` (only
    when non-empty), ``loadvalue``, ``coherence`` (only when required),
    then one ``ppo``/``dynamic`` line per clause in the model's clause
    order — is what makes the parse∘print round trip byte-stable.

    Raises:
        ModelSpecError: the model cannot be represented in the line
            format (whitespace in the name, a newline in the
            description).
    """
    if not model.name or len(model.name.split()) != 1:
        raise ModelSpecError(
            f"model name {model.name!r} is not a single whitespace-free "
            "token; it cannot be printed as .model text"
        )
    if "\n" in model.description or "\r" in model.description:
        raise ModelSpecError(
            f"model {model.name!r} has a multi-line description; it cannot "
            "be printed as .model text"
        )
    lines = [f"model {model.name}"]
    if model.description:
        lines.append(f"description {_quote(model.description)}")
    lines.append(f"loadvalue {model.load_value}")
    if model.requires_coherence:
        lines.append("coherence required")
    for clause in model.clauses:
        lines.append(f"ppo {clause_spec(clause)}")
    for clause in model.dynamic_clauses:
        lines.append(f"dynamic {clause_spec(clause)}")
    return "\n".join(lines) + "\n"


def load_model_path(path: Union[str, os.PathLike]) -> list[MemoryModel]:
    """Parse ``path`` — one ``.model`` file or a directory of them.

    Directory entries are read in sorted filename order; duplicate model
    names within a directory raise :class:`ModelSpecError`, because every
    downstream consumer (verdict grids, campaign records) keys results by
    model name.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        entries = sorted(
            entry for entry in os.listdir(path) if entry.endswith(".model")
        )
        if not entries:
            raise ModelSpecError(f"no .model files in directory {path!r}")
        models = [
            parse_model_file(os.path.join(path, entry)) for entry in entries
        ]
        seen: dict[str, str] = {}
        for model, entry in zip(models, entries):
            if model.name in seen:
                raise ModelSpecError(
                    f"duplicate model name {model.name!r} in directory "
                    f"{path!r} (files {seen[model.name]!r} and {entry!r})"
                )
            seen[model.name] = entry
        return models
    return [parse_model_file(path)]


# -- ctor: and space: construction specs ---------------------------------


def parse_knob_spec(body: str, allow_star: bool) -> dict[str, str]:
    """Parse ``knob=value,...`` (``value`` may be ``*`` when allowed).

    Knob names are validated against ``CTOR_KNOBS``, plus ``name`` for
    ``ctor:`` specs (``allow_star=False``); value validity is checked by
    :func:`~repro.core.construction.assemble_from_knobs` so the error
    message lists the knob's domain.
    """
    knobs = dict.fromkeys(CTOR_KNOBS, str)
    if not allow_star:
        knobs["name"] = str
    scheme = "space:knob=*|value" if allow_star else "ctor:knob=value"
    values = parse_items(
        body,
        knobs,
        usage=f"{scheme},... with knob one of {', '.join(knobs)}",
        label="knob spec entry",
        noun="construction knob",
        error=ModelSpecError,
    )
    for knob, value in values.items():
        if value == "*" and not allow_star:
            raise ModelSpecError(
                f"knob {knob!r} cannot be '*' here; use a space: spec to "
                "enumerate"
            )
    return values


def _ctor_model(spec: str) -> MemoryModel:
    body = spec[len("ctor"):].lstrip(":")
    knobs = parse_knob_spec(body, allow_star=False)
    name = knobs.pop("name", "")
    try:
        return assemble_from_knobs(knobs, name=name)
    except ValueError as exc:
        raise ModelSpecError(str(exc)) from exc


def _space_models(spec: str) -> list[MemoryModel]:
    body = spec[len("space"):].lstrip(":")
    knobs = parse_knob_spec(body, allow_star=True)
    starred = [knob for knob, value in knobs.items() if value == "*"]
    if not starred:
        raise ModelSpecError(
            f"space spec {spec!r} enumerates nothing; star at least one "
            "knob (knob=*) or use ctor: for a single model"
        )
    assignments: list[dict[str, str]] = [{}]
    for knob in CTOR_KNOBS:  # canonical knob order, declared value order
        if knob not in knobs:
            continue
        values = CTOR_KNOBS[knob] if knobs[knob] == "*" else (knobs[knob],)
        assignments = [
            {**assignment, knob: value}
            for assignment in assignments
            for value in values
        ]
    try:
        return [assemble_from_knobs(assignment) for assignment in assignments]
    except ValueError as exc:
        raise ModelSpecError(str(exc)) from exc


# -- universal resolution ------------------------------------------------


def resolve_models(spec: Union[str, MemoryModel]) -> list[MemoryModel]:
    """Resolve a model spec to the (possibly singleton) family it names.

    Accepts a built :class:`MemoryModel` (returned as-is), a registry
    name or alias, a ``.model`` file or directory path, a ``ctor:`` point
    of the construction lattice, or a ``space:`` enumeration over it —
    see the module docstring for the spec grammar.

    Raises:
        ModelSpecError: a spec that parses but names nothing valid.
        KeyError: an unknown registry name (message lists the options).
    """
    if isinstance(spec, MemoryModel):
        return [spec]
    if not isinstance(spec, str):
        raise TypeError(f"model spec must be a str or MemoryModel, got {spec!r}")
    # The colon is required: a bare "ctor"/"space" is more likely a typo'd
    # or truncated spec than a request for the all-defaults model, so it
    # falls through to the unknown-name listing below.
    if spec.startswith("ctor:"):
        return [_ctor_model(spec)]
    if spec.startswith("space:"):
        return _space_models(spec)
    from .registry import get_model, model_names

    # Zoo names win over paths (mirroring resolve_suite's static-name
    # precedence): a stray file or directory in the cwd that happens to be
    # called "gam" must not shadow the zoo.
    if spec in model_names():
        return [get_model(spec)]
    if os.path.exists(spec):
        return load_model_path(spec)
    try:
        return [get_model(spec)]  # raises the listing KeyError
    except KeyError as exc:
        raise KeyError(
            f"{exc.args[0]}; a model spec may also be a .model file or "
            "directory path, ctor:knob=value,... or space:knob=*,..."
        ) from None


def resolve_model(spec: Union[str, MemoryModel]) -> MemoryModel:
    """Resolve a model spec that must name exactly one model.

    This is the universal entry point behind every CLI ``--model`` /
    ``weaker`` / ``stronger`` argument.  Family specs (``space:``,
    multi-file directories) raise: pass those to :func:`resolve_models`
    (or a ``--pair`` that fans out) instead.
    """
    models = resolve_models(spec)
    if len(models) != 1:
        names = ", ".join(model.name for model in models)
        raise ModelSpecError(
            f"spec {spec!r} names a family of {len(models)} models "
            f"({names}); expected exactly one"
        )
    return models[0]


def named_model(spec: Union[str, MemoryModel]) -> MemoryModel:
    """Resolve a single-model spec into the model an engine cell carries.

    A built model passes through unchanged.  A string spec resolves
    through :func:`resolve_model`, and its model takes the string as its
    name: ``"rmo"`` stays ``"rmo"`` rather than ``"gam0"``, and a
    ``.model`` path or ``ctor:`` spec names its matrix column as written.
    Names never reach cache keys, which hash model content only.
    """
    if isinstance(spec, MemoryModel):
        return spec
    model = resolve_model(spec)
    return model if model.name == spec else replace(model, name=spec)


def split_pair_spec(spec: str) -> tuple[str, str]:
    """Split a ``--pair`` spec ``A:B`` into two model specs.

    Model specs may themselves contain one colon (``ctor:...``,
    ``space:...``), so the split is scheme-aware: a ``ctor``/``space``
    segment consumes the segment after it.  ``space:same_address_loads=*:gam``
    therefore splits into ``('space:same_address_loads=*', 'gam')``.
    """
    parts = [part.strip() for part in spec.split(":")]
    specs: list[str] = []
    i = 0
    while i < len(parts):
        if parts[i] in ("ctor", "space") and i + 1 < len(parts):
            specs.append(f"{parts[i]}:{parts[i + 1]}")
            i += 2
        else:
            specs.append(parts[i])
            i += 1
    if len(specs) != 2 or not specs[0] or not specs[1]:
        raise ValueError(
            f"bad model pair {spec!r}; expected 'weaker:stronger', e.g. "
            "wmm:arm or space:same_address_loads=*:gam"
        )
    if specs[0] == specs[1]:
        raise ValueError(f"model pair {spec!r} compares a model with itself")
    return (specs[0], specs[1])
