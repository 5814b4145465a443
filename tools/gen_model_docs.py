#!/usr/bin/env python
"""Generate ``docs/models.md`` from the live model-spec vocabulary.

Like ``tools/gen_cli_docs.py`` for the CLI reference, the model-format
reference is *derived*, never hand-maintained: the clause vocabulary
table comes from :data:`repro.core.ppo.STATIC_CLAUSES` (+ dynamic and
parametric catalogs) joined with the provenance records in
:data:`repro.core.construction.CONSTRAINTS` and each clause class's
docstring, and the construction-knob table comes from
:data:`repro.core.construction.CTOR_KNOBS`.  The committed
``docs/models.md`` is asserted in sync by ``tests/test_docs.py`` and the
CI docs job.

Usage::

    PYTHONPATH=src python tools/gen_model_docs.py            # rewrite docs/models.md
    PYTHONPATH=src python tools/gen_model_docs.py --check    # exit 1 if stale
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tools`` for the shared write-or-check helper.
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tools")]

from docgen import write_or_check  # noqa: E402

from repro.core.construction import CONSTRAINTS, CTOR_KNOBS  # noqa: E402
from repro.core.ppo import (  # noqa: E402
    DYNAMIC_CLAUSES,
    PARAMETRIC_CLAUSES,
    STATIC_CLAUSES,
)

OUTPUT = os.path.join(_ROOT, "docs", "models.md")

_HEADER = """\
# Model definitions: the `.model` format and model specs

> Generated by `tools/gen_model_docs.py` from the clause catalog in
> `src/repro/core/ppo.py` and the construction lattice in
> `src/repro/core/construction.py` — do not edit by hand.  Regenerate
> with `PYTHONPATH=src python tools/gen_model_docs.py`; the CI docs job
> fails when this file is out of sync.

The paper's thesis is that a memory model is *constructed* from named
constraint choices.  This repository makes that construction data: every
model — the zoo in [architecture.md](architecture.md), a user's variant,
a whole enumerated family — is expressible as a small text file or an
inline spec string, and resolves through one function,
`repro.models.spec.resolve_model`.

## The `.model` file format

A cat-inspired (Herding Cats / herd7 tradition) line format; `#` starts
a comment, blank lines are ignored:

```text
model <name>              # required, first directive; no whitespace in <name>
description "<text>"      # optional; \\" and \\\\ escapes
loadvalue gam|sc          # the LoadValue axiom (default: gam)
coherence required        # per-location-SC side condition (the plsc yardstick)
ppo <Clause>[(args)]      # one static ppo clause per line, in order
dynamic <Clause>          # one execution-dependent clause per line
```

`repro.models.spec.print_model` emits the canonical form (directives in
the order above); the parse/print round trip is byte-stable for every
model in the zoo, which `tests/test_model_spec.py` asserts.  Models must
order same-address stores (`SAMemSt` or `PairwiseOrder(S,S)`) — the
enumeration engine and single-thread correctness rely on it — so a
`.model` file omitting both is rejected at parse time.  Likewise,
`coherence required` needs `ppo SAMemSt` and `loadvalue gam`, and the
only `dynamic` clause is `SALdLdARM`: the engine checks per-location SC
and SALdLdARM with one same-source check on same-address load pairs,
which is exact only under those preconditions (Herding Cats'
per-location-SC lemma; see docs/architecture.md).  Specs outside them
are refused with a line-numbered `ModelSpecError`.

Example — `examples/no_addrst.model`, the paper's drop-AddrSt
experiment (`repro check lb+addrpo-st -m examples/no_addrst.model`):

```text
model no_addrst
description "GAM minus AddrSt: stores no longer wait for older accesses' address producers."
loadvalue gam
ppo SAMemSt
ppo SARmwLd
ppo FenceOrd
ppo RegRAW
ppo SAStLd
ppo BrSt
ppo SALdLd
```

## Model specs

Everywhere the CLI names a model (`-m/--model`, `diff WEAKER STRONGER`,
`hunt --pair A:B`) it accepts a *model spec*:

| spec                      | resolves to |
|---------------------------|-------------|
| `gam`                     | a registry name or alias (`repro list models`) |
| `path/to/file.model`      | one parsed `.model` file |
| `path/to/dir/`            | every `*.model` file in a directory (a family) |
| `ctor:knob=value,...`     | one point of the construction lattice (`assemble`) |
| `space:knob=*,...`        | every lattice point over the starred knobs (a family) |

Family specs are valid wherever a family makes sense (`hunt --pair`,
`model show`); single-model arguments reject them with the member list.
Engine cache keys and campaign digests hash model *content* (clauses +
axioms), so a file-defined model caches correctly, an edited file
misses, and a renamed-but-identical model still hits.
"""

_KNOBS_INTRO = """\
## Construction knobs (`ctor:` / `space:`)

The knobs are the decision points of the paper's Section III
construction procedure (`repro.core.construction.assemble`); the first
value listed is the default.  `ctor:` pins knobs to build one model;
`space:` stars knobs (`knob=*`) to enumerate the sub-lattice, naming
each member `ctor(knob=value,...)` after its assignment.
"""

_FOOTER = """\
## Worked example: hunt an enumerated family

The paper's methodology — invent a model variant, then find the litmus
test that distinguishes it — as one command, composing the cycle
generator, the batch engine and the campaign driver:

```console
$ repro hunt --suite gen:edges=4 --pair "space:same_address_loads=*:gam" \\
      --out hunts/saldld-space --jobs 4
expanded 1 pair spec(s) into 3 concrete pairs over 4 models
...
```

The `space:` side enumerates the three same-address-load policies
(`none` = GAM0-like, `saldld` = GAM's choice, `arm` = the ARMv8
alternative); each member is hunted against the `gam` baseline, and
every discrepancy is minimized to a re-verified `.litmus` witness — the
`none` member loses per-location SC and diverges on CoRR-shaped tests,
reproducing Section III-E1's argument mechanically.  The campaign's
`campaign.json` digests each member's *content*, so editing any member
spec (or the construction code) refuses to resume into stale state.

See also: [architecture.md](architecture.md) for where model resolution
sits in the stack, [cli.md](cli.md) for `repro model show/import/export`,
and `examples/custom_model.py` for the library-level API
(`assemble`, and `resolve_model`/`resolve_models` over zoo names,
`.model` files, `ctor:` and `space:` specs).
"""


def _summary(cls: type) -> str:
    """First docstring line of a clause class, as table-cell text."""
    doc = (cls.__doc__ or "").strip().splitlines()
    text = doc[0].strip() if doc else ""
    return text.rstrip(".")


def _clause_rows() -> list[tuple[str, str, str, str]]:
    """(spec syntax, kind, paper ref, summary) per vocabulary entry."""
    rows = []
    for name, cls in STATIC_CLAUSES.items():
        rows.append((name, "static", cls.paper_ref, _summary(cls)))
    for name, cls in PARAMETRIC_CLAUSES.items():
        rows.append(
            (f"{name}(X,Y)", "static, X/Y in {L,S}", cls.paper_ref, _summary(cls))
        )
    for name, cls in DYNAMIC_CLAUSES.items():
        rows.append((name, "dynamic", cls.paper_ref, _summary(cls)))
    return rows


def render_model_docs() -> str:
    """The full ``docs/models.md`` text (deterministic)."""
    lines = [_HEADER]
    lines.append("## Clause vocabulary")
    lines.append("")
    lines.append(
        "Static clauses go on `ppo` lines, dynamic (execution-dependent) "
        "clauses on `dynamic` lines.  Summaries are the clause classes' own "
        "docstrings (`repro.core.ppo`); the *why* column is the provenance "
        "record of the construction procedure "
        "(`repro.core.construction.CONSTRAINTS`)."
    )
    lines.append("")
    lines.append("| clause | kind | paper | what it orders | why it exists |")
    lines.append("|--------|------|-------|----------------|---------------|")
    for syntax, kind, paper_ref, summary in _clause_rows():
        base = syntax.split("(")[0]
        origin = CONSTRAINTS[base].origin if base in CONSTRAINTS else "—"
        lines.append(
            f"| `{syntax}` | {kind} | {paper_ref} | {summary} | {origin} |"
        )
    lines.append("")
    lines.append(_KNOBS_INTRO)
    lines.append("| knob | values (first = default) |")
    lines.append("|------|---------------------------|")
    for knob, values in CTOR_KNOBS.items():
        lines.append(f"| `{knob}` | {', '.join(f'`{v}`' for v in values)} |")
    lines.append("")
    lines.append(_FOOTER)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    """Write (or with ``--check`` verify) ``docs/models.md``."""
    return write_or_check(
        OUTPUT,
        render_model_docs(),
        "docs/models.md is out of sync with the model-spec catalog; "
        "run: PYTHONPATH=src python tools/gen_model_docs.py",
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
