#!/usr/bin/env python
"""Generate ``docs/cli.md`` from the live argparse tree.

The CLI reference is *derived*, never hand-maintained: this script walks
:func:`repro.cli.build_parser`'s subcommands and renders one markdown
section per command from the same metavars, choices and help strings
argparse shows at ``--help``.  The committed ``docs/cli.md`` is asserted
in sync by ``tests/test_docs.py`` and by the CI docs job.

Usage::

    PYTHONPATH=src python tools/gen_cli_docs.py            # rewrite docs/cli.md
    PYTHONPATH=src python tools/gen_cli_docs.py --check    # exit 1 if stale

The renderer deliberately avoids argparse's usage formatter (its line
wrapping depends on the terminal width), so output is deterministic in
any environment.
"""

from __future__ import annotations

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tools`` for the shared write-or-check helper.
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tools")]

from docgen import write_or_check  # noqa: E402

from repro.cli import build_parser  # noqa: E402  (path set up above)

OUTPUT = os.path.join(_ROOT, "docs", "cli.md")

_HEADER = """\
# `repro` command-line reference

> Generated by `tools/gen_cli_docs.py` from the argparse tree in
> `src/repro/cli.py` — do not edit by hand.  Regenerate with
> `PYTHONPATH=src python tools/gen_cli_docs.py`; the CI docs job fails
> when this file is out of sync.

Every command is reachable as `python -m repro <command>` (alias it to
`repro`).  Commands print plain text and exit non-zero on a failed
check, so they compose with shell scripts and CI.
"""


def _argument_line(action: argparse.Action) -> str:
    """One bullet describing a positional or optional argument."""
    if action.option_strings:
        invocation = ", ".join(action.option_strings)
        if action.nargs != 0 and not isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
        ):
            metavar = action.metavar or action.dest.upper()
            invocation += f" {metavar}"
    else:
        invocation = action.metavar or action.dest
        if action.nargs in ("*", "+"):
            invocation += " ..."
    text = f"- `{invocation}`"
    if action.choices is not None:
        text += " {" + ", ".join(str(choice) for choice in action.choices) + "}"
    if action.help:
        text += f" — {action.help}"
    return text


def _sub_action(parser: argparse.ArgumentParser):
    """The parser's subcommand action, or ``None`` for leaf commands."""
    return next(
        (
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ),
        None,
    )


def _walk_commands(prefix: str, parser: argparse.ArgumentParser, summary):
    """Yield ``(full command name, parser, summary)`` depth-first.

    Commands with nested subcommands (``repro model show`` ...) get one
    section each, in declaration order, right after their parent.
    """
    yield prefix, parser, summary
    sub = _sub_action(parser)
    if sub is not None:
        summaries = {
            choice.dest: choice.help for choice in sub._choices_actions
        }
        for name, child in sub.choices.items():
            yield from _walk_commands(
                f"{prefix} {name}", child, summaries.get(name)
            )


def render_cli_docs() -> str:
    """The full ``docs/cli.md`` text (deterministic)."""
    parser = build_parser()
    root = _sub_action(parser)
    summaries = {choice.dest: choice.help for choice in root._choices_actions}
    lines = [_HEADER]
    commands = [
        entry
        for name, subparser in root.choices.items()
        for entry in _walk_commands(name, subparser, summaries.get(name))
    ]
    for name, subparser, summary in commands:
        lines.append(f"## `repro {name}`")
        lines.append("")
        if summary:
            summary = summary[0].upper() + summary[1:]
            if summary[-1] not in ".?!":
                summary += "."
            lines.append(summary)
            lines.append("")
        nested = _sub_action(subparser)
        if nested is not None:
            subcommands = ", ".join(f"`{child}`" for child in nested.choices)
            lines.append(f"Subcommands (documented below): {subcommands}.")
            lines.append("")
        arguments = [
            action
            for action in subparser._actions
            if not isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            )
        ]
        if arguments:
            for action in arguments:
                lines.append(_argument_line(action))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    """Write (or with ``--check`` verify) ``docs/cli.md``."""
    return write_or_check(
        OUTPUT,
        render_cli_docs(),
        "docs/cli.md is out of sync with src/repro/cli.py; "
        "run: PYTHONPATH=src python tools/gen_cli_docs.py",
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
