"""The one ``key=value,...`` grammar behind every CLI spec.

``gen:`` and ``rand:`` suites, ``ctor:``/``space:`` model specs and
``REPRO_FAULTS`` fault actions all carry a comma-separated list of
``key=value`` items.  :func:`parse_items` reads that list by one rule:
blank items are skipped, spaces around keys and values are stripped,
and an item with no ``=``, an empty side, an unknown key, a repeated
key or a value its converter rejects is an error that names the item,
the key and the expected usage.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

__all__ = ["parse_items"]

_KINDS = {int: "an integer", float: "a number"}


def parse_items(
    body: str,
    keys: Mapping[str, Callable[[str], Any]],
    usage: str,
    label: str,
    noun: str = "key",
    error: type[Exception] = ValueError,
) -> dict[str, Any]:
    """Parse ``key=value,...`` into ``{key: keys[key](value)}``, input order.

    ``keys`` maps every accepted key to its converter (``int``, ``float``
    or ``str``).  Errors raise ``error`` as ``bad <label> '<item>':
    <problem>; expected <usage>``, where ``noun`` names what a key is.
    """
    items: dict[str, Any] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or not key or not value:
            problem = "not key=value"
        elif key not in keys:
            problem = f"unknown {noun} {key!r}"
        elif key in items:
            problem = f"repeated {noun} {key!r}"
        else:
            convert = keys[key]
            try:
                items[key] = convert(value)
                continue
            except ValueError:
                problem = f"{noun} {key!r} must be {_KINDS[convert]}"
        raise error(f"bad {label} {item!r}: {problem}; expected {usage}")
    return items
