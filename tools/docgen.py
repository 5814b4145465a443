"""Write-or-check for the generated docs (``tools/gen_*_docs.py``).

Each generator renders its page from live source tables and hands the
text here: without ``--check`` the page is (re)written, with it the
committed page is compared and a stale one fails with the generator's
own out-of-sync message.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence


def write_or_check(
    output: str, rendered: str, stale_message: str, argv: Optional[Sequence[str]]
) -> int:
    """Write ``rendered`` to ``output``, or with ``--check`` verify it.

    ``argv`` defaults to the process arguments.  Returns the exit code:
    1 when ``--check`` finds ``output`` missing or different (printing
    ``stale_message`` to stderr), else 0.
    """
    check = "--check" in (argv if argv is not None else sys.argv[1:])
    page = "docs/" + os.path.basename(output)
    if check:
        try:
            with open(output, encoding="utf-8") as handle:
                committed = handle.read()
        except OSError:
            committed = ""
        if committed != rendered:
            print(stale_message, file=sys.stderr)
            return 1
        print(f"{page} is in sync")
        return 0
    os.makedirs(os.path.dirname(output), exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    print(f"wrote {output}")
    return 0
