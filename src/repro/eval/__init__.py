"""Experiment harnesses: one module per table/figure of the paper,
plus differential analyses over their matrices (:mod:`.discrepancy`)."""

from .discrepancy import (
    Discrepancy,
    mine_discrepancies,
    render_discrepancies,
    verdict_table,
)
from .figure18 import Figure18Result, Figure18Row, render_figure18, run_figure18
from .litmus_matrix import (
    VerdictCell,
    conformance_failures,
    litmus_matrix,
    render_matrix,
)
from .render import render_bar_chart, render_table
from .strength import StrengthMatrix, render_strength, strength_matrix
from .table2 import Table2Row, render_table2, table2
from .table3 import Table3Row, render_table3, table3

__all__ = [
    "run_figure18",
    "render_figure18",
    "Figure18Result",
    "Figure18Row",
    "table2",
    "render_table2",
    "Table2Row",
    "table3",
    "render_table3",
    "Table3Row",
    "litmus_matrix",
    "render_matrix",
    "conformance_failures",
    "VerdictCell",
    "render_table",
    "render_bar_chart",
    "strength_matrix",
    "render_strength",
    "StrengthMatrix",
    "Discrepancy",
    "mine_discrepancies",
    "render_discrepancies",
    "verdict_table",
]
