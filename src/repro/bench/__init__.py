"""Benchmark harness regenerating and gating every evaluation artifact."""

from .ablations import (
    localcomm_table,
    multislot_table,
    polling_tradeoff_table,
    slots_table,
)
from .breakdown import overhead_breakdown, send_lifecycle
from .calibration import FIG6_ANCHORS, SEC51_PAPER, TABLE1_PAPER, Table1Row
from .future import future_hw_table
from .figures import (
    fig5_mandelbrot_distribution,
    fig6_send,
    fig7_broadcast,
    sec51_cannon,
    sec51_mandelbrot,
    sec51_nbody,
    table1_barriers,
)
from .harness import (
    Table,
    fmt_ratio,
    fmt_time,
    results_dir,
    save_table,
    violations,
)

__all__ = [
    "Table",
    "fmt_time",
    "fmt_ratio",
    "results_dir",
    "save_table",
    "violations",
    "TABLE1_PAPER",
    "FIG6_ANCHORS",
    "SEC51_PAPER",
    "Table1Row",
    "table1_barriers",
    "fig6_send",
    "fig7_broadcast",
    "fig5_mandelbrot_distribution",
    "sec51_mandelbrot",
    "sec51_cannon",
    "sec51_nbody",
    "overhead_breakdown",
    "send_lifecycle",
    "future_hw_table",
    "polling_tradeoff_table",
    "slots_table",
    "localcomm_table",
    "multislot_table",
]
