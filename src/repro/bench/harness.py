"""Benchmark harness: tables, gated records, and result persistence.

Every benchmark regenerates one artifact and renders it as a table: the
paper's artifacts in the shape the paper reports (rows of a table,
series of a figure) beside the paper's numbers, and the gated benches
as their sweeps.  The floats behind a table are kept as records (the
``records`` of a ``BENCH_*.json``); a record with a band is gated.
Host-time values (wall or CPU seconds, and ratios of them) are kept
apart as ``host`` records, so the simulated records stay byte-stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..hw.params import KB, MB

__all__ = [
    "fmt_time",
    "fmt_ratio",
    "fmt_size",
    "Table",
    "results_dir",
    "save_table",
    "violations",
]

#: ``(lo, hi)``: a record is in band when ``lo < measured < hi``; a
#: ``None`` side is unbounded.  Open bounds are never looser than a
#: ``<=`` check at the same threshold; integer counts use half-integer
#: bounds (``>= 4`` is ``(3.5, None)``).
Band = Tuple[Optional[float], Optional[float]]


def fmt_time(seconds: Optional[float]) -> str:
    """Human-readable simulated time (µs/ms/s)."""
    if seconds is None:
        return "—"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds:.3f} s"


def fmt_ratio(x: Optional[float]) -> str:
    if x is None:
        return "—"
    return f"{x:.2f}×"


def fmt_size(nbytes: int) -> str:
    """A message size as the tables print it (0 B, 16 kB, 4 MB)."""
    if nbytes >= MB:
        return f"{nbytes // MB} MB"
    return f"{nbytes // KB} kB" if nbytes >= KB else f"{nbytes} B"


@dataclass
class Table:
    """A paper-style results table."""

    title: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    records: List[Dict[str, Any]] = field(default_factory=list)
    host: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append([str(c) for c in cells])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def record(
        self,
        row: str,
        measured: float,
        paper: Optional[float] = None,
        band: Optional[Band] = None,
        host: bool = False,
    ) -> None:
        """Keep one simulated value, with the paper's where it gives
        one; ``band`` gates it (checked on the unrounded float).
        ``host`` files a host-time value under :attr:`host` instead."""
        measured = float(measured)
        in_band = None
        if band is not None:
            lo, hi = band
            in_band = (lo is None or lo < measured) and (
                hi is None or measured < hi
            )
        (self.host if host else self.records).append({
            "row": row,
            "measured": _sig(measured),
            "paper": None if paper is None else _sig(paper),
            "ratio": None if paper is None else _sig(measured / paper),
            "band": None if band is None else list(band),
            "in_band": in_band,
        })

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(
            c.ljust(widths[i]) for i, c in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _sig(x: float) -> float:
    """``x`` to 9 significant digits: the stored value reads cleanly and
    does not churn on last-bit float differences between hosts."""
    return float(f"{x:.9g}")


def violations(records: Iterable[Dict[str, Any]]) -> List[str]:
    """One line per record outside its band, naming the record."""
    return [
        f"{r['artifact']}/{r['row']}: measured {r['measured']:g} "
        f"outside band {r['band']}"
        for r in records
        if r["in_band"] is False
    ]


#: The checkout root: the committed ``BENCH_*.json`` artifacts live here.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def results_dir() -> str:
    """Directory where benchmark tables are persisted."""
    out = os.path.join(REPO_ROOT, "benchmarks", "out")
    os.makedirs(out, exist_ok=True)
    return out


def save_table(name: str, table: Table) -> str:
    """Persist a rendered table under benchmarks/out; returns the path."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.render() + "\n")
    return path
