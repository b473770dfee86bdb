"""Per-channel fabric utilization report.

Every :class:`~repro.sim.resources.BandwidthChannel` accumulates
``bytes_moved`` and ``busy_s`` as transfers run (exact backend) or as
the analytic accounting hook books priced legs
(:meth:`~repro.hw.topology.base.Topology.account`).  This module turns
those counters into a report: one row per channel with the busy
fraction over a wall-clock interval.

Under analytic accounting the *demand* booked onto a link can exceed
the wall clock — ``busy_frac > 1`` — because priced transfers never
queue against each other.  That over-commit is the congestion signal:
a pod uplink at 3.2x demand under packed placement versus 0.4x under
spread is exactly the p99 gap's mechanism.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["link_report", "format_link_report"]


def link_report(
    topology: Any,
    wall_s: Optional[float] = None,
    include_idle: bool = False,
) -> List[Dict[str, Any]]:
    """One row per fabric channel: name, bytes, busy_s, busy_frac.

    ``topology`` is anything with ``channels()`` (a
    :class:`~repro.hw.topology.base.Topology`, e.g.
    ``cluster.topology``).  ``wall_s`` scales
    busy time to a fraction; ``None`` leaves ``busy_frac`` at 0.0.
    Idle channels (no bytes, no busy time) are dropped unless
    ``include_idle`` — a 256-node fat-tree has hundreds of channels and
    the interesting ones are the hot ones.
    """
    rows: List[Dict[str, Any]] = []
    for ch in topology.channels():
        if not include_idle and ch.bytes_moved == 0 and ch.busy_s == 0.0:
            continue
        frac = (ch.busy_s / wall_s) if wall_s else 0.0
        rows.append(
            {
                "name": ch.name,
                "bytes": int(ch.bytes_moved),
                "busy_s": float(ch.busy_s),
                "busy_frac": float(frac),
            }
        )
    return rows


def format_link_report(
    rows: List[Dict[str, Any]], top: Optional[int] = None
) -> str:
    """Fixed-width table of ``link_report`` rows, busiest first."""
    ordered = sorted(rows, key=lambda r: (-r["busy_s"], r["name"]))
    if top is not None:
        ordered = ordered[:top]
    if not ordered:
        return "(no fabric traffic recorded)"
    w = max(len(r["name"]) for r in ordered)
    lines = [
        f"{'link':<{w}}  {'bytes':>14}  {'busy_s':>12}  {'busy%':>8}"
    ]
    for r in ordered:
        lines.append(
            f"{r['name']:<{w}}  {r['bytes']:>14,}  "
            f"{r['busy_s']:>12.6f}  {100.0 * r['busy_frac']:>7.1f}%"
        )
    return "\n".join(lines)
