"""Observability layer: span tracing, link accounting, trace export.

The runtime can *run* 1024-rank sweeps; this package lets it *explain*
them.  Three pieces, all timing-passive (attaching them never changes
simulated timestamps or payload bytes — the exact backend stays
byte-stable with tracing on):

* :mod:`~repro.obs.spans` — :class:`SpanRecorder`, the simulator's one
  event recorder and the single hook (``sim.spans``, same pattern as
  ``sim.stats``) that every instrumented layer checks.  Collectives,
  schedule rounds, p2p matching, RMA epochs, DCGN comm-thread slots,
  DCGN poll ticks and request stages, the fast-path pricer and the
  serving scheduler all emit spans when a recorder is attached.
* :mod:`~repro.obs.links` — per-channel busy-time/bytes utilization
  report over :meth:`~repro.hw.topology.base.Topology.channels`, fed
  either by simulated transfers (exact backend) or the analytic
  accounting hook (fast-path backends).
* :mod:`~repro.obs.export` / :mod:`~repro.obs.critical` — Chrome-trace
  (Perfetto) JSON export, and a critical-path walk that attributes the
  simulated wall clock to wire / overhead / compute / queueing / idle.

``python -m repro.trace`` is the CLI over all of it.
"""

from .spans import Span, SpanRecorder
from .links import link_report, format_link_report
from .export import to_chrome_trace, write_chrome_trace
from .critical import (
    critical_path,
    format_critical_path,
    collective_profile,
    format_collective_profile,
)

__all__ = [
    "Span",
    "SpanRecorder",
    "link_report",
    "format_link_report",
    "to_chrome_trace",
    "write_chrome_trace",
    "critical_path",
    "format_critical_path",
    "collective_profile",
    "format_collective_profile",
]
