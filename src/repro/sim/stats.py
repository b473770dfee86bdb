"""Lightweight simulator counters for performance diagnosis.

Every :class:`~repro.sim.core.Simulator` owns a :class:`SimStats`
(``sim.stats``).  The hot-path hooks are bare integer increments — no
branching, no allocation — so the exact simulator's event timing and
ordering are untouched.  Benchmarks print the counters next to their
timings so a perf regression (e.g. a copy-elision path silently
reverting to eager copies, or the fast path falling back to packet
simulation) is visible in the bench JSON, not just in wall-clock noise.

Counter glossary
----------------
``heap_pushes`` / ``events_popped``
    Raw event-loop volume: entries pushed onto / popped off the event
    queue, same-instant lane pushes included (every scheduled event
    counts once, wherever :class:`~repro.sim.batch.EventHeap` keeps it).
    The vectorized fast path shows up here first — pricing a collective
    analytically replaces thousands of pops with a handful.
``payload_copies`` / ``payload_views``
    Defensive ``np.copy`` snapshots taken at send time vs. sends that
    proved alias-safe and shipped a zero-copy view instead.
``batch_events``
    Completions delivered through an :class:`~repro.sim.batch.EventBatch`
    carrier (many logical completions drained by one heap operation).
``fastpath_collectives`` / ``fastpath_rounds``
    Collectives executed by the analytic backend, and the total number
    of schedule rounds it priced without enqueueing packets.
``fastpath_sched_cache_hits``
    Fast-path collectives that replayed a retained compiled plan
    (pairing, replay program, pricing tape) instead of compiling their
    shape afresh — data-carrying or data-free (e.g. the fence barrier
    every Jacobi iteration), under any arrival skew.
``rma_coalesced_puts``
    Small eager RMA puts absorbed into a combined wire transfer.
``payload_adopted``
    Receives that adopted the in-flight message array outright instead
    of memcpying it into a staging buffer (schedule-internal receives
    whose sender donated a private payload).
``wire_cost_hits`` / ``wire_cost_misses``
    Interned-wire-cost cache hits vs. analytic cost-model evaluations
    in the fast-path backends (``Topology.wire_costs``: one cache per
    cluster topology, shared by collective and RMA pricing) — the hit
    rate is the fast path's memoization health.
``fastpath_rma_ops``
    One-sided operations priced analytically instead of simulated.
``serve_jobs`` / ``serve_backfills`` / ``serve_requests``
    Serving layer (:mod:`repro.serve`): jobs submitted to a cluster
    scheduler, admissions that jumped a blocked FIFO head (backfill),
    and open-loop requests offered to request services.
``chan_bytes``
    Payload bytes charged to fabric channels — every
    :meth:`~repro.sim.resources.BandwidthChannel.transfer` plus the
    bytes the analytic fast path accounts onto routed channels when
    :attr:`~repro.hw.topology.base.Topology.accounting` is on.  The
    per-channel link-utilization report (:mod:`repro.obs.links`) sums
    to exactly this counter.
``spans``
    Spans closed by an attached :class:`~repro.obs.spans.SpanRecorder`
    (zero when no recorder is attached — the observability layer's own
    footprint, so traced benches can report what tracing itself cost).
"""

from __future__ import annotations

__all__ = ["SimStats"]

_FIELDS = (
    "heap_pushes",
    "events_popped",
    "payload_copies",
    "payload_views",
    "payload_adopted",
    "batch_events",
    "fastpath_collectives",
    "fastpath_rounds",
    "fastpath_sched_cache_hits",
    "fastpath_rma_ops",
    "wire_cost_hits",
    "wire_cost_misses",
    "rma_coalesced_puts",
    "serve_jobs",
    "serve_backfills",
    "serve_requests",
    "chan_bytes",
    "spans",
)


class SimStats:
    """Monotonic event-loop counters (see module docstring)."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for f in _FIELDS:
            setattr(self, f, 0)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in _FIELDS}

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (for :meth:`delta`)."""
        return self.as_dict()

    def delta(self, prev: dict) -> dict:
        """Per-counter difference since a :meth:`snapshot`.

        Counters absent from ``prev`` (an older snapshot taken before a
        counter existed) are treated as zero.
        """
        return {f: getattr(self, f) - prev.get(f, 0) for f in _FIELDS}

    def summary(self, compact: bool = False) -> str:
        """One-line rendering for benchmark output.

        ``compact=True`` drops zero counters — sweeps that print a
        stats line per point stay readable instead of repeating a
        screenful of irrelevant zeros.
        """
        d = self.as_dict()
        if compact:
            d = {k: v for k, v in d.items() if v}
        return " ".join(f"{k}={v}" for k, v in d.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimStats({self.summary()})"
