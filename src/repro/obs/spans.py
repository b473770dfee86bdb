"""Span recording: the simulator's one event recorder, ``sim.spans``.

A :class:`Span` is a named interval on a *track* (one track per rank,
per comm thread, per GPU thread, per fabric channel, per serving job).
Point events are zero-duration instants on the same tracks: DCGN poll
ticks (``dcgn.poll``) and the stages of every DCGN request
(``dcgn.req``, keyed by ``attrs["req"]``), which is what the §5.2
overhead breakdown and the Figure 2 dataflow test read.  The recorder is
attached with :meth:`Simulator.attach_spans
<repro.sim.core.Simulator.attach_spans>`; when ``sim.spans`` is
``None`` (the default) every instrumentation point is a single
attribute load and ``is not None`` branch, so the un-traced hot path
pays nothing measurable and the exact backend's event timing is
bit-identical either way — recording only *observes* ``sim.now``, it
never yields, schedules, or mutates simulation state.

Span identity is a monotonically increasing integer ``sid`` assigned at
``begin`` time, which keeps traces deterministic run-to-run.  ``link``
carries a cross-track dependency (e.g. a receive's wait span links to
the matching send span) for the critical-path walk; ``parent`` nests
spans on the same logical activity (schedule rounds under their
collective).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

__all__ = ["Span", "SpanRecorder"]


class Span:
    """One recorded interval.  Mutable until :meth:`SpanRecorder.end`."""

    __slots__ = (
        "sid", "name", "category", "track", "t0", "t1", "parent",
        "link", "attrs",
    )

    def __init__(
        self,
        sid: int,
        name: str,
        category: str,
        track: str,
        t0: float,
        t1: Optional[float] = None,
        parent: Optional[int] = None,
        link: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.category = category
        self.track = track
        self.t0 = t0
        self.t1 = t1
        self.parent = parent
        self.link = link
        self.attrs = attrs

    @property
    def dur(self) -> float:
        """Span duration in simulated seconds (0.0 while still open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.category}:{self.name} track={self.track} "
            f"[{self.t0:.6g}, {self.t1 if self.t1 is not None else '...'}])"
        )


class SpanRecorder:
    """Collects completed spans into a (optionally bounded) buffer.

    ``maxlen`` keeps only the most recent spans — long serving runs can
    stay traced without unbounded growth.  ``stats`` (set by
    ``Simulator.attach_spans``) lets the recorder count its own closed
    spans in ``sim.stats.spans`` so traced benches see what tracing
    recorded.

    Recording is a two-phase affair to honor the tracing-overhead
    budget: :meth:`complete` (the hot path — every wire transfer, p2p
    protocol leg and software-overhead charge lands there) appends a
    raw 9-tuple, which is ~3x cheaper than constructing a
    :class:`Span`, and the tuples are materialized into ``Span``
    objects only when :attr:`spans` is first read — report time, not
    simulation time.
    """

    __slots__ = ("enabled", "_buf", "_dirty", "_next_sid", "stats")

    def __init__(self, maxlen: Optional[int] = None) -> None:
        self.enabled = True
        self._buf: Deque[Any] = deque(maxlen=maxlen)
        self._dirty = False
        self._next_sid = 1
        self.stats: Any = None

    @property
    def spans(self) -> "Deque[Span]":
        """Completed spans in record order (materialized on access)."""
        if self._dirty:
            self._materialize()
        return self._buf

    def _materialize(self) -> None:
        new = object.__new__
        buf = self._buf
        for _ in range(len(buf)):
            row = buf.popleft()
            if type(row) is tuple:
                span = new(Span)
                (span.sid, span.name, span.category, span.track,
                 span.t0, span.t1, span.parent, span.link,
                 span.attrs) = row
                buf.append(span)
            else:
                buf.append(row)
        self._dirty = False

    def pause(self) -> None:
        """Stop recording until :meth:`resume` (recorded spans are kept)."""
        self.enabled = False

    def resume(self) -> None:
        """Re-enable recording after :meth:`pause`."""
        self.enabled = True

    # -- recording -----------------------------------------------------

    def begin(
        self,
        t: float,
        name: str,
        category: str,
        track: str,
        parent: Optional[int] = None,
        link: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Open a span at ``t``; returns ``None`` when paused.

        Call sites hold the returned span and pass it to :meth:`end`
        (``end`` tolerates ``None``, so the pause check lives here
        only).  ``attrs`` is a plain dict (or ``None``) rather than
        ``**kwargs`` so attribute-less spans — most of a traced run —
        cost zero dict allocations.
        """
        if not self.enabled:
            return None
        sid = self._next_sid
        self._next_sid = sid + 1
        span = Span.__new__(Span)
        span.sid = sid
        span.name = name
        span.category = category
        span.track = track
        span.t0 = t
        span.t1 = None
        span.parent = parent
        span.link = link
        span.attrs = attrs
        return span

    def end(self, t: float, span: Optional[Span]) -> Optional[Span]:
        """Close ``span`` at ``t`` and commit it to the buffer."""
        if span is None:
            return None
        span.t1 = t
        self._buf.append(span)
        if self.stats is not None:
            self.stats.spans += 1
        return span

    def complete(
        self,
        t0: float,
        t1: float,
        name: str,
        category: str,
        track: str,
        parent: Optional[int] = None,
        link: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
        sid: Optional[int] = None,
    ) -> Optional[int]:
        """Record a retrospective span ``[t0, t1]`` in one call.

        Returns the new span's ``sid`` (``None`` when paused), *not*
        the span object — the row is stored as a raw tuple and only
        turned into a :class:`Span` when :attr:`spans` is read.  This
        is the traced hot path (per-transfer wire spans, p2p protocol
        spans, software-overhead spans), and the 10%-overhead budget
        is paid per call; the analytic backends also funnel whole
        priced span trees through here at commit time.

        Pass ``sid`` from :meth:`alloc_sid` when the identifier had to
        be published (e.g. stamped into a wire message for the
        receiver's ``link``) before the span's end time was known.

        Hot call sites pass every argument positionally — keyword
        marshaling costs real time at tens of thousands of calls per
        traced run.
        """
        if not self.enabled:
            return None
        if sid is None:
            sid = self._next_sid
            self._next_sid = sid + 1
        self._buf.append(
            (sid, name, category, track, t0, t1, parent, link, attrs)
        )
        self._dirty = True
        st = self.stats
        if st is not None:
            st.spans += 1
        return sid

    def alloc_sid(self) -> Optional[int]:
        """Reserve a span id now, to record with :meth:`complete` later.

        Lets a sender publish its span's identity (for cross-track
        ``link``) before the span closes, without paying for a mutable
        :class:`Span` on the hot path.  Returns ``None`` when paused.
        """
        if not self.enabled:
            return None
        sid = self._next_sid
        self._next_sid = sid + 1
        return sid

    def instant(
        self,
        t: float,
        name: str,
        category: str,
        track: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[int]:
        """Record a zero-duration marker (poll tick, commit point)."""
        return self.complete(t, t, name, category, track, attrs=attrs)

    # -- queries -------------------------------------------------------

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        track: Optional[str] = None,
        predicate: Optional[Callable[[Span], bool]] = None,
    ) -> List[Span]:
        """Completed spans matching every given filter."""
        out: Iterable[Span] = self.spans
        if category is not None:
            out = [s for s in out if s.category == category]
        if name is not None:
            out = [s for s in out if s.name == name]
        if track is not None:
            out = [s for s in out if s.track == track]
        if predicate is not None:
            out = [s for s in out if predicate(s)]
        return list(out)

    def count(self, category: str) -> int:
        """Number of completed spans in ``category``."""
        return sum(1 for s in self.spans if s.category == category)

    def tracks(self) -> List[str]:
        """Track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            if s.track not in seen:
                seen[s.track] = None
        return list(seen)

    def wall(self) -> float:
        """Latest span end time (0.0 when empty)."""
        return max((s.t1 for s in self.spans if s.t1 is not None),
                   default=0.0)

    def by_sid(self) -> Dict[int, Span]:
        """Index of completed spans (for link/parent resolution)."""
        return {s.sid: s for s in self.spans}

    def trim(self, t_end: float) -> int:
        """Drop spans that *begin* after ``t_end``; returns the count.

        Service-thread teardown (e.g. the DCGN watchdog horizon) can
        emit poll ticks long after the application finished; trimming
        to the last real activity keeps reports readable.
        """
        kept = [s for s in self.spans if s.t0 <= t_end]
        dropped = len(self._buf) - len(kept)
        self._buf = deque(kept, maxlen=self._buf.maxlen)
        return dropped

    def clear(self) -> None:
        """Drop all completed spans (sid counter keeps advancing)."""
        self._buf.clear()
        self._dirty = False
