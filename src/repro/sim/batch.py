"""Batched event completion and the exact engine's event queue.

* :class:`EventBatch` — many logical completions, one heap operation.
  The analytic fast path uses it: a 1024-rank collective has one
  completion *per rank*, but they cluster on a handful of distinct
  completion times.  The completions are stably sorted by time and
  grouped, and each distinct time gets exactly **one** carrier
  :class:`~repro.sim.core.Event` on the heap.  When the carrier pops,
  its callback marks every member event triggered-and-processed and
  runs the members' callbacks inline, so N completions cost
  ``unique_times`` heap operations instead of N.

  Members delivered this way are indistinguishable from normally
  processed events to waiters: ``triggered``/``processed``/``ok``/
  ``value`` all read correctly, and callbacks run from the main loop at
  the member's exact simulated time (carriers are scheduled with NORMAL
  priority, like plain ``succeed()``).

* :class:`EventHeap` — the *exact* engine's pending-event store: one
  ``heapq`` of ``(time, priority, seq, event)`` tuples behind
  same-instant lanes.  Its pop order is the total order on
  ``(time, priority, seq)``, which keeps the exact engine byte-stable
  and keeps :meth:`~repro.sim.core.Simulator._pop_next` (the pluggable
  tie-break the :class:`~repro.sim.explore.ExploringSimulator`
  overrides) exactly as expressive as a plain heap via
  :meth:`EventHeap.peek_matches` / :meth:`EventHeap.push_entry`.

  Most pushes in a discrete-event run are zero-delay (``succeed``,
  process starts and finishes, bridges): they land at the instant that
  was popped last.  Such a push goes to a FIFO deque per priority
  instead of the heap, an O(1) append and popleft with no tuple
  compares.

  Why the lanes keep the order: a push goes to a lane only when its time
  equals the lane instant ``_lane_t``, and ``_lane_t`` moves only when
  every lane is empty.  Every heap entry at that instant was therefore
  pushed *before* the instant became current, so it carries a smaller
  seq than every lane entry; seqs grow with every push, so each lane is
  sorted by seq too.  A pop compares only ``(time, priority)`` of the
  heap head against the lowest non-empty lane and takes the heap head
  on a tie, which is the total order.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import groupby
from operator import itemgetter
from typing import Any, List, Tuple

from .core import NORMAL, Event, Simulator
from .errors import ScheduleError

__all__ = ["EventBatch", "EventHeap"]


class EventHeap:
    """Pending-event store with same-instant lanes (see module docstring).

    Entries are the kernel's ``(time, priority, seq, event)`` tuples and
    live either in ``_lanes[p]``, a FIFO deque of the entries of
    priority ``p`` at the lane instant ``_lane_t`` (``_lane_n`` counts
    all three), or in the ``heapq`` ``_heap``.  A push at exactly
    ``_lane_t`` goes to its priority's lane, every other push to the
    heap; every pop taken while the lanes are empty resets ``_lane_t``
    to the popped time.  An entry put back (:meth:`push_entry`) goes to
    the heap: it was popped ahead of every lane entry of its ``(time,
    priority)``, and a heap entry wins that tie, whereas a lane append
    could let a later heap entry of the same key overtake it.
    """

    __slots__ = ("_heap", "_lanes", "_lane_n", "_lane_t")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        # One lane per priority (URGENT, NORMAL, LOW).
        self._lanes: Tuple[deque, deque, deque] = (deque(), deque(), deque())
        self._lane_n = 0
        self._lane_t = 0.0

    def push(self, time: float, priority: int, seq: int, event: Event) -> None:
        if time == self._lane_t:
            self._lanes[priority].append((time, priority, seq, event))
            self._lane_n += 1
        else:
            heapq.heappush(self._heap, (time, priority, seq, event))

    def push_entry(self, entry: Tuple[float, int, int, Event]) -> None:
        """Re-insert an entry previously returned by :meth:`pop`, with
        its seq: the exploring tie-break's unchosen ready entries, or
        the run loop's first entry past ``until``."""
        heapq.heappush(self._heap, entry)

    def pop(self) -> Tuple[float, int, int, Event]:
        """Remove and return the minimum entry as ``(time, priority,
        seq, event)``.  Raises :class:`IndexError` when empty, like
        :func:`heapq.heappop`."""
        heap = self._heap
        if self._lane_n:
            lanes = self._lanes
            lane = lanes[0] or lanes[1] or lanes[2]
            if heap:
                h = heap[0]
                lt = self._lane_t
                if h[0] < lt or (h[0] == lt and h[1] <= lane[0][1]):
                    return heapq.heappop(heap)
            self._lane_n -= 1
            return lane.popleft()
        entry = heapq.heappop(heap)
        self._lane_t = entry[0]
        return entry

    def peek_time(self) -> float:
        """Time of the minimum entry (``inf`` when empty)."""
        t = self._lane_t if self._lane_n else float("inf")
        heap = self._heap
        if heap and heap[0][0] < t:
            t = heap[0][0]
        return t

    def peek_matches(self, time: float, priority: int) -> bool:
        """True when the minimum entry is co-scheduled at exactly
        ``(time, priority)`` — the exploring simulator's ready-set
        membership test."""
        best = self._heap[0][:3] if self._heap else None
        if self._lane_n:
            lanes = self._lanes
            lane = (lanes[0] or lanes[1] or lanes[2])[0][:3]
            if best is None or lane < best:
                best = lane
        return best is not None and best[0] == time and best[1] == priority


class EventBatch:
    """Accumulates ``(time, event, value)`` completions, then commits
    them with one heap push per distinct completion time."""

    def __init__(self, sim: Simulator, name: str = "batch") -> None:
        self.sim = sim
        self.name = name
        self._items: List[Tuple[float, Event, Any]] = []

    def add(self, time: float, event: Event, value: Any = None) -> None:
        """Schedule ``event`` to complete successfully at absolute
        simulated ``time`` (must be >= now)."""
        if event.triggered:
            raise ScheduleError(f"{event!r} already triggered")
        if time < self.sim.now:
            raise ScheduleError(
                f"batch completion in the past: {time} < {self.sim.now}"
            )
        self._items.append((time, event, value))

    def __len__(self) -> int:
        return len(self._items)

    def commit(self) -> int:
        """Flush accumulated completions; returns the number of carrier
        events pushed (== number of distinct completion times)."""
        items, self._items = self._items, []
        # Stable sort: members at one time fire in insertion order, the
        # same FIFO tie-break the plain heap gives same-time events.
        items.sort(key=itemgetter(0))
        sim = self.sim
        carriers = 0
        for t, group in groupby(items, key=itemgetter(0)):
            carrier = Event(sim, name=f"{self.name}@{t:g}")
            carrier._ok = True
            carrier._value = None
            carrier.callbacks.append(_make_drain(sim, list(group)))
            sim._schedule(carrier, delay=t - sim.now, priority=NORMAL)
            carriers += 1
        return carriers


def _make_drain(sim: Simulator, members: List[Tuple[float, Event, Any]]):
    def drain(_carrier: Event) -> None:
        stats = sim.stats
        for _t, ev, value in members:
            stats.batch_events += 1
            ev.deliver(value)

    return drain
