"""Batched event completion and the structured-array event heap.

Two complementary attacks on per-event Python overhead live here:

* :class:`EventBatch` — many logical completions, one heap operation.
  The analytic fast path uses it: a 1024-rank collective has one
  completion *per rank*, but they cluster on a handful of distinct
  completion times.  The completions are collected into a numpy
  structured array, grouped by unique time, and each distinct time gets
  exactly **one** carrier :class:`~repro.sim.core.Event` on the heap.
  When the carrier pops, its callback marks every member event
  triggered-and-processed and runs the members' callbacks inline, so N
  completions cost ``unique_times`` heap operations instead of N.

  Members delivered this way are indistinguishable from normally
  processed events to waiters: ``triggered``/``processed``/``ok``/
  ``value`` all read correctly, and callbacks run from the main loop at
  the member's exact simulated time (carriers are scheduled with NORMAL
  priority, like plain ``succeed()``).

* :class:`EventHeap` — the *exact* engine's pending-event store,
  replacing the plain ``heapq`` of ``(time, priority, seq, event)``
  tuples.  Its pop order is byte-for-byte the total order on
  ``(time, priority, seq)`` the plain heap produced, which keeps the
  exact engine byte-stable and keeps
  :meth:`~repro.sim.core.Simulator._pop_next` (the pluggable tie-break
  the :class:`~repro.sim.explore.ExploringSimulator` overrides) exactly
  as expressive as before via :meth:`EventHeap.peek_matches` /
  :meth:`EventHeap.push_entry`.  Entries live in three places:

  - **Same-instant lanes.**  Most pushes in a discrete-event run are
    zero-delay (``succeed``, process starts and finishes, bridges): they
    land at the instant that was popped last.  Such a push goes to a
    FIFO deque per priority instead of the binary heap, an O(1) append
    and popleft with no tuple compares.
  - **The push buffer** — a small binary heap of the 4-tuples, so the
    shallow-heap path costs exactly what the plain heap cost.
  - **The sorted run.**  Once the buffer passes a threshold it is
    merged with the surviving run by one vectorized ``np.lexsort`` over
    parallel ``float64``/``int64`` columns (``priority << 48 | seq``
    packed into one key, so run ordering is a two-scalar compare that
    never reaches the event); the sorted columns are rematerialized as
    flat Python lists so head reads never box a numpy scalar.

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
from typing import Any, List, Tuple

import numpy as np

from .core import NORMAL, Event, Simulator
from .errors import ScheduleError

__all__ = ["EventBatch", "EventHeap"]

#: ``key = priority << _KEY_SHIFT | seq`` — one comparison covers the
#: (priority, seq) tie-break.  48 bits of sequence space is ~2.8e14
#: events, far beyond any simulated run.
_KEY_SHIFT = 48
_KEY_MASK = (1 << _KEY_SHIFT) - 1

#: Minimum buffered pushes before a vectorized merge into the sorted
#: run.  Merges are *geometric*: the buffer must also outgrow the
#: surviving run tail, so every entry is rewritten O(log(N/threshold))
#: times over its life instead of once per 1024 pushes — without this,
#: deep heaps (256–1024-rank exact runs) would pay quadratic rewrite
#: volume.
_MERGE_THRESHOLD = 1024


class EventHeap:
    """Pending-event store with same-instant lanes (see module docstring).

    The public entry shape is the kernel's ``(time, priority, seq,
    event)`` tuple.  Entries live in one of three places:

    * ``_lanes[p]`` — a FIFO deque of the entries of priority ``p`` at
      the lane instant ``_lane_t`` (``_lane_n`` counts all three);
    * ``_pend`` — a small ``heapq`` of the tuples;
    * the sorted run ``_run_t``/``_run_k``/``_run_e`` consumed from
      ``_head``, where ``k`` packs ``priority << 48 | seq`` so one
      scalar pair compare orders run entries against the pend head.

    ``_pend`` and the run together are "the heap".  A push at exactly
    ``_lane_t`` goes to its priority's lane, every other push to the
    heap; every pop taken while the lanes are empty resets ``_lane_t``
    to the popped time.  An entry put back (:meth:`push_entry`) goes
    to the heap: it was popped ahead of every lane entry of its
    ``(time, priority)``, and a heap entry wins that tie, whereas a
    lane append could let a later heap entry of the same key overtake
    it.
    """

    __slots__ = (
        "_pend", "_run_t", "_run_k", "_run_e", "_head", "_run_len",
        "_lanes", "_lane_n", "_lane_t", "stats",
    )

    def __init__(self, stats=None) -> None:
        self._pend: List[Tuple[float, int, int, Event]] = []
        # The sorted run: produced columnar (one vectorized lexsort),
        # then held as plain lists so per-pop head reads are native
        # float/int indexing with no numpy-scalar boxing.
        self._run_t: List[float] = []
        self._run_k: List[int] = []
        self._run_e: List[Any] = []
        self._head = 0
        self._run_len = 0
        # One lane per priority (URGENT, NORMAL, LOW).
        self._lanes: Tuple[deque, deque, deque] = (deque(), deque(), deque())
        self._lane_n = 0
        self._lane_t = 0.0
        self.stats = stats

    def __len__(self) -> int:
        return len(self._pend) + (self._run_len - self._head) + self._lane_n

    def __bool__(self) -> bool:
        return bool(self._lane_n or self._pend) or self._head < self._run_len

    # -- insertion -----------------------------------------------------
    def push(self, time: float, priority: int, seq: int, event: Event) -> None:
        if time == self._lane_t:
            self._lanes[priority].append((time, priority, seq, event))
            self._lane_n += 1
            return
        pend = self._pend
        heapq.heappush(pend, (time, priority, seq, event))
        if len(pend) >= _MERGE_THRESHOLD and len(pend) >= (
            self._run_len - self._head
        ):
            self._merge()

    def push_entry(self, entry: Tuple[float, int, int, Event]) -> None:
        """Re-insert an entry previously returned by :meth:`pop`, with
        its seq: the exploring tie-break's unchosen ready entries, or
        the run loop's first entry past ``until``."""
        heapq.heappush(self._pend, entry)

    def _merge(self) -> None:
        """Fold the push buffer into the sorted run (vectorized)."""
        pend = self._pend
        head = self._head
        n = self._run_len - head + len(pend)
        t = np.array(
            self._run_t[head:] + [e[0] for e in pend], dtype=np.float64
        )
        k = np.array(
            self._run_k[head:]
            + [(e[1] << _KEY_SHIFT) | e[2] for e in pend],
            dtype=np.int64,
        )
        events = self._run_e[head:] + [e[3] for e in pend]
        pend.clear()
        # Keys are unique (seq is), so (time, key) is a total order and
        # sort stability is irrelevant: the result is the exact heapq
        # pop order regardless.
        order = np.lexsort((k, t))
        self._run_t = t[order].tolist()
        self._run_k = k[order].tolist()
        self._run_e = [events[i] for i in order.tolist()]
        self._head = 0
        self._run_len = n
        if self.stats is not None:
            self.stats.heap_merges += 1
            self.stats.heap_merged_events += n

    # -- consumption ---------------------------------------------------
    def pop(self) -> Tuple[float, int, int, Event]:
        """Remove and return the minimum entry as ``(time, priority,
        seq, event)`` — the plain heap's exact pop order.  Raises
        :class:`IndexError` when empty, like :func:`heapq.heappop`."""
        if self._lane_n:
            lanes = self._lanes
            lane = lanes[0] or lanes[1] or lanes[2]
            lt = self._lane_t
            lp = lane[0][1]
            pend = self._pend
            if pend:
                h = pend[0]
                if h[0] < lt or (h[0] == lt and h[1] <= lp):
                    return self._pop_heap()
            head = self._head
            if head < self._run_len:
                rt = self._run_t[head]
                if rt < lt or (
                    rt == lt and self._run_k[head] >> _KEY_SHIFT <= lp
                ):
                    return self._pop_heap()
            self._lane_n -= 1
            return lane.popleft()
        if self._head < self._run_len:
            entry = self._pop_heap()
        else:
            entry = heapq.heappop(self._pend)
        self._lane_t = entry[0]
        return entry

    def _pop_heap(self) -> Tuple[float, int, int, Event]:
        """Pop the smaller of the run head and the push-buffer head."""
        head = self._head
        if head < self._run_len:
            pend = self._pend
            rt = self._run_t[head]
            rk = self._run_k[head]
            if not pend or (rt, rk) <= (
                pend[0][0], (pend[0][1] << _KEY_SHIFT) | pend[0][2]
            ):
                self._head = head + 1
                ev = self._run_e[head]
                self._run_e[head] = None  # drop the reference
                return (rt, rk >> _KEY_SHIFT, rk & _KEY_MASK, ev)
        return heapq.heappop(self._pend)

    def peek_time(self) -> float:
        """Time of the minimum entry (``inf`` when empty)."""
        t = self._lane_t if self._lane_n else float("inf")
        pend = self._pend
        if pend and pend[0][0] < t:
            t = pend[0][0]
        head = self._head
        if head < self._run_len and self._run_t[head] < t:
            t = self._run_t[head]
        return t

    def peek_matches(self, time: float, priority: int) -> bool:
        """True when the minimum entry is co-scheduled at exactly
        ``(time, priority)`` — the exploring simulator's ready-set
        membership test."""
        best = None
        pend = self._pend
        if pend:
            best = pend[0][:3]
        head = self._head
        if head < self._run_len:
            rk = self._run_k[head]
            run = (self._run_t[head], rk >> _KEY_SHIFT, rk & _KEY_MASK)
            if best is None or run < best:
                best = run
        if self._lane_n:
            lanes = self._lanes
            lane = (lanes[0] or lanes[1] or lanes[2])[0][:3]
            if best is None or lane < best:
                best = lane
        return best is not None and best[0] == time and best[1] == priority


#: Structured record for one pending completion: absolute fire time and
#: an index into the side list of (event, value) pairs.  Kept as a
#: numpy array so grouping by time is a vectorized sort, not Python
#: tuple churn.
_REC_DTYPE = np.dtype([("time", np.float64), ("slot", np.int64)])


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
        items = self._items
        if not items:
            return 0
        self._items = []
        n = len(items)
        recs = np.empty(n, dtype=_REC_DTYPE)  # det: ok - fields set below
        recs["time"] = [it[0] for it in items]
        recs["slot"] = np.arange(n)
        # Stable sort: members at one time fire in insertion order, the
        # same FIFO tie-break the plain heap gives same-time events.
        order = np.argsort(recs, order=("time", "slot"), kind="stable")
        recs = recs[order]
        times = recs["time"]
        # Boundaries of runs of equal time.
        starts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
        ends = np.concatenate((starts[1:], [len(recs)]))
        sim = self.sim
        for lo, hi in zip(starts, ends):
            t = float(times[lo])
            members = [items[int(s)] for s in recs["slot"][lo:hi]]
            carrier = Event(sim, name=f"{self.name}@{t:g}")
            carrier._ok = True
            carrier._value = None
            carrier.callbacks.append(_make_drain(sim, members))
            sim._schedule(carrier, delay=t - sim.now, priority=NORMAL)
        return len(starts)


def _make_drain(sim: Simulator, members: List[Tuple[float, Event, Any]]):
    def drain(_carrier: Event) -> None:
        stats = sim.stats
        for _t, ev, value in members:
            stats.batch_events += 1
            ev.deliver(value)

    return drain
