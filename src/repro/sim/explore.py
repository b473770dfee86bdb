"""Schedule exploration: seeded random tie-break over the ready set.

The base :class:`~repro.sim.core.Simulator` breaks event-heap ties by
insertion order (FIFO), so every run follows exactly one interleaving —
fine for timing studies, useless for falsifying concurrency logic: the
passive-target lock grant queues, PSCW partial-group sync and comm-thread
completers in this codebase have corner cases that only *other* legal
interleavings reach.

:class:`ExploringSimulator` makes the tie-break a scheduling decision.
All heap entries co-scheduled at the head ``(time, priority)`` form the
**ready set**; one is picked under a seeded :class:`random.Random`.  Two
properties follow directly:

* every seed is a *legal* interleaving — only same-instant,
  same-priority events are permuted, so causality and simulated time are
  untouched;
* every seed is *replayable* — the RNG is the only source of choice, so
  the same seed always yields the identical schedule (and the identical
  :attr:`~ExploringSimulator.schedule_trace`).

The model-checking harness in :mod:`repro.check` sweeps seeds and
classifies outcomes; this module is deliberately policy-free.

Livelock detection rides along: a deadlock (drained heap with blocked
processes) is already caught by the base kernel, but a spin loop that
keeps re-scheduling zero-delay events never drains the heap.  When
``livelock_window`` consecutive events have fired without simulated
time advancing, :class:`~repro.sim.errors.LivelockError` is raised.
The counting lives in :meth:`ExploringSimulator._pop_next`, the one
hook the kernel's run loop calls per event: each pop accounts the event
it returns, and the pop after the window-filling event raises before
taking another, so exactly ``livelock_window`` stagnant events fire.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Tuple

from .core import Event, Simulator
from .errors import LivelockError

__all__ = ["ExploringSimulator", "ScheduleChoice"]


class ScheduleChoice(NamedTuple):
    """One recorded scheduling decision (a ready set of size >= 2)."""

    #: Simulated time of the ready set.
    time: float
    #: Scheduling priority band of the ready set.
    priority: int
    #: Names of the co-scheduled events, in FIFO (sequence) order.
    ready: Tuple[str, ...]
    #: Index into ``ready`` of the event that was picked.
    picked: int


class ExploringSimulator(Simulator):
    """A :class:`Simulator` whose same-instant tie-break is a seeded RNG.

    Parameters
    ----------
    seed:
        Root of all scheduling choices.  Equal seeds reproduce the
        identical schedule; distinct seeds explore distinct
        interleavings (when the workload has any same-instant
        concurrency at all).
    livelock_window:
        Raise :class:`~repro.sim.errors.LivelockError` after this many
        consecutive events at one simulated instant (``None`` disables —
        the default, since legitimate wide barriers process many
        same-time events).  Counted in :meth:`_pop_next`: the pop after
        the window-filling event raises instead of returning.
    capture_trace:
        Record every decision (ready set + pick) in
        :attr:`schedule_trace`.  Bounded by ``max_trace`` entries so
        pathological runs stay in memory; :attr:`decisions` always
        counts all of them.
    """

    def __init__(
        self,
        seed: int = 0,
        livelock_window: Optional[int] = None,
        capture_trace: bool = True,
        max_trace: int = 100_000,
    ) -> None:
        super().__init__()
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.livelock_window = livelock_window
        self.capture_trace = capture_trace
        self.max_trace = int(max_trace)
        #: Recorded scheduling decisions (ready sets of size >= 2).
        self.schedule_trace: List[ScheduleChoice] = []
        #: Total scheduling decisions taken (even when not captured).
        self.decisions = 0
        #: Total events popped (every event the run loop started firing).
        self.steps = 0
        self._stagnant = 0

    # -- the exploring tie-break ----------------------------------------
    def _pop_next(self) -> tuple[float, int, int, Event]:
        window = self.livelock_window
        if window is not None and self._stagnant >= window:
            spinning = sorted(p.name for p in self._live)
            raise LivelockError(self._now, window, spinning)
        heap = self._heap
        first = heap.pop()
        self.steps += 1
        if first[0] > self._now:
            self._stagnant = 0
        else:
            self._stagnant += 1
        if not heap.peek_matches(first[0], first[1]):
            return first  # singleton ready set: no choice to make
        # Gather the full ready set: every entry co-scheduled at the
        # head (time, priority).  Entries keep their sequence numbers,
        # so the ones pushed back preserve their relative FIFO order.
        ready = [first]
        while heap.peek_matches(first[0], first[1]):
            ready.append(heap.pop())
        k = self._rng.randrange(len(ready))
        self.decisions += 1
        if self.capture_trace and len(self.schedule_trace) < self.max_trace:
            self.schedule_trace.append(
                ScheduleChoice(
                    time=first[0],
                    priority=first[1],
                    ready=tuple(
                        e[3].name or type(e[3]).__name__ for e in ready
                    ),
                    picked=k,
                )
            )
        chosen = ready.pop(k)
        for entry in ready:
            heap.push_entry(entry)
        return chosen

    # -- introspection ---------------------------------------------------
    def trace_signature(self) -> Tuple[Tuple[float, int, int], ...]:
        """A compact, comparable fingerprint of the schedule so far.

        ``(time, priority, picked)`` per decision — enough to prove two
        runs followed the identical (or a different) interleaving
        without holding every event name.
        """
        return tuple(
            (c.time, c.priority, c.picked) for c in self.schedule_trace
        )
