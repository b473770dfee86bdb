"""Generator-coroutine discrete-event simulation kernel.

This is the substrate everything else in :mod:`repro` runs on.  All of the
"threads" in the paper — CPU-kernel threads, GPU-kernel threads, the DCGN
communication thread, MPI progress engines, and GPU thread-blocks — are
modelled as :class:`Process` coroutines advancing in simulated time.

Design notes
------------
* Simulated time is a ``float`` in **seconds**.  Helpers :func:`us` and
  :func:`ms` convert from micro/milliseconds, which is how hardware
  parameters are naturally expressed.
* Events follow the SimPy protocol loosely: a process ``yield``\\ s an
  :class:`Event`; the kernel resumes it with the event's value (or throws
  the event's exception) once the event fires.
* The kernel is fully deterministic: ties in the event heap are broken by
  a monotonically increasing sequence number.  The tie-break is pluggable
  (:meth:`Simulator._pop_next`): :class:`~repro.sim.explore.ExploringSimulator`
  overrides it to explore random-but-replayable interleavings of events
  co-scheduled at one ``(time, priority)``.
* One run loop: :meth:`Simulator._fire` pops and fires events inline,
  with its lookups bound once per call; :meth:`Simulator.run` and
  :meth:`Simulator.step` both drive it, so there is one place that
  checks time monotonicity, undefused failures and crashed processes.
* One generator-stepping loop, :func:`resume`, drives a
  :class:`Process` and any engine-owned generator thread alike (the
  MPI schedule engine's wire steps: no process per step).
  :meth:`Event.deliver` processes an event inside another's firing
  (batched completions, a schedule's completion), failing loudly alike.
* Default names cost nothing until read: a :class:`Timeout`'s
  ``timeout(<delay>)``, a process start's ``init(<process>)``, a late
  callback's ``bridge(<event>)`` and a resource grant's
  ``request(<resource>)`` are formatted by the ``name`` property, so
  the hot path never formats a string, yet deadlock chains and
  schedule traces read the same names.
* Deadlock detection: when the heap drains while processes remain blocked,
  :meth:`Simulator.run` raises :class:`~repro.sim.errors.DeadlockError`
  (unless disabled).  This converts would-be hangs into testable failures.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Any, Callable, Generator, Optional

from .errors import (
    DeadlockError,
    Interrupt,
    ScheduleError,
    SimulationError,
    StopSimulation,
)
from .stats import SimStats

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "LOW",
    "us",
    "ms",
    "Event",
    "Timeout",
    "Process",
    "Simulator",
]

#: Sentinel for "event has no value yet".
PENDING = object()

#: Scheduling priorities (lower value pops first at equal times).
URGENT = 0
NORMAL = 1
LOW = 2


def us(x: float) -> float:
    """Convert microseconds to simulated seconds."""
    return x * 1e-6


def ms(x: float) -> float:
    """Convert milliseconds to simulated seconds."""
    return x * 1e-3


class Event:
    """A one-shot occurrence in simulated time.

    An event is *triggered* once it has a value (or an exception), and
    *processed* once its callbacks have run.  Callbacks added after
    processing are scheduled to run immediately (same simulated time),
    which lets processes wait on events that already happened.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._name = name
        #: ``None`` once the event has been processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        # A failed event whose failure was delivered to at least one waiter
        # is "defused"; undefused failures crash the simulation (they would
        # otherwise be silently lost).
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def name(self) -> str:
        """Label for deadlock chains, schedule traces and ``repr``."""
        return self._name

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise ScheduleError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not PENDING:
            raise ScheduleError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, 0.0, priority)
        return self

    def deliver(self, value: Any = None, ok: bool = True) -> None:
        """Trigger and process the event at once, from inside another
        event's firing: its callbacks run now, never through the heap."""
        if self._value is not PENDING:
            raise ScheduleError(f"{self!r} already triggered")
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)
        if not ok and not self._defused:
            raise value

    def defuse(self) -> None:
        """Mark a failed event as handled so it won't crash the run."""
        self._defused = True

    # -- callbacks -----------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs at the current
        simulated time via an immediate bridge event.
        """
        if self.callbacks is not None:
            self.callbacks.append(fn)
        else:
            # Already processed: bridge through a fresh immediate event so
            # the callback still runs from the main loop, never re-entrantly.
            _Kick(self, "bridge", lambda _e: fn(self), self._ok, self._value)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Remove a previously added callback (no-op if absent/processed)."""
        if self.callbacks is not None:
            try:
                self.callbacks.remove(fn)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        name: str = "",
    ) -> None:
        # Event.__init__ inlined: a Timeout is the most common event.
        self.sim = sim
        self._name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay, NORMAL)

    @property
    def name(self) -> str:
        return self._name or f"timeout({self.delay:g})"


class _Kick(Event):
    """A zero-delay URGENT event ``<why>(<of>)`` handing ``fn`` an
    outcome decided earlier: a process start (``init``), an interrupt
    (``interrupt``) or a late callback's event (``bridge``)."""

    __slots__ = ("of", "why")

    def __init__(self, of: Event, why: str, fn: Callable[[Any], None],
                 ok: bool = True, value: Any = None) -> None:
        self.sim = sim = of.sim
        self._name = ""
        self.callbacks = [fn]
        self._value = value
        self._ok = ok
        self._defused = True
        self.of = of
        self.why = why
        sim._schedule(self, 0.0, URGENT)

    @property
    def name(self) -> str:
        return f"{self.why}({self.of.name})"


#: The trigger that starts a generator thread: resume it with ``None``.
GO = SimpleNamespace(_ok=True, _value=None)


def resume(thread: Any, trigger: Any) -> None:
    """Advance ``thread`` — a :class:`Process`, or any object with its
    ``sim``, ``gen``, ``_interrupts``, ``_target``, ``_resume`` (this
    function) and ``_finish`` — from ``trigger`` until its generator
    blocks on a pending event, returns or raises (``_finish(ok,
    value)``; a :class:`SimulationError` before any yield propagates)."""
    sim = thread.sim
    prev, sim._current = sim._current, thread
    thread._target = None
    gen, interrupts = thread.gen, thread._interrupts
    event: Any = None
    try:
        while True:
            if interrupts:
                event = gen.throw(interrupts.pop(0))
            elif trigger._ok:
                event = gen.send(trigger._value)
            else:
                trigger._defused = True
                event = gen.throw(trigger._value)
            # The generator yielded `event`; decide whether to block.
            if not isinstance(event, Event):
                raise SimulationError(
                    f"{thread!r} yielded non-event {event!r}")
            if event.sim is not sim:
                raise SimulationError(
                    f"{thread!r} yielded event from another simulator"
                )
            if interrupts:
                # Pending interrupt: deliver it instead of blocking.
                continue
            callbacks = event.callbacks
            if callbacks is None:
                # Already processed: continue with its value at once
                # (loop again without a context switch).
                trigger = event
                continue
            callbacks.append(thread._resume)
            thread._target = event
            break
    except StopIteration as stop:
        thread._finish(True, stop.value)
    except BaseException as exc:  # generator died
        if isinstance(exc, SimulationError) and event is None:
            # Kernel-usage errors propagate directly.
            sim._live.discard(thread)
            raise
        thread._finish(False, exc)
    finally:
        sim._current = prev


ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A simulated thread of control, driven by a generator.

    The generator yields :class:`Event` instances; the kernel resumes it
    with each event's value.  A ``Process`` is itself an :class:`Event`
    that fires when the generator returns (value = return value) or raises
    (failure), so processes can ``yield`` other processes to join them.
    """

    __slots__ = ("gen", "_target", "_interrupts")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        Event.__init__(self, sim, name or getattr(gen, "__name__", "process"))
        self.gen = gen
        #: Event this process is currently blocked on (None when runnable).
        self._target: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        sim._live.add(self)
        # First resumption happens "now" via an initialization event.
        _Kick(self, "init", self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into this process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self.sim._current is self:
            raise SimulationError("a process cannot interrupt itself")
        self._interrupts.append(Interrupt(cause))
        # Detach from whatever it's waiting on, then resume urgently.
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
            _Kick(self, "interrupt", self._resume)
        # If _target is None the process is already scheduled to resume; the
        # queued interrupt will be delivered on that resumption.

    # -- kernel interface ----------------------------------------------
    _resume = resume

    def _finish(self, ok: bool, value: Any) -> None:
        self.sim._live.discard(self)
        self._ok = ok
        self._value = value
        if not ok and not self.callbacks:
            # Nobody is joining this process: surface the crash loudly
            # unless someone later defuses it.
            self.sim._crashed.append(self)
        self.sim._schedule(self, 0.0, NORMAL)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = f" waiting on {self._target!r}" if self._target else ""
        return f"<Process {self.name!r}{target}>"


class Simulator:
    """The event loop: a priority queue of (time, priority, seq, event).

    Pending events live in an :class:`~repro.sim.batch.EventHeap` —
    per-priority FIFO lanes for the current instant in front of one
    ``heapq`` — whose pop order is the total order on ``(time,
    priority, seq)``.
    """

    def __init__(self) -> None:
        # Late import: batch.py imports Event/Simulator from this module.
        from .batch import EventHeap

        self._now: float = 0.0
        self.stats = SimStats()
        self._heap = EventHeap()
        self._push = self._heap.push
        self._next_seq = itertools.count().__next__
        self._live: set[Process] = set()
        self._crashed: list[Process] = []
        self._current: Optional[Process] = None
        #: Optional :class:`~repro.obs.spans.SpanRecorder`; ``None``
        #: keeps every instrumentation point to one attribute check.
        self.spans: Any = None

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event firing after ``delay`` seconds."""
        return Timeout(self, delay, value, name)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from generator ``gen``."""
        return Process(self, gen, name=name)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        """Push ``event`` to fire ``delay`` seconds from now: the one
        place every event reaches the queue."""
        if delay < 0:
            raise ScheduleError(f"negative delay {delay!r}")
        self.stats.heap_pushes += 1
        self._push(self._now + delay, priority, self._next_seq(), event)

    def stop(self, value: Any = None) -> None:
        """Stop :meth:`run` at the current simulated time."""
        raise StopSimulation(value)

    # -- execution -----------------------------------------------------
    def _pop_next(self) -> tuple[float, int, int, Event]:
        """Pop the next heap entry to process.

        The tie-break among entries co-scheduled at the same
        ``(time, priority)`` is the kernel's scheduling policy: here it
        is the insertion sequence number (FIFO), which makes every run
        fully deterministic.  :class:`~repro.sim.explore.ExploringSimulator`
        overrides this to pick among the ready set under a seeded RNG —
        every seed then explores one distinct legal interleaving.
        """
        return self._heap.pop()

    def step(self) -> None:
        """Process exactly one event."""
        if self._fire(None, True):
            raise SimulationError("step() on empty event queue")

    def run(
        self,
        until: Optional[float] = None,
        detect_deadlock: bool = True,
    ) -> float:
        """Run until the heap drains or simulated time reaches ``until``.

        Returns the final simulated time.  Raises
        :class:`~repro.sim.errors.DeadlockError` if the queue drains while
        processes remain blocked (and ``detect_deadlock`` is true).
        """
        try:
            if not self._fire(until, False):
                return self._now
        except StopSimulation:
            return self._now
        if detect_deadlock and self._live:
            blocked = sorted(self._live, key=lambda p: p.name)
            raise DeadlockError(
                blocked, chains=[self._waits_chain(p) for p in blocked]
            )
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _fire(self, until: Optional[float], once: bool) -> bool:
        """The event loop: pop and fire events in order.

        Returns ``True`` when the queue is drained, ``False`` when the
        next event lies past ``until`` (simulated time then stops at
        ``until``) or, with ``once``, after one event.
        """
        heap = self._heap
        # The base tie-break is the heap's own order: skip the
        # _pop_next indirection unless a subclass overrides it.
        pop = heap.pop
        if type(self)._pop_next is not Simulator._pop_next:
            pop = decide = self._pop_next
            if until is not None:
                # Never let a custom tie-break decide past ``until``.
                def pop():
                    return heap.pop() if heap.peek_time() > until else decide()
        crashed = self._crashed
        fired = 0
        try:
            while True:
                try:
                    t, _prio, _seq, event = entry = pop()
                except IndexError:
                    return True
                if until is not None and t > until:
                    heap.push_entry(entry)
                    self._now = until
                    return False
                if t < self._now - 1e-18:  # pragma: no cover - defensive
                    raise SimulationError("time went backwards")
                self._now = t
                fired += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for fn in callbacks:
                        fn(event)
                if (
                    event._ok is False
                    and not event._defused
                    and not isinstance(event, Process)
                ):
                    raise event._value
                if crashed:
                    live = [p for p in crashed if not p._defused]
                    crashed.clear()
                    if live:
                        raise live[0]._value
                if once:
                    return False
        finally:
            self.stats.events_popped += fired

    def _waits_chain(self, proc: Process) -> list[str]:
        """The waits-for chain of a blocked process.

        Follows ``process -> blocking event -> owning process`` links:
        when a process is joined on another process (the event *is* the
        owning process), the chain continues through that process's own
        blocking event, until it reaches a plain event or a cycle.
        """
        chain = [proc.name]
        seen = {id(proc)}  # det: ok - membership only, never ordering
        ev: Optional[Event] = proc._target
        while ev is not None:
            chain.append(ev.name or type(ev).__name__)
            if isinstance(ev, Process) and id(ev) not in seen:
                seen.add(id(ev))
                ev = ev._target
            else:
                ev = None
        return chain

    def peek(self) -> float:
        """Time of the next scheduled event (inf when empty)."""
        return self._heap.peek_time()

    def attach_spans(self, recorder: Any = None) -> Any:
        """Install (and return) a span recorder as ``self.spans``.

        With no argument, creates a fresh
        :class:`~repro.obs.spans.SpanRecorder`.  The recorder's
        ``stats`` is pointed at ``self.stats`` so closed spans show up
        in the ``spans`` counter.  Recording is timing-passive: the
        simulation's event order and payloads are identical with or
        without a recorder attached.
        """
        if recorder is None:
            from ..obs.spans import SpanRecorder

            recorder = SpanRecorder()
        recorder.stats = self.stats
        self.spans = recorder
        return recorder
