"""Synchronization primitives built on events.

* :class:`Signal` — reusable broadcast ("condition variable" notify-all);
  its waits are named ``wait(<signal>)`` only when the name is read, and
  a wait that is no longer wanted is withdrawn with :meth:`Signal.cancel`.
* :class:`Wake` — a reusable first-of wait over a timer, signals and
  events: the DCGN pollers' sleep.  The losing signal waits are
  withdrawn, never pushed through the heap by a later ``fire``.
* :class:`Latch` — count-down latch firing once N arrivals happen.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from .core import PENDING, Event, Simulator, Timeout

__all__ = ["Signal", "Wake", "Latch"]


class _SignalWait(Event):
    """A :meth:`Signal.wait` event, named ``wait(<signal>)`` when the
    name is read."""

    __slots__ = ("signal",)

    def __init__(self, signal: "Signal") -> None:
        Event.__init__(self, signal.sim)
        self.signal = signal

    @property
    def name(self) -> str:
        return f"wait({self.signal.name})"


class Signal:
    """Reusable broadcast: ``fire`` wakes everyone currently waiting."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or "signal"
        self._waiters: List[Event] = []
        #: Number of times :meth:`fire` has been called.
        self.fired_count = 0

    @property
    def waiting(self) -> int:
        """Current number of waiters."""
        return len(self._waiters)

    def wait(self) -> Event:
        """Return a fresh event that fires at the next :meth:`fire`."""
        ev = _SignalWait(self)
        self._waiters.append(ev)
        return ev

    def cancel(self, ev: Event) -> bool:
        """Withdraw a wait that has not fired, so :meth:`fire` never
        schedules it; returns whether it was still waiting."""
        try:
            self._waiters.remove(ev)
        except ValueError:
            return False
        return True

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        self.fired_count += 1
        return len(waiters)


class _WakeHop(Event):
    """The event a :meth:`Wake.arm` returns, named
    ``wake(<pending sources>)`` when the name is read."""

    __slots__ = ("members",)

    def __init__(self, sim: Simulator, members: list) -> None:
        Event.__init__(self, sim)
        #: ``(event, source)`` pairs, in arming order; emptied on a win.
        self.members = members

    @property
    def name(self) -> str:
        return f"wake({', '.join(ev.name for ev, _src in self.members)})"


class Wake:
    """A reusable first-of wait: ``src = yield wake.arm(delay, signals,
    events)`` resumes once the first of a ``delay`` timer, one wait per
    :class:`Signal` and the ``events`` pops, with that source (the
    ``Timeout``, the ``Signal`` or the event) as its value.

    The first pop schedules one NORMAL hop event (the hop an ``AnyOf``
    takes) and the poller resumes on it, so event order is the
    ``AnyOf``'s.  The losers are dropped on the win: a signal wait that
    has not fired is withdrawn with :meth:`Signal.cancel`, and the win
    callback leaves every other member, so one already queued (the
    timer, a wait fired at the same instant) pops as a no-op and never
    resumes a later arm.  A failing event member that wins fails the
    hop and is defused; a member that fails after losing is not
    defused here.  Re-arming drops a previous arm that has not won.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._hop: Optional[_WakeHop] = None
        self._on_pop = self._pop

    def arm(
        self,
        delay: Optional[float] = None,
        signals: Sequence[Signal] = (),
        events: Sequence[Event] = (),
    ) -> Event:
        """Sources are armed in order: the timer, then one wait per
        signal, then the events."""
        sim, on_pop = self.sim, self._on_pop
        if any(ev.sim is not sim for ev in events):
            raise ValueError("all wake members must share a simulator")
        if self._hop is not None:
            self._drop(None)
        members = []
        if delay is not None:
            timer = Timeout(sim, delay)
            timer.callbacks.append(on_pop)
            members.append((timer, timer))
        for sig in signals:
            ev = sig.wait()
            ev.callbacks.append(on_pop)
            members.append((ev, sig))
        for ev in events:
            ev.add_callback(on_pop)
            members.append((ev, ev))
        hop = self._hop = _WakeHop(sim, members)
        return hop

    def _pop(self, ev: Event) -> None:
        hop = self._hop
        for member, src in hop.members if hop is not None else ():
            if member is ev:
                break
        else:
            # A stale bridge of an already-processed event: no arm owns it.
            if ev._ok is False:
                ev._defused = True
            return
        self._drop(ev)
        if ev._ok:
            hop.succeed(src)
        else:
            ev._defused = True
            hop.fail(ev._value)

    def _drop(self, winner: Optional[Event]) -> None:
        """Detach the current arm from every member but ``winner``."""
        hop, self._hop = self._hop, None
        on_pop = self._on_pop
        for member, src in hop.members:
            if member is winner:
                continue
            if src is not member and member._value is PENDING:
                src.cancel(member)  # a signal wait that never fired
            else:
                member.remove_callback(on_pop)
        hop.members = []


class Latch:
    """Count-down latch: fires its event after ``count`` arrivals."""

    def __init__(self, sim: Simulator, count: int, name: str = "") -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.sim = sim
        self.name = name or f"latch({count})"
        self.remaining = count
        self.done = sim.event(name=f"{self.name}.done")
        if count == 0:
            self.done.succeed(None)

    def arrive(self, n: int = 1) -> None:
        """Count down by ``n``; fires the latch at zero."""
        if self.remaining <= 0:
            raise RuntimeError(f"{self.name}: arrive() after completion")
        if n < 1:
            raise ValueError("n must be >= 1")
        self.remaining -= n
        if self.remaining < 0:
            raise RuntimeError(f"{self.name}: over-arrived")
        if self.remaining == 0:
            self.done.succeed(None)

    def wait(self) -> Event:
        """The completion event."""
        return self.done
