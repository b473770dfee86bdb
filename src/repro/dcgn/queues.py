"""Thread-safe work queues with explicit cost accounting.

Paper §3.2.2: "Thread-safe queues are used to control inter-thread and
inter-node communication."  §5.2 attributes DCGN's small-message overhead
to this multi-threaded architecture — so queue operations charge real
time here, and the counters feed the overhead-breakdown report.  The
queue itself is a plain ``deque``: consumers drain it when they poll,
so a put wakes nobody but the optional kick signal.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from ..sim.core import Event, Simulator, us
from ..sim.sync import Signal

__all__ = ["WorkQueue", "sleep_poll_wait"]


class WorkQueue:
    """A FIFO queue between DCGN threads, charging lock/op costs.

    ``put`` charges ``queue_op_us`` to the producer; ``drain`` charges
    one ``queue_op_us`` to the consumer per batch (the lock is taken
    once).  An optional :class:`Signal` is fired on puts so pollers with
    kick-mode can react.
    """

    def __init__(
        self,
        sim: Simulator,
        queue_op_us: float,
        name: str = "",
        kick: Optional[Signal] = None,
    ) -> None:
        self.sim = sim
        self.queue_op_us = queue_op_us
        self.name = name or "workq"
        self._items: Deque[Any] = deque()
        self.kick = kick
        #: Counters for the overhead report.
        self.puts = 0
        self.drains = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Generator[Event, Any, None]:
        """Enqueue ``item``, charging the producer the lock+push cost."""
        yield self.sim.timeout(us(self.queue_op_us))
        self._items.append(item)
        self.puts += 1
        if self.kick is not None:
            self.kick.fire()

    def put_nowait(self, item: Any) -> None:
        """Enqueue without charging time (internal handoffs)."""
        self._items.append(item)
        self.puts += 1
        if self.kick is not None:
            self.kick.fire()

    def drain(self) -> Generator[Event, Any, List[Any]]:
        """Take everything currently queued (one lock charge)."""
        yield self.sim.timeout(us(self.queue_op_us))
        self.drains += 1
        return self.drain_nowait()

    def drain_nowait(self) -> List[Any]:
        """Take everything without charging time."""
        out = list(self._items)
        self._items.clear()
        return out


def sleep_poll_wait(
    sim: Simulator,
    event: Event,
    poll_interval_us: float,
) -> Generator[Event, Any, Any]:
    """Wait for ``event`` the way a sleep-polling thread would.

    The waiter checks a completion flag every ``poll_interval_us``; it
    therefore observes the completion at the first poll tick *after* the
    event fires.  Implemented event-driven (wait for the event, then
    round up to the next tick boundary relative to the wait start) so the
    simulation stays deadlock-detectable, while the observable timing is
    identical to a poll loop.
    """
    start = sim.now
    value = yield event
    if poll_interval_us > 0:
        interval = us(poll_interval_us)
        elapsed = sim.now - start
        ticks = int(elapsed / interval) + 1
        remainder = start + ticks * interval - sim.now
        # Guard against floating-point edge where we're exactly on a tick.
        if remainder > 1e-15:
            yield sim.timeout(remainder)
    return value
