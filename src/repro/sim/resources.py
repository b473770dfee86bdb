"""Contended resources: counting semaphores, mutexes, and bandwidth shares.

These model the *contention* aspects of the platform: PCIe bus ownership,
limited CPU cores, GPU multiprocessors, NIC injection ports.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from .core import Event, Simulator

__all__ = ["Resource", "Mutex", "BandwidthChannel"]


class _Request(Event):
    """A :meth:`Resource.request` grant event, named
    ``request(<resource>)`` when the name is read."""

    __slots__ = ("res",)

    def __init__(self, res: "Resource") -> None:
        Event.__init__(self, res.sim)
        self.res = res

    @property
    def name(self) -> str:
        return f"request({self.res.name})"


class Resource:
    """A counting semaphore with FIFO waiters.

    Usage from a process::

        token = yield res.request()
        try:
            ...
        finally:
            res.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or f"resource(cap={capacity})"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held units."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a unit is granted."""
        ev = _Request(self)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one held unit, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() of idle {self.name}")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(self)  # unit transfers directly to the waiter
        else:
            self._in_use -= 1


class Mutex(Resource):
    """A single-unit :class:`Resource`."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        super().__init__(sim, capacity=1, name=name or "mutex")


class BandwidthChannel:
    """A serialized pipe with fixed per-transaction latency + bandwidth.

    Models PCIe links, memory-copy engines, and NIC injection: transfers
    queue FIFO behind each other (contention), each costing::

        latency + nbytes / bandwidth

    A channel may optionally allow ``lanes`` concurrent transfers (e.g.
    full-duplex links are modelled as two channels).
    """

    def __init__(
        self,
        sim: Simulator,
        latency_s: float,
        bandwidth_Bps: float,
        lanes: int = 1,
        name: str = "",
    ) -> None:
        if bandwidth_Bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency_s = latency_s
        self.bandwidth_Bps = bandwidth_Bps
        self.name = name or "channel"
        self._res = Resource(sim, capacity=lanes, name=f"{name}.lanes")
        #: Cumulative bytes moved (for utilization accounting).
        self.bytes_moved = 0
        #: Cumulative busy seconds (for utilization accounting).
        self.busy_s = 0.0

    def transfer_time(self, nbytes: int) -> float:
        """Pure service time of one transfer (without queueing)."""
        return self.latency_s + nbytes / self.bandwidth_Bps

    def transfer(self, nbytes: int) -> Generator[Event, Any, float]:
        """``yield from`` a transfer of ``nbytes``; returns service time."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        yield self._res.request()
        try:
            t = self.transfer_time(nbytes)
            yield self.sim.timeout(t)
            self.bytes_moved += nbytes
            self.busy_s += t
            self.sim.stats.chan_bytes += nbytes
            spans = self.sim.spans
            if spans is not None:
                now = self.sim._now
                spans.complete(now - t, now, "xfer", "wire", self.name,
                               None, None, {"nbytes": nbytes})
            return t
        finally:
            self._res.release()

    def occupy(self, duration_s: float) -> Generator[Event, Any, float]:
        """Hold a lane for ``duration_s`` (control transactions, probes)."""
        if duration_s < 0:
            raise ValueError(f"negative duration {duration_s}")
        yield self._res.request()
        try:
            yield self.sim.timeout(duration_s)
            self.busy_s += duration_s
            return duration_s
        finally:
            self._res.release()
