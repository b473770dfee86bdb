"""Discrete-event simulation kernel for the DCGN reproduction.

Public surface::

    from repro.sim import Simulator, us, ms
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(us(5))
        return 42

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 42
"""

from .core import (
    LOW,
    NORMAL,
    PENDING,
    URGENT,
    Event,
    Process,
    Simulator,
    Timeout,
    ms,
    us,
)
from .errors import (
    DeadlockError,
    Interrupt,
    LivelockError,
    ScheduleError,
    SimulationError,
)
from .batch import EventBatch
from .explore import ExploringSimulator, ScheduleChoice
from .primitives import AllOf, AnyOf
from .stats import SimStats
from .resources import BandwidthChannel, Mutex, Resource
from .rng import RngStreams, stable_hash
from .stores import FilterStore
from .sync import Latch, Signal, Wake

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "PENDING",
    "URGENT",
    "NORMAL",
    "LOW",
    "us",
    "ms",
    "SimulationError",
    "ScheduleError",
    "Interrupt",
    "DeadlockError",
    "LivelockError",
    "ExploringSimulator",
    "ScheduleChoice",
    "SimStats",
    "EventBatch",
    "AnyOf",
    "AllOf",
    "Resource",
    "Mutex",
    "BandwidthChannel",
    "FilterStore",
    "Signal",
    "Wake",
    "Latch",
    "RngStreams",
    "stable_hash",
]
