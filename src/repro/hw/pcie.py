"""PCI-Express link model between a host and one GPU.

The paper's central overhead source: "Messages have to be polled from a
GPU; this requires several rounds of PCI-e transfers" (§3.2.3).  We model
the link as two independent directions (full duplex), each a serialized
latency+bandwidth channel, plus a cheap *probe* operation for small status
reads used by the polling loop.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim.core import Event, Simulator, us
from ..sim.resources import BandwidthChannel
from .params import PcieParams

__all__ = ["PcieLink"]


class PcieLink:
    """Full-duplex PCIe link with probe, h2d, and d2h operations."""

    def __init__(
        self, sim: Simulator, params: PcieParams, name: str = ""
    ) -> None:
        self.sim = sim
        self.params = params
        self.name = name or "pcie"
        self.h2d = BandwidthChannel(
            sim,
            latency_s=us(params.lat_us),
            bandwidth_Bps=params.bw_GBps * 1e9,
            name=f"{self.name}.h2d",
        )
        self.d2h = BandwidthChannel(
            sim,
            latency_s=us(params.lat_us),
            bandwidth_Bps=params.bw_GBps * 1e9,
            name=f"{self.name}.d2h",
        )
        #: Count of status-probe reads (polling-load accounting, ablation A1).
        self.probe_count = 0

    def probe(self) -> Generator[Event, Any, None]:
        """A small status read from device memory (mailbox flag check).

        Shares the d2h direction with bulk transfers — heavy polling
        therefore steals d2h bandwidth, which is part of the paper's
        "polling creates a significant CPU load" observation (§6.2).
        """
        self.probe_count += 1
        yield from self.d2h.occupy(us(self.params.probe_lat_us))

    def read(
        self, nbytes: int
    ) -> Generator[Event, Any, float]:
        """Device-to-host transfer of ``nbytes``; returns service time."""
        t = yield from self.d2h.transfer(nbytes)
        return t

    def write(
        self, nbytes: int
    ) -> Generator[Event, Any, float]:
        """Host-to-device transfer of ``nbytes``; returns service time."""
        t = yield from self.h2d.transfer(nbytes)
        return t

    def read_time(self, nbytes: int) -> float:
        """Uncontended d2h service time."""
        return self.d2h.transfer_time(nbytes)

    def write_time(self, nbytes: int) -> float:
        """Uncontended h2d service time."""
        return self.h2d.transfer_time(nbytes)
