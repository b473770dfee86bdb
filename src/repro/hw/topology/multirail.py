"""Multi-rail fabric: k parallel NICs per node with rail striping.

Every node owns ``rails`` independent tx/rx channel pairs into a
non-blocking core (dual-rail IB was the standard scale-up move of the
paper's era).  A transfer stripes its payload across all rails in
parallel — each rail carries an ``nbytes/rails`` slice concurrently —
so large messages see ``rails ×`` bandwidth while per-message latency
is unchanged (all slices pay the wire latency simultaneously).
Concurrent transfers from one node interleave FIFO per rail, which is
exactly the contention a real rail-striped MPI sees.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from ...sim.core import Simulator, us
from ...sim.resources import BandwidthChannel
from ..params import IbParams
from .base import FabricProfile, Route, Topology, ordinal

__all__ = ["MultiRail"]


class MultiRail(Topology):
    """``rails`` parallel NIC pairs per node, payloads striped across all."""

    kind = "multirail"
    striped = True

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        params: IbParams,
        rails: int = 2,
    ) -> None:
        if rails < 1:
            raise ValueError("rails must be >= 1")
        super().__init__(sim, n_nodes, params)
        self.rails = rails
        self._tx: List[List[BandwidthChannel]] = [
            [
                BandwidthChannel(
                    sim,
                    latency_s=us(params.lat_us) / 2.0,
                    bandwidth_Bps=params.bw_GBps * 1e9,
                    name=f"nic{i}.rail{r}.tx",
                )
                for r in range(rails)
            ]
            for i in range(n_nodes)
        ]
        self._rx: List[List[BandwidthChannel]] = [
            [
                BandwidthChannel(
                    sim,
                    latency_s=us(params.lat_us) / 2.0,
                    bandwidth_Bps=params.bw_GBps * 1e9,
                    name=f"nic{i}.rail{r}.rx",
                )
                for r in range(rails)
            ]
            for i in range(n_nodes)
        ]

    def _route(self, src: int, dst: int, nbytes: int) -> Route:
        bounds = [(r * nbytes) // self.rails for r in range(self.rails + 1)]
        lanes = []
        for r in range(self.rails):
            slice_bytes = bounds[r + 1] - bounds[r]
            # Rail 0 always runs so 0-byte control messages still pay
            # one wire latency; empty trailing slices are skipped.
            if slice_bytes == 0 and r > 0:
                continue
            lanes.append((
                (self._tx[src][r], slice_bytes, None),
                (self._rx[dst][r], None, self._half_lat),
            ))
        return tuple(lanes)

    def wire_class(self, src: int, dst: int) -> Any:
        # Every node has the same rails and shm channel.
        return src == dst

    def signature(self, nodes: Sequence[int]) -> Tuple:
        # Every node has the same rails into a non-blocking core.
        return ordinal(nodes)

    def _fabric_channels(self) -> List[BandwidthChannel]:
        return [ch for node in self._tx for ch in node] + [
            ch for node in self._rx for ch in node
        ]

    def profile(self) -> FabricProfile:
        beta = 1.0 / (self.rails * self.params.bw_GBps * 1e9)
        alpha = us(self.params.lat_us)
        return FabricProfile(
            kind=self.kind,
            n_nodes=self.n_nodes,
            alpha_s=alpha,
            neighbor_alpha_s=alpha,
            beta_s_per_B=beta,
            cross_alpha_s=alpha,
            cross_beta_s_per_B=beta,
            cross_load_beta_s_per_B=beta,
            oversubscription=1.0,
            n_domains=self.n_nodes,
            domain_size=1,
        )
