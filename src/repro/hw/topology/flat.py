"""Flat switch: the paper's single non-blocking IB crossbar (seed model).

Inter-node transfers occupy the sender's NIC injection channel and the
receiver's NIC ejection channel; the fabric itself is non-blocking (a
reasonable model for a small IB switch).  This reproduces the seed
interconnect bit-for-bit — same channels, same charge sequence — so
every calibrated timing is unchanged.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from ...sim.core import Simulator, us
from ...sim.resources import BandwidthChannel
from ..params import IbParams
from .base import FabricProfile, Leg, Route, Topology, ordinal

__all__ = ["FlatSwitch"]


class FlatSwitch(Topology):
    """Non-blocking crossbar among ``n`` nodes."""

    kind = "flat"

    def __init__(self, sim: Simulator, n_nodes: int, params: IbParams) -> None:
        super().__init__(sim, n_nodes, params)
        self._tx: List[BandwidthChannel] = [
            BandwidthChannel(
                sim,
                latency_s=us(params.lat_us) / 2.0,
                bandwidth_Bps=params.bw_GBps * 1e9,
                name=f"nic{i}.tx",
            )
            for i in range(n_nodes)
        ]
        self._rx: List[BandwidthChannel] = [
            BandwidthChannel(
                sim,
                latency_s=us(params.lat_us) / 2.0,
                bandwidth_Bps=params.bw_GBps * 1e9,
                name=f"nic{i}.rx",
            )
            for i in range(n_nodes)
        ]
        #: Per-node ejection legs: the receiver NIC adds its latency
        #: half; bandwidth was already paid at injection (cut-through),
        #: so this is latency-only occupancy.
        self._ejects: List[Leg] = [
            (rx, None, self._half_lat) for rx in self._rx
        ]

    def _route(self, src: int, dst: int, nbytes: int) -> Route:
        # Injection: the sender NIC serializes for latency/2 + size/bw.
        return (((self._tx[src], nbytes, None), self._ejects[dst]),)

    def wire_class(self, src: int, dst: int) -> Any:
        # Every node's NICs and shm channel are alike.
        return src == dst

    def signature(self, nodes: Sequence[int]) -> Tuple:
        # Every inter-node leg is alike: only which ranks share a node
        # (and the nodes' order) shows.
        return ordinal(nodes)

    def _fabric_channels(self) -> List[BandwidthChannel]:
        return list(self._tx) + list(self._rx)

    def profile(self) -> FabricProfile:
        beta = 1.0 / (self.params.bw_GBps * 1e9)
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
