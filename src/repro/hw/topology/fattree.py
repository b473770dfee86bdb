"""Oversubscribed fat tree: pods of nodes behind a shared up/down link.

Each pod of ``pod_size`` nodes hangs off a leaf switch whose links to
its own nodes are non-blocking, but whose uplink into the spine carries
only ``pod_size × bw / oversubscription`` — the classic oversubscribed
(or "tapered") fat tree every cost-conscious cluster runs.  Intra-pod
transfers behave like the flat switch; pod-crossing transfers
additionally pass through the sending pod's uplink channel *and* the
destination pod's down-link channel (the leaf switch's spine-facing
port is tapered in both directions), queueing FIFO against every other
crossing sharing either link — store-and-forward at the spine and at
the destination leaf.  Incast into one pod therefore contends on the
victim pod's down-link even when the senders sit in different pods,
which latency-only delivery used to hide.

With ``oversubscription=1`` the up/down links still serialize
crossings, so a fat tree is *not* byte-identical to :class:`FlatSwitch`
even at 1:1 — use the flat topology for the paper's testbed.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

from ...sim.core import Simulator, us
from ...sim.resources import BandwidthChannel
from ..params import IbParams
from .base import FabricProfile, Route, ordinal
from .flat import FlatSwitch

__all__ = ["FatTree"]


class FatTree(FlatSwitch):
    """Pods behind oversubscribed uplinks (leaf/spine, one spine level)."""

    kind = "fattree"

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        params: IbParams,
        pod_size: int = 4,
        oversubscription: float = 2.0,
    ) -> None:
        if pod_size < 1:
            raise ValueError("pod_size must be >= 1")
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")
        super().__init__(sim, n_nodes, params)
        self.pod_size = pod_size
        self.oversubscription = oversubscription
        self.n_pods = math.ceil(n_nodes / pod_size)
        up_bw_Bps = pod_size * params.bw_GBps * 1e9 / oversubscription
        self._up: List[BandwidthChannel] = [
            BandwidthChannel(
                sim,
                latency_s=us(params.lat_us) / 2.0,
                bandwidth_Bps=up_bw_Bps,
                name=f"pod{p}.up",
            )
            for p in range(self.n_pods)
        ]
        #: Symmetric down-links: the destination leaf's spine-facing
        #: port has the same tapered bandwidth as the uplink.
        self._down: List[BandwidthChannel] = [
            BandwidthChannel(
                sim,
                latency_s=us(params.lat_us) / 2.0,
                bandwidth_Bps=up_bw_Bps,
                name=f"pod{p}.down",
            )
            for p in range(self.n_pods)
        ]

    def pod(self, node: int) -> int:
        return node // self.pod_size

    def _route(self, src: int, dst: int, nbytes: int) -> Route:
        up = src // self.pod_size
        down = dst // self.pod_size
        if up == down:
            return super()._route(src, dst, nbytes)
        # Spine traversal: store-and-forward through the sending pod's
        # shared uplink, then through the destination pod's down-link —
        # oversubscription bites in both directions.
        return ((
            (self._tx[src], nbytes, None),
            (self._up[up], nbytes, None),
            (self._down[down], nbytes, None),
            self._ejects[dst],
        ),)

    def locality_group(self, node: int) -> int:
        self._check(node)
        return self.pod(node)

    def wire_class(self, src: int, dst: int) -> Any:
        # A leg crosses the spine or not; every pod's links are alike.
        return src == dst, self.pod(src) == self.pod(dst)

    def signature(self, nodes: Sequence[int]) -> Tuple:
        # A leg crosses the spine or not; every pod's up- and down-link
        # has one bandwidth, so nodes and pods relabel alike.
        return ordinal(nodes), ordinal([self.pod(n) for n in nodes])

    def _fabric_channels(self) -> List[BandwidthChannel]:
        return super()._fabric_channels() + list(self._up) + list(self._down)

    def profile(self) -> FabricProfile:
        beta = 1.0 / (self.params.bw_GBps * 1e9)
        alpha = us(self.params.lat_us)
        beta_up = self.oversubscription / (
            self.pod_size * self.params.bw_GBps * 1e9
        )
        return FabricProfile(
            kind=self.kind,
            n_nodes=self.n_nodes,
            alpha_s=alpha,
            neighbor_alpha_s=alpha,
            beta_s_per_B=beta,
            # Crossings traverse tx + up + down channel latencies.
            cross_alpha_s=alpha * 2.0,
            cross_beta_s_per_B=beta + 2.0 * beta_up,
            # Whole pod crossing at once: the up- and down-link FIFOs
            # each drain pod_size transfers, so the last one waits
            # pod_size shares on both tapered hops.
            cross_load_beta_s_per_B=beta + 2.0 * self.pod_size * beta_up,
            oversubscription=self.oversubscription,
            n_domains=self.n_pods,
            domain_size=min(self.pod_size, self.n_nodes),
        )
