"""2-D torus: hop-count-dependent latency (QCDSP/Blue-Gene style mesh).

Nodes sit on an ``nx × ny`` grid with wraparound links; a transfer's
latency grows with the Manhattan hop distance between the endpoints
(dimension-ordered routing, one router traversal per intermediate hop).
Bandwidth is charged at the injection NIC only — per-link contention
along the path is deliberately out of scope (see ROADMAP), which keeps
the torus a pure latency-shape study against the flat switch.
"""

from __future__ import annotations

from ...sim.core import Simulator, us
from ..params import IbParams
from .base import FabricProfile, Route, Topology
from .flat import FlatSwitch

__all__ = ["Torus2D"]


class Torus2D(FlatSwitch):
    """``nx × ny`` wraparound grid with per-hop forwarding latency."""

    kind = "torus2d"

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        params: IbParams,
        nx: int = 0,
        ny: int = 0,
    ) -> None:
        if nx < 0 or ny < 0:
            raise ValueError("torus dimensions must be >= 0 (0 = derive)")
        if nx == 0 and ny == 0:
            # Derive the most square grid that tiles n_nodes.
            nx = 1
            for d in range(int(n_nodes ** 0.5), 0, -1):
                if n_nodes % d == 0:
                    nx = d
                    break
            ny = n_nodes // nx
        elif nx == 0 or ny == 0:
            given = nx or ny
            if n_nodes % given != 0:
                raise ValueError(
                    f"{n_nodes} nodes do not tile a {given}-wide torus"
                )
            nx = nx or n_nodes // ny
            ny = ny or n_nodes // nx
        if nx * ny != n_nodes:
            raise ValueError(
                f"torus {nx}x{ny} does not match {n_nodes} nodes"
            )
        super().__init__(sim, n_nodes, params)
        self.nx = nx
        self.ny = ny

    def _coords(self, node: int):
        return node % self.nx, node // self.nx

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance with wraparound (>= 1 for distinct nodes)."""
        self._check(src)
        self._check(dst)
        sx, sy = self._coords(src)
        dx, dy = self._coords(dst)
        hx = abs(sx - dx)
        hy = abs(sy - dy)
        return min(hx, self.nx - hx) + min(hy, self.ny - hy)

    def _route(self, src: int, dst: int, nbytes: int) -> Route:
        # Each intermediate router adds half a wire latency (the same
        # charge the flat model levies per switch traversal).
        extra = (self.hops(src, dst) - 1) * us(self.params.lat_us) / 2.0
        if extra > 0.0:
            return ((
                (self._tx[src], nbytes, None),
                (None, None, extra),
                self._ejects[dst],
            ),)
        return super()._route(src, dst, nbytes)

    # Hop counts depend on where the nodes sit: only the placement
    # itself is safe (not the flat switch's relabelling), and each pair
    # is its own class.
    signature = Topology.signature
    wire_class = Topology.wire_class

    def _mean_hops(self) -> float:
        """Average hop count over distinct node pairs (closed form)."""

        def mean_ring(k: int) -> float:
            # Mean wraparound distance from a fixed point to all k points
            # (including itself) on a k-ring.
            return sum(min(d, k - d) for d in range(k)) / k

        if self.n_nodes == 1:
            return 1.0
        total = (mean_ring(self.nx) + mean_ring(self.ny)) * self.n_nodes / (
            self.n_nodes - 1
        )
        return max(1.0, total)

    def profile(self) -> FabricProfile:
        beta = 1.0 / (self.params.bw_GBps * 1e9)
        half = us(self.params.lat_us) / 2.0
        mean_alpha = us(self.params.lat_us) + (self._mean_hops() - 1.0) * half
        diam = self.nx // 2 + self.ny // 2
        cross_alpha = us(self.params.lat_us) + max(0, diam - 1) * half
        return FabricProfile(
            kind=self.kind,
            n_nodes=self.n_nodes,
            alpha_s=mean_alpha,
            # Consecutive node ids are grid neighbors (one hop) apart
            # from row wraps, so neighbor schedules pay the base latency.
            neighbor_alpha_s=us(self.params.lat_us),
            beta_s_per_B=beta,
            cross_alpha_s=cross_alpha,
            cross_beta_s_per_B=beta,
            cross_load_beta_s_per_B=beta,
            oversubscription=1.0,
            n_domains=self.n_nodes,
            domain_size=1,
        )
