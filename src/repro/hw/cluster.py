"""Cluster assembly: nodes + GPUs + fabric topology on one simulator."""

from __future__ import annotations

from typing import List

from ..sim.core import Simulator
from ..sim.rng import RngStreams
from .node import Node
from .params import ClusterSpec
from .topology import Topology, make_topology

__all__ = ["Cluster", "build_cluster"]


class Cluster:
    """A fully wired simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        spec: ClusterSpec,
        nodes: List[Node],
        topology: Topology,
        rng: RngStreams,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.nodes = nodes
        #: The inter-node fabric (plus per-node shared-memory channels).
        self.topology = topology
        self.rng = rng

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_gpus(self) -> int:
        return sum(len(n.gpus) for n in self.nodes)

    def gpu(self, node_id: int, gpu_idx: int):
        """Convenience accessor for a specific device."""
        return self.nodes[node_id].gpus[gpu_idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Cluster {self.n_nodes} nodes, "
            f"{self.total_gpus} GPUs total>"
        )


def build_cluster(sim: Simulator, spec: ClusterSpec) -> Cluster:
    """Construct a cluster per ``spec`` on simulator ``sim``."""
    # Imported here to keep hw independent of gpusim at module load.
    from ..gpusim.device import GpuDevice

    rng = RngStreams(spec.seed)
    nodes: List[Node] = []
    for i in range(spec.nodes):
        node = Node(
            sim,
            node_id=i,
            params=spec.params,
            cores=spec.cores_per_node,
            rng=rng,
        )
        for g in range(spec.gpus_per_node):
            node.gpus.append(
                GpuDevice(
                    sim,
                    params=spec.params.gpu,
                    pcie_params=spec.params.pcie,
                    node_id=i,
                    device_id=g,
                    rng=rng,
                    jitter_us=spec.params.jitter_us,
                )
            )
        nodes.append(node)
    topology = make_topology(sim, spec.nodes, spec.params.ib, spec.topology)
    return Cluster(sim, spec, nodes, topology, rng)
