"""Hardware cost models for the simulated GPU cluster."""

from .cluster import Cluster, build_cluster
from .memory import HostBuffer, MemcpyEngine, as_bytes_view, nbytes_of
from .node import Node
from .params import (
    GB,
    KB,
    MB,
    ClusterSpec,
    CpuParams,
    DcgnParams,
    GpuParams,
    HWParams,
    IbParams,
    PcieParams,
    TopologySpec,
    paper_cluster,
    single_node,
)
from .pcie import PcieLink
from .topology import (
    FabricProfile,
    FatTree,
    FlatSwitch,
    MultiRail,
    Topology,
    Torus2D,
    make_topology,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "CpuParams",
    "PcieParams",
    "IbParams",
    "GpuParams",
    "DcgnParams",
    "HWParams",
    "ClusterSpec",
    "TopologySpec",
    "paper_cluster",
    "single_node",
    "PcieLink",
    "Topology",
    "FabricProfile",
    "FlatSwitch",
    "FatTree",
    "MultiRail",
    "Torus2D",
    "make_topology",
    "HostBuffer",
    "MemcpyEngine",
    "as_bytes_view",
    "nbytes_of",
    "Node",
    "Cluster",
    "build_cluster",
]
