"""Hardware cost-model parameters and calibration presets.

Every simulated time charge in the platform comes from one of these
dataclasses, so calibrating the model against the paper's testbed (4 nodes
x 2 dual-core Opteron 2216 + 2 NVIDIA G92, InfiniBand, MVAPICH2-1.0) is a
matter of editing numbers here — and ablations are parameter sweeps.

Calibration anchors taken from the paper's evaluation:

* MVAPICH2 barrier: 3 µs (2 ranks, 1 node), 5 µs (4 ranks, 2 nodes),
  6 µs (8 ranks, 4 nodes)                                    [Table 1]
* DCGN CPU barrier 2 ranks/1 node ≈ 38 µs; DCGN GPU barrier 2 GPUs/1 node
  ≈ 313 µs, 4 GPUs/2 nodes ≈ 747 µs, 8 GPUs/4 nodes ≈ 806 µs [Table 1]
* 0-byte send: DCGN CPU:CPU ≈ 28× MVAPICH2; GPU:GPU ≈ 564×    [§5.2]
* 1 MB send: DCGN CPU:CPU ≈ 1.04× MVAPICH2; GPU:GPU ≈ 1.5×    [§5.2]
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

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
    "TopologySpec",
    "ClusterSpec",
    "paper_cluster",
    "single_node",
]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class CpuParams:
    """Host CPU / OS-thread cost model."""

    #: Lock + push/pop on a thread-safe queue (µs).
    queue_op_us: float = 0.4
    #: Cost of signalling a thread via condvar/flag, delivered immediately
    #: if the target is actively polling (µs).
    thread_signal_us: float = 2.0
    #: Host-memory memcpy bandwidth (GB/s) — dual-channel DDR2 era.
    memcpy_bw_GBps: float = 2.8
    #: Fixed memcpy call overhead (µs).
    memcpy_lat_us: float = 0.3
    #: Per-request bookkeeping by DCGN threads (descriptor alloc, TSD
    #: lookup, state machine) in µs.
    request_overhead_us: float = 1.5


@dataclass(frozen=True)
class PcieParams:
    """PCI-Express link between host and one GPU (PCIe 1.1 x16 era)."""

    #: Per-transaction latency (driver + DMA setup), µs.
    lat_us: float = 14.0
    #: Sustained bandwidth, GB/s (G92-era pinned transfers ~3).
    bw_GBps: float = 3.0
    #: Latency of a small status read (mailbox poll probe), µs.
    probe_lat_us: float = 12.0


@dataclass(frozen=True)
class IbParams:
    """InfiniBand (DDR era) + intra-node shared-memory channel."""

    #: One-way small-message latency between two nodes, µs.
    lat_us: float = 1.5
    #: Point-to-point bandwidth, GB/s.
    bw_GBps: float = 1.15
    #: Messages at or below this size use the eager protocol (bytes).
    eager_threshold: int = 16 * KB
    #: Intra-node (shared-memory) small-message latency, µs.
    intra_lat_us: float = 1.0
    #: Intra-node copy bandwidth, GB/s.
    intra_bw_GBps: float = 2.2
    #: Per-rank software overhead of an MPI call (µs).
    sw_overhead_us: float = 0.25
    #: Origin-side cost of posting a one-sided (RMA) operation: build
    #: the work-queue element and ring the NIC doorbell (µs).  Cheaper
    #: than ``sw_overhead_us`` because the one-sided path skips the
    #: send/recv matching software stack entirely.
    rma_setup_us: float = 0.2


@dataclass(frozen=True)
class GpuParams:
    """NVIDIA G92-class device model."""

    #: Number of multiprocessors (G92: 16 SMs).
    num_sms: int = 16
    #: Concurrent blocks resident per SM for DCGN-style kernels (heavy
    #: register/shared-memory usage keeps this at 1).
    blocks_per_sm: int = 1
    #: Effective device throughput for app kernels, GFLOP/s.
    gflops: float = 250.0
    #: Device-memory bandwidth, GB/s (G92 ~60).
    mem_bw_GBps: float = 58.0
    #: Kernel launch overhead seen by the host, µs.
    kernel_launch_us: float = 12.0
    #: Device memory size in bytes (512 MB on the paper's G92 boards).
    mem_bytes: int = 512 * MB


@dataclass(frozen=True)
class DcgnParams:
    """DCGN runtime policy parameters (paper §3.2.3)."""

    #: Comm-thread sleep interval between work-queue polls (µs).  The
    #: comm thread uses sleep-based polling of its request queue.
    comm_poll_interval_us: float = 30.0
    #: CPU-kernel threads sleep-poll their completion flags at this
    #: interval (µs).
    cpu_wait_poll_us: float = 20.0
    #: GPU-kernel thread sleep interval between mailbox polls (µs).
    gpu_poll_interval_us: float = 300.0
    #: While in burst mode (recent activity or a kick), polls happen at
    #: this much shorter interval.
    gpu_poll_burst_us: float = 25.0
    #: Number of consecutive empty burst polls before falling back to the
    #: long interval.
    gpu_burst_polls: int = 4
    #: Adaptive polling: host-side request arrivals kick the GPU poller
    #: to poll immediately (models the poller being rescheduled by
    #: correlated host activity).  Ablation A1 flips this off.
    gpu_poll_kick: bool = True
    #: Device-side spin loop granularity when a kernel waits on its
    #: completion flag (µs).
    gpu_spin_check_us: float = 2.0
    #: Size of one mailbox request descriptor in device memory (bytes).
    mailbox_desc_bytes: int = 64
    #: Local (intra-process) messages staged through a host bounce buffer
    #: use memcpy rather than loopback MPI (paper §6.2).  Ablation A3
    #: flips this off.
    local_via_memcpy: bool = True
    #: FUTURE HARDWARE (paper §5.2 "Looking Forward" / §7): "a method for
    #: signaling the CPU from the GPU" — mailbox posts wake the GPU-kernel
    #: thread immediately instead of waiting for a poll tick.
    future_gpu_signaling: bool = False
    #: FUTURE HARDWARE: "a direct connection to the NIC ... and buffers in
    #: system memory so the GPU may push data" — payloads bypass the host
    #: bounce (no PCIe payload read/write charges; the wire still costs).
    future_gpu_direct: bool = False


@dataclass(frozen=True)
class HWParams:
    """Aggregate of all hardware/runtime cost models."""

    cpu: CpuParams = field(default_factory=CpuParams)
    pcie: PcieParams = field(default_factory=PcieParams)
    ib: IbParams = field(default_factory=IbParams)
    gpu: GpuParams = field(default_factory=GpuParams)
    dcgn: DcgnParams = field(default_factory=DcgnParams)
    #: Mean exponential timing jitter added to device/NIC operations (µs);
    #: zero disables jitter entirely (fully deterministic platform).
    jitter_us: float = 0.0

    def with_(self, **kwargs) -> "HWParams":
        """Functional update helper (``params.with_(dcgn=...)``)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative shape of the inter-node fabric.

    Consumed by :func:`repro.hw.topology.make_topology`; unknown kinds
    are rejected there (the registry is the source of truth so plugins
    can extend it).  Fields irrelevant to a kind are ignored.
    """

    #: One of ``flat`` (seed: non-blocking crossbar), ``fattree``
    #: (pods behind oversubscribed uplinks), ``multirail`` (k parallel
    #: NICs, rail striping), ``torus2d`` (wraparound grid, per-hop
    #: latency).
    kind: str = "flat"
    #: fattree: nodes per leaf switch.
    pod_size: int = 4
    #: fattree: uplink oversubscription factor (1.0 = non-blocking).
    oversubscription: float = 2.0
    #: multirail: parallel NICs per node.
    rails: int = 2
    #: torus2d: grid dimensions (0 = derive the squarest tiling).
    torus_x: int = 0
    torus_y: int = 0

    def __post_init__(self) -> None:
        if self.pod_size < 1:
            raise ValueError("pod_size must be >= 1")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")
        if self.rails < 1:
            raise ValueError("rails must be >= 1")
        if self.torus_x < 0 or self.torus_y < 0:
            raise ValueError("torus dimensions must be >= 0 (0 = derive)")


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a simulated cluster."""

    nodes: int = 4
    #: CPU cores per node (paper: 2 × dual-core Opteron = 4).
    cores_per_node: int = 4
    #: GPUs per node (paper: 2 × G92).
    gpus_per_node: int = 2
    params: HWParams = field(default_factory=HWParams)
    #: Inter-node fabric shape (default: the paper's flat IB switch).
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Root seed for all per-component RNG streams.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("cluster needs at least one node")
        if self.cores_per_node < 1:
            raise ValueError("nodes need at least one core")
        if self.gpus_per_node < 0:
            raise ValueError("gpus_per_node must be >= 0")


def paper_cluster(
    nodes: int = 4,
    gpus_per_node: int = 2,
    params: Optional[HWParams] = None,
    topology: Optional[TopologySpec] = None,
    seed: int = 0,
) -> ClusterSpec:
    """The testbed of the paper: 4 nodes × (4 cores + 2 G92 GPUs + IB).

    ``topology`` swaps the fabric (default: the paper's flat switch)
    while keeping the node hardware — the knob topology ablations turn.
    """
    return ClusterSpec(
        nodes=nodes,
        cores_per_node=4,
        gpus_per_node=gpus_per_node,
        params=params if params is not None else HWParams(),
        topology=topology if topology is not None else TopologySpec(),
        seed=seed,
    )


def single_node(
    gpus: int = 1, params: Optional[HWParams] = None, seed: int = 0
) -> ClusterSpec:
    """A one-node workstation configuration."""
    return ClusterSpec(
        nodes=1,
        cores_per_node=4,
        gpus_per_node=gpus,
        params=params if params is not None else HWParams(),
        seed=seed,
    )
