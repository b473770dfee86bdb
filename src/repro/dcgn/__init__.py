"""DCGN — Distributed Computing on GPU Networks (the paper's system).

CPU threads and GPU slots are peer virtual ranks that make the same
calls.  Every operation is defined once in :data:`~.api.OPS`; an
:class:`Endpoint` (one rank's view of one group — the world is group 0)
issues it over one of two transports: a CPU thread's work-queue
enqueue with sleep-polling, or a GPU slot's mailbox post with PCIe
polling by the host's GPU-kernel thread.

Quick tour::

    from repro.sim import Simulator
    from repro.hw import build_cluster, paper_cluster
    from repro.dcgn import DcgnConfig, DcgnRuntime

    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    cfg = DcgnConfig.homogeneous(2, cpu_threads=1, gpus=1, slots_per_gpu=1)
    rt = DcgnRuntime(cluster, cfg)

    def cpu_kernel(ctx):
        ...  # ctx.send / ctx.recv / ctx.barrier / ctx.group("g") / ...
        yield from ctx.barrier()

    def gpu_kernel(ctx):
        comm = ctx.comm  # GpuCommApi: slot-first dcgn::gpu::* calls
        yield from comm.barrier(slot=0)

    rt.launch_cpu(cpu_kernel)
    rt.launch_gpu(gpu_kernel)
    report = rt.run()
"""

from .api import CpuKernelContext, Endpoint, GpuCommApi, RequestHandle
from .comm_thread import CommThread
from .config import CollectiveTuning, DcgnConfig, NodeConfig
from .errors import (
    CollectiveMismatch,
    CommViolation,
    DcgnConfigError,
    DcgnError,
    DcgnTimeout,
)
from .groups import DcgnGroup, GroupTable, WORLD_GID
from .mpi_compat import DcgnMpiAdapter
from .gpu_thread import GpuKernelThread
from .polling import AdaptiveBurstPolicy, FixedIntervalPolicy, PollPolicy
from .queues import WorkQueue, sleep_poll_wait
from .ranks import ANY, CpuRank, GpuSlotRank, RankMap
from .requests import CommRequest, CommStatus
from .runtime import DcgnReport, DcgnRuntime
from .windows import DcgnWindow, DcgnWindowTable

__all__ = [
    "CollectiveTuning",
    "DcgnConfig",
    "NodeConfig",
    "RankMap",
    "CpuRank",
    "GpuSlotRank",
    "ANY",
    "CommRequest",
    "CommStatus",
    "WorkQueue",
    "sleep_poll_wait",
    "PollPolicy",
    "FixedIntervalPolicy",
    "AdaptiveBurstPolicy",
    "CommThread",
    "GpuKernelThread",
    "Endpoint",
    "RequestHandle",
    "CpuKernelContext",
    "GpuCommApi",
    "DcgnGroup",
    "GroupTable",
    "WORLD_GID",
    "DcgnMpiAdapter",
    "DcgnRuntime",
    "DcgnReport",
    "DcgnWindow",
    "DcgnWindowTable",
    "DcgnError",
    "DcgnConfigError",
    "DcgnTimeout",
    "CollectiveMismatch",
    "CommViolation",
]
