"""Overhead-breakdown artifact: *where* DCGN's microseconds go.

The paper's abstract promises to "indicate the locations where this
overhead accumulates" and §5.2 narrates it ("Three separate
communications with the source GPU must take place...").  This module
instruments a single 0-byte send end-to-end and renders the waterfall
for the CPU:CPU and GPU:GPU paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..dcgn import DcgnConfig, DcgnRuntime, NodeConfig
from ..hw import build_cluster, paper_cluster
from ..hw.params import HWParams
from ..sim.core import Simulator, us
from .harness import Table

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import SpanRecorder

__all__ = ["overhead_breakdown", "request_stages", "send_lifecycle"]


def send_lifecycle(
    kind: str = "cpu",
    nbytes: int = 0,
    params: Optional[HWParams] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Run one DCGN send+recv pair and return per-request stage marks.

    ``kind`` ∈ {"cpu", "gpu"}: both endpoints of the given kind, on two
    different nodes.  Returns ``{"send": marks, "recv": marks}`` with
    stage timestamps in seconds (see :func:`request_stages`).
    """
    sim = Simulator()
    rec = sim.attach_spans()
    cluster = build_cluster(
        sim, paper_cluster(nodes=2, params=params, seed=seed)
    )
    if kind == "cpu":
        cfg = DcgnConfig.homogeneous(2, cpu_threads=1)
    else:
        cfg = DcgnConfig.homogeneous(2, gpus=1, slots_per_gpu=1)
    rt = DcgnRuntime(cluster, cfg)

    if kind == "cpu":

        def kernel(ctx):
            buf = np.zeros(max(nbytes, 1), dtype=np.uint8)
            if ctx.rank == 0:
                yield from ctx.send(1, buf, nbytes=nbytes)
            else:
                yield from ctx.recv(0, buf, nbytes=nbytes)

        rt.launch_cpu(kernel)
    else:

        def gpu_kernel(kctx):
            comm = kctx.comm
            dbuf = kctx.device.alloc(max(nbytes, 1), dtype=np.uint8)
            me = comm.rank(0)
            if me == 0:
                yield from comm.send(0, 1, dbuf, nbytes=nbytes)
            else:
                yield from comm.recv(0, 0, dbuf, nbytes=nbytes)
            dbuf.free()

        rt.launch_gpu(gpu_kernel)
    rt.run(max_time=10.0)
    return {
        op: stages for op, stages in request_stages(rec).values()
        if op in ("send", "recv")
    }


def request_stages(
    rec: SpanRecorder,
) -> Dict[int, Tuple[str, Dict[str, float]]]:
    """Each DCGN request's op and stage times, read from the recorder's
    ``dcgn.req`` instants: ``{req_id: (op, {stage: t})}``, keeping the
    first instant per (request, stage)."""
    out: Dict[int, Tuple[str, Dict[str, float]]] = {}
    for s in rec.select(category="dcgn.req"):
        _op, stages = out.setdefault(s.attrs["req"], (s.attrs["op"], {}))
        stages.setdefault(s.name, s.t0)
    return out


def _stage_rows(marks: Dict[str, float], order: List[Tuple[str, str, str]]):
    rows = []
    for start, end, label in order:
        if start in marks and end in marks:
            rows.append((label, (marks[end] - marks[start]) / us(1.0)))
    return rows


#: The GPU send's stages, from the kernel posting it to the completion
#: flag landing back in device memory.
GPU_SEND_STAGES = [
    ("posted", "harvested", "mailbox poll wait (PCIe probe cadence)"),
    ("harvested", "enqueued", "descriptor+payload PCIe read, relay"),
    ("enqueued", "picked", "comm-thread sleep-poll wait"),
    ("picked", "completed", "matching + MPI send"),
    ("completed", "written_back", "completion signal + PCIe flag write"),
]
GPU_SEND_ORDER = [start for start, _, _ in GPU_SEND_STAGES] + ["written_back"]


def overhead_breakdown(seed: int = 0) -> Table:
    """The waterfall table for 0-byte CPU:CPU and GPU:GPU sends."""
    cpu = send_lifecycle("cpu", seed=seed)
    gpu = send_lifecycle("gpu", seed=seed)
    t = Table(
        "Overhead breakdown — one 0-byte DCGN send (per stage, µs)",
        ["Path", "Stage", "Time (µs)"],
    )
    cpu_send = cpu.get("send", {})
    for label, dt in _stage_rows(
        cpu_send,
        [
            ("issued", "enqueued", "request bookkeeping + queue push"),
            ("enqueued", "picked", "comm-thread sleep-poll wait"),
            ("picked", "completed", "matching + MPI send"),
            ("completed", "returned", "completion sleep-poll notice"),
        ],
    ):
        t.add("CPU send", label, f"{dt:.1f}")
    cpu_total = (cpu_send["returned"] - cpu_send["issued"]) / us(1.0)
    t.add("CPU send", "TOTAL", f"{cpu_total:.1f}")
    gpu_send = gpu.get("send", {})
    for label, dt in _stage_rows(gpu_send, GPU_SEND_STAGES):
        t.add("GPU send", label, f"{dt:.1f}")
    gpu_total = (gpu_send["written_back"] - gpu_send["posted"]) / us(1.0)
    t.add("GPU send", "TOTAL", f"{gpu_total:.1f}")
    t.record("CPU send TOTAL (us)", cpu_total)
    t.record("GPU send TOTAL (us)", gpu_total)
    # The polling wait is the GPU path's dominant stage (paper §5.2),
    # and the GPU path dwarfs the CPU path.
    poll_wait = (gpu_send["harvested"] - gpu_send["posted"]) / us(1.0)
    t.record("GPU poll wait / GPU TOTAL", poll_wait / gpu_total,
             band=(0.4, None))
    t.record("GPU TOTAL / CPU TOTAL", gpu_total / cpu_total, band=(3.0, None))
    # Every lifecycle stage of the GPU send is stamped, in order.
    times = [gpu_send[s] for s in GPU_SEND_ORDER if s in gpu_send]
    t.record("GPU send stages stamped", len(times), band=(4.5, None))
    t.record("GPU send stages out of order",
             sum(b < a for a, b in zip(times, times[1:])), band=(None, 0.5))
    t.note(
        "Paper §5.2: the CPU path pays thread-safe queueing; the GPU path "
        "adds the three PCIe conversations (notice request, fetch it, flag "
        "completion).  These stages are exactly where the 28x and 564x "
        "small-message multipliers accumulate."
    )
    return t
