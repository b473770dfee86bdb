"""Ablations of DCGN's design choices (paper §3, §4, §6.2).

Each builder switches one mechanism off, or sweeps one knob, and
records the effect the paper attributes to it:

* :func:`polling_tradeoff_table` — the GPU polling interval (§3.2.3:
  "high-frequency polling strains the CPU whereas low-frequency polling
  increases message latency"), and adaptive kicks vs a fixed interval;
* :func:`slots_table` — slots per GPU under a heavy-tailed item queue
  (§3.1: one slow item "can then delay an entire DPM");
* :func:`localcomm_table` — intra-node messages by memcpy vs loopback
  MPI (§6.2);
* :func:`multislot_table` — per-message latency as one GPU streams
  through more slots (§4, "Sending and Receiving").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..apps import micro
from ..dcgn import ANY, DcgnConfig, DcgnRuntime, NodeConfig
from ..gpusim import LaunchConfig
from ..hw import HWParams, build_cluster, paper_cluster
from ..sim.core import Simulator
from .harness import Table, fmt_time

__all__ = [
    "polling_tradeoff_table",
    "slots_table",
    "localcomm_table",
    "multislot_table",
]


def dcgn_params(**changes) -> HWParams:
    """The default hardware with the given ``DcgnParams`` fields changed."""
    base = HWParams()
    return base.with_(dcgn=dataclasses.replace(base.dcgn, **changes))


# ---------------------------------------------------------------------------
# A1: polling interval
# ---------------------------------------------------------------------------

def polling_tradeoff_table() -> Table:
    """GPU:GPU latency and CPU polling load across poll intervals."""
    t = Table(
        "Ablation A1 — GPU polling interval trade-off",
        [
            "Interval",
            "GPU:GPU 0B latency",
            "GPU:GPU 64kB latency",
            "CPU load (probes/ms idle)",
        ],
    )
    intervals = (50.0, 150.0, 300.0, 600.0, 1200.0)
    lats = []
    for interval in intervals:
        params = dcgn_params(gpu_poll_interval_us=interval)
        t0 = micro.dcgn_send_time(0, "gpu", "gpu", iters=4, params=params)
        t64 = micro.dcgn_send_time(
            64 * 1024, "gpu", "gpu", iters=4, params=params
        )
        # CPU polling load: with sleep-based polling, the poller probes
        # the GPU once per interval while a kernel runs — the §3.2.3
        # "high-frequency polling strains the CPU" side of the trade-off.
        probes_per_ms = 1000.0 / interval
        t.add(
            f"{interval:.0f} µs",
            fmt_time(t0),
            fmt_time(t64),
            f"{probes_per_ms:.1f}",
        )
        t.record(f"{interval:.0f}us 0B GPU:GPU (us)", t0 * 1e6)
        lats.append(t0)
    # Latency never falls as the interval grows (5% slack for poll
    # phase), and the sweep spans a real trade-off.
    for (a, ta), (b, tb) in zip(
        zip(intervals, lats), zip(intervals[1:], lats[1:])
    ):
        t.record(f"0B latency {b:.0f}us/{a:.0f}us", tb / ta,
                 band=(0.95, None))
    t.record(
        f"0B latency {intervals[-1]:.0f}us/{intervals[0]:.0f}us",
        lats[-1] / lats[0], band=(2.5, None),
    )
    # Adaptive kicks vs a fixed interval, on CPU→GPU traffic.
    t_kick, t_fixed = (
        micro.dcgn_send_time(
            1024, "cpu", "gpu", iters=4,
            params=dcgn_params(gpu_poll_interval_us=300.0, gpu_poll_kick=kick),
        )
        for kick in (True, False)
    )
    t.record("CPU:GPU 1kB kick/fixed at 300us", t_kick / t_fixed,
             band=(None, 1.0))
    t.note(
        "Latency grows with the interval (lazy polling); short intervals "
        "buy latency at the price of PCIe probe traffic (CPU load)."
    )
    t.note(
        f"CPU→GPU 1 kB at 300 µs: adaptive kick {fmt_time(t_kick)} vs "
        f"fixed interval {fmt_time(t_fixed)}."
    )
    return t


# ---------------------------------------------------------------------------
# A2: slots under a skewed workload
# ---------------------------------------------------------------------------

#: Item costs: mostly cheap, a few pathological stragglers (paper §3.1).
N_ITEMS = 48
CHEAP_S = 40e-6
SLOW_EVERY = 16  #: every 16th item costs 50× more
SLOW_S = 50 * CHEAP_S
STOP = -1


def _item_cost(i: int) -> float:
    return SLOW_S if (i % SLOW_EVERY) == SLOW_EVERY - 1 else CHEAP_S


def run_skewed_queue(slots: int, seed: int = 0) -> float:
    """Makespan of a master (CPU) feeding items to one GPU virtualized
    into ``slots`` workers."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=1, seed=seed))
    cfg = DcgnConfig(
        [NodeConfig(cpu_threads=1, gpus=1, slots_per_gpu=slots)]
    )
    rt = DcgnRuntime(cluster, cfg)
    n_workers = slots
    marks = {}

    def master(ctx):
        t0 = ctx.sim.now
        next_item = 0
        stopped = 0
        msg = np.zeros(1, dtype=np.int64)
        while stopped < n_workers:
            status = yield from ctx.recv(ANY, msg)
            if next_item < N_ITEMS:
                reply = np.array([next_item], dtype=np.int64)
                next_item += 1
            else:
                reply = np.array([STOP], dtype=np.int64)
                stopped += 1
            yield from ctx.send(status.source, reply)
        marks["elapsed"] = ctx.sim.now - t0

    def gpu_worker(kctx):
        comm = kctx.comm
        slot = kctx.block_idx % comm.n_slots
        msg = kctx.device.alloc(1, dtype=np.int64, name=f"msg{slot}")
        while True:
            msg.data[0] = 0
            yield from comm.send(slot, 0, msg)
            yield from comm.recv(slot, 0, msg)
            item = int(msg.data[0])
            if item == STOP:
                break
            yield from kctx.compute(seconds=_item_cost(item))
        msg.free()

    rt.launch_cpu(master)
    rt.launch_gpu(gpu_worker, config=LaunchConfig(grid_blocks=slots))
    rt.run(max_time=60.0)
    return marks["elapsed"]


def slots_table() -> Table:
    """Makespan of the skewed item queue across slots per GPU."""
    t = Table(
        "Ablation A2 — slots per GPU on a heavy-tailed item queue",
        ["Slots", "Makespan", "vs 1 slot"],
    )
    makespans = {}
    for slots in (1, 2, 4, 8):
        elapsed = run_skewed_queue(slots)
        makespans[slots] = elapsed
        t.add(slots, fmt_time(elapsed), f"{makespans[1] / elapsed:.2f}×")
        t.record(f"{slots} slots makespan (us)", elapsed * 1e6)
    # Four slots beat one decisively on the skewed queue.
    t.record("4 slots / 1 slot makespan", makespans[4] / makespans[1],
             band=(None, 0.7))
    t.note(
        "More slots let cheap items flow around stragglers (paper §3.1: "
        "'no single mapping of ranks to DPM resources can match every "
        "data parallel algorithm')."
    )
    return t


# ---------------------------------------------------------------------------
# A3: local communication via memcpy vs loopback MPI
# ---------------------------------------------------------------------------

def intra_node_send_time(nbytes: int, local_via_memcpy: bool) -> float:
    """One-way intra-node CPU:CPU send time (half a ping-pong)."""
    sim = Simulator()
    cluster = build_cluster(
        sim,
        paper_cluster(
            nodes=1, params=dcgn_params(local_via_memcpy=local_via_memcpy)
        ),
    )
    rt = DcgnRuntime(cluster, DcgnConfig.homogeneous(1, cpu_threads=2))
    marks = {}
    iters = 5

    def kernel(ctx):
        buf = np.zeros(max(nbytes, 1), dtype=np.uint8)
        if ctx.rank == 0:
            t0 = None
            for i in range(iters):
                yield from ctx.send(1, buf, nbytes=nbytes)
                yield from ctx.recv(1, buf, nbytes=nbytes)
                if t0 is None:
                    t0 = ctx.sim.now
            marks["rtt"] = (ctx.sim.now - t0) / max(iters - 1, 1)
        else:
            for _ in range(iters):
                yield from ctx.recv(0, buf, nbytes=nbytes)
                yield from ctx.send(0, buf, nbytes=nbytes)

    rt.launch_cpu(kernel)
    rt.run(max_time=60.0)
    return marks["rtt"] / 2.0


def localcomm_table() -> Table:
    """Intra-node send latency: DCGN's memcpy path vs loopback MPI."""
    t = Table(
        "Ablation A3 — intra-node message path (one-way CPU:CPU)",
        ["Size", "memcpy path (DCGN)", "loopback MPI", "memcpy speedup"],
    )
    sizes = (0, 4 * 1024, 64 * 1024, 1024 * 1024)
    for nbytes in sizes:
        t_memcpy = intra_node_send_time(nbytes, True)
        t_mpi = intra_node_send_time(nbytes, False)
        label = "0 B" if nbytes == 0 else f"{nbytes // 1024} kB"
        t.add(
            label,
            fmt_time(t_memcpy),
            fmt_time(t_mpi),
            f"{t_mpi / t_memcpy:.2f}×",
        )
        # memcpy never loses, and wins outright at the largest size.
        t.record(f"{label} loopback/memcpy", t_mpi / t_memcpy,
                 band=(1.05 if nbytes == sizes[-1] else 0.9, None))
    t.note(
        "The paper's design (§6.2) avoids MPI for local messages; the "
        "advantage grows with message size (memcpy bandwidth beats the "
        "loopback path's header+payload staging)."
    )
    return t


# ---------------------------------------------------------------------------
# Multi-slot latency
# ---------------------------------------------------------------------------

def multislot_table() -> Table:
    """Per-message latency of one GPU streaming to a remote CPU rank."""
    t = Table(
        "Multi-slot latency — one GPU, messages to a remote CPU rank",
        ["Slots", "Per-message latency", "Aggregate msgs/ms"],
    )
    per_msg = {}
    for slots in (1, 2, 4, 8):
        marks = micro.dcgn_multislot_latency(slots=slots)
        per_msg[slots] = marks["per_msg"]
        t.add(slots, fmt_time(per_msg[slots]),
              f"{1e-3 / per_msg[slots]:.2f}")
        t.record(f"{slots} slots per message (us)", per_msg[slots] * 1e6)
    t.record("4 slots / 1 slot per message", per_msg[4] / per_msg[1],
             band=(None, 0.7))
    t.note(
        "Each polling round harvests every slot's posted request, so "
        "virtualizing the GPU into more communication targets amortizes "
        "the polling interval across messages (paper §3.1/§4)."
    )
    return t
