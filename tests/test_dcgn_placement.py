"""DCGN jobs placed off the identity (``DcgnConfig(node_ids=...)``).

The comm threads index nodes by their rank in the job's node
communicator, never by cluster node id, so a job on cluster nodes
(2, 3) or (1, 0) of a 4-node cluster must move exactly the data the
same job moves on nodes (0, 1): point-to-point, world and group
collectives, and one-sided puts, from CPU threads and GPU slots, each
checked against its numpy reference under every placement.
"""

import numpy as np
import pytest

from repro.dcgn import DcgnConfig, DcgnRuntime
from repro.hw import build_cluster, paper_cluster
from repro.sim import Simulator

PLACEMENTS = pytest.mark.parametrize(
    "node_ids", [None, (2, 3), (1, 0)], ids=["identity", "2-3", "1-0"]
)


def run_cpu(node_ids):
    """2 nodes x 2 CPU threads: ring send/recv, allreduce, gather,
    scatter, a declared-group allreduce and a one-sided put."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=4))
    cfg = DcgnConfig.homogeneous(
        2, cpu_threads=2, node_ids=node_ids,
        slot_groups={"odd": (3, 1)}, windows={"w": 4},
    )
    rt = DcgnRuntime(cluster, cfg)
    out = {}

    def kern(ctx):
        r, n = ctx.rank, ctx.size
        v = float(r)
        got = np.zeros(4)
        if r % 2 == 0:
            yield from ctx.send((r + 1) % n, np.full(4, v))
            yield from ctx.recv((r - 1) % n, got)
        else:
            yield from ctx.recv((r - 1) % n, got)
            yield from ctx.send((r + 1) % n, np.full(4, v))
        total = np.zeros(3)
        yield from ctx.allreduce(np.full(3, v + 1.0), total)
        gathered = np.zeros(2 * n) if r == 1 else None
        yield from ctx.gather(1, np.full(2, v), gathered)
        piece = np.zeros(2)
        full = np.arange(2.0 * n) * 10.0 if r == 2 else None
        yield from ctx.scatter(2, piece, full)
        group_total = None
        if r % 2 == 1:
            group_total = np.zeros(2)
            yield from ctx.group("odd").allreduce(
                np.full(2, v), group_total, op="max"
            )
        yield from ctx.put("w", (r + 1) % n, np.full(4, 100.0 + v))
        yield from ctx.barrier()
        out[r] = (got, total, gathered, piece, group_total)

    rt.launch_cpu(kern)
    rt.run(max_time=1.0)
    regions = [rt.window("w").region(v).copy() for v in range(rt.size)]
    return out, regions


def run_gpu(node_ids):
    """2 nodes x 1 GPU x 2 slots: ring send/recv and an allreduce."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=4))
    cfg = DcgnConfig.homogeneous(
        2, gpus=1, slots_per_gpu=2, node_ids=node_ids
    )
    rt = DcgnRuntime(cluster, cfg)
    out = {}

    def kern(kctx):
        comm, slot = kctx.comm, kctx.block_idx
        r, n = comm.rank(slot), comm.size
        send = kctx.device.alloc(4, dtype=np.float64)
        recv = kctx.device.alloc(4, dtype=np.float64)
        send.data[:] = r
        if r % 2 == 0:
            yield from comm.send(slot, (r + 1) % n, send)
            yield from comm.recv(slot, (r - 1) % n, recv)
        else:
            yield from comm.recv(slot, (r - 1) % n, recv)
            yield from comm.send(slot, (r + 1) % n, send)
        yield from comm.allreduce(slot, send)
        out[r] = (recv.data.copy(), send.data.copy())
        send.free()
        recv.free()

    rt.launch_gpu(kern)
    rt.run(max_time=1.0)
    return out


@PLACEMENTS
def test_cpu_placement(node_ids):
    out, regions = run_cpu(node_ids)
    n = 4
    assert sorted(out) == list(range(n))
    for r, (got, total, gathered, piece, group_total) in out.items():
        np.testing.assert_array_equal(got, np.full(4, (r - 1) % n))
        np.testing.assert_array_equal(total, np.full(3, 10.0))
        if r == 1:
            np.testing.assert_array_equal(
                gathered, np.repeat(np.arange(n, dtype=float), 2)
            )
        np.testing.assert_array_equal(piece, [20.0 * r, 20.0 * r + 10.0])
        if r % 2 == 1:
            np.testing.assert_array_equal(group_total, [3.0, 3.0])
    for v, region in enumerate(regions):
        np.testing.assert_array_equal(region, np.full(4, 100.0 + (v - 1) % n))


@PLACEMENTS
def test_gpu_placement(node_ids):
    out = run_gpu(node_ids)
    n = 4
    assert sorted(out) == list(range(n))
    for r, (got, total) in out.items():
        np.testing.assert_array_equal(got, np.full(4, (r - 1) % n))
        np.testing.assert_array_equal(total, np.full(4, 6.0))
