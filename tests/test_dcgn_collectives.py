"""DCGN collective tests: barrier, broadcast, reduce, gather, scatter."""

import numpy as np
import pytest

from repro.dcgn import (
    CollectiveMismatch,
    DcgnConfig,
    DcgnRuntime,
    NodeConfig,
)
from repro.hw import build_cluster, paper_cluster
from repro.sim import Simulator, us


def make_runtime(n_nodes=2, cpu_threads=1, gpus=0, slots=1):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
    cfg = DcgnConfig.homogeneous(
        n_nodes, cpu_threads=cpu_threads, gpus=gpus, slots_per_gpu=slots
    )
    return sim, DcgnRuntime(cluster, cfg)


class TestBarrier:
    def test_cpu_barrier_synchronizes(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        after = {}

        def kernel(ctx):
            yield ctx.sim.timeout(us(100.0) * ctx.rank)
            yield from ctx.barrier()
            after[ctx.rank] = ctx.sim.now

        rt.launch_cpu(kernel)
        rt.run()
        # Nobody exits before the last arrival (rank 3 at 300 µs).
        assert all(t >= us(300.0) for t in after.values())

    def test_mixed_cpu_gpu_barrier(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=1, gpus=1, slots=1)
        after = {}

        def cpu_kernel(ctx):
            yield from ctx.barrier()
            after[f"cpu{ctx.rank}"] = ctx.sim.now

        def gpu_kernel(ctx):
            yield from ctx.comm.barrier(0)
            after[f"gpu{ctx.comm.rank(0)}"] = ctx.sim.now

        rt.launch_cpu(cpu_kernel)
        rt.launch_gpu(gpu_kernel)
        rt.run()
        assert len(after) == 4

    def test_repeated_barriers(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        counts = {}

        def kernel(ctx):
            for i in range(5):
                yield from ctx.barrier()
            counts[ctx.rank] = 5

        rt.launch_cpu(kernel)
        rt.run()
        assert len(counts) == 4


class TestBroadcast:
    def test_cpu_broadcast_from_rank0(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        result = {}

        def kernel(ctx):
            buf = np.zeros(8, dtype=np.float64)
            if ctx.rank == 0:
                buf[:] = np.arange(8) * 1.5
            yield from ctx.broadcast(0, buf)
            result[ctx.rank] = buf.copy()

        rt.launch_cpu(kernel)
        rt.run()
        expected = np.arange(8) * 1.5
        for r in range(4):
            assert np.allclose(result[r], expected)

    def test_broadcast_nonzero_root(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        result = {}

        def kernel(ctx):
            buf = np.zeros(4, dtype=np.int64)
            if ctx.rank == 3:
                buf[:] = [9, 8, 7, 6]
            yield from ctx.broadcast(3, buf)
            result[ctx.rank] = buf.copy()

        rt.launch_cpu(kernel)
        rt.run()
        for r in range(4):
            assert np.array_equal(result[r], [9, 8, 7, 6])

    def test_gpu_broadcast_gpu_root(self):
        """Broadcast sourced from a GPU slot to CPUs and GPUs."""
        sim, rt = make_runtime(n_nodes=2, cpu_threads=1, gpus=1, slots=1)
        # Ranks: 0=cpu@n0, 1=gpu@n0, 2=cpu@n1, 3=gpu@n1. Root = 1 (GPU).
        result = {}

        def cpu_kernel(ctx):
            buf = np.zeros(4, dtype=np.float32)
            yield from ctx.broadcast(1, buf)
            result[f"cpu{ctx.rank}"] = buf.copy()

        def gpu_kernel(ctx):
            comm = ctx.comm
            dbuf = ctx.device.alloc(4, dtype=np.float32)
            if comm.rank(0) == 1:
                dbuf.data[:] = [1, 2, 3, 4]
            yield from comm.broadcast(0, 1, dbuf)
            result[f"gpu{comm.rank(0)}"] = dbuf.data.copy()

        rt.launch_cpu(cpu_kernel)
        rt.launch_gpu(gpu_kernel)
        rt.run()
        for key in ("cpu0", "cpu2", "gpu1", "gpu3"):
            assert np.allclose(result[key], [1, 2, 3, 4]), key


class TestReduce:
    def test_allreduce_sum_cpu(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        result = {}

        def kernel(ctx):
            send = np.array([float(ctx.rank + 1)])
            recv = np.zeros(1)
            yield from ctx.allreduce(send, recv, op="sum")
            result[ctx.rank] = float(recv[0])

        rt.launch_cpu(kernel)
        rt.run()
        assert all(v == pytest.approx(10.0) for v in result.values())

    def test_reduce_max_to_root(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        result = {}

        def kernel(ctx):
            send = np.array([float(ctx.rank * ctx.rank)])
            recv = np.zeros(1) if ctx.rank == 2 else None
            yield from ctx.reduce(2, send, recv, op="max")
            if ctx.rank == 2:
                result["v"] = float(recv[0])

        rt.launch_cpu(kernel)
        rt.run()
        assert result["v"] == pytest.approx(9.0)

    def test_gpu_allreduce(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=0, gpus=2, slots=1)
        # 4 GPU ranks: 0,1 on node 0; 2,3 on node 1.
        result = {}

        def gpu_kernel(ctx):
            comm = ctx.comm
            me = comm.rank(0)
            dbuf = ctx.device.alloc(2, dtype=np.float64)
            dbuf.data[:] = [me, 2 * me]
            yield from comm.allreduce(0, dbuf, op="sum")
            result[me] = dbuf.data.copy()

        rt.launch_gpu(gpu_kernel)
        rt.run()
        # sum over ranks: [0+1+2+3, 0+2+4+6] = [6, 12]
        for me in range(4):
            assert np.allclose(result[me], [6.0, 12.0])


class TestGatherScatter:
    def test_gather_to_cpu_root(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        result = {}

        def kernel(ctx):
            send = np.array([ctx.rank * 2.0, ctx.rank * 2.0 + 1])
            if ctx.rank == 0:
                recv = np.zeros(8)
                yield from ctx.gather(0, send, recv)
                result["all"] = recv.copy()
            else:
                yield from ctx.gather(0, send)

        rt.launch_cpu(kernel)
        rt.run()
        assert np.allclose(result["all"], [0, 1, 2, 3, 4, 5, 6, 7])

    def test_staged_gather_counts_its_algorithm(self):
        """A DCGN gather stages one MPI gather per node pair on the node
        communicator, which counts it as ``gather[linear]``."""
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)

        def kernel(ctx):
            send = np.full(2, float(ctx.rank))
            if ctx.rank == 0:
                yield from ctx.gather(0, send, np.zeros(8))
            else:
                yield from ctx.gather(0, send)

        rt.launch_cpu(kernel)
        rt.run()
        stats = rt.node_comm.stats
        assert stats["gather[linear]"] == stats["gather"] == 2

    def test_scatter_from_cpu_root(self):
        sim, rt = make_runtime(n_nodes=2, cpu_threads=2)
        result = {}

        def kernel(ctx):
            recv = np.zeros(2)
            if ctx.rank == 0:
                send = np.arange(8, dtype=np.float64) * 10
                yield from ctx.scatter(0, recv, send)
            else:
                yield from ctx.scatter(0, recv)
            result[ctx.rank] = recv.copy()

        rt.launch_cpu(kernel)
        rt.run()
        for r in range(4):
            assert np.allclose(result[r], [20 * r, 20 * r + 10])


class TestCollectiveErrors:
    def test_kind_mismatch_detected(self):
        sim, rt = make_runtime(n_nodes=1, cpu_threads=2)

        def kernel(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier()
            else:
                buf = np.zeros(1)
                yield from ctx.broadcast(1, buf)

        rt.launch_cpu(kernel)
        with pytest.raises(CollectiveMismatch):
            rt.run(max_time=1.0)

    def test_root_mismatch_detected(self):
        sim, rt = make_runtime(n_nodes=1, cpu_threads=2)

        def kernel(ctx):
            buf = np.zeros(1)
            yield from ctx.broadcast(ctx.rank, buf)  # different roots!

        rt.launch_cpu(kernel)
        with pytest.raises(CollectiveMismatch):
            rt.run(max_time=1.0)
