"""One-sided RMA: windows, sync modes, ordering, and comm-free."""

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.mpi import (
    CollectiveTuning,
    MpiError,
    MpiJob,
    RankError,
    ReduceOp,
    RmaError,
    Window,
)
from repro.mpi.algorithms.autotune import clear_cache, derive_tuning
from repro.sim import Simulator


def make_job(n_nodes=4, gpus=0, **spec_kw):
    sim = Simulator()
    cluster = build_cluster(
        sim, ClusterSpec(nodes=n_nodes, gpus_per_node=gpus, **spec_kw)
    )
    return sim, cluster, MpiJob(cluster, list(range(n_nodes)))


# ---------------------------------------------------------------------------
# Basic data movement under fence
# ---------------------------------------------------------------------------

class TestFence:
    def test_put_get_accumulate_roundtrip(self):
        sim, cluster, job = make_job(4)

        def prog(ctx):
            w = yield from ctx.win_allocate(8)
            yield from w.fence()
            right = (ctx.rank + 1) % ctx.size
            yield from w.put(right, np.full(2, float(ctx.rank)), offset=0)
            yield from w.accumulate(right, np.ones(2), op="sum", offset=4)
            yield from w.accumulate(right, np.ones(2), op="sum", offset=4)
            yield from w.fence()
            left = (ctx.rank - 1) % ctx.size
            got = np.zeros(2)
            yield from w.get(left, got, offset=0)
            return w.local[:2].tolist(), w.local[4:6].tolist(), got.tolist()

        job.start(prog)
        res = job.run()
        for rank, (mine, acc, got) in enumerate(res):
            left = (rank - 1) % job.size
            assert mine == [float(left)] * 2
            assert acc == [2.0, 2.0]
            # get reads the left neighbor's window: what left's left put.
            assert got == [float((rank - 2) % job.size)] * 2

    def test_fence_end_closes_epoch_and_allows_pscw(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 2)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            peer = 1 - ctx.rank
            yield from w.fence()
            yield from w.put(peer, np.full(1, 1.0))
            yield from w.fence(end=True)
            with pytest.raises(RmaError, match="outside any access"):
                yield from w.put(peer, np.ones(1))
            # The closed fence no longer blocks other sync modes.
            yield from w.post([peer])
            yield from w.start([peer])
            yield from w.put(peer, np.full(1, 2.0), offset=1)
            yield from w.complete()
            yield from w.wait_sync()

        job.start(prog)
        job.run()
        assert list(win.region(0)) == [1.0, 2.0]

    def test_noncontiguous_get_buffer_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 4)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                block = np.zeros((4, 4))
                with pytest.raises(RmaError, match="C-contiguous"):
                    yield from w.get(1, block[:, :1])
            yield from w.fence()

        job.start(prog)
        job.run()

    def test_op_outside_epoch_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 4)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            with pytest.raises(RmaError, match="outside any access epoch"):
                yield from w.put(1 - ctx.rank, np.ones(1))
            yield from w.fence()
            yield from w.put(1 - ctx.rank, np.ones(1))
            yield from w.fence()

        job.start(prog)
        job.run()
        assert win.region(0)[0] == 1.0

    def test_eager_vs_rendezvous_protocol_split(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 1 << 16)
        eager_max = job.comm.tuning.rma_eager_max_bytes
        small = eager_max // 8
        large = (2 * eager_max) // 8 + 1

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                yield from w.put(1, np.ones(small))
                yield from w.put(1, np.ones(large))
            yield from w.fence()

        job.start(prog)
        job.run()
        assert job.comm.stats.get("rma_put[eager]") == 1
        assert job.comm.stats.get("rma_put[rendezvous]") == 1

    def test_rendezvous_put_needs_no_receiver(self):
        """A large put completes in ~payload wire time with NO receiver
        activity at all — unlike two-sided rendezvous, which stalls
        until the target posts a matching recv."""
        n_elems = (1 << 20) // 8
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, n_elems)
        wire = cluster.topology.wire_time(0, 1, 1 << 20)
        marks = {}

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                t0 = ctx.sim.now
                yield from w.put(1, np.ones(n_elems))
                yield from w.flush(1)
                marks["put_s"] = ctx.sim.now - t0
            else:
                # The target never calls anything: sleep far past the
                # transfer.  Two-sided rendezvous would deadlock here.
                yield ctx.sim.timeout(1.0)
            yield from w.fence()

        job.start(prog)
        job.run()
        assert list(win.region(1)[:2]) == [1.0, 1.0]
        # Payload wire time dominates; protocol overhead is a few µs.
        assert marks["put_s"] < wire + 10e-6


# ---------------------------------------------------------------------------
# Request-based operations
# ---------------------------------------------------------------------------

class TestRequests:
    def test_rput_wait_means_remote_completion(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 4)
        seen = {}

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                req = yield from w.rput(1, np.full(4, 9.0))
                yield from req.wait()
                # Remote completion: target memory already has the data.
                seen["after_wait"] = win.region(1).copy()
            yield from w.fence()

        job.start(prog)
        job.run()
        assert list(seen["after_wait"]) == [9.0] * 4

    def test_put_then_flush_lands(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 2)
        seen = {}

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 0:
                yield from w.lock(1)
                yield from w.put(1, np.full(2, 3.5))
                # put returned, but only flush guarantees remote landing.
                yield from w.flush(1)
                seen["after_flush"] = win.region(1).copy()
                yield from w.unlock(1)
            else:
                yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()
        assert list(seen["after_flush"]) == [3.5, 3.5]

    def test_get_snapshots_at_nic_read_time(self):
        """Writes landing in the target region while the get's payload
        is on the wire must NOT appear in the result — the NIC read
        happened earlier."""
        n = (1 << 20) // 8  # ~900 µs return wire time
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, n)
        win.region(1)[...] = 1.0

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            out = None
            if ctx.rank == 0:
                buf = np.zeros(n)
                yield from w.get(1, buf)
                out = (float(buf[0]), float(buf[-1]))
            else:
                # Scribble over the region mid-flight (well after the
                # NIC read at ~2 µs, well before arrival at ~900 µs).
                yield ctx.sim.timeout(100e-6)
                win.region(1)[...] = 9.0
            yield from w.fence()
            return out

        job.start(prog)
        res = job.run()
        assert res[0] == (1.0, 1.0)

    def test_rget(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 2)
        win.region(1)[...] = [5.0, 6.0]

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            out = np.zeros(2)
            if ctx.rank == 0:
                req = yield from w.rget(1, out)
                yield from req.wait()
            yield from w.fence()
            return out.tolist()

        job.start(prog)
        res = job.run()
        assert res[0] == [5.0, 6.0]


# ---------------------------------------------------------------------------
# Accumulate semantics
# ---------------------------------------------------------------------------

class TestAccumulate:
    def test_same_pair_ordering_across_protocols(self):
        """A rendezvous-sized accumulate followed by an eager one must
        apply in program order even though the eager wire transfer
        could overtake the rendezvous handshake."""
        sim, cluster, job = make_job(2)
        eager_max = job.comm.tuning.rma_eager_max_bytes
        big = (2 * eager_max) // 8
        win = Window.allocate(job.comm, big)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                yield from w.accumulate(1, np.full(big, 5.0), op="sum")
                yield from w.accumulate(1, np.full(1, 2.0), op="replace")
            yield from w.fence()

        job.start(prog)
        job.run()
        # replace applied AFTER the big sum: element 0 is 2, rest are 5.
        assert win.region(1)[0] == 2.0
        assert np.all(win.region(1)[1:] == 5.0)

    def test_replace_op(self):
        a = np.array([1.0, 2.0])
        b = np.array([7.0, 8.0])
        out = ReduceOp.REPLACE.combine(a, b)
        assert list(out) == [7.0, 8.0]
        out[0] = 0.0
        assert b[0] == 7.0  # never aliased

    def test_get_accumulate_returns_prior_value(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 2)
        win.region(1)[...] = [10.0, 20.0]

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            old = np.zeros(2)
            if ctx.rank == 0:
                yield from w.get_accumulate(1, np.ones(2), old, op="sum")
            yield from w.fence()
            return old.tolist()

        job.start(prog)
        res = job.run()
        assert res[0] == [10.0, 20.0]
        assert list(win.region(1)) == [11.0, 21.0]

    def test_fetch_and_op_counter_is_atomic(self):
        """Every rank atomically increments rank 0's counter under an
        exclusive lock; the fetched values must be a permutation of
        0..P-1 (no lost updates)."""
        sim, cluster, job = make_job(4)
        win = Window.allocate(job.comm, 1)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            old = np.zeros(1)
            yield from w.lock(0, exclusive=True)
            yield from w.fetch_and_op(0, np.ones(1), old, op="sum")
            yield from w.unlock(0)
            return old[0]

        job.start(prog)
        res = job.run()
        assert sorted(res) == [0.0, 1.0, 2.0, 3.0]
        assert win.region(0)[0] == 4.0


# ---------------------------------------------------------------------------
# PSCW
# ---------------------------------------------------------------------------

class TestPscw:
    def test_partial_groups(self):
        """Only ranks 0 and 1 run an epoch; 2 and 3 never touch the
        window — PSCW synchronizes strictly with the named partners."""
        sim, cluster, job = make_job(4)
        win = Window.allocate(job.comm, 2)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 0:
                yield from w.post([1])
                yield from w.start([1])
                yield from w.put(1, np.full(2, 1.0))
                yield from w.complete()
                yield from w.wait_sync()
            elif ctx.rank == 1:
                yield from w.post([0])
                yield from w.start([0])
                yield from w.put(0, np.full(2, 2.0))
                yield from w.complete()
                yield from w.wait_sync()
            else:
                yield ctx.sim.timeout(0)
            return ctx.sim.now

        job.start(prog)
        res = job.run()
        assert list(win.region(0)) == [2.0, 2.0]
        assert list(win.region(1)) == [1.0, 1.0]
        # Ranks 2/3 finished immediately: no hidden global sync.
        assert res[2] < res[0] and res[3] < res[0]

    def test_put_outside_start_group_raises(self):
        sim, cluster, job = make_job(3)
        win = Window.allocate(job.comm, 1)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 0:
                yield from w.post([1])
                yield from w.wait_sync()
            elif ctx.rank == 1:
                yield from w.start([0])
                with pytest.raises(RmaError, match="outside any access"):
                    yield from w.put(2, np.ones(1))
                yield from w.put(0, np.ones(1))
                yield from w.complete()
            else:
                yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()

    def test_rejected_start_keeps_the_post(self):
        """A start naming an out-of-range target raises before it
        receives any post, so a corrected start still finds rank 1's."""
        sim, cluster, job = make_job(3)
        win = Window.allocate(job.comm, 2)
        seen = {}

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 1:
                yield from w.post([0])
                yield from w.wait_sync()
                seen["landed"] = w.local.tolist()
            elif ctx.rank == 0:
                with pytest.raises(RankError):
                    yield from w.start([1, 7])
                seen["rejected at"] = ctx.sim.now
                yield from w.start([1])
                yield from w.put(1, np.full(2, 5.0))
                yield from w.complete()
            else:
                yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()
        assert seen == {"rejected at": 0.0, "landed": [5.0, 5.0]}

    def test_start_on_itself_is_a_typed_error(self):
        """No rank posts to itself, so a start naming itself could
        never complete: it raises at once instead of deadlocking."""
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 1)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 0:
                with pytest.raises(RmaError, match="start an epoch on itself"):
                    yield from w.start([0])
                with pytest.raises(RmaError, match="post to itself"):
                    yield from w.post([0])
            yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()

    def test_wait_without_post_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 1)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 0:
                with pytest.raises(RmaError, match="no exposure epoch"):
                    yield from w.wait_sync()
            yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()


# ---------------------------------------------------------------------------
# Passive target
# ---------------------------------------------------------------------------

class TestPassive:
    def test_overlapping_puts_under_lock_all(self):
        """Two origins hold lock_all concurrently and put into disjoint
        halves of rank 2's region; both land."""
        sim, cluster, job = make_job(3)
        win = Window.allocate(job.comm, 8)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank < 2:
                yield from w.lock_all()
                off = 4 * ctx.rank
                yield from w.put(
                    2, np.full(4, float(ctx.rank) + 1.0), offset=off
                )
                yield from w.flush(2)
                yield from w.unlock_all()
            else:
                yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()
        assert list(win.region(2)) == [1.0] * 4 + [2.0] * 4

    def test_exclusive_lock_serializes(self):
        """An exclusive holder blocks other origins; the waiter's
        replace lands after the holder's (deterministic final value)."""
        sim, cluster, job = make_job(3)
        win = Window.allocate(job.comm, 1)
        order = []

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 0:
                yield from w.lock(2, exclusive=True)
                yield ctx.sim.timeout(1e-4)  # hold the lock a while
                yield from w.accumulate(2, np.full(1, 1.0), op="replace")
                yield from w.unlock(2)
                order.append(("r0_unlocked", ctx.sim.now))
            elif ctx.rank == 1:
                yield ctx.sim.timeout(1e-5)  # rank 0 locks first
                yield from w.lock(2, exclusive=True)
                order.append(("r1_locked", ctx.sim.now))
                yield from w.accumulate(2, np.full(1, 7.0), op="replace")
                yield from w.unlock(2)
            else:
                yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()
        assert win.region(2)[0] == 7.0
        stamps = dict(order)
        assert stamps["r1_locked"] >= stamps["r0_unlocked"]

    def test_double_lock_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 1)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            if ctx.rank == 0:
                yield from w.lock(1)
                with pytest.raises(RmaError, match="already holds"):
                    yield from w.lock(1)
                yield from w.unlock(1)
            with pytest.raises(RmaError, match="holds no lock"):
                yield from w.unlock(1 - ctx.rank)
            yield ctx.sim.timeout(0)

        job.start(prog)
        job.run()


# ---------------------------------------------------------------------------
# Device-memory windows
# ---------------------------------------------------------------------------

class TestDeviceWindows:
    def _run(self, device):
        sim = Simulator()
        cluster = build_cluster(
            sim, ClusterSpec(nodes=2, gpus_per_node=1)
        )
        job = MpiJob(cluster, [0, 1])
        if device:
            bufs = [
                cluster.nodes[n].gpus[0].alloc(4, dtype=np.float64)
                for n in range(2)
            ]
        else:
            bufs = [np.zeros(4) for _ in range(2)]
        win = Window(job.comm, bufs)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                yield from w.put(1, np.full(4, 8.0))
            yield from w.fence()

        job.start(prog)
        job.run()
        return sim.now, win

    def test_put_lands_in_device_memory(self):
        _, win = self._run(device=True)
        assert list(win.region(1)) == [8.0] * 4

    def test_device_window_pays_pcie(self):
        t_dev, _ = self._run(device=True)
        t_host, _ = self._run(device=False)
        assert t_dev > t_host

    def test_collective_win_create_over_device_memory(self):
        sim = Simulator()
        cluster = build_cluster(
            sim, ClusterSpec(nodes=2, gpus_per_node=1)
        )
        job = MpiJob(cluster, [0, 1])

        def prog(ctx):
            dbuf = cluster.nodes[ctx.node_id].gpus[0].alloc(4)
            w = yield from ctx.win_create(dbuf)
            yield from w.fence()
            yield from w.put(1 - ctx.rank, np.full(4, float(ctx.rank)))
            yield from w.fence()
            return w.local.tolist()

        job.start(prog)
        res = job.run()
        assert res[0] == [1.0] * 4
        assert res[1] == [0.0] * 4

    def test_wrong_node_device_buffer_rejected(self):
        sim = Simulator()
        cluster = build_cluster(
            sim, ClusterSpec(nodes=2, gpus_per_node=1)
        )
        job = MpiJob(cluster, [0, 1])
        wrong = cluster.nodes[1].gpus[0].alloc(2)
        with pytest.raises(RmaError, match="device memory living on"):
            Window(job.comm, [wrong, None])

    def test_wrong_node_host_buffer_rejected(self):
        sim = Simulator()
        cluster = build_cluster(
            sim, ClusterSpec(nodes=2, gpus_per_node=0)
        )
        job = MpiJob(cluster, [0, 1])
        wrong = cluster.nodes[1].alloc(2)
        with pytest.raises(RmaError, match="host memory living on"):
            Window(job.comm, [wrong, None])


# ---------------------------------------------------------------------------
# Window lifetime and comm-free interactions
# ---------------------------------------------------------------------------

class TestLifetime:
    def test_zero_size_window_rejects_access(self):
        sim, cluster, job = make_job(2)
        win = Window(job.comm, [np.zeros(2), None])

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                with pytest.raises(RmaError, match="zero-size window"):
                    yield from w.put(1, np.ones(1))
            yield from w.fence()

        job.start(prog)
        job.run()

    def test_out_of_bounds_put_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 4)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                with pytest.raises(RmaError, match="outside rank"):
                    yield from w.put(1, np.ones(3), offset=2)
            yield from w.fence()

        job.start(prog)
        job.run()

    def test_collective_free_then_use_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 2)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            yield from w.free()
            with pytest.raises(RmaError, match="has been freed"):
                yield from w.put(1 - ctx.rank, np.ones(1))

        job.start(prog)
        job.run()

    def test_dtype_mismatch_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, 4, dtype=np.float64)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                with pytest.raises(RmaError, match="dtype"):
                    yield from w.put(1, np.ones(2, dtype=np.float32))
            yield from w.fence()

        job.start(prog)
        job.run()


class TestCommFree:
    def test_driver_free_releases_and_raises(self):
        sim, cluster, job = make_job(4)
        subs = job.comm.split([0, 0, 1, 1])
        sub = subs[0]
        assert len(sub._match) == 2
        sub.free()
        assert sub._freed and sub._match == [] and sub.engine is None
        with pytest.raises(MpiError, match="has been freed"):
            sub.ctx(0)
        with pytest.raises(MpiError, match="has been freed"):
            sub.split([0, 0])
        with pytest.raises(MpiError, match="has been freed"):
            sub.free()

    def test_world_comm_cannot_be_freed(self):
        sim, cluster, job = make_job(2)
        with pytest.raises(MpiError, match="world communicator"):
            job.comm.free()

    def test_collective_free(self):
        sim, cluster, job = make_job(4)
        outcome = {}

        def prog(ctx):
            sub = yield from ctx.split(ctx.rank % 2, key=ctx.rank)
            buf = np.full(1, float(ctx.rank))
            out = np.zeros(1)
            yield from sub.allreduce(buf, out)
            yield from sub.free()
            outcome[ctx.rank] = sub.comm
            return out[0]

        job.start(prog)
        res = job.run()
        assert res == [2.0, 4.0, 2.0, 4.0]
        # Freed once the LAST rank completed the collective free.
        assert all(outcome[r]._freed for r in range(4))

    def test_collective_free_wide_comm_on_fattree(self):
        """Regression: the first rank out of the free barrier must not
        release the matching stores while slower ranks (unequal wire
        distances on a structured fabric) still have barrier traffic
        in flight."""
        sim = Simulator()
        cluster = build_cluster(
            sim,
            ClusterSpec(
                nodes=16,
                gpus_per_node=0,
                topology=TopologySpec(kind="fattree", pod_size=4),
            ),
        )
        job = MpiJob(cluster, list(range(16)))

        def prog(ctx):
            sub = yield from ctx.split(0, key=ctx.rank)
            yield from sub.free()
            return True

        job.start(prog)
        assert job.run() == [True] * 16

    def test_freed_comm_p2p_raises(self):
        sim, cluster, job = make_job(4)

        def prog(ctx):
            sub = yield from ctx.split(0, key=ctx.rank)
            yield from sub.barrier()
            # Let every rank's barrier schedule fully unwind: the
            # driver-level free refuses while anything is in flight.
            yield ctx.sim.timeout(1e-6)
            if ctx.rank == 0:
                sub.comm.free()
            yield from ctx.barrier()  # parent still fine
            with pytest.raises(MpiError, match="has been freed"):
                yield from sub.send(np.ones(1), (sub.rank + 1) % sub.size)

        job.start(prog)
        job.run()

    def test_collective_free_drains_pending_isend(self):
        """MPI allows pending nonblocking ops at free time — the
        collective free defers the release until they complete instead
        of yanking the matching stores out from under them."""
        sim, cluster, job = make_job(2)
        n = 1 << 18  # rendezvous-sized: still in flight at the barrier

        comms = {}

        def prog(ctx):
            sub = yield from ctx.split(0, key=ctx.rank)
            comms[ctx.rank] = sub.comm
            if sub.rank == 0:
                req = sub.isend(np.ones(n // 8), 1)
            else:
                req = sub.irecv(np.zeros(n // 8), 0)
            yield from sub.free()
            # free may return before the deferred release (MPI-legal);
            # the pending ops still complete normally.
            yield from req.wait()
            return True

        job.start(prog)
        assert job.run() == [True, True]
        assert all(c._freed for c in comms.values())

    def test_driver_free_with_inflight_ops_raises(self):
        sim, cluster, job = make_job(2)
        sub = job.comm.split([0, 0])[0]

        def prog(ctx):
            sctx = sub.ctx(ctx.rank)
            if ctx.rank == 0:
                req = sctx.isend(np.ones(1 << 15), 1)
                yield ctx.sim.timeout(1e-7)
                with pytest.raises(MpiError, match="in flight"):
                    sub.free()
                yield from req.wait()
            else:
                yield from sctx.recv(np.zeros(1 << 15), 0)

        job.start(prog)
        job.run()

    def test_collective_free_drains_pending_icollective(self):
        """A background nonblocking collective mid-schedule must also
        hold the release back — the drain watches the schedule engine,
        not just the p2p counter."""
        sim, cluster, job = make_job(4)
        comms = {}

        def prog(ctx):
            sub = yield from ctx.split(0, key=ctx.rank)
            comms[ctx.rank] = sub.comm
            out = np.zeros((1 << 17) // 8)
            req = sub.iallreduce(np.ones((1 << 17) // 8), out)
            yield from sub.free()
            yield from req.wait()
            return float(out[0])

        job.start(prog)
        assert job.run() == [4.0] * 4
        assert all(c._freed for c in comms.values())

    def test_window_free_with_inflight_put_raises(self):
        sim, cluster, job = make_job(2)
        win = Window.allocate(job.comm, (1 << 18) // 8)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                yield from w.put(1, np.ones((1 << 18) // 8))
                with pytest.raises(RmaError, match="in flight"):
                    win.free()
                yield from w.flush(1)
            yield from w.fence()

        job.start(prog)
        job.run()

    def test_replace_rejected_by_two_sided_reductions(self):
        sim, cluster, job = make_job(2)

        def prog(ctx):
            buf, out = np.ones(2), np.zeros(2)
            with pytest.raises(MpiError, match="one-sided accumulate"):
                yield from ctx.allreduce(buf, out, op=ReduceOp.REPLACE)
            with pytest.raises(MpiError, match="one-sided accumulate"):
                yield from ctx.reduce(buf, out, op=ReduceOp.REPLACE)

        job.start(prog)
        job.run()

    def test_free_with_live_window_raises(self):
        """Carried-over ROADMAP bugfix: freeing a communicator that
        still exposes a window is erroneous — the checker's
        free-with-inflight-rput scenario depends on this being
        well-defined."""
        sim, cluster, job = make_job(4)
        sub = job.comm.split([0, 0, 1, 1])[0]
        win = Window.allocate(sub, 2, name="livewin")
        with pytest.raises(MpiError, match="live window.*livewin"):
            sub.free()
        assert not sub._freed and not win._freed
        # The orderly sequence: free the window, then the communicator.
        win.free()
        sub.free()
        assert sub._freed

    def test_collective_free_with_live_window_raises(self):
        sim, cluster, job = make_job(2)

        def prog(ctx):
            sub = yield from ctx.split(0, key=ctx.rank)
            w = yield from sub.win_allocate(2)
            with pytest.raises(MpiError, match="live window"):
                yield from sub.free()
            yield from w.fence()
            yield from w.free()
            yield from sub.free()
            return True

        job.start(prog)
        assert job.run() == [True, True]

    def test_force_free_severs_live_windows(self):
        sim, cluster, job = make_job(4)
        sub = job.comm.split([0, 0, 1, 1])[0]
        win = Window.allocate(sub, 2)
        sub.free(force=True)
        assert sub._freed and win._freed

    def test_window_over_freed_comm_raises(self):
        sim, cluster, job = make_job(4)
        subs = job.comm.split([0, 0, 1, 1])
        sub = subs[0]
        win = Window.allocate(sub, 2)
        sub.free(force=True)

        def prog(ctx):
            w = win.ctx(0)
            with pytest.raises(MpiError, match="has been freed"):
                yield from w.fence()
            yield ctx.sim.timeout(0)

        job.start(prog, ranks=[0])
        job.run()

    def test_hier_children_freed_with_parent(self):
        sim = Simulator()
        cluster = build_cluster(
            sim,
            ClusterSpec(
                nodes=8,
                gpus_per_node=0,
                topology=TopologySpec(kind="fattree", pod_size=4),
            ),
        )
        job = MpiJob(cluster, list(range(8)))
        sub = job.comm.dup()
        bundle = sub.hier_comms()
        children = bundle.children()
        assert children
        sub.free()
        for child in children:
            assert child._freed


# ---------------------------------------------------------------------------
# Autotuned eager threshold
# ---------------------------------------------------------------------------

class TestRmaTuning:
    def test_threshold_positive_and_fabric_dependent(self):
        clear_cache()
        sim = Simulator()
        flat = build_cluster(
            sim, ClusterSpec(nodes=8, gpus_per_node=0)
        )
        t_flat = MpiJob(flat, list(range(8))).comm.tuning
        sim2 = Simulator()
        torus = build_cluster(
            sim2,
            ClusterSpec(
                nodes=16,
                gpus_per_node=0,
                topology=TopologySpec(kind="torus2d"),
            ),
        )
        t_torus = MpiJob(torus, list(range(16))).comm.tuning
        assert t_flat.rma_eager_max_bytes > 0
        # Multi-hop fabric: pricier round-trips keep eager puts longer.
        assert t_torus.rma_eager_max_bytes > t_flat.rma_eager_max_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            CollectiveTuning(rma_eager_max_bytes=-1)
