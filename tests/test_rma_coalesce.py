"""RMA put coalescing: batching, ordering, flush points, and counters.

``Window(coalesce=True)`` buffers small eager puts per (origin, target)
and rides them on one wire transfer at the next completion point or
conflicting operation (see ``rma.py``).  These tests pin down the
semantics the Jacobi ``rma_fence_coalesced`` backend and ``bench_rma``'s
coalescing gate rely on.
"""

import numpy as np
import pytest

from repro.hw import ClusterSpec, build_cluster
from repro.mpi import MpiJob, RmaError, Window
from repro.sim import Simulator


def make_job(n_nodes=4):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=n_nodes, gpus_per_node=0))
    return sim, MpiJob(cluster, list(range(n_nodes)))


# ---------------------------------------------------------------------------
# Correctness: data, ordering, overlapping offsets
# ---------------------------------------------------------------------------

def test_coalesced_puts_land_in_order():
    """Buffered puts apply in program order at the flush — including
    overlapping offsets, where the later put wins."""
    sim, job = make_job(2)
    win = Window.allocate(job.comm, 8, coalesce=True)

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            yield from w.put(1, np.full(4, 1.0), offset=0)
            yield from w.put(1, np.full(4, 2.0), offset=4)
            # Overlaps both earlier puts: program order must win.
            yield from w.put(1, np.full(4, 3.0), offset=2)
        yield from w.fence()

    job.start(prog)
    job.run()
    assert list(win.region(1)) == [1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 2.0, 2.0]


def test_coalesced_counter_and_one_wire_flush():
    """Every deferred put ticks ``rma_coalesced_puts``; the batch rides
    a single coalesced flush, not one transfer per put."""
    sim, job = make_job(2)
    win = Window.allocate(job.comm, 16, coalesce=True)

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            for i in range(8):
                yield from w.put(1, np.full(2, float(i)), offset=2 * i)
        yield from w.fence()

    job.start(prog)
    job.run()
    assert sim.stats.rma_coalesced_puts == 8
    assert job.comm.stats["rma_put[coalesced]"] == 8
    assert job.comm.stats["rma_put[coalesced_flush]"] == 1
    assert list(win.region(1)) == [float(i) for i in range(8) for _ in (0, 1)]


def test_get_flushes_pending_batch():
    """A get to the same target forces the buffered batch onto the wire
    (puts can't linger behind a conflicting read — same put/get wire
    ordering as an uncoalesced window), and the batch lands by the
    closing fence as usual."""
    sim, job = make_job(2)
    win = Window.allocate(job.comm, 4, coalesce=True)

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            yield from w.put(1, np.full(4, 7.0))
            assert win._pending_puts[0]  # buffered, not yet on the wire
            got = np.zeros(4)
            yield from w.get(1, got)
            assert not win._pending_puts[0]  # the get flushed it
        yield from w.fence()

    job.start(prog)
    job.run()
    assert job.comm.stats["rma_put[coalesced_flush]"] == 1
    assert list(win.region(1)) == [7.0] * 4


def test_accumulate_flushes_pending_batch():
    """An accumulate to the same target is a conflicting operation: the
    batch lands first, then the accumulate applies on top."""
    sim, job = make_job(2)
    win = Window.allocate(job.comm, 2, coalesce=True)

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            yield from w.put(1, np.full(2, 10.0))
            yield from w.accumulate(1, np.ones(2), op="sum")
        yield from w.fence()

    job.start(prog)
    job.run()
    assert list(win.region(1)) == [11.0, 11.0]


@pytest.mark.parametrize("backend", ["exact", "analytic"])
@pytest.mark.parametrize("op", ["get", "accumulate"])
def test_rejected_call_leaves_batch_buffered(op, backend):
    """A get or accumulate that fails its checks has no side effect:
    the buffered batch stays off the wire until the closing fence."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=2, gpus_per_node=0))
    job = MpiJob(cluster, [0, 1], backend=backend)
    win = Window.allocate(job.comm, 4, coalesce=True)

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            yield from w.put(1, np.full(4, 7.0))
            with pytest.raises(RmaError, match="outside rank 1's window"):
                if op == "get":
                    yield from w.get(1, np.zeros(4), offset=2)
                else:
                    yield from w.accumulate(1, np.ones(4), offset=2)
            assert win._pending_puts[0]  # still buffered
        yield from w.fence()

    job.start(prog)
    job.run()
    assert job.comm.stats["rma_put[coalesced_flush]"] == 1
    assert list(win.region(1)) == [7.0] * 4


def test_batch_overflow_flushes_eagerly():
    """Once the buffered total outgrows the eager threshold the batch
    goes on the wire immediately — no unbounded buffering."""
    sim, job = make_job(2)
    win = Window.allocate(job.comm, 4096, coalesce=True)
    eager_elems = win._eager_max // 8  # float64

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            half = eager_elems // 2 + 1
            yield from w.put(1, np.full(half, 1.0), offset=0)
            yield from w.put(1, np.full(half, 2.0), offset=half)
            # Two half-threshold puts overflow the batch: it must have
            # flushed itself without any completion call.
            assert not win._pending_puts[0]
        yield from w.fence()

    job.start(prog)
    job.run()
    assert win.region(1)[0] == 1.0
    assert win.region(1)[eager_elems // 2 + 1] == 2.0


def test_large_put_bypasses_coalescing():
    """A put above the eager threshold never enters the batch — it goes
    straight to the rendezvous wire path."""
    sim, job = make_job(2)
    big = win_elems = 4096  # 32 KB of float64 > 8 KB eager default
    win = Window.allocate(job.comm, win_elems, coalesce=True)

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            yield from w.put(1, np.full(big, 5.0))
            assert not win._pending_puts[0]
        yield from w.fence()

    job.start(prog)
    job.run()
    assert sim.stats.rma_coalesced_puts == 0
    assert list(win.region(1)) == [5.0] * big


# ---------------------------------------------------------------------------
# Lifecycle and defaults
# ---------------------------------------------------------------------------

def test_free_with_buffered_puts_raises():
    """Freeing a window that still holds un-flushed coalesced puts is a
    synchronization bug the window reports instead of dropping data."""
    sim, job = make_job(2)
    win = Window.allocate(job.comm, 2, coalesce=True)

    def prog(ctx):
        w = win.ctx(ctx.rank)
        yield from w.fence()
        if ctx.rank == 0:
            yield from w.put(1, np.ones(2))
        # No closing completion point: rank 0's batch is still buffered.

    job.start(prog)
    job.run()
    with pytest.raises(RmaError, match="coalesced puts"):
        win.free()
    # A fence-equivalent flush makes the free legal again.
    list(win.flush_ops(0))
    win.free()


def test_coalesce_off_is_byte_stable():
    """The default (coalesce=False) window never defers: same data,
    same simulated time as before the feature existed, counter dark."""
    def run(coalesce):
        sim, job = make_job(2)
        win = Window.allocate(job.comm, 8, coalesce=coalesce)

        def prog(ctx):
            w = win.ctx(ctx.rank)
            yield from w.fence()
            if ctx.rank == 0:
                for i in range(4):
                    yield from w.put(1, np.full(2, float(i)), offset=2 * i)
            yield from w.fence()

        job.start(prog)
        job.run()
        return sim, win

    sim_off, win_off = run(False)
    assert sim_off.stats.rma_coalesced_puts == 0
    sim_on, win_on = run(True)
    np.testing.assert_array_equal(win_off.region(1), win_on.region(1))
    # Coalescing four tiny puts onto one wire transfer must be faster.
    assert sim_on.now < sim_off.now
