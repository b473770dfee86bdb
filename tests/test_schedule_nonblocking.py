"""Schedule engine + nonblocking collectives: correctness, timing
parity with the blocking path, overlap, and the new large-message
schedules (pipelined bcast, Rabenseifner reduce, Bruck alltoall)."""

import numpy as np
import pytest

from repro.hw import build_cluster, paper_cluster
from repro.mpi import (
    CollectiveTuning,
    MpiError,
    MpiJob,
    ReduceOp,
    block_placement,
)
from repro.mpi.algorithms.schedule import REBIND, Binding, Call, Schedule
from repro.sim import Simulator

KB = 1024
MB = 1024 * 1024


def make_job(n_ranks, n_nodes=None, tuning=None):
    sim = Simulator()
    n_nodes = n_nodes if n_nodes is not None else n_ranks
    cluster = build_cluster(sim, paper_cluster(nodes=n_nodes, gpus_per_node=0))
    return sim, MpiJob(cluster, block_placement(n_ranks, n_nodes), tuning=tuning)


# ---------------------------------------------------------------------------
# Schedule IR basics
# ---------------------------------------------------------------------------

class TestScheduleIR:
    def test_dependencies_must_exist(self):
        sched = Schedule()
        with pytest.raises(MpiError, match="unknown step"):
            sched.compute(lambda: None, after=(3,))
        # A step cannot wait on itself: every schedule is a DAG in
        # index order, so no engine can stall on a cycle.
        idx = len(sched)
        with pytest.raises(MpiError, match=f"step {idx} depends on unknown"):
            sched.compute(lambda: None, after=(idx,))

    def test_rounds_and_describe(self):
        sched = Schedule()
        a = sched.send(None, 1, 5, round=0)
        b = sched.recv(None, 1, 5, round=0)
        sched.compute(lambda: None, after=(a, b), round=1)
        assert sched.n_rounds == 2
        text = sched.describe()
        assert "round 0" in text and "round 1" in text

    def test_lazy_buffers_resolve_at_step_start(self):
        """A send's buffer ref resolves when the send starts, so it
        reads the slot its dependency just rebound, not the buffer the
        call was bound with."""
        sim, job = make_job(2)
        out = {}

        def build_fixture(ctx, b):
            sched = Schedule(ctx, b)
            tag = sched.claim()
            if ctx.rank == 0:
                # Slot 0 becomes a fresh array: zeros + arange.
                c = sched.compute(((REBIND, ReduceOp.SUM, 0, 1, 0),))
                sched.send(0, 1, tag, after=(c,))
            else:
                sched.recv(0, 0, tag)
            return sched

        def prog(ctx):
            buf = np.zeros(8, dtype=np.int64)
            b = Binding((buf, np.arange(8, dtype=np.int64)))
            call = Call("fixture", "fixture", 64, None, b, build_fixture)
            yield from ctx.comm.engine.execute(ctx, call)
            out[ctx.rank] = buf

        job.start(prog)
        job.run()
        assert not out[0].any()
        assert np.array_equal(out[1], np.arange(8))


# ---------------------------------------------------------------------------
# Blocking == nonblocking (immediately waited) timing parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_ranks", [4, 6, 8])
def test_iallreduce_waited_matches_blocking_time(n_ranks):
    results = {}
    for mode in ("blocking", "nonblocking"):
        sim, job = make_job(n_ranks)

        def prog(ctx, mode=mode):
            send = np.full(64 * KB, ctx.rank + 1, dtype=np.int32)
            recv = np.zeros(64 * KB, dtype=np.int32)
            if mode == "blocking":
                yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
            else:
                req = ctx.iallreduce(send, recv, op=ReduceOp.SUM)
                yield from req.wait()
            return recv[0]

        job.start(prog)
        vals = job.run()
        results[mode] = (sim.now, vals)
    assert results["blocking"][0] == results["nonblocking"][0]
    expected = sum(range(1, n_ranks + 1))
    assert all(v == expected for v in results["nonblocking"][1])


@pytest.mark.parametrize("coll", ["ibarrier", "ibcast", "iallgather",
                                  "ialltoall", "ireduce"])
@pytest.mark.parametrize("n_ranks", [5, 6])
def test_nonblocking_collectives_non_pof2(coll, n_ranks):
    """Every nonblocking collective completes with correct data on
    non-power-of-two communicators."""
    sim, job = make_job(n_ranks)
    out = {}

    def prog(ctx):
        if coll == "ibarrier":
            req = ctx.ibarrier()
            yield from req.wait()
            out[ctx.rank] = True
        elif coll == "ibcast":
            buf = (
                np.arange(1000, dtype=np.int64)
                if ctx.rank == 2
                else np.zeros(1000, dtype=np.int64)
            )
            req = ctx.ibcast(buf, root=2)
            yield from req.wait()
            out[ctx.rank] = buf.copy()
        elif coll == "iallgather":
            send = np.full(7, ctx.rank, dtype=np.int32)
            recvs = [np.zeros(7, dtype=np.int32) for _ in range(ctx.size)]
            req = ctx.iallgather(send, recvs)
            yield from req.wait()
            out[ctx.rank] = [r[0] for r in recvs]
        elif coll == "ialltoall":
            sends = [
                np.full(5, ctx.rank * 100 + d, dtype=np.int32)
                for d in range(ctx.size)
            ]
            recvs = [np.zeros(5, dtype=np.int32) for _ in range(ctx.size)]
            req = ctx.ialltoall(sends, recvs)
            yield from req.wait()
            out[ctx.rank] = [r[0] for r in recvs]
        elif coll == "ireduce":
            send = np.full(33, ctx.rank + 1, dtype=np.int64)
            recv = np.zeros(33, dtype=np.int64) if ctx.rank == 1 else None
            req = ctx.ireduce(send, recv, op=ReduceOp.SUM, root=1)
            yield from req.wait()
            if ctx.rank == 1:
                out[ctx.rank] = recv.copy()

    job.start(prog)
    job.run()
    if coll == "ibarrier":
        assert all(out.values())
    elif coll == "ibcast":
        for r in range(n_ranks):
            assert np.array_equal(out[r], np.arange(1000))
    elif coll == "iallgather":
        for r in range(n_ranks):
            assert out[r] == list(range(n_ranks))
    elif coll == "ialltoall":
        for r in range(n_ranks):
            assert out[r] == [s * 100 + r for s in range(n_ranks)]
    elif coll == "ireduce":
        assert np.array_equal(
            out[1], np.full(33, sum(range(1, n_ranks + 1)))
        )


def test_iallreduce_overlaps_compute():
    """An iallreduce issued before a long compute must cost ≈max(comm,
    compute), not their sum — the point of the progress engine."""
    compute_s = 5e-3

    def timed(overlapped):
        sim, job = make_job(8)

        def prog(ctx):
            send = np.zeros(2 * MB, dtype=np.uint8)
            recv = np.zeros(2 * MB, dtype=np.uint8)
            if overlapped:
                req = ctx.iallreduce(send, recv, op=ReduceOp.MAX)
                yield ctx.sim.timeout(compute_s)
                yield from req.wait()
            else:
                yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)
                yield ctx.sim.timeout(compute_s)

        job.start(prog)
        job.run()
        return sim.now

    t_seq = timed(False)
    t_ovl = timed(True)
    comm_s = t_seq - compute_s
    assert t_ovl < t_seq - 0.5 * min(comm_s, compute_s)


def test_two_nonblocking_collectives_in_flight():
    """Two collectives issued back-to-back progress concurrently and
    stay correctly matched (tags claimed in issue order)."""
    sim, job = make_job(6)
    out = {}

    def prog(ctx):
        b1 = np.full(256, ctx.rank, dtype=np.int32)
        recvs = [np.zeros(256, dtype=np.int32) for _ in range(ctx.size)]
        r1 = ctx.iallgather(b1, recvs)
        r2 = ctx.ibarrier()
        yield from r1.wait()
        yield from r2.wait()
        out[ctx.rank] = [r[0] for r in recvs]

    job.start(prog)
    job.run()
    for r in range(6):
        assert out[r] == list(range(6))


# ---------------------------------------------------------------------------
# New large-message schedules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_ranks,root", [(4, 0), (5, 2), (8, 7), (9, 1)])
def test_pipelined_bcast_correct(n_ranks, root):
    sim, job = make_job(n_ranks,
                        tuning=CollectiveTuning(force_bcast="pipelined"))
    out = {}

    def prog(ctx):
        buf = (
            np.arange(300_000, dtype=np.uint8).astype(np.uint8)
            if ctx.rank == root
            else np.zeros(300_000, dtype=np.uint8)
        )
        yield from ctx.bcast(buf, root=root)
        out[ctx.rank] = buf

    job.start(prog)
    job.run()
    ref = np.arange(300_000, dtype=np.uint8).astype(np.uint8)
    for r in range(n_ranks):
        assert np.array_equal(out[r], ref)


def test_pipelined_bcast_beats_binomial_large():
    def timed(force):
        sim, job = make_job(16, tuning=CollectiveTuning(force_bcast=force))

        def prog(ctx):
            buf = np.zeros(4 * MB, dtype=np.uint8)
            yield from ctx.bcast(buf, root=0)

        job.start(prog)
        job.run()
        return sim.now

    assert timed("pipelined") < timed("binomial") / 1.5


@pytest.mark.parametrize("n_ranks,root,count", [
    (4, 0, 4096), (8, 3, 1000), (16, 15, 3), (4, 1, 0),
    # Non-powers of two: the excess ranks fold in first.
    (3, 0, 100), (6, 5, 1000), (7, 2, 4096), (12, 0, 17),
])
def test_rabenseifner_reduce_correct(n_ranks, root, count):
    sim, job = make_job(
        n_ranks, tuning=CollectiveTuning(force_reduce="rabenseifner")
    )
    out = {}

    def prog(ctx):
        send = np.full(count, ctx.rank + 1, dtype=np.int64)
        recv = np.zeros(count, dtype=np.int64) if ctx.rank == root else None
        yield from ctx.reduce(send, recv, op=ReduceOp.SUM, root=root)
        if ctx.rank == root:
            out["result"] = recv

    job.start(prog)
    job.run()
    assert np.array_equal(
        out["result"], np.full(count, sum(range(1, n_ranks + 1)))
    )


def test_rabenseifner_non_pof2_matches_binomial_result():
    """Non-power-of-two Rabenseifner (fold-in round) agrees with the
    binomial tree bit for bit on integer payloads."""

    def run(force):
        sim, job = make_job(6, tuning=CollectiveTuning(force_reduce=force))
        out = {}

        def prog(ctx):
            send = np.arange(64, dtype=np.int64) * (ctx.rank + 1)
            recv = np.zeros(64, dtype=np.int64) if ctx.rank == 0 else None
            yield from ctx.reduce(send, recv, op=ReduceOp.SUM, root=0)
            if ctx.rank == 0:
                out["result"] = recv

        job.start(prog)
        job.run()
        return out["result"]

    assert np.array_equal(run("rabenseifner"), run("binomial"))


def test_rabenseifner_beats_binomial_large():
    def timed(force):
        sim, job = make_job(16, tuning=CollectiveTuning(force_reduce=force))

        def prog(ctx):
            send = np.zeros(4 * MB, dtype=np.uint8)
            recv = np.zeros(4 * MB, dtype=np.uint8) if ctx.rank == 0 else None
            yield from ctx.reduce(send, recv, op=ReduceOp.MAX, root=0)

        job.start(prog)
        job.run()
        return sim.now

    assert timed("rabenseifner") < timed("binomial") / 1.5


@pytest.mark.parametrize("n_ranks", [3, 4, 6, 8, 12])
def test_bruck_alltoall_correct(n_ranks):
    sim, job = make_job(
        n_ranks, tuning=CollectiveTuning(force_alltoall="bruck")
    )
    out = {}

    def prog(ctx):
        sends = [
            np.full(16, ctx.rank * 1000 + d, dtype=np.int32)
            for d in range(ctx.size)
        ]
        recvs = [np.zeros(16, dtype=np.int32) for _ in range(ctx.size)]
        yield from ctx.alltoall(sends, recvs)
        out[ctx.rank] = [int(r[0]) for r in recvs]

    job.start(prog)
    job.run()
    for r in range(n_ranks):
        assert out[r] == [s * 1000 + r for s in range(n_ranks)]


def test_bruck_alltoall_beats_linear_small_blocks():
    def timed(tuning):
        sim, job = make_job(12, tuning=tuning)

        def prog(ctx):
            sends = [np.zeros(64, dtype=np.uint8) for _ in range(ctx.size)]
            recvs = [np.zeros(64, dtype=np.uint8) for _ in range(ctx.size)]
            yield from ctx.alltoall(sends, recvs)

        job.start(prog)
        job.run()
        return sim.now

    t_bruck = timed(CollectiveTuning(force_alltoall="bruck"))
    t_shift = timed(CollectiveTuning(force_alltoall="shift"))
    assert t_bruck < t_shift


def test_selector_new_menus():
    from repro.mpi.algorithms import AlgorithmSelector

    sel = AlgorithmSelector(CollectiveTuning(
        alltoall_bruck_max_bytes=512,
        bcast_pipeline_min_bytes=1 * MB,
        reduce_raben_min_bytes=64 * KB,
    ))
    assert sel.alltoall(256, 12) == "bruck"
    assert sel.alltoall(4 * KB, 12) == "shift"
    assert sel.bcast(4 * MB, 16) == "pipelined"
    assert sel.bcast(4 * KB, 16) == "binomial"
    assert sel.reduce(1 * MB, 16) == "rabenseifner"
    assert sel.reduce(1 * MB, 12) == "rabenseifner"  # any-P since PR 4
    assert sel.reduce(1 * KB, 16) == "binomial"
    with pytest.raises(MpiError, match="unknown reduce algorithm"):
        AlgorithmSelector(CollectiveTuning(force_reduce="nope")).reduce(1, 4)
