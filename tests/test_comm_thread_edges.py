"""Edge cases in the communication thread: buffering, ablation paths,
mismatches, delivery aliasing, and quiescent shutdown."""

import dataclasses

import numpy as np
import pytest

from repro.dcgn import (
    ANY,
    CollectiveMismatch,
    CommViolation,
    DcgnConfig,
    DcgnError,
    DcgnRuntime,
)
from repro.hw import HWParams, build_cluster, paper_cluster
from repro.mpi import MpiError, TruncationError
from repro.sim import Simulator, us


def make_runtime(n_nodes=2, cpu_threads=1, params=None, seed=0):
    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=n_nodes, params=params, seed=seed)
    )
    cfg = DcgnConfig.homogeneous(n_nodes, cpu_threads=cpu_threads)
    return sim, DcgnRuntime(cluster, cfg)


class TestUnexpectedMessages:
    def test_send_before_recv_is_buffered_and_delivered(self):
        sim, rt = make_runtime()
        result = {}

        def kernel(ctx):
            buf = np.zeros(4, dtype=np.int32)
            if ctx.rank == 0:
                buf[:] = [4, 3, 2, 1]
                yield from ctx.send(1, buf)
            else:
                # Receive long after the message arrived (buffered path).
                yield ctx.sim.timeout(0.01)
                yield from ctx.recv(0, buf)
                result["data"] = buf.copy()

        rt.launch_cpu(kernel)
        rt.run()
        assert np.array_equal(result["data"], [4, 3, 2, 1])

    def test_many_buffered_messages_match_in_order(self):
        sim, rt = make_runtime()
        result = {}

        def kernel(ctx):
            buf = np.zeros(1, dtype=np.int64)
            if ctx.rank == 0:
                for i in range(5):
                    buf[0] = i
                    yield from ctx.send(1, buf)
            else:
                yield ctx.sim.timeout(0.01)
                got = []
                for _ in range(5):
                    yield from ctx.recv(0, buf)
                    got.append(int(buf[0]))
                result["got"] = got

        rt.launch_cpu(kernel)
        rt.run()
        assert result["got"] == [0, 1, 2, 3, 4]


class TestLocalLoopbackAblation:
    def test_local_send_via_mpi_loopback_still_correct(self):
        base = HWParams()
        params = base.with_(
            dcgn=dataclasses.replace(base.dcgn, local_via_memcpy=False)
        )
        sim, rt = make_runtime(n_nodes=1, cpu_threads=2, params=params)
        result = {}

        def kernel(ctx):
            buf = np.zeros(2)
            if ctx.rank == 0:
                buf[:] = [1.5, 2.5]
                yield from ctx.send(1, buf)
            else:
                st = yield from ctx.recv(0, buf)
                result["data"] = buf.copy()
                result["src"] = st.source

        rt.launch_cpu(kernel)
        rt.run()
        assert np.allclose(result["data"], [1.5, 2.5])
        assert result["src"] == 0

    def test_loopback_slower_than_memcpy_for_large_payloads(self):
        def one_way(local_via_memcpy):
            base = HWParams()
            params = base.with_(
                dcgn=dataclasses.replace(
                    base.dcgn, local_via_memcpy=local_via_memcpy
                )
            )
            sim, rt = make_runtime(
                n_nodes=1, cpu_threads=2, params=params
            )
            marks = {}

            def kernel(ctx):
                buf = np.zeros(1 << 20, dtype=np.uint8)
                if ctx.rank == 0:
                    yield from ctx.send(1, buf)
                else:
                    yield from ctx.recv(0, buf)
                    marks["t"] = ctx.sim.now

            rt.launch_cpu(kernel)
            rt.run()
            return marks["t"]

        assert one_way(True) < one_way(False)


#: (nodes, CPU threads per node) of a two-rank job.
LAYOUTS = {"1node-2threads": (1, 2), "2nodes-1thread": (2, 1)}


def _rooted_or_reduce(ctx, op, n, root_n):
    """Rank 0 is the root and supplies ``root_n`` elements; every rank
    passes ``n`` elements of its own."""
    mine = np.arange(n, dtype=np.int64)
    full = np.zeros(root_n, dtype=np.int64) if ctx.rank == 0 else None
    if op == "gather":
        yield from ctx.gather(0, mine, full)
    elif op == "scatter":
        yield from ctx.scatter(0, mine, full)
    elif op == "bcast":
        yield from ctx.broadcast(0, mine)
    else:
        yield from ctx.allreduce(mine, np.zeros_like(mine))


class TestCollectiveMismatches:
    def test_reduce_op_mismatch(self):
        sim, rt = make_runtime(n_nodes=1, cpu_threads=2)

        def kernel(ctx):
            send = np.array([1.0])
            recv = np.zeros(1)
            op = "sum" if ctx.rank == 0 else "max"
            yield from ctx.allreduce(send, recv, op=op)

        rt.launch_cpu(kernel)
        with pytest.raises(CollectiveMismatch):
            rt.run(max_time=1.0)

    def test_over_participation_detected(self):
        """A rank calling twice while others call once trips the guard."""
        sim, rt = make_runtime(n_nodes=1, cpu_threads=2)

        def kernel(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier()
            else:
                # Issue two barrier requests with the SAME sequence
                # number by resetting the world (group 0) counter
                # (simulating a buggy user thread reusing a context).
                yield from ctx.barrier()
                ctx._transport.coll_seqs[(0, ctx.vrank)] = 0
                yield from ctx.barrier()

        rt.launch_cpu(kernel)
        with pytest.raises(CollectiveMismatch):
            rt.run(max_time=1.0)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_short_root_buffer_rejected_at_issue(self, op, layout):
        """Two ranks of 4 elements need an 8-element root buffer.  A
        short one used to drop a rank's data (gather), hand out zeros
        (2-node scatter) or kill the comm thread (1-node scatter)."""
        sim, rt = make_runtime(*LAYOUTS[layout])
        rt.launch_cpu(lambda ctx: _rooted_or_reduce(ctx, op, 4, 5))
        with pytest.raises(CommViolation, match="short of"):
            rt.run(max_time=1.0)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("op", ["gather", "scatter", "allreduce", "bcast"])
    def test_count_disagreement(self, op, layout):
        """Rank 1 passes 8 elements against everyone else's 4.  On one
        node the comm thread sees both entries; across nodes the wire
        carries the disagreement (a too-long message truncates, a
        too-short scatter piece is caught on arrival, and a too-short
        bcast is a short collective receive)."""
        sim, rt = make_runtime(*LAYOUTS[layout])
        rt.launch_cpu(
            lambda ctx: _rooted_or_reduce(
                ctx, op, 8 if ctx.rank == 1 else 4, 16
            )
        )
        if layout == "1node-2threads" or op == "scatter":
            raises = pytest.raises(CollectiveMismatch)
        elif op == "bcast":
            raises = pytest.raises(MpiError, match="bcast: a rank received")
        else:
            raises = pytest.raises(TruncationError)
        with raises:
            rt.run(max_time=1.0)


class TestRequestTable:
    def test_unknown_op_raises_naming_it(self):
        from repro.dcgn.requests import CommRequest

        sim, rt = make_runtime(n_nodes=1)
        req = CommRequest(op="frobnicate", src_vrank=0, done=sim.event())
        sim.process(rt.comm_threads[0].enqueue_from_cpu(req))
        with pytest.raises(DcgnError, match="unknown op 'frobnicate'"):
            sim.run(until=1.0, detect_deadlock=False)


class TestStatsAndCapture:
    def test_wire_counters_track_remote_traffic(self):
        sim, rt = make_runtime()

        def kernel(ctx):
            buf = np.zeros(1)
            if ctx.rank == 0:
                yield from ctx.send(1, buf)
            else:
                yield from ctx.recv(0, buf)

        rt.launch_cpu(kernel)
        report = rt.run()
        stats = report.comm_stats()
        assert stats.get("wire_sends", 0) == 1
        assert stats.get("wire_arrivals", 0) == 1
        assert stats.get("p2p_delivered", 0) == 1

    def test_intra_node_traffic_uses_no_wire(self):
        sim, rt = make_runtime(n_nodes=1, cpu_threads=2)

        def kernel(ctx):
            buf = np.zeros(1)
            if ctx.rank == 0:
                yield from ctx.send(1, buf)
            else:
                yield from ctx.recv(0, buf)

        rt.launch_cpu(kernel)
        report = rt.run()
        stats = report.comm_stats()
        assert stats.get("wire_sends", 0) == 0
        assert stats.get("p2p_delivered", 0) == 1


class TestDeliveryAliasing:
    """Non-deliver requests (the GPU-slot contract: the GPU thread reads
    ``req.data`` back over PCIe) must each own their payload — the seed
    handed every sibling the *same* ndarray, so one rank mutating its
    receive buffer corrupted the others'."""

    def _raw_collective(self, op, n_ranks=3, **extra_fields):
        """Drive a comm thread with hand-built deliver-less requests."""
        from repro.dcgn.requests import CommRequest

        sim, rt = make_runtime(n_nodes=1, cpu_threads=n_ranks)
        ct = rt.comm_threads[0]
        payload = np.arange(8, dtype=np.int64)
        reqs = []
        for vrank in range(n_ranks):
            is_root = vrank == 0
            req = CommRequest(
                op=op,
                src_vrank=vrank,
                root=0,
                nbytes=int(payload.nbytes),
                data=payload.copy() if (is_root or op == "allreduce") else None,
                result=None,
                done=sim.event(),
                extra=dict({"coll_seq": 0}, **extra_fields),
            )
            reqs.append(req)

            def enqueue(req=req):
                yield from ct.enqueue_from_cpu(req)

            sim.process(enqueue(), name=f"enq{vrank}")
        sim.run(until=1.0, detect_deadlock=False)
        assert all(r.done.triggered for r in reqs)
        ct.shutdown()
        sim.run(until=2.0, detect_deadlock=False)
        return reqs

    def test_bcast_delivers_per_request_copies(self):
        reqs = self._raw_collective("bcast")
        r1, r2 = reqs[1], reqs[2]
        assert r1.data is not None and r2.data is not None
        assert r1.data is not r2.data
        before = r2.data.copy()
        r1.data[...] = 0  # rank 1 scribbles over its receive buffer
        assert np.array_equal(r2.data, before), "sibling buffer corrupted"

    def test_allreduce_delivers_per_request_copies(self):
        reqs = self._raw_collective("allreduce", reduce_op="sum")
        r1, r2 = reqs[1], reqs[2]
        assert r1.data is not r2.data
        before = r2.data.copy()
        r1.data[...] = -1
        assert np.array_equal(r2.data, before), "sibling buffer corrupted"

    def test_every_op_kind_is_counted(self):
        """One job issues every staged collective kind plus p2p and
        one-sided ops: each collective bumps ``coll.<kind>`` once per
        participating node and every request ``req.<op>`` once per
        issuing rank."""
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=2))
        rt = DcgnRuntime(
            cluster,
            DcgnConfig.homogeneous(2, cpu_threads=2, windows={"w": 4}),
        )

        def kernel(ctx):
            n, me = ctx.size, ctx.rank
            buf = np.arange(4, dtype=np.float64) + me
            yield from ctx.barrier()
            yield from ctx.broadcast(0, buf)
            full = np.zeros(4 * n) if me == 0 else None
            yield from ctx.reduce(0, buf, np.zeros(4) if me == 0 else None)
            yield from ctx.allreduce(buf, np.zeros(4))
            yield from ctx.gather(0, buf, full)
            yield from ctx.scatter(0, np.zeros(4), full)
            yield from ctx.split(me % 2)
            yield from ctx.sendrecv((me + 1) % n, buf, (me - 1) % n,
                                    np.zeros(4))
            yield from ctx.put("w", (me + 1) % n, buf)
            yield from ctx.accumulate("w", (me + 1) % n, buf)
            yield from ctx.get("w", me, np.zeros(4))

        rt.launch_cpu(kernel)
        stats = rt.run().comm_stats()
        staged = ["barrier", "bcast", "reduce", "allreduce", "gather",
                  "scatter", "split"]
        for kind in staged:
            assert stats[f"coll.{kind}"] == 2, kind
        ops = staged + ["send", "recv", "rma_put", "rma_get",
                        "rma_accumulate"]
        for op in ops:
            assert stats[f"req.{op}"] == rt.size, op
        for op in ("rma_put", "rma_get", "rma_accumulate"):
            assert stats[f"rma.{op}"] == rt.size, op
