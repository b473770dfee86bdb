"""Tests for simulated-MPI point-to-point communication."""

import numpy as np
import pytest

from repro.hw import HWParams, build_cluster, paper_cluster, single_node
from repro.hw.params import IbParams
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    HEADER_BYTES,
    MpiJob,
    RankError,
    TagError,
    TruncationError,
    block_placement,
)
from repro.sim import Simulator, us


def make_job(n_ranks=2, n_nodes=2, **ib_kw):
    sim = Simulator()
    params = HWParams(ib=IbParams(**ib_kw)) if ib_kw else HWParams()
    spec = paper_cluster(nodes=n_nodes, params=params)
    cluster = build_cluster(sim, spec)
    placement = block_placement(n_ranks, n_nodes)
    return sim, MpiJob(cluster, placement)


class TestSendRecv:
    def test_pingpong_data_integrity(self):
        sim, job = make_job()
        result = {}

        def prog(ctx):
            x = np.zeros(8, dtype=np.int64)
            if ctx.rank == 0:
                x[:] = np.arange(8)
                yield from ctx.send(x, dest=1, tag=0)
                yield from ctx.recv(x, source=1, tag=0)
                result["final"] = x.copy()
            else:
                yield from ctx.recv(x, source=0, tag=0)
                x *= 2
                yield from ctx.send(x, dest=0, tag=0)

        job.start(prog)
        job.run()
        assert np.array_equal(result["final"], np.arange(8) * 2)

    def test_send_snapshot_semantics(self):
        """Modifying the send buffer after send must not corrupt the message."""
        sim, job = make_job()
        result = {}

        def prog(ctx):
            if ctx.rank == 0:
                x = np.array([1, 2, 3], dtype=np.int32)
                req = ctx.isend(x, dest=1)
                x[:] = 99  # overwrite after isend
                yield from req.wait()
            else:
                y = np.zeros(3, dtype=np.int32)
                yield from ctx.recv(y, source=0)
                result["y"] = y.copy()

        job.start(prog)
        job.run()
        assert list(result["y"]) == [1, 2, 3]

    def test_isend_copies_payload_once(self, monkeypatch):
        """The issue-time snapshot is the isend's only payload copy: it
        ships as is (donated, so the receiver may still adopt it)."""
        import repro.mpi.communicator as communicator

        real = communicator.snapshot
        copies = []

        def counting(obj, copy=True):
            data = real(obj, copy)
            if copy and data is not None:
                copies.append(data.nbytes)
            return data

        monkeypatch.setattr(communicator, "snapshot", counting)
        sim, job = make_job()

        def prog(ctx):
            x = np.full(4, float(ctx.rank))
            req = ctx.isend(x, dest=1 - ctx.rank, tag=1)
            yield from ctx.recv(np.zeros(4), source=1 - ctx.rank, tag=1)
            yield from req.wait()

        job.start(prog)
        job.run()
        assert copies == [32, 32]
        assert sim.stats.payload_copies == 2

    def test_any_source_any_tag(self):
        sim, job = make_job(n_ranks=4, n_nodes=2)
        result = {}

        def prog(ctx):
            if ctx.rank == 0:
                buf = np.zeros(1, dtype=np.int64)
                seen = []
                for _ in range(3):
                    st = yield from ctx.recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                    seen.append((st.source, st.tag, int(buf[0])))
                result["seen"] = seen
            else:
                data = np.array([ctx.rank * 100], dtype=np.int64)
                yield from ctx.send(data, dest=0, tag=ctx.rank)

        job.start(prog)
        job.run()
        seen = result["seen"]
        assert sorted(s[0] for s in seen) == [1, 2, 3]
        for src, tag, val in seen:
            assert tag == src
            assert val == src * 100

    def test_message_ordering_non_overtaking(self):
        sim, job = make_job()
        result = {}

        def prog(ctx):
            if ctx.rank == 0:
                for i in range(10):
                    yield from ctx.send(
                        np.array([i], dtype=np.int32), dest=1, tag=5
                    )
            else:
                got = []
                buf = np.zeros(1, dtype=np.int32)
                for _ in range(10):
                    yield from ctx.recv(buf, source=0, tag=5)
                    got.append(int(buf[0]))
                result["got"] = got

        job.start(prog)
        job.run()
        assert result["got"] == list(range(10))

    def test_tag_selection(self):
        sim, job = make_job()
        result = {}

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(np.array([1.0]), dest=1, tag=7)
                yield from ctx.send(np.array([2.0]), dest=1, tag=8)
            else:
                buf = np.zeros(1)
                # Receive tag 8 first even though tag 7 arrived first.
                yield from ctx.recv(buf, source=0, tag=8)
                first = buf[0]
                yield from ctx.recv(buf, source=0, tag=7)
                result["order"] = (first, buf[0])

        job.start(prog)
        job.run()
        assert result["order"] == (2.0, 1.0)

    def test_rendezvous_large_message(self):
        sim, job = make_job(eager_threshold=1024)
        result = {}
        n = 100_000  # 800 KB -> rendezvous

        def prog(ctx):
            if ctx.rank == 0:
                data = np.arange(n, dtype=np.float64)
                yield from ctx.send(data, dest=1)
            else:
                buf = np.zeros(n, dtype=np.float64)
                yield from ctx.recv(buf, source=0)
                result["sum"] = float(buf.sum())

        job.start(prog)
        job.run()
        assert result["sum"] == pytest.approx(n * (n - 1) / 2)

    def test_rendezvous_slower_than_eager_for_same_size(self):
        """The handshake adds latency: same payload, higher time."""
        times = {}
        for label, thresh in (("eager", 1 << 30), ("rndv", 16)):
            sim, job = make_job(eager_threshold=thresh)

            def prog(ctx):
                data = np.zeros(512, dtype=np.uint8)
                if ctx.rank == 0:
                    yield from ctx.send(data, dest=1)
                else:
                    yield from ctx.recv(data, source=0)

            job.start(prog)
            job.run()
            times[label] = sim.now
        assert times["rndv"] > times["eager"]

    def test_self_send(self):
        sim, job = make_job(n_ranks=2, n_nodes=2)
        result = {}

        def prog0(ctx):
            req = ctx.isend(np.array([42]), dest=0, tag=3)
            buf = np.zeros(1, dtype=np.int64)
            yield from ctx.recv(buf, source=0, tag=3)
            yield from req.wait()
            result["val"] = int(buf[0])

        def prog1(ctx):
            yield ctx.sim.timeout(0.0)

        job.start(prog0, ranks=[0])
        job.start(prog1, ranks=[1])
        job.run()
        assert result["val"] == 42

    def test_truncation_error(self):
        sim, job = make_job()

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(np.zeros(100), dest=1)
            else:
                buf = np.zeros(10)
                yield from ctx.recv(buf, source=0)

        job.start(prog)
        with pytest.raises(TruncationError):
            job.run()

    def test_invalid_rank_and_tag(self):
        sim, job = make_job()

        def bad_rank(ctx):
            yield from ctx.send(np.zeros(1), dest=99)

        def bad_tag(ctx):
            yield from ctx.send(np.zeros(1), dest=1, tag=-5)

        job.start(bad_rank, ranks=[0])
        with pytest.raises(RankError):
            job.run()

        sim2, job2 = make_job()
        job2.start(bad_tag, ranks=[0])

        def idle(ctx):
            yield ctx.sim.timeout(0.0)

        job2.start(idle, ranks=[1])
        with pytest.raises(TagError):
            job2.run()


class TestP2pSpans:
    """The span shape of one eager and one rendezvous exchange on the
    exact backend: names, categories, protocol attrs, and each receive
    wait linked to the sender's span."""

    def _spans(self, nbytes, tag):
        sim, job = make_job(eager_threshold=1024)
        rec = sim.attach_spans()

        def prog(ctx):
            buf = np.zeros(nbytes, dtype=np.uint8)
            if ctx.rank == 0:
                yield from ctx.send(buf, dest=1, tag=tag)
            else:
                yield from ctx.recv(buf, source=0, tag=tag)

        job.start(prog)
        job.run()
        per_track = {}
        for sp in rec.spans:
            if sp.category in ("overhead", "p2p.send", "p2p.wait"):
                per_track.setdefault(sp.track, []).append(sp)
        return [per_track[job.comm.span_track(r)] for r in (0, 1)]

    @staticmethod
    def _shape(spans):
        return [(sp.name, sp.category, sp.attrs) for sp in spans]

    def test_eager_exchange(self):
        send, recv = self._spans(64, tag=5)
        assert self._shape(send) == [
            ("sw", "overhead", None),
            ("send->1", "p2p.send",
             {"nbytes": 64, "tag": 5, "proto": "eager"}),
        ]
        assert self._shape(recv) == [
            ("sw", "overhead", None),
            ("recv<-0", "p2p.wait", {"tag": 5}),
        ]
        assert recv[1].link == send[1].sid
        assert send[0].link is None and send[1].link is None

    def test_rendezvous_exchange(self):
        n = 4096
        send, recv = self._spans(n, tag=6)
        assert self._shape(send) == [
            ("sw", "overhead", None),
            ("rts->1", "p2p.send", {"nbytes": n, "tag": 6, "proto": "rndv"}),
            ("cts<-1", "p2p.wait", None),
            ("payload->1", "p2p.send", {"nbytes": n, "proto": "rndv"}),
        ]
        assert self._shape(recv) == [
            ("sw", "overhead", None),
            ("recv<-0", "p2p.wait", {"tag": 6}),
            ("cts->0", "p2p.send", {"nbytes": HEADER_BYTES}),
            ("payload<-0", "p2p.wait", {"nbytes": n}),
        ]
        rts = send[1].sid
        assert [sp.link for sp in recv] == [None, rts, None, rts]
        assert [sp.link for sp in send] == [None, None, None, None]
        # The handshake legs are back to back on each side.
        for a, b in zip(send[1:], send[2:]):
            assert a.t1 == b.t0
        assert recv[2].t1 == recv[3].t0


class TestSendrecv:
    def test_sendrecv_replace_ring(self):
        """Rotate values around a 4-rank ring, Cannon-style."""
        sim, job = make_job(n_ranks=4, n_nodes=4)
        result = {}

        def prog(ctx):
            buf = np.array([ctx.rank], dtype=np.int64)
            right = (ctx.rank + 1) % 4
            left = (ctx.rank - 1) % 4
            yield from ctx.sendrecv_replace(
                buf, dest=right, source=left, sendtag=1, recvtag=1
            )
            result[ctx.rank] = int(buf[0])

        job.start(prog)
        job.run()
        assert result == {0: 3, 1: 0, 2: 1, 3: 2}

    def test_sendrecv_distinct_buffers(self):
        sim, job = make_job()
        result = {}

        def prog(ctx):
            other = 1 - ctx.rank
            out = np.array([ctx.rank + 10.0])
            incoming = np.zeros(1)
            yield from ctx.sendrecv(
                out, dest=other, recvbuf=incoming, source=other
            )
            result[ctx.rank] = float(incoming[0])

        job.start(prog)
        job.run()
        assert result == {0: 11.0, 1: 10.0}


class TestTimingShape:
    def test_intra_node_faster_than_inter_node(self):
        def one_way(n_nodes, placement):
            sim = Simulator()
            cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
            job = MpiJob(cluster, placement)
            t = {}

            def prog(ctx):
                buf = np.zeros(1024, dtype=np.uint8)
                if ctx.rank == 0:
                    t0 = ctx.sim.now
                    yield from ctx.send(buf, dest=1)
                else:
                    yield from ctx.recv(buf, source=0)
                    t["dt"] = ctx.sim.now

            job.start(prog)
            job.run()
            return t["dt"]

        intra = one_way(1, [0, 0])
        inter = one_way(2, [0, 1])
        assert intra < inter

    def test_latency_dominates_small_bandwidth_dominates_large(self):
        sim, job = make_job()
        times = {}

        def prog(ctx, nbytes, key):
            buf = np.zeros(nbytes, dtype=np.uint8)
            if ctx.rank == 0:
                yield from ctx.send(buf, dest=1)
            else:
                yield from ctx.recv(buf, source=0)
                times[key] = ctx.sim.now

        # 0 B vs 1 B: nearly identical (latency-bound).
        sim1, job1 = make_job()
        job1.start(lambda ctx: prog(ctx, 1, "b1"))
        job1.run()
        sim0, job0 = make_job()
        job0.start(lambda ctx: prog(ctx, 0 or 1, "b0"))  # 1-byte placeholder
        job0.run()
        # 1 MB ≫ 1 B.
        simM, jobM = make_job()
        jobM.start(lambda ctx: prog(ctx, 1 << 20, "bM"))
        jobM.run()
        assert times["bM"] > 10 * times["b1"]


class TestWildcardInternalIsolation:
    """ANY_TAG wildcards must never match internal collective traffic.

    Regression: the schedule-exploration checker (repro.check,
    comm-free-drain scenario) found seeds where a user ``irecv`` posted
    with ``ANY_TAG`` consumed an internal barrier message (tag >=
    INTERNAL_TAG_BASE), starving the barrier's own receive and
    deadlocking ranks that were still inside the collective.
    """

    def test_any_tag_skips_internal_messages(self):
        from repro.sim import ExploringSimulator
        from repro.mpi import block_placement, MpiJob
        from repro.hw import build_cluster, paper_cluster

        # The mis-match was schedule-dependent: sweep several seeds of
        # an iallreduce racing a wildcard irecv + barrier.
        for seed in range(10):
            sim = ExploringSimulator(seed=seed)
            cluster = build_cluster(sim, paper_cluster(nodes=2))
            job = MpiJob(cluster, block_placement(2, 2))
            got = {}

            def prog(ctx):
                out = np.zeros(64)
                req = ctx.iallreduce(np.ones(64), out)
                if ctx.rank == 0:
                    yield from ctx.send(np.full(4, 7.0), dest=1, tag=3)
                else:
                    buf = np.zeros(4)
                    st = yield from ctx.recv(
                        buf, source=ANY_SOURCE, tag=ANY_TAG
                    )
                    got["status"] = st
                    got["buf"] = buf.copy()
                yield from ctx.barrier()
                yield from req.wait()
                got[f"allreduce{ctx.rank}"] = out.copy()

            job.start(prog)
            job.run()
            # The wildcard matched the *user* message, not an internal one.
            assert got["status"].tag == 3
            assert np.all(got["buf"] == 7.0)
            assert np.all(got["allreduce0"] == 2.0)
            assert np.all(got["allreduce1"] == 2.0)
