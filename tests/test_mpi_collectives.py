"""Tests for simulated-MPI collectives."""

import numpy as np
import pytest

from repro.hw import HWParams, build_cluster, paper_cluster
from repro.hw.params import IbParams
from repro.mpi import (
    CollectiveTuning,
    MpiContext,
    MpiError,
    MpiJob,
    ReduceOp,
    block_placement,
    round_robin_placement,
)
from repro.mpi import collectives
from repro.sim import Simulator, us


def make_job(n_ranks, n_nodes=None):
    n_nodes = n_nodes if n_nodes is not None else max(1, n_ranks // 2)
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
    job = MpiJob(cluster, block_placement(n_ranks, n_nodes))
    return sim, job


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 7, 8])
class TestBarrier:
    def test_barrier_synchronizes(self, n_ranks):
        sim, job = make_job(n_ranks, n_nodes=1 if n_ranks < 2 else 1)
        after = {}

        def prog(ctx):
            # Stagger arrivals; nobody leaves before the last arrives.
            yield ctx.sim.timeout(float(ctx.rank))
            yield from ctx.barrier()
            after[ctx.rank] = ctx.sim.now

        job.start(prog)
        job.run()
        latest_arrival = float(n_ranks - 1)
        assert all(t >= latest_arrival for t in after.values())


@pytest.mark.parametrize("n_ranks,root", [(2, 0), (4, 0), (4, 2), (8, 3), (5, 1)])
class TestBcast:
    def test_bcast_delivers_payload(self, n_ranks, root):
        sim, job = make_job(n_ranks, n_nodes=1)
        result = {}

        def prog(ctx):
            buf = np.zeros(16, dtype=np.float64)
            if ctx.rank == root:
                buf[:] = np.arange(16) + 100
            yield from ctx.bcast(buf, root=root)
            result[ctx.rank] = buf.copy()

        job.start(prog)
        job.run()
        expected = np.arange(16) + 100.0
        for r in range(n_ranks):
            assert np.array_equal(result[r], expected), f"rank {r}"


class TestReduce:
    @pytest.mark.parametrize("op,expected", [
        (ReduceOp.SUM, 0 + 1 + 2 + 3),
        (ReduceOp.MAX, 3),
        (ReduceOp.MIN, 0),
        (ReduceOp.PROD, 0),
    ])
    def test_reduce_ops(self, op, expected):
        sim, job = make_job(4, n_nodes=2)
        result = {}

        def prog(ctx):
            send = np.array([float(ctx.rank)])
            recv = np.zeros(1) if ctx.rank == 0 else None
            yield from ctx.reduce(send, recv, op=op, root=0)
            if ctx.rank == 0:
                result["v"] = float(recv[0])

        job.start(prog)
        job.run()
        assert result["v"] == pytest.approx(expected)

    def test_reduce_vector_nonzero_root(self):
        sim, job = make_job(5, n_nodes=1)
        result = {}

        def prog(ctx):
            send = np.full(8, float(ctx.rank + 1))
            recv = np.zeros(8) if ctx.rank == 3 else None
            yield from ctx.reduce(send, recv, op=ReduceOp.SUM, root=3)
            if ctx.rank == 3:
                result["v"] = recv.copy()

        job.start(prog)
        job.run()
        assert np.allclose(result["v"], 15.0)  # 1+2+3+4+5

    def test_allreduce(self):
        sim, job = make_job(4, n_nodes=2)
        result = {}

        def prog(ctx):
            send = np.array([float(2 ** ctx.rank)])
            recv = np.zeros(1)
            yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
            result[ctx.rank] = float(recv[0])

        job.start(prog)
        job.run()
        assert all(v == pytest.approx(15.0) for v in result.values())


class TestGatherScatter:
    def test_gather(self):
        sim, job = make_job(4, n_nodes=2)
        result = {}

        def prog(ctx):
            send = np.full(4, float(ctx.rank))
            if ctx.rank == 0:
                recvbufs = [np.zeros(4) for _ in range(4)]
                yield from ctx.gather(send, recvbufs, root=0)
                result["rows"] = [b.copy() for b in recvbufs]
            else:
                yield from ctx.gather(send, None, root=0)

        job.start(prog)
        job.run()
        for r, row in enumerate(result["rows"]):
            assert np.allclose(row, float(r))

    def test_gatherv_unequal_sizes(self):
        sim, job = make_job(3, n_nodes=1)
        result = {}

        def prog(ctx):
            send = np.arange(ctx.rank + 1, dtype=np.float64)
            if ctx.rank == 0:
                recvbufs = [np.zeros(r + 1) for r in range(3)]
                yield from ctx.gather(send, recvbufs, root=0)
                result["rows"] = [b.copy() for b in recvbufs]
            else:
                yield from ctx.gather(send, None, root=0)

        job.start(prog)
        job.run()
        for r, row in enumerate(result["rows"]):
            assert np.array_equal(row, np.arange(r + 1, dtype=np.float64))

    def test_scatter(self):
        sim, job = make_job(4, n_nodes=2)
        result = {}

        def prog(ctx):
            recv = np.zeros(2)
            if ctx.rank == 1:
                sendbufs = [np.full(2, float(10 * r)) for r in range(4)]
                yield from ctx.scatter(sendbufs, recv, root=1)
            else:
                yield from ctx.scatter(None, recv, root=1)
            result[ctx.rank] = recv.copy()

        job.start(prog)
        job.run()
        for r in range(4):
            assert np.allclose(result[r], 10.0 * r)

    def test_allgather(self):
        sim, job = make_job(4, n_nodes=2)
        result = {}

        def prog(ctx):
            send = np.array([float(ctx.rank ** 2)])
            recvbufs = [np.zeros(1) for _ in range(4)]
            yield from ctx.allgather(send, recvbufs)
            result[ctx.rank] = [float(b[0]) for b in recvbufs]

        job.start(prog)
        job.run()
        for r in range(4):
            assert result[r] == [0.0, 1.0, 4.0, 9.0]

    def test_alltoall(self):
        sim, job = make_job(4, n_nodes=2)
        result = {}

        def prog(ctx):
            sendbufs = [
                np.array([float(ctx.rank * 10 + dst)]) for dst in range(4)
            ]
            recvbufs = [np.zeros(1) for _ in range(4)]
            yield from ctx.alltoall(sendbufs, recvbufs)
            result[ctx.rank] = [float(b[0]) for b in recvbufs]

        job.start(prog)
        job.run()
        # Rank r receives src*10 + r from each src.
        for r in range(4):
            assert result[r] == [float(s * 10 + r) for s in range(4)]


class TestOpTable:
    """Each collective is one entry of ``collectives.OPS``; both
    ``MpiContext`` methods are generated from it."""

    def test_methods_come_from_the_table(self):
        assert sorted(collectives.OPS) == [
            "allgather", "allreduce", "alltoall", "barrier", "bcast",
            "gather", "reduce", "scatter",
        ]
        for name, build in collectives.OPS.items():
            for method in (name, "i" + name):
                fn = MpiContext.__dict__[method]
                assert fn.__wrapped__ is build
                assert fn.__name__ == method
                assert not hasattr(collectives, method)

    def test_mpi_signatures(self):
        import inspect

        def params(method):
            sig = inspect.signature(MpiContext.__dict__[method])
            return [(p.name, p.default) for p in sig.parameters.values()]

        empty = inspect.Parameter.empty
        reduce_args = [("self", empty), ("sendbuf", empty),
                       ("recvbuf", empty), ("op", ReduceOp.SUM)]
        expected = {
            "barrier": [("self", empty)],
            "bcast": [("self", empty), ("buf", empty), ("root", 0)],
            "reduce": reduce_args + [("root", 0)],
            "allreduce": reduce_args,
            "allgather": [("self", empty), ("sendbuf", empty),
                          ("recvbuf", empty)],
            "alltoall": [("self", empty), ("sendbufs", empty),
                         ("recvbufs", empty)],
            "gather": [("self", empty), ("sendbuf", empty),
                       ("recvbufs", None), ("root", 0)],
            "scatter": [("self", empty), ("sendbufs", empty),
                        ("recvbuf", empty), ("root", 0)],
        }
        for name, want in expected.items():
            assert params(name) == want, name
            assert params("i" + name) == want, "i" + name
            sig = inspect.signature(MpiContext.__dict__["i" + name])
            assert sig.return_annotation == "Request"

    @pytest.mark.parametrize("op", ["igather", "iscatter"])
    def test_linear_i_forms_validate_at_issue(self, op):
        """A root short of one buffer per rank gets the MpiError from
        the call itself, not later from the background process."""
        sim, job = make_job(4, n_nodes=2)
        errors = []

        def prog(ctx):
            yield ctx.sim.timeout(0)
            if ctx.rank != 0:
                return
            bufs = [np.zeros(2) for _ in range(3)]
            try:
                if op == "igather":
                    ctx.igather(np.zeros(2), bufs, root=0)
                else:
                    ctx.iscatter(bufs, np.zeros(2), root=0)
            except MpiError as exc:
                errors.append(str(exc))

        job.start(prog)
        job.run()
        side = "recv" if op == "igather" else "send"
        assert errors == [f"root needs one {side} buffer per rank"]

    @pytest.mark.parametrize("op,send,got", [
        ("gather", 16, 24),
        ("scatter", 24, 16),
    ])
    def test_root_own_block_size_mismatch_is_typed(self, op, send, got):
        """The root's own block must match its other buffer in size:
        an MpiError naming both sizes, not a numpy reshape error."""
        sim, job = make_job(2, n_nodes=1)

        def prog(ctx):
            yield ctx.sim.timeout(0)
            if ctx.rank != 0:
                return
            bufs = [np.zeros(3), np.zeros(2)]
            if op == "gather":
                yield from ctx.gather(np.zeros(2), bufs, root=0)
            else:
                yield from ctx.scatter(bufs, np.zeros(2), root=0)

        job.start(prog)
        with pytest.raises(MpiError, match=(
            f"{op}: send buffer is {send} B but the root's own block "
            f"is {got} B"
        )):
            job.run()

    @pytest.mark.parametrize("backend", ["exact", "analytic"])
    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_short_contribution_raises(self, op, backend):
        """A rank sending 8 B into a 16 B gather block (or the root
        sending 8 B into a 16 B scatter receive) used to leave the
        block's stale tail in place; it is the same short collective
        receive a bcast raises."""
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=2))
        job = MpiJob(cluster, block_placement(2, 2), backend=backend)

        def prog(ctx):
            if op == "gather":
                mine = np.full(1 if ctx.rank else 2, 7.0)
                full = [np.full(2, -1.0) for _ in range(2)]
                yield from ctx.gather(mine, full if ctx.rank == 0 else None)
            else:
                pieces = [np.full(2, 7.0), np.full(1, 7.0)]
                recv = np.full(2, -1.0)
                yield from ctx.scatter(pieces if ctx.rank == 0 else None,
                                       recv)

        job.start(prog)
        with pytest.raises(MpiError, match=(
            rf"{op}: a rank received 8 B into a 16 B buffer \(ranks "
            r"disagree on the count\)"
        )):
            job.run()


class TestCollectiveTiming:
    def _barrier_time(self, n_ranks, n_nodes):
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
        job = MpiJob(cluster, block_placement(n_ranks, n_nodes))

        def prog(ctx):
            yield from ctx.barrier()

        job.start(prog)
        job.run()
        return sim.now

    def test_barrier_scales_logarithmically(self):
        t2 = self._barrier_time(2, 1)
        t8 = self._barrier_time(8, 4)
        # 3 rounds vs 1 round; inter-node latency higher than intra.
        assert t8 > t2
        assert t8 < 20 * t2  # sanity: not linear blow-up

    def test_paper_table1_mpi_barrier_anchors(self):
        """MVAPICH2 barrier anchors: ~3/5/6 µs for 2/4/8 ranks (Table 1)."""
        t2 = self._barrier_time(2, 1) / us(1.0)
        t4 = self._barrier_time(4, 2) / us(1.0)
        t8 = self._barrier_time(8, 4) / us(1.0)
        assert 1.0 <= t2 <= 6.0, f"2-rank barrier {t2:.2f} µs"
        assert 2.5 <= t4 <= 10.0, f"4-rank barrier {t4:.2f} µs"
        assert 3.5 <= t8 <= 12.0, f"8-rank barrier {t8:.2f} µs"
        assert t2 < t4 < t8

    def test_bcast_time_grows_with_size(self):
        def bcast_time(nbytes):
            sim = Simulator()
            cluster = build_cluster(sim, paper_cluster(nodes=4))
            job = MpiJob(cluster, block_placement(8, 4))

            def prog(ctx):
                buf = np.zeros(nbytes, dtype=np.uint8)
                yield from ctx.bcast(buf, root=0)

            job.start(prog)
            job.run()
            return sim.now

        t_small = bcast_time(1024)
        t_big = bcast_time(1024 * 1024)
        assert t_big > 5 * t_small


def test_failed_wire_step_raises_from_the_exact_engine(monkeypatch):
    """A wire step that fails at the instant another step of the same
    wave completes must surface its own error from the collective, not
    be counted as done (which corrupts the reduction downstream)."""
    from repro.mpi.communicator import Communicator

    def send_impl(self, src, dst, buf, tag, copy=True, donate=False):
        yield self.sim.timeout(1.0)

    def recv_impl(self, me, src, buf, tag):
        yield self.sim.timeout(1.0)
        raise MpiError("injected receive failure")

    monkeypatch.setattr(Communicator, "_send_impl", send_impl)
    monkeypatch.setattr(Communicator, "_recv_impl", recv_impl)
    sim, job = make_job(2, n_nodes=1)

    def prog(ctx):
        send = np.arange(4, dtype=np.float64)
        recv = np.zeros(4, dtype=np.float64)
        yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)

    job.start(prog)
    with pytest.raises(MpiError, match="injected receive failure"):
        job.run()


def test_wire_step_failing_before_its_first_yield_raises_in_the_caller(
    monkeypatch,
):
    """A wire step starts inline, so its generator can raise while the
    engine is still starting steps: the error must reach the collective's
    caller, not escape ``sim.run()`` and not hang the job."""
    from repro.mpi.communicator import Communicator

    def send_impl(self, src, dst, buf, tag, copy=True, donate=False):
        raise MpiError("injected send failure")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(Communicator, "_send_impl", send_impl)
    sim, job = make_job(4, n_nodes=2)
    caught = {}

    def prog(ctx):
        send = np.arange(4, dtype=np.float64)
        recv = np.zeros(4, dtype=np.float64)
        try:
            yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
        except MpiError as exc:
            caught[ctx.rank] = str(exc)

    job.start(prog)
    job.run()
    assert caught == {r: "injected send failure" for r in range(4)}


def test_hung_collective_names_its_pending_wire_step():
    """With no process per wire step, a deadlock chain ends at the
    collective's completion event, whose name gives the op, the rank
    and each step still in flight (kind, peer and tag)."""
    from repro.sim import DeadlockError

    sim, job = make_job(4, n_nodes=2)

    def prog(ctx):
        send = np.ones(4, dtype=np.float64)
        recv = np.zeros(4, dtype=np.float64)
        if ctx.rank != 3:
            yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)

    job.start(prog)
    with pytest.raises(DeadlockError) as err:
        job.run()
    chain = next(c for c in err.value.chains if c[0] == "mpi.rank0")
    assert chain[-1].startswith("allreduce(r0): ")
    assert "recv<-" in chain[-1] and " tag " in chain[-1]
    assert "allreduce(r0): recv<-" in str(err.value)


def test_exact_allreduce_creates_one_process_per_rank(monkeypatch):
    """Wire steps are continuations driven by the engine: an 8-rank
    exact allreduce constructs the rank processes and nothing else."""
    from repro.sim import Process

    made = []
    init = Process.__init__

    def counting_init(self, sim, gen, name=""):
        made.append(name)
        init(self, sim, gen, name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    sim, job = make_job(8)

    def prog(ctx):
        send = np.full(1024, float(ctx.rank))
        recv = np.zeros(1024)
        yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
        assert np.all(recv == sum(range(8)))

    job.start(prog)
    job.run()
    assert sorted(made) == sorted(f"mpi.rank{r}" for r in range(8))


def test_exact_collective_buffers_need_no_cycle_collector(monkeypatch):
    """No reference cycle may keep a finished collective's buffers
    alive: with the cyclic GC off, reference counting alone frees the
    receive buffer and the engine's staging arrays (1 MB payloads)."""
    import gc
    import weakref

    from repro.mpi.algorithms import schedule

    refs = []
    materialize = schedule.materialize

    def tracking(binding, scratch):
        bufs = materialize(binding, scratch)
        refs.extend(weakref.ref(b) for b in bufs
                    if isinstance(b, np.ndarray))
        return bufs

    monkeypatch.setattr(schedule, "materialize", tracking)
    n = (1 << 20) // 8

    def prog(ctx):
        send = np.full(n, float(ctx.rank))
        recv = np.zeros(n)
        yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
        assert recv[0] == recv[-1] == sum(range(8))

    gc.collect()
    gc.disable()
    try:
        sim, job = make_job(8)
        job.start(prog)
        job.run()
        assert len(refs) > 16  # send + recv + staging, on every rank
        del sim, job
        alive = [r() for r in refs if r() is not None]
        assert not alive, f"{len(alive)} buffers outlive the job"
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Strided buffers: a typed error at bind time where bytes move, the same on
# every backend; reductions copy their result into a strided recv by value
# ---------------------------------------------------------------------------

BACKENDS = ("exact", "analytic", "pricing")


def _strided_job(backend, tuning=None):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=4))
    return MpiJob(cluster, block_placement(4, 4), backend=backend,
                  tuning=tuning)


def _strided(n, dtype=np.float64):
    """A zeroed non-contiguous ``n``-vector."""
    return np.zeros((n, 2), dtype=dtype)[:, 0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("call,match", [
    (lambda ctx: ctx.bcast(_strided(8), 0),
     r"bcast: rank \d's buffer is not C-contiguous"),
    (lambda ctx: ctx.ibcast(_strided(8), 0),
     r"bcast: rank \d's buffer is not C-contiguous"),
    (lambda ctx: ctx.allgather(np.ones(2), _strided(8)),
     r"allgather: rank \d's buffer is not C-contiguous"),
    (lambda ctx: ctx.allgather(
        np.ones(2), [np.zeros(2)] * 3 + [_strided(2)]),
     r"allgather: rank \d's buffer is not C-contiguous"),
    (lambda ctx: ctx.alltoall([_strided(2)] * 4, [np.zeros(2)] * 4),
     r"alltoall: rank \d's buffer is not C-contiguous"),
    (lambda ctx: ctx.gather(np.ones(2), [_strided(2)] * 4, root=1)
     if ctx.rank == 1 else ctx.gather(np.ones(2), root=1),
     r"gather: rank 1's recv buffer is not C-contiguous"),
    (lambda ctx: ctx.scatter([np.ones(2)] * 4, _strided(2), root=0)
     if ctx.rank == 0 else ctx.scatter(None, _strided(2), root=0),
     r"scatter: rank [123]'s recv buffer is not C-contiguous"),
])
def test_strided_buffer_is_a_typed_error(backend, call, match):
    """A strided buffer a collective moves as bytes raises a typed
    ``MpiError`` naming the op and the rank, at issue, on every
    backend (it used to die in numpy on exact and analytic, and pass
    silently on pricing)."""
    job = _strided_job(backend)

    def prog(ctx):
        out = call(ctx)
        if not hasattr(out, "wait"):
            yield from out

    job.start(prog)
    with pytest.raises(MpiError, match=match):
        job.run()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [8, 131072])
def test_allreduce_into_a_strided_recv_works(backend, n):
    """Reductions copy their result into the recv buffer by value, so a
    strided recv (and a strided send, read into the accumulator by
    value) works at every size."""
    job = _strided_job(backend)
    got = {}

    def prog(ctx):
        send = np.zeros((n, 3))
        send[:, 1] = np.arange(n) + ctx.rank
        recv = _strided(n)
        yield from ctx.allreduce(send[:, 1], recv)
        got[ctx.rank] = recv.copy()

    job.start(prog)
    job.run()
    want = 4 * np.arange(n) + sum(range(4))
    for r in range(4):
        if backend == "pricing":
            assert not got[r].any()
        else:
            np.testing.assert_array_equal(got[r], want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reduce_bcast_allreduce_rejects_a_strided_recv(backend):
    """``reduce_bcast`` broadcasts into the recv buffer, so there a
    strided recv is the broadcast's typed error."""
    job = _strided_job(backend,
                       CollectiveTuning(force_allreduce="reduce_bcast"))
    job.start(lambda ctx: ctx.allreduce(np.ones(8), _strided(8)))
    with pytest.raises(MpiError,
                       match=r"allreduce: rank \d's recv buffer is not"):
        job.run()
