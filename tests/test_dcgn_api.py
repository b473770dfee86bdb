"""The unified DCGN kernel API: one op table over the CPU-thread and
GPU-slot transports, with the world as group 0.

* parity: every table op, from CPU threads and from GPU slots, in the
  world and in a declared group, blocking and nonblocking, checked
  against numpy;
* the world and ``group("world")`` share one collective counter;
* reduce-op names and oversized ``nbytes`` are rejected at issue, as
  catchable kernel errors;
* CPU ``sendrecv`` requests record the ``dcgn.req`` stage instants
  the overhead breakdown reads.
"""

import numpy as np
import pytest

from repro.bench.breakdown import request_stages
from repro.dcgn import CommViolation, DcgnConfig, DcgnRuntime
from repro.hw import build_cluster, paper_cluster
from repro.sim import Simulator

#: Declared group whose group ranks differ from its virtual ranks;
#: vrank 1 is not a member.
GROUP = (3, 0, 2)
WIN = 8


def make_runtime(surface, **kw):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    if surface == "cpu":
        cfg = DcgnConfig.homogeneous(2, cpu_threads=2, **kw)
    else:
        cfg = DcgnConfig.homogeneous(
            2, cpu_threads=0, gpus=1, slots_per_gpu=2, **kw
        )
    return DcgnRuntime(cluster, cfg)


def issue(ep, blocking, name, *args, **kwargs):
    """Call op ``name`` in its blocking form, or as ``i<name>`` + wait."""
    if blocking:
        status = yield from getattr(ep, name)(*args, **kwargs)
        return status
    handle = yield from getattr(ep, "i" + name)(*args, **kwargs)
    status = yield from handle.wait()
    assert handle.test()
    return status


def body(op, ep, members, blocking, alloc, read):
    """One member's part of ``op``; returns what it received."""
    r, n = ep.rank, ep.size
    assert members[r] == ep.vrank and len(members) == n
    v = float(ep.vrank)
    if op == "p2p":
        out = alloc(np.zeros(4))
        dest, src = members[(r + 1) % n], members[(r - 1) % n]
        for step in ((0, 1) if r % 2 == 0 else (1, 0)):
            if step == 0:
                yield from issue(ep, blocking, "send", dest, alloc(np.full(4, v)))
            else:
                st = yield from issue(ep, blocking, "recv", src, out)
                assert st.source == src
        return read(out)
    if op == "put":
        right = members[(r + 1) % n]
        yield from issue(ep, blocking, "put", "w", right, alloc(np.full(WIN, v)))
        return None
    if op == "get":
        out = alloc(np.zeros(WIN))
        yield from issue(ep, blocking, "get", "w", members[(r + 1) % n], out)
        return read(out)
    if op == "accumulate":
        yield from issue(
            ep, blocking, "accumulate", "w", members[0],
            alloc(np.full(WIN, v + 1.0)), op="sum",
        )
        return None
    if op == "barrier":
        yield from issue(ep, blocking, "barrier")
        return None
    if op == "broadcast":
        buf = alloc(np.full(4, v if r == 1 else -1.0))
        yield from issue(ep, blocking, "broadcast", 1, buf)
        return read(buf)
    if op == "allreduce":
        out = alloc(np.zeros(4))
        yield from issue(ep, blocking, "allreduce", alloc(np.full(4, v + 1.0)), out)
        return read(out)
    if op == "reduce":
        out = alloc(np.zeros(4)) if r == 2 else None
        yield from issue(
            ep, blocking, "reduce", 2, alloc(np.full(4, v + 1.0)), out,
            op="max",
        )
        return None if out is None else read(out)
    if op == "gather":
        out = alloc(np.zeros(2 * n)) if r == 0 else None
        yield from issue(ep, blocking, "gather", 0, alloc(np.full(2, v)), out)
        return None if out is None else read(out)
    assert op == "scatter"
    full = alloc(np.arange(2.0 * n)) if r == 1 else None
    out = alloc(np.zeros(2))
    yield from issue(ep, blocking, "scatter", 1, out, full)
    return read(out)


def expected(op, members, v):
    """numpy reference for member ``v`` of ``members``."""
    n, r = len(members), members.index(v)
    if op == "p2p":
        return np.full(4, members[(r - 1) % n])
    if op == "get":
        return np.full(WIN, 100.0 + members[(r + 1) % n])
    if op == "broadcast":
        return np.full(4, float(members[1]))
    if op == "allreduce":
        return np.full(4, sum(m + 1.0 for m in members))
    if op == "reduce":
        return np.full(4, max(m + 1.0 for m in members)) if r == 2 else None
    if op == "gather":
        return np.repeat(np.array(members, float), 2) if r == 0 else None
    if op == "scatter":
        return np.arange(2.0 * r, 2.0 * r + 2)
    return None


OPS = ["p2p", "put", "get", "accumulate", "barrier", "broadcast",
       "allreduce", "reduce", "gather", "scatter"]


@pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "nonblocking"])
@pytest.mark.parametrize("scope", ["world", "group"])
@pytest.mark.parametrize("surface", ["cpu", "gpu"])
@pytest.mark.parametrize("op", OPS)
def test_op_parity(op, surface, scope, blocking):
    rt = make_runtime(surface, windows={"w": WIN}, slot_groups={"g": GROUP})
    members = list(range(rt.size)) if scope == "world" else list(GROUP)
    for v in range(rt.size):
        rt.window("w").region(v)[:] = 100.0 + v
    got = {}

    if surface == "cpu":

        def kern(ctx):
            if ctx.vrank not in members:
                return
            ep = ctx if scope == "world" else ctx.group("g")
            got[ctx.vrank] = yield from body(
                op, ep, members, blocking, np.array, np.copy
            )

        rt.launch_cpu(kern)
    else:

        def kern(kctx):
            comm = kctx.comm if scope == "world" else kctx.comm.group("g")
            slot = kctx.block_idx
            if kctx.comm.rank(slot) not in members:
                return
            bufs = []

            def alloc(values):
                buf = kctx.device.alloc(values.size)
                buf.data[...] = values
                bufs.append(buf)
                return buf

            got[kctx.comm.rank(slot)] = yield from body(
                op, comm.endpoint(slot), members, blocking, alloc,
                lambda buf: buf.data.copy(),
            )
            for buf in bufs:
                buf.free()

        rt.launch_gpu(kern)
    rt.run(max_time=60.0)
    assert sorted(got) == sorted(members)
    for v in members:
        want = expected(op, members, v)
        if want is None:
            assert got[v] is None
        else:
            np.testing.assert_array_equal(got[v], want)
    n = len(members)
    region = {v: rt.window("w").region(v) for v in members}
    if op == "put":
        for i, v in enumerate(members):
            left = members[(i - 1) % n]
            np.testing.assert_array_equal(region[v], np.full(WIN, left))
    if op == "accumulate":
        total = 100.0 + members[0] + sum(m + 1.0 for m in members)
        np.testing.assert_array_equal(region[members[0]], np.full(WIN, total))


class TestWorldIsGroupZero:
    """``group("world")`` and the world endpoint share one collective
    counter, so they can be mixed freely."""

    def test_cpu_world_then_world_group(self):
        rt = make_runtime("cpu")
        out = {}

        def kern(ctx):
            yield from ctx.barrier()
            recv = np.zeros(2)
            yield from ctx.group("world").allreduce(np.ones(2), recv)
            yield from ctx.barrier()
            out[ctx.rank] = recv[0]

        rt.launch_cpu(kern)
        rt.run(max_time=1.0)
        assert out == {r: 4.0 for r in range(4)}

    def test_gpu_world_then_world_group(self):
        rt = make_runtime("gpu")
        done = []

        def kern(kctx):
            slot = kctx.block_idx
            yield from kctx.comm.barrier(slot)
            yield from kctx.comm.group("world").barrier(slot)
            yield from kctx.comm.barrier(slot)
            done.append(kctx.comm.rank(slot))

        rt.launch_gpu(kern)
        rt.run(max_time=1.0)
        assert sorted(done) == [0, 1, 2, 3]


class TestIssueValidation:
    """Bad calls raise CommViolation inside the kernel; the comm thread
    and the rest of the job carry on."""

    @pytest.mark.parametrize("name", ["allreduce", "iallreduce", "reduce", "ireduce"])
    def test_cpu_unknown_reduce_op(self, name):
        rt = make_runtime("cpu")
        caught = {}

        def kern(ctx):
            args = (np.ones(2), np.zeros(2))
            if "reduce" == name.lstrip("i"):
                args = (0,) + args
            try:
                yield from getattr(ctx, name)(*args, op="bogus")
            except CommViolation as e:
                caught[ctx.rank] = str(e)
            yield from ctx.barrier()

        rt.launch_cpu(kern)
        rt.run(max_time=1.0)
        assert len(caught) == 4
        assert all("unknown" in m and "bogus" in m for m in caught.values())

    @pytest.mark.parametrize("name", ["allreduce", "iallreduce", "reduce", "ireduce"])
    def test_gpu_unknown_reduce_op(self, name):
        rt = make_runtime("gpu")
        caught = {}

        def kern(kctx):
            comm, slot = kctx.comm, kctx.block_idx
            buf = kctx.device.alloc(2, fill=1.0)
            args = (buf,) if "all" in name else (0, buf, buf)
            try:
                yield from getattr(comm, name)(slot, *args, op="bogus")
            except CommViolation as e:
                caught[comm.rank(slot)] = str(e)
            yield from comm.barrier(slot)
            buf.free()

        rt.launch_gpu(kern)
        rt.run(max_time=1.0)
        assert len(caught) == 4
        assert all("bogus" in m for m in caught.values())

    def test_replace_refused_for_allreduce(self):
        rt = make_runtime("cpu")
        caught = []

        def kern(ctx):
            try:
                yield from ctx.allreduce(np.ones(1), np.zeros(1), op="replace")
            except CommViolation as e:
                caught.append(str(e))

        rt.launch_cpu(kern)
        rt.run(max_time=1.0)
        assert len(caught) == 4 and "accumulate" in caught[0]

    def test_cpu_oversized_nbytes(self):
        rt = make_runtime("cpu")
        caught = {}

        def kern(ctx):
            buf = np.zeros(4, dtype=np.int64)
            try:
                if ctx.rank == 0:
                    yield from ctx.send(1, buf, nbytes=64)
                elif ctx.rank == 1:
                    yield from ctx.recv(0, buf, nbytes=64)
            except CommViolation as e:
                caught[ctx.rank] = str(e)

        rt.launch_cpu(kern)
        rt.run(max_time=1.0)
        assert sorted(caught) == [0, 1]
        assert "exceeds host buffer of 32 B" in caught[0]

    def test_gpu_oversized_nbytes(self):
        rt = make_runtime("gpu")
        caught = {}

        def kern(kctx):
            comm, slot = kctx.comm, kctx.block_idx
            buf = kctx.device.alloc(4, dtype=np.int64)
            try:
                if comm.rank(slot) == 0:
                    yield from comm.send(slot, 1, buf, nbytes=64)
                elif comm.rank(slot) == 1:
                    yield from comm.broadcast(slot, 0, buf, nbytes=64)
            except CommViolation as e:
                caught[comm.rank(slot)] = str(e)
            buf.free()

        rt.launch_gpu(kern)
        rt.run(max_time=1.0)
        assert sorted(caught) == [0, 1]
        assert "exceeds device buffer of 32 B" in caught[0]


def test_cpu_sendrecv_requests_carry_lifecycle_marks():
    rt = make_runtime("cpu")
    rec = rt.sim.attach_spans()

    def kern(ctx):
        n = ctx.size
        recv = np.zeros(8)
        yield from ctx.sendrecv(
            (ctx.rank + 1) % n, np.ones(8), (ctx.rank - 1) % n, recv
        )

    rt.launch_cpu(kern)
    rt.run(max_time=1.0)
    reqs = list(request_stages(rec).values())
    assert sorted(op for op, _ in reqs) == ["recv"] * 4 + ["send"] * 4
    for _op, stages in reqs:
        assert {"issued", "enqueued", "picked", "returned"} <= set(stages)
        assert stages["issued"] < stages["enqueued"] <= stages["returned"]
