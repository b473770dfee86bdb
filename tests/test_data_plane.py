"""One data plane: every byte landing goes through ``hw.memory``.

Receive buffers must be C-contiguous, checked once at issue with the
layer's typed error (a strided buffer used to be written through a
temporary copy, losing the data, or to die in numpy).  Strided sends
keep working: the send snapshot copies them.  A DCGN receive lands at
most its own count on every transport, and its status reports the
bytes that landed.
"""

import numpy as np
import pytest

from repro.dcgn import CommViolation, DcgnConfig, DcgnRuntime
from repro.dcgn.mpi_compat import DcgnMpiAdapter
from repro.dcgn.requests import CommStatus
from repro.hw import build_cluster, paper_cluster
from repro.mpi import MpiError, MpiJob, block_placement
from repro.sim import Simulator

BACKENDS = ("exact", "analytic", "pricing")

#: A strided 8-element float64 buffer, 1-D and 2-D (rows of a wider
#: array: its last axis is contiguous, so numpy's byte view of it is a
#: silent copy rather than an error).
STRIDED = {
    "1d": lambda: np.zeros(16)[::2],
    "2d": lambda: np.zeros((8, 2))[::2],
}

#: ``np.arange(16.).reshape(8, 2)[::2]`` flattened: what a strided send
#: of those rows delivers.
STRIDED_SEND = [0, 1, 4, 5, 8, 9, 12, 13]


def _strided_send():
    return np.arange(16.0).reshape(8, 2)[::2]


def _mpi_job(backend, n_ranks=2):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=n_ranks))
    return MpiJob(cluster, block_placement(n_ranks, n_ranks), backend=backend)


def _dcgn(n_nodes=1, cpu_threads=2, **kw):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
    cfg = DcgnConfig.homogeneous(n_nodes, cpu_threads=cpu_threads, **kw)
    return DcgnRuntime(cluster, cfg)


# ---------------------------------------------------------------------------
# MPI: a strided receive is a typed error at issue, on every backend
# ---------------------------------------------------------------------------

def _recv(ctx, buf):
    yield from ctx.recv(buf, 0)


def _irecv(ctx, buf):
    yield from ctx.irecv(buf, 0).wait()


def _sendrecv(ctx, buf):
    yield from ctx.sendrecv(np.ones(8), 0, buf, 0)


def _sendrecv_replace(ctx, buf):
    yield from ctx.sendrecv_replace(buf, 0, 0)


MPI_RECEIVES = {
    "recv": (_recv, "recv buffer"),
    "irecv": (_irecv, "recv buffer"),
    "sendrecv": (_sendrecv, "recv buffer"),
    "sendrecv_replace": (_sendrecv_replace, "buffer"),
}


@pytest.mark.parametrize("shape", sorted(STRIDED))
@pytest.mark.parametrize("op", sorted(MPI_RECEIVES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_mpi_strided_receive_is_a_typed_error(backend, op, shape):
    """Rank 1 receives into a strided buffer: an ``MpiError`` naming
    the op and the rank, before anything moves."""
    call, what = MPI_RECEIVES[op]
    job = _mpi_job(backend)

    def prog(ctx):
        if ctx.rank == 1:
            yield from call(ctx, STRIDED[shape]())
        elif op.startswith("sendrecv"):
            # Rank 1 raises at issue, so its half never runs.
            yield from ctx.sendrecv(np.ones(8), 1, np.zeros(8), 1)
        else:
            yield from ctx.send(np.ones(8), 1)

    job.start(prog)
    with pytest.raises(
        MpiError, match=rf"^{op}: rank 1's {what} is not C-contiguous"
    ):
        job.run()


@pytest.mark.parametrize("how", ["send", "isend", "sendrecv"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_mpi_strided_send_delivers_its_rows(backend, how):
    job = _mpi_job(backend)
    got = {}

    def prog(ctx):
        out = np.zeros(8)
        if ctx.rank == 0:
            if how == "send":
                yield from ctx.send(_strided_send(), 1)
            elif how == "isend":
                yield from ctx.isend(_strided_send(), 1).wait()
            else:
                yield from ctx.sendrecv(_strided_send(), 1, out, 1)
        else:
            if how == "sendrecv":
                yield from ctx.sendrecv(np.zeros(8), 0, out, 0)
            else:
                yield from ctx.recv(out, 0)
            got["out"] = out

    job.start(prog)
    job.run()
    np.testing.assert_array_equal(got["out"], STRIDED_SEND)


def test_oversized_mpi_receive_keeps_its_truncation_error():
    from repro.mpi import TruncationError

    job = _mpi_job("exact")

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.send(np.ones(8), 1)
        else:
            yield from ctx.recv(np.zeros(4), 0)

    job.start(prog)
    with pytest.raises(
        TruncationError,
        match=r"^message of 64 B exceeds recv buffer of 32 B$",
    ):
        job.run()


# ---------------------------------------------------------------------------
# DCGN: a strided byte result is a CommViolation at issue
# ---------------------------------------------------------------------------

def _dcgn_recv(ctx, buf):
    yield from ctx.recv(0, buf)


def _dcgn_irecv(ctx, buf):
    yield from ctx.irecv(0, buf)


def _dcgn_broadcast(ctx, buf):
    yield from ctx.broadcast(0, buf)


def _dcgn_scatter(ctx, buf):
    yield from ctx.scatter(0, buf)


def _dcgn_gather_root(ctx, buf):
    # The root's result: 8 bytes from each of the 2 members.
    yield from ctx.gather(1, np.ones(1), buf)


def _adapter_gather_root(ctx, buf):
    yield from DcgnMpiAdapter(ctx).gather(
        np.ones(8), [np.zeros(8), buf], root=1
    )


DCGN_RESULTS = {
    "recv": _dcgn_recv,
    "irecv": _dcgn_irecv,
    "broadcast": _dcgn_broadcast,
    "scatter": _dcgn_scatter,
    "gather": _dcgn_gather_root,
    "adapter-gather": _adapter_gather_root,
}


@pytest.mark.parametrize("shape", sorted(STRIDED))
@pytest.mark.parametrize("op", sorted(DCGN_RESULTS))
def test_dcgn_strided_result_is_a_comm_violation(op, shape):
    """Vrank 1 issues a call whose bytes would land in a strided
    buffer; it raises before any request is issued, so no other rank
    has to take part."""
    rt = _dcgn()
    caught = {}

    def kern(ctx):
        if ctx.vrank != 1:
            return
        buf = STRIDED[shape]()
        if op == "gather":
            buf = buf[:2]
        try:
            yield from DCGN_RESULTS[op](ctx, buf)
        except CommViolation as exc:
            caught["msg"] = str(exc)

    rt.launch_cpu(kern)
    rt.run()
    assert "C-contiguous" in caught["msg"]


@pytest.mark.parametrize("nodes", [1, 2], ids=["local", "remote"])
def test_dcgn_strided_send_delivers_its_rows(nodes):
    rt = _dcgn(n_nodes=nodes, cpu_threads=2 // nodes)
    got = {}

    def kern(ctx):
        if ctx.vrank == 0:
            yield from ctx.send(1, _strided_send())
        else:
            out = np.zeros(8)
            yield from ctx.recv(0, out)
            got["out"] = out

    rt.launch_cpu(kern)
    rt.run()
    np.testing.assert_array_equal(got["out"], STRIDED_SEND)


# ---------------------------------------------------------------------------
# DCGN: a receive lands at most its own count, on every transport
# ---------------------------------------------------------------------------

#: Receiver placements for a message from CPU vrank 0 to vrank 1.
RECEIVERS = {
    "cpu-local": dict(n_nodes=1, cpu_threads=2),
    "cpu-remote": dict(n_nodes=2, cpu_threads=1),
    "gpu-slot": dict(n_nodes=1, cpu_threads=1, gpus=1, slots_per_gpu=1),
}


def _count_limited(receiver, send_nbytes=None, recv_nbytes=None):
    """CPU vrank 0 sends ``[1., 2.]`` (``send_nbytes`` of it) to vrank
    1, which receives ``recv_nbytes`` into ``[-1., -1.]``; returns the
    receiver's buffer and status."""
    rt = _dcgn(**RECEIVERS[receiver])
    got = {}

    def cpu_kern(ctx):
        if ctx.vrank == 0:
            yield from ctx.send(1, np.array([1.0, 2.0]), send_nbytes)
        else:
            buf = np.full(2, -1.0)
            got["status"] = yield from ctx.recv(0, buf, recv_nbytes)
            got["buf"] = buf

    def gpu_kern(kctx):
        dbuf = kctx.device.alloc(2)
        dbuf.data[:] = -1.0
        got["status"] = yield from kctx.comm.recv(0, 0, dbuf, recv_nbytes)
        got["buf"] = dbuf.data.copy()

    rt.launch_cpu(cpu_kern)
    if receiver == "gpu-slot":
        rt.launch_gpu(gpu_kern)
    rt.run()
    return got["buf"], got["status"]


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_dcgn_receive_lands_at_most_its_count(receiver):
    """A 16-byte message into ``recv(..., nbytes=8)``: 8 bytes land and
    the status says 8 (a CPU receiver used to take all 16, and every
    receiver reported 16)."""
    buf, status = _count_limited(receiver, recv_nbytes=8)
    np.testing.assert_array_equal(buf, [1.0, -1.0])
    assert status == CommStatus(source=0, nbytes=8)


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_dcgn_send_count_bounds_what_lands(receiver):
    """An 8-byte send of a 16-byte buffer lands 8 bytes on every
    receiver (a local CPU receiver used to take the sender's whole
    buffer)."""
    buf, status = _count_limited(receiver, send_nbytes=8)
    np.testing.assert_array_equal(buf, [1.0, -1.0])
    assert status == CommStatus(source=0, nbytes=8)


# ---------------------------------------------------------------------------
# DCGN: a count-limited send or reduction snapshots only its count
# ---------------------------------------------------------------------------

#: Two members of one node: CPU threads, or slots of one GPU.
ISSUERS = {
    "cpu": dict(n_nodes=1, cpu_threads=2),
    "gpu-slot": dict(n_nodes=1, cpu_threads=0, gpus=1, slots_per_gpu=2),
}


def _on_members(issuer, part):
    """Run ``part(endpoint, alloc, read)`` on both members; returns what
    each returned, by vrank."""
    rt = _dcgn(**ISSUERS[issuer])
    got = {}

    def cpu_kern(ctx):
        got[ctx.vrank] = yield from part(ctx, np.array, np.copy)

    def gpu_kern(kctx):
        def alloc(values):
            buf = kctx.device.alloc(values.size)
            buf.data[...] = values
            return buf

        ep = kctx.comm.endpoint(kctx.block_idx)
        got[ep.vrank] = yield from part(ep, alloc, lambda b: b.data.copy())

    if issuer == "cpu":
        rt.launch_cpu(cpu_kern)
    else:
        rt.launch_gpu(gpu_kern)
    rt.run()
    return got


@pytest.mark.parametrize("issuer", sorted(ISSUERS))
def test_dcgn_allreduce_reduces_its_count(issuer):
    """``allreduce([1., 2.], out, nbytes=8)`` reduces the first element
    only: ``out`` (``[1., 2.]`` before) becomes ``[2., 2.]`` with status
    8 on both transports (two CPU threads used to reduce the whole
    buffer, ``[2., 4.]``, and report 16)."""
    def part(ep, alloc, read):
        out = alloc(np.array([1.0, 2.0]))
        status = yield from ep.allreduce(alloc(np.array([1.0, 2.0])), out,
                                         "sum", nbytes=8)
        return read(out), status.nbytes

    for out, nbytes in _on_members(issuer, part).values():
        np.testing.assert_array_equal(out, [2.0, 2.0])
        assert nbytes == 8


#: What the send test sends: every byte of its second value is set,
#: so a landing cut short inside it shows.
THIRDS = [1.0, 1 / 3]


@pytest.mark.parametrize("nbytes", [8, 12])
@pytest.mark.parametrize("issuer", sorted(ISSUERS))
def test_dcgn_send_snapshots_its_count(issuer, nbytes):
    """A send of ``nbytes`` of ``[1., 1/3]`` into ``[-1., -1.]`` lands
    exactly those bytes with status ``nbytes``, and its request carries
    only the elements that hold them (a CPU send used to snapshot the
    whole buffer; a GPU slot's 12-byte send landed 8 bytes)."""
    def part(ep, alloc, read):
        if ep.vrank == 0:
            handle = yield from ep.isend(1, alloc(np.array(THIRDS)), nbytes)
            yield from handle.wait()
            return handle.req.data.nbytes
        buf = alloc(np.full(2, -1.0))
        status = yield from ep.recv(0, buf)
        return read(buf).tobytes(), status

    got = _on_members(issuer, part)
    want = (np.array(THIRDS).tobytes()[:nbytes]
            + np.full(2, -1.0).tobytes()[nbytes:])
    assert got[1] == (want, CommStatus(source=0, nbytes=nbytes))
    assert got[0] == 8 * -(-nbytes // 8)
