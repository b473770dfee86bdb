"""Collective operations over the simulated point-to-point layer.

Every collective algorithm compiles to a round-based
:class:`~repro.mpi.algorithms.schedule.Schedule` executed by the
communicator's :class:`~repro.mpi.algorithms.schedule.ScheduleEngine`.
The blocking MPI-2 entry points below run the schedule to completion in
the calling process; the ``i``-prefixed MPI-3 entry points start the
same schedule in a background process and return a
:class:`~repro.mpi.communicator.Request` immediately, so a rank (or
DCGN's comm thread) can overlap the collective with computation.

``allreduce``, ``allgather``, ``alltoall``, ``bcast`` and ``reduce``
have a *menu* of algorithms (see :mod:`repro.mpi.algorithms`) and
dispatch per call through the communicator's
:class:`~repro.mpi.algorithms.AlgorithmSelector`, which picks by
message size × communicator size — and, for the hierarchical
allreduce/bcast variants, by whether the placement is fragmented across
an oversubscribed topology.  The chosen algorithm is recorded in
``comm.stats`` as ``"<op>[<algo>]"``.  ``gather``/``scatter`` keep the
fixed linear-at-root shape MVAPICH2-era implementations used.

Every collective call consumes one slot of the internal tag space, kept
consistent across ranks by the requirement (as in real MPI) that all
ranks invoke collectives in the same order — for nonblocking
collectives the tag block and algorithm are claimed synchronously at
issue time, so mixed blocking/nonblocking sequences stay aligned.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from ..sim.core import Event
from .datatypes import Payload, ReduceOp, payload_array
from .errors import MpiError

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "ibarrier",
    "ibcast",
    "ireduce",
    "iallreduce",
    "iallgather",
    "ialltoall",
    "igather",
    "iscatter",
]

from .algorithms.base import (
    hier_ok as _hier_ok,
    isend_internal as _isend_internal,
    next_tag as _next_tag,
    recv_internal as _recv_internal,
    send_internal as _send_internal,
)
from .algorithms.barrier import build_barrier_dissemination
from .algorithms.schedule import Binding, Call
from .algorithms.selector import SCHEDULES
from .communicator import MpiContext, Request


# ---------------------------------------------------------------------------
# Dispatch: bind the call's buffers, select, key — no schedule is built
# here (the engine builds one only on a plan miss)
# ---------------------------------------------------------------------------

def _size_error(op: str, send: int, what: str, got: int) -> MpiError:
    return MpiError(f"{op}: send buffer is {send} B but {what} is {got} B")


def _check_reduce_op(op: ReduceOp, what: str) -> None:
    """``REPLACE`` exists for one-sided accumulate only: in a
    reduction tree, which rank's contribution "wins" would depend on
    the schedule — a silent nondeterminism, so reject it loudly."""
    if op is ReduceOp.REPLACE:
        raise MpiError(
            f"ReduceOp.REPLACE is only valid for one-sided accumulate, "
            f"not {what}"
        )


def _bind_barrier(ctx: MpiContext):
    return Binding(()), ()


def _bind_bcast(ctx: MpiContext, buf: Payload, root: int = 0):
    ctx.comm._check_rank(root)
    return Binding((buf,)), (root,)


def _bind_reduce(ctx: MpiContext, sendbuf: Payload,
                 recvbuf: Optional[Payload], op: ReduceOp = ReduceOp.SUM,
                 root: int = 0):
    ctx.comm._check_rank(root)
    _check_reduce_op(op, "reduce")
    if payload_array(sendbuf) is None:
        raise MpiError("reduce requires an array payload")
    if ctx.rank == root and payload_array(recvbuf) is None:
        raise MpiError("root needs a recv buffer for reduce")
    return Binding((sendbuf, recvbuf)), (op, root)


def _bind_allreduce(ctx: MpiContext, sendbuf: Payload, recvbuf: Payload,
                    op: ReduceOp = ReduceOp.SUM):
    _check_reduce_op(op, "allreduce")
    if payload_array(recvbuf) is None:
        raise MpiError("allreduce requires a recv buffer on every rank")
    if payload_array(sendbuf) is None:
        raise MpiError("allreduce requires an array payload")
    b = Binding((sendbuf, recvbuf))
    if b.sizes[0] != b.sizes[1]:
        raise _size_error("allreduce", b.sizes[0], "the recv buffer",
                          b.sizes[1])
    return b, (op,)


def _bind_allgather(ctx: MpiContext, sendbuf: Payload, recvbuf):
    """A contiguous ``P × block`` recv array binds in O(1); a sequence
    binds one slot per block (per-block or vector receives)."""
    P = ctx.size
    if isinstance(recvbuf, (list, tuple)):
        if len(recvbuf) != P:
            raise MpiError("allgather needs one recv buffer per rank")
        b = Binding((sendbuf, *recvbuf))
        if sendbuf is not None and b.sizes[0] != b.sizes[1 + ctx.rank]:
            raise _size_error("allgather", b.sizes[0],
                              "this rank's recv block", b.sizes[1 + ctx.rank])
    else:
        b = Binding((sendbuf, recvbuf), flat=True)
        if b.sizes[1] != P * b.sizes[0]:
            raise _size_error("allgather", b.sizes[0],
                              f"the recv buffer (P = {P} blocks)",
                              b.sizes[1])
    return b, ()


def _bind_alltoall(ctx: MpiContext, sendbufs: Sequence[Payload],
                   recvbufs: Sequence[Payload]):
    P = ctx.size
    if len(sendbufs) != P or len(recvbufs) != P:
        raise MpiError("alltoall needs one send and recv buffer per rank")
    b = Binding((*sendbufs, *recvbufs))
    r = ctx.rank
    if b.sizes[r] != b.sizes[P + r]:
        raise _size_error("alltoall", b.sizes[r], "the recv block from self",
                          b.sizes[P + r])
    return b, ()


#: Per collective: MPI arguments → ``(binding, builder args)``, with
#: every argument check the call makes before any schedule exists.
BINDERS = {
    "barrier": _bind_barrier,
    "bcast": _bind_bcast,
    "reduce": _bind_reduce,
    "allreduce": _bind_allreduce,
    "allgather": _bind_allgather,
    "alltoall": _bind_alltoall,
}


def _uniform(b: Binding, lo: int, hi: int) -> Optional[int]:
    """The common size of slots ``lo..hi-1`` if all are arrays of one
    size, else ``None`` (the vector variants)."""
    bufs = b.bufs
    n = b.sizes[lo]
    for i in range(lo, hi):
        if b.sizes[i] != n or not isinstance(bufs[i], np.ndarray):
            return None
    return n


def _barrier_call(ctx: MpiContext) -> Call:
    ctx.comm._count("barrier")
    b, _ = _bind_barrier(ctx)
    return Call("barrier", "dissemination", 0, ("barrier", ctx.size), b,
                build_barrier_dissemination)


def _bcast_call(ctx: MpiContext, buf: Payload, root: int) -> Call:
    ctx.comm._count("bcast")
    b, args = _bind_bcast(ctx, buf, root)
    nbytes = b.sizes[0]
    algo = ctx.comm.selector.bcast(nbytes, ctx.size, hier_ok=_hier_ok(ctx))
    ctx.comm._count(f"bcast[{algo}]")
    return Call("bcast", algo, nbytes,
                ("bcast", algo, root, nbytes, b.key_dtype()), b,
                SCHEDULES["bcast"][algo], args)


def _reduce_call(ctx: MpiContext, sendbuf: Payload,
                 recvbuf: Optional[Payload], op: ReduceOp,
                 root: int) -> Call:
    ctx.comm._count("reduce")
    b, args = _bind_reduce(ctx, sendbuf, recvbuf, op, root)
    nbytes = b.sizes[0]
    algo = ctx.comm.selector.reduce(nbytes, ctx.size)
    ctx.comm._count(f"reduce[{algo}]")
    return Call("reduce", algo, nbytes,
                ("reduce", algo, root, nbytes, b.key_dtype(), op), b,
                SCHEDULES["reduce"][algo], args)


def _allreduce_call(ctx: MpiContext, sendbuf: Payload, recvbuf: Payload,
                    op: ReduceOp) -> Call:
    ctx.comm._count("allreduce")
    b, args = _bind_allreduce(ctx, sendbuf, recvbuf, op)
    nbytes = b.sizes[0]
    algo = ctx.comm.selector.allreduce(
        nbytes, ctx.size, hier_ok=_hier_ok(ctx)
    )
    ctx.comm._count(f"allreduce[{algo}]")
    return Call("allreduce", algo, nbytes,
                ("allreduce", algo, None, nbytes, b.key_dtype(), op), b,
                SCHEDULES["allreduce"][algo], args)


def _allgather_call(ctx: MpiContext, sendbuf: Payload, recvbuf) -> Call:
    ctx.comm._count("allgather")
    b, _ = _bind_allgather(ctx, sendbuf, recvbuf)
    P = ctx.size
    if b.flat:
        block = b.sizes[0]
    else:
        block = _uniform(b, 1, P + 1)
    algo = ctx.comm.selector.allgather(
        block or 0, P, uniform=block is not None, hier_ok=_hier_ok(ctx)
    )
    ctx.comm._count(f"allgather[{algo}]")
    key = None
    if block is not None:
        key = ("allgather", algo, None, block, b.key_dtype())
        if b.flat:
            key += ("flat",)
    return Call("allgather", algo, (block or 0) * P, key, b,
                SCHEDULES["allgather"][algo])


def _alltoall_call(ctx: MpiContext, sendbufs: Sequence[Payload],
                   recvbufs: Sequence[Payload]) -> Call:
    ctx.comm._count("alltoall")
    b, _ = _bind_alltoall(ctx, sendbufs, recvbufs)
    P = ctx.size
    block = _uniform(b, 0, 2 * P)
    algo = ctx.comm.selector.alltoall(
        block or 0, P, uniform=block is not None, hier_ok=_hier_ok(ctx)
    )
    ctx.comm._count(f"alltoall[{algo}]")
    key = (None if block is None
           else ("alltoall", algo, None, block, b.key_dtype()))
    return Call("alltoall", algo, (block or 0) * P, key, b,
                SCHEDULES["alltoall"][algo])


# ---------------------------------------------------------------------------
# Blocking collectives (MPI-2): execute the schedule inline
# ---------------------------------------------------------------------------

def barrier(ctx: MpiContext) -> Generator[Event, Any, None]:
    """Dissemination barrier."""
    yield from ctx.comm.engine.execute(ctx, _barrier_call(ctx))


def bcast(
    ctx: MpiContext, buf: Payload, root: int = 0
) -> Generator[Event, Any, None]:
    """Topology-adaptive broadcast (binomial tree, domain-leader
    hierarchical on fragmented oversubscribed fabrics, or segmented
    pipeline for large payloads)."""
    yield from ctx.comm.engine.execute(ctx, _bcast_call(ctx, buf, root))


def reduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    root: int = 0,
) -> Generator[Event, Any, None]:
    """Size-adaptive reduction to ``root`` (binomial tree, or
    Rabenseifner reduce-scatter + gather for large vectors)."""
    yield from ctx.comm.engine.execute(
        ctx, _reduce_call(ctx, sendbuf, recvbuf, op, root)
    )


def allreduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
) -> Generator[Event, Any, None]:
    """Size-adaptive allreduce (see :mod:`repro.mpi.algorithms`)."""
    yield from ctx.comm.engine.execute(
        ctx, _allreduce_call(ctx, sendbuf, recvbuf, op)
    )


def allgather(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf,
) -> Generator[Event, Any, None]:
    """Size-adaptive allgather (ring, recursive doubling, Bruck or
    hierarchical) into one ``P × block`` array or per-block buffers."""
    yield from ctx.comm.engine.execute(
        ctx, _allgather_call(ctx, sendbuf, recvbuf)
    )


def alltoall(
    ctx: MpiContext,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
) -> Generator[Event, Any, None]:
    """Schedule-adaptive all-to-all (shift, pairwise, or Bruck)."""
    yield from ctx.comm.engine.execute(
        ctx, _alltoall_call(ctx, sendbufs, recvbufs)
    )


# ---------------------------------------------------------------------------
# Nonblocking collectives (MPI-3): start the schedule, return a Request
# ---------------------------------------------------------------------------

def ibarrier(ctx: MpiContext) -> Request:
    """Nonblocking dissemination barrier."""
    return ctx.comm.engine.start(
        ctx, _barrier_call(ctx), name=f"ibarrier(r{ctx.rank})"
    )


def ibcast(ctx: MpiContext, buf: Payload, root: int = 0) -> Request:
    """Nonblocking broadcast (same schedules as ``bcast``)."""
    return ctx.comm.engine.start(
        ctx, _bcast_call(ctx, buf, root), name=f"ibcast(r{ctx.rank})"
    )


def ireduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    root: int = 0,
) -> Request:
    """Nonblocking reduction to ``root``."""
    return ctx.comm.engine.start(
        ctx, _reduce_call(ctx, sendbuf, recvbuf, op, root),
        name=f"ireduce(r{ctx.rank})",
    )


def iallreduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
) -> Request:
    """Nonblocking allreduce (same schedules as ``allreduce``)."""
    return ctx.comm.engine.start(
        ctx, _allreduce_call(ctx, sendbuf, recvbuf, op),
        name=f"iallreduce(r{ctx.rank})",
    )


def iallgather(ctx: MpiContext, sendbuf: Payload, recvbuf) -> Request:
    """Nonblocking allgather."""
    return ctx.comm.engine.start(
        ctx, _allgather_call(ctx, sendbuf, recvbuf),
        name=f"iallgather(r{ctx.rank})",
    )


def ialltoall(
    ctx: MpiContext,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
) -> Request:
    """Nonblocking all-to-all."""
    return ctx.comm.engine.start(
        ctx, _alltoall_call(ctx, sendbufs, recvbufs),
        name=f"ialltoall(r{ctx.rank})",
    )


# ---------------------------------------------------------------------------
# Rooted linear collectives (fixed schedules, as in the seed)
# ---------------------------------------------------------------------------

def gather(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]],
    root: int = 0,
) -> Generator[Event, Any, None]:
    """Linear gather: every rank sends its buffer to the root.

    At the root, ``recvbufs`` is a sequence of per-rank destination
    buffers (the vector variant — MPI_Gatherv — falls out naturally since
    the buffers may have different sizes).
    """
    ctx.comm._count("gather")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    yield from _gather_impl(ctx, sendbuf, recvbufs, root, tag)


def igather(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]],
    root: int = 0,
) -> Request:
    """Nonblocking linear gather.

    The tag block is claimed synchronously (like every nonblocking
    collective) so concurrent collectives stay aligned across ranks;
    the wire work runs in a background process.
    """
    ctx.comm._count("gather")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    return Request(ctx.sim.process(
        _gather_impl(ctx, sendbuf, recvbufs, root, tag),
        name=f"igather(r{ctx.rank})",
    ))


# Linear gather/scatter stay off the schedule IR, so every backend,
# analytic included, runs them on the exact p2p path.  Compiled as
# linear schedules they would keep every DCGN time, but the root's P-1
# transfers share its NIC and the fast path's contention-free pricing
# tape ignores that: against exact at 4-16 ranks and 128 B-1 MB it
# under-prices gather by 0.1-84% and scatter by 49-93%
# (tests/test_fastpath.py::test_gather_scatter_stay_exact pins both
# backends to the same times).
def _gather_impl(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]],
    root: int,
    tag: int,
) -> Generator[Event, Any, None]:
    size, rank = ctx.size, ctx.rank
    if rank == root:
        if recvbufs is None or len(recvbufs) != size:
            raise MpiError("root needs one recv buffer per rank")
        reqs = []
        for src in range(size):
            if src == root:
                continue
            reqs.append(
                ctx.sim.process(
                    _recv_internal(ctx, recvbufs[src], src, tag),
                    name=f"gather.recv({src})",
                )
            )
        # Local contribution via direct copy.
        own = payload_array(recvbufs[root])
        mine = payload_array(sendbuf)
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)
        for r in reqs:
            yield r
    else:
        yield from _send_internal(ctx, sendbuf, root, tag)


def scatter(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int = 0,
) -> Generator[Event, Any, None]:
    """Linear scatter from the root (vector variant included)."""
    ctx.comm._count("scatter")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    yield from _scatter_impl(ctx, sendbufs, recvbuf, root, tag)


def iscatter(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int = 0,
) -> Request:
    """Nonblocking linear scatter (tag claimed synchronously)."""
    ctx.comm._count("scatter")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    return Request(ctx.sim.process(
        _scatter_impl(ctx, sendbufs, recvbuf, root, tag),
        name=f"iscatter(r{ctx.rank})",
    ))


# Exact on every backend, like _gather_impl (same reason).
def _scatter_impl(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int,
    tag: int,
) -> Generator[Event, Any, Any]:
    size, rank = ctx.size, ctx.rank
    if rank == root:
        if sendbufs is None or len(sendbufs) != size:
            raise MpiError("root needs one send buffer per rank")
        reqs = []
        for dst in range(size):
            if dst == root:
                continue
            reqs.append(_isend_internal(ctx, sendbufs[dst], dst, tag))
        own = payload_array(recvbuf)
        mine = payload_array(sendbufs[root])
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)
        for r in reqs:
            yield from r.wait()
        return None
    # A non-root's status says how many bytes the root sent it.
    return (yield from _recv_internal(ctx, recvbuf, root, tag))
