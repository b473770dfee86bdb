"""Collective operations over the simulated point-to-point layer.

Each MPI collective is defined exactly once, in :data:`OPS`: a call
builder that counts the call, binds and validates its buffers, and —
for the schedule-compiled collectives — selects the algorithm and keys
the :class:`~repro.mpi.algorithms.schedule.Call`.  Both
:class:`~repro.mpi.communicator.MpiContext` methods of an operation are
generated from that entry: the blocking MPI-2 form runs the call to
completion inline in the calling process (``engine.execute``), the
``i``-prefixed MPI-3 form starts it in a background process and returns
a :class:`~repro.mpi.communicator.Request` at once (``engine.start``),
so a rank (or DCGN's comm thread) can overlap it with computation.
Every argument check therefore raises at issue, in either form.

``allreduce``, ``allgather``, ``alltoall``, ``bcast`` and ``reduce``
have a *menu* of algorithms (see :mod:`repro.mpi.algorithms`) and
dispatch per call through the communicator's
:class:`~repro.mpi.algorithms.AlgorithmSelector`, which picks by
message size × communicator size — and, for the hierarchical variants,
by whether the placement is fragmented across an oversubscribed
topology.  The chosen algorithm is recorded in ``comm.stats`` as
``"<op>[<algo>]"``.  ``gather``/``scatter`` keep the fixed
linear-at-root shape MVAPICH2-era implementations used: their builders
return that generator instead of a ``Call``.

Every collective call consumes one slot of the internal tag space, kept
consistent across ranks by the requirement (as in real MPI) that all
ranks invoke collectives in the same order — the tag block and
algorithm are claimed synchronously at issue time, so mixed
blocking/nonblocking sequences stay aligned.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from ..sim.core import Event
from .datatypes import Payload, ReduceOp, payload_array
from .errors import MpiError

__all__ = ["OPS", "BINDERS"]

from .algorithms.base import hier_ok as _hier_ok, next_tag as _next_tag
from .algorithms.barrier import build_barrier_dissemination
from .algorithms.schedule import Binding, Call
from .algorithms.selector import SCHEDULES
from .communicator import MpiContext, Request


# ---------------------------------------------------------------------------
# Binding: MPI arguments -> (binding, builder args), every argument check
# made before any schedule exists
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
    ctx._contiguous("bcast", "buffer", (buf,))
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
        ctx._contiguous("allgather", "buffer", (sendbuf, *recvbuf))
        b = Binding((sendbuf, *recvbuf))
        if sendbuf is not None and b.sizes[0] != b.sizes[1 + ctx.rank]:
            raise _size_error("allgather", b.sizes[0],
                              "this rank's recv block", b.sizes[1 + ctx.rank])
    else:
        ctx._contiguous("allgather", "buffer", (sendbuf, recvbuf))
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
    ctx._contiguous("alltoall", "buffer", (*sendbufs, *recvbufs))
    b = Binding((*sendbufs, *recvbufs))
    r = ctx.rank
    if b.sizes[r] != b.sizes[P + r]:
        raise _size_error("alltoall", b.sizes[r], "the recv block from self",
                          b.sizes[P + r])
    return b, ()


#: Per schedule-compiled collective: its binder (also what the
#: ``ALGORITHMS`` blocking entry points bind through).
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


# ---------------------------------------------------------------------------
# The op table: one call builder per collective.  A schedule collective
# returns its Call (selected and keyed, no schedule built — the engine
# builds one only on a plan miss); gather/scatter return their linear
# generator.
# ---------------------------------------------------------------------------

def _barrier_call(ctx: MpiContext) -> Call:
    """Dissemination barrier across all ranks."""
    ctx.comm._count("barrier")
    b, _ = _bind_barrier(ctx)
    return Call("barrier", "dissemination", 0, ("barrier", ctx.size), b,
                build_barrier_dissemination)


def _bcast_call(ctx: MpiContext, buf: Payload, root: int = 0) -> Call:
    """Broadcast ``buf`` from ``root``: binomial tree, domain-leader
    hierarchical on fragmented oversubscribed fabrics, or a segmented
    pipelined chain for large payloads."""
    ctx.comm._count("bcast")
    b, args = _bind_bcast(ctx, buf, root)
    nbytes = b.sizes[0]
    algo = ctx.comm.selector.bcast(nbytes, ctx.size, hier_ok=_hier_ok(ctx))
    ctx.comm._count(f"bcast[{algo}]")
    return Call("bcast", algo, nbytes,
                ("bcast", algo, root, nbytes, b.key_dtype()), b,
                SCHEDULES["bcast"][algo], args)


def _reduce_call(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: "ReduceOp" = ReduceOp.SUM,
    root: int = 0,
) -> Call:
    """Reduce every rank's ``sendbuf`` with ``op`` into ``recvbuf`` at
    ``root``: binomial tree, or Rabenseifner reduce-scatter + gather
    for large vectors."""
    ctx.comm._count("reduce")
    b, args = _bind_reduce(ctx, sendbuf, recvbuf, op, root)
    nbytes = b.sizes[0]
    algo = ctx.comm.selector.reduce(nbytes, ctx.size)
    ctx.comm._count(f"reduce[{algo}]")
    return Call("reduce", algo, nbytes,
                ("reduce", algo, root, nbytes, b.key_dtype(), op), b,
                SCHEDULES["reduce"][algo], args)


def _allreduce_call(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: "ReduceOp" = ReduceOp.SUM,
) -> Call:
    """Reduce every rank's ``sendbuf`` with ``op`` into every rank's
    ``recvbuf``: reduce + broadcast, recursive doubling, ring, or
    hierarchical on fragmented placements, chosen by size."""
    ctx.comm._count("allreduce")
    b, args = _bind_allreduce(ctx, sendbuf, recvbuf, op)
    nbytes = b.sizes[0]
    algo = ctx.comm.selector.allreduce(
        nbytes, ctx.size, hier_ok=_hier_ok(ctx)
    )
    if algo == "reduce_bcast":
        # Its broadcast leg receives into the recv buffer; every other
        # algorithm only copies the result into it by value.
        ctx._contiguous("allreduce", "recv buffer", (recvbuf,))
    ctx.comm._count(f"allreduce[{algo}]")
    return Call("allreduce", algo, nbytes,
                ("allreduce", algo, None, nbytes, b.key_dtype(), op), b,
                SCHEDULES["allreduce"][algo], args)


def _allgather_call(ctx: MpiContext, sendbuf: Payload, recvbuf) -> Call:
    """Allgather: ring, recursive doubling, Bruck or hierarchical,
    chosen by size (see :mod:`repro.mpi.algorithms.selector`).

    ``recvbuf`` is either one contiguous array of ``P × block``
    bytes — rank ``i``'s block lands at ``[i·block, (i+1)·block)``,
    the ``MPI_Allgather`` layout, bound in O(1) — or a sequence of
    ``P`` buffers, one per block, which may differ in size (the
    ``MPI_Allgatherv`` vector variant).  The send buffer must match
    this rank's block."""
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


def _alltoall_call(
    ctx: MpiContext, sendbufs: Sequence[Payload], recvbufs: Sequence[Payload]
) -> Call:
    """All-to-all: ``sendbufs[i]`` goes to rank ``i``, ``recvbufs[i]``
    receives from rank ``i`` (blocks may differ in size, the vector
    variant).  Shift, pairwise, Bruck (small blocks) or hierarchical,
    chosen by size."""
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


# Linear gather/scatter stay off the schedule IR, so every backend,
# analytic included, runs them on the exact p2p path.  Compiled as
# linear schedules they would keep every DCGN time, but the root's P-1
# transfers share its NIC and the fast path's contention-free pricing
# tape ignores that: against exact at 4-16 ranks and 128 B-1 MB it
# under-prices gather by 0.1-84% and scatter by 49-93%
# (tests/test_fastpath.py::test_gather_scatter_stay_exact pins both
# backends to the same times).
def _linear_claim(ctx: MpiContext, op: str, root: int, bufs,
                  single: Payload) -> int:
    """Count, validate and claim the tag block of a linear collective.

    At the root, ``bufs`` (the per-rank side) needs one buffer per rank
    and its own block ``bufs[root]`` must match ``single`` (the root's
    other buffer) in size.  Every block received over the wire must be
    C-contiguous."""
    ctx.comm._count(op)
    ctx.comm._check_rank(root)
    if ctx.rank == root:
        if bufs is None or len(bufs) != ctx.size:
            side = "recv" if op == "gather" else "send"
            raise MpiError(f"root needs one {side} buffer per rank")
        a, b = payload_array(single), payload_array(bufs[root])
        if a is not None and b is not None and a.size != b.size:
            send, got = (a, b) if op == "gather" else (b, a)
            raise _size_error(op, send.nbytes, "the root's own block",
                              got.nbytes)
        if op == "gather":
            ctx._contiguous(op, "recv buffer",
                            [b for i, b in enumerate(bufs) if i != root])
    elif op == "scatter":
        ctx._contiguous(op, "recv buffer", (single,))
    return _next_tag(ctx)


def _copy_own(dst: Payload, src: Payload) -> None:
    """The root's own block moves by direct copy, not over the wire."""
    own, mine = payload_array(dst), payload_array(src)
    if own is not None and mine is not None:
        own[...] = mine.reshape(own.shape)


def _gather_call(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]] = None,
    root: int = 0,
) -> Generator[Event, Any, None]:
    """Linear gather: every rank sends its buffer to the root.

    At the root, ``recvbufs`` is a sequence of per-rank destination
    buffers (the vector variant — MPI_Gatherv — falls out naturally
    since the buffers may have different sizes); non-root ranks may
    omit it (as in mpi4py)."""
    tag = _linear_claim(ctx, "gather", root, recvbufs, sendbuf)
    return _gather(ctx, sendbuf, recvbufs, root, tag)


def _gather(ctx: MpiContext, sendbuf: Payload, recvbufs, root: int,
            tag: int) -> Generator[Event, Any, None]:
    comm, rank = ctx.comm, ctx.rank
    if rank != root:
        yield from comm._send_impl(rank, root, sendbuf, tag)
        return
    reqs = [
        ctx.sim.process(comm._recv_impl(rank, src, recvbufs[src], tag),
                        name=f"gather.recv({src})")
        for src in range(ctx.size) if src != root
    ]
    _copy_own(recvbufs[root], sendbuf)
    for r in reqs:
        yield r


def _scatter_call(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int = 0,
) -> Generator[Event, Any, Any]:
    """Linear scatter: the root sends ``sendbufs[i]`` to rank ``i``
    (vector variant included); a non-root's completion value is the
    :class:`~repro.mpi.status.Status` of what the root sent it."""
    tag = _linear_claim(ctx, "scatter", root, sendbufs, recvbuf)
    return _scatter(ctx, sendbufs, recvbuf, root, tag)


def _scatter(ctx: MpiContext, sendbufs, recvbuf: Payload, root: int,
             tag: int) -> Generator[Event, Any, Any]:
    comm, rank = ctx.comm, ctx.rank
    if rank != root:
        return (yield from comm._recv_impl(rank, root, recvbuf, tag))
    reqs = [
        ctx.sim.process(comm._send_impl(rank, dst, sendbufs[dst], tag),
                        name=f"coll.isend(r{rank}->r{dst})")
        for dst in range(ctx.size) if dst != root
    ]
    _copy_own(recvbuf, sendbufs[root])
    for r in reqs:
        yield r
    return None


#: Every MPI collective, once: name → call builder.
OPS = {
    "barrier": _barrier_call,
    "bcast": _bcast_call,
    "reduce": _reduce_call,
    "allreduce": _allreduce_call,
    "allgather": _allgather_call,
    "alltoall": _alltoall_call,
    "gather": _gather_call,
    "scatter": _scatter_call,
}


# ---------------------------------------------------------------------------
# MpiContext.<op> and MpiContext.i<op>, generated from the table
# ---------------------------------------------------------------------------

def _method(fn: Callable, name: str, build: Callable, returns: str):
    """Give ``fn`` the builder's docs and MPI signature (``self`` for
    the context, ``returns`` as its return annotation)."""
    functools.update_wrapper(fn, build)
    fn.__name__ = fn.__qualname__ = name
    sig = inspect.signature(build)
    ctx, *params = sig.parameters.values()
    fn.__signature__ = sig.replace(
        parameters=[inspect.Parameter("self", ctx.kind), *params],
        return_annotation=returns,
    )
    return fn


def _blocking(name: str, build: Callable):
    def op(self, *args, **kwargs):
        call = build(self, *args, **kwargs)
        if isinstance(call, Call):
            call = self.comm.engine.execute(self, call)
        yield from call

    return _method(op, name, build, "Generator[Event, Any, None]")


def _nonblocking(name: str, build: Callable):
    def iop(self, *args, **kwargs):
        call = build(self, *args, **kwargs)
        pname = f"i{name}(r{self.rank})"
        if isinstance(call, Call):
            return self.comm.engine.start(self, call, name=pname)
        return Request(self.sim.process(call, name=pname))

    iop = _method(iop, "i" + name, build, "Request")
    iop.__doc__ = (
        f"Nonblocking :meth:`{name}`: every argument check and the tag "
        "claim happen at issue; returns a :class:`Request` at once."
    )
    return iop


for _name, _build in OPS.items():
    setattr(MpiContext, _name, _blocking(_name, _build))
    setattr(MpiContext, "i" + _name, _nonblocking(_name, _build))
