"""Collective operations over the simulated point-to-point layer.

Each MPI collective is defined exactly once, in :data:`OPS`: a call
builder that counts the call, binds and validates its buffers, selects
the algorithm and keys the
:class:`~repro.mpi.algorithms.schedule.Call` the engine runs.  Both
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
linear-at-root shape MVAPICH2-era implementations used, built here as
schedules like every other collective; the fast path hands them to the
exact engine (see :mod:`repro.mpi.algorithms.fastpath`).  A receive
that lands fewer bytes than its buffer raises, whatever the op.

Every collective call consumes one slot of the internal tag space, kept
consistent across ranks by the requirement (as in real MPI) that all
ranks invoke collectives in the same order — the tag block and
algorithm are claimed synchronously at issue time, so mixed
blocking/nonblocking sequences stay aligned.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Optional, Sequence

import numpy as np

from .datatypes import Payload, ReduceOp, payload_array
from .errors import MpiError

__all__ = ["OPS", "BINDERS"]

from .algorithms.base import hier_ok as _hier_ok
from .algorithms.barrier import build_barrier_dissemination
from .algorithms.schedule import COPY, Binding, Call, Schedule
from .algorithms.selector import SCHEDULES
from .communicator import MpiContext


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


#: Per collective with an algorithm menu: its binder (also what the
#: ``ALGORITHMS`` blocking entry points bind through).
BINDERS = {
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
# The op table: one call builder per collective, returning its Call
# (selected and keyed, no schedule built — the engine builds one only
# on a plan miss).
# ---------------------------------------------------------------------------

def _barrier_call(ctx: MpiContext) -> Call:
    """Dissemination barrier across all ranks."""
    ctx.comm._count("barrier")
    return Call("barrier", "dissemination", 0, ("barrier", ctx.size),
                Binding(()), build_barrier_dissemination)


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


def _bind_linear(ctx: MpiContext, op: str, root: int, single: Payload,
                 bufs) -> Binding:
    """Bind a linear collective: slot 0 is this rank's one buffer
    (gather's send, scatter's receive); at the root, slots ``1 + r``
    are ``bufs``, one per rank, whose own block ``bufs[root]`` must
    match ``single`` in size.  Every block received over the wire must
    be C-contiguous."""
    ctx.comm._check_rank(root)
    if ctx.rank != root:
        if op == "scatter":
            ctx._contiguous(op, "recv buffer", (single,))
        return Binding((single,))
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
    return Binding((single, *bufs))


def _build_gather(ctx: MpiContext, b: Binding, root: int) -> Schedule:
    """A non-root sends slot 0 to the root, which receives rank ``r``'s
    block into slot ``1 + r`` and copies its own."""
    sched = Schedule(ctx, b)
    tag = sched.claim()
    if ctx.rank != root:
        sched.send(0, root, tag)
        return sched
    for r in range(ctx.size):
        if r != root:
            sched.recv(1 + r, r, tag)
    sched.compute(((COPY, 0, 1 + root),))
    return sched


def _build_scatter(ctx: MpiContext, b: Binding, root: int) -> Schedule:
    """The root sends slot ``1 + r`` to rank ``r`` and copies its own
    block; a non-root receives into slot 0."""
    sched = Schedule(ctx, b)
    tag = sched.claim()
    if ctx.rank != root:
        sched.recv(0, root, tag)
        return sched
    for r in range(ctx.size):
        if r != root:
            sched.send(1 + r, r, tag)
    sched.compute(((COPY, 1 + root, 0),))
    return sched


def _gather_call(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]] = None,
    root: int = 0,
) -> Call:
    """Linear gather: every rank sends its buffer to the root.

    At the root, ``recvbufs`` is a sequence of per-rank destination
    buffers (the vector variant — MPI_Gatherv — falls out naturally
    since the buffers may have different sizes); non-root ranks may
    omit it (as in mpi4py)."""
    ctx.comm._count("gather")
    b = _bind_linear(ctx, "gather", root, sendbuf, recvbufs)
    return Call("gather", "linear", b.sizes[0], None, b, _build_gather,
                (root,))


def _scatter_call(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int = 0,
) -> Call:
    """Linear scatter: the root sends ``sendbufs[i]`` to rank ``i``
    (vector variant included)."""
    ctx.comm._count("scatter")
    b = _bind_linear(ctx, "scatter", root, recvbuf, sendbufs)
    return Call("scatter", "linear", b.sizes[0], None, b, _build_scatter,
                (root,))


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
        yield from self.comm.engine.execute(self, build(self, *args, **kwargs))

    return _method(op, name, build, "Generator[Event, Any, None]")


def _nonblocking(name: str, build: Callable):
    def iop(self, *args, **kwargs):
        return self.comm.engine.start(self, build(self, *args, **kwargs),
                                      name=f"i{name}(r{self.rank})")

    iop = _method(iop, "i" + name, build, "Request")
    iop.__doc__ = (
        f"Nonblocking :meth:`{name}`: every argument check and the tag "
        "claim happen at issue; returns a :class:`Request` at once."
    )
    return iop


for _name, _build in OPS.items():
    setattr(MpiContext, _name, _blocking(_name, _build))
    setattr(MpiContext, "i" + _name, _nonblocking(_name, _build))
