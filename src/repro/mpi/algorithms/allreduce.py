"""Allreduce algorithms: reduce+bcast (seed), recursive doubling, ring.

Cost shapes (P ranks, n bytes, α latency, β per-byte):

* ``reduce_bcast`` — 2·⌈log2 P⌉·(α + nβ): the MVAPICH2 general-case
  fallback the seed shipped with.
* ``recursive_doubling`` — ⌈log2 P⌉·(α + nβ) (+2 fold steps when P is
  not a power of two): best when latency dominates.
* ``ring`` — 2·(P−1)·α + 2·n·β·(P−1)/P: bandwidth-optimal
  reduce-scatter + allgather (the Rabenseifner scatter-allgather family),
  best for large messages.

Every algorithm is a ``build_*`` function compiling to a data-free
:class:`Schedule` over binding slots 0 (send) and 1 (recv); blocking
and nonblocking (``iallreduce``) calls execute the same shapes, so they
share one code path and one timing model.

All :class:`~repro.mpi.datatypes.ReduceOp` operators are commutative, so
the fold-in step of non-power-of-two recursive doubling is safe; combines
still run lower-rank-first so floating-point results stay deterministic
per rank.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..datatypes import ReduceOp
from .base import largest_pof2
from .schedule import (
    COMBINE, COPY, REBIND, Binding, Schedule, Shape, open_schedule, wide,
)

__all__ = [
    "build_allreduce_reduce_bcast",
    "build_allreduce_recursive_doubling",
    "build_allreduce_ring",
    "append_ring_reduce_scatter",
    "append_ring_allgather",
]


def build_allreduce_reduce_bcast(
    ctx, b: Binding, op: ReduceOp, bcast: str
) -> Schedule:
    """Reduce to rank 0, then broadcast (the seed's fixed algorithm).

    Composed from the binomial-reduce and broadcast schedules; the bcast
    leg runs the algorithm ``bcast``, which the call builder picks (and
    counts) exactly as for a standalone ``bcast`` call.
    """
    from .bcast import append_bcast
    from .reduce import append_reduce_binomial

    sched = Schedule(ctx, b)
    ends = append_reduce_binomial(sched, ctx, b, op=op, root=0, after=())
    # The bcast leg's rounds start past the reduce leg's on EVERY rank:
    # the offset is the binomial tree's global depth, not this rank's
    # own round count (a leaf's reduce part is a single round).
    append_bcast(bcast, sched, ctx, 1, root=0, after=ends,
                 round0=(ctx.size - 1).bit_length())
    return sched


def build_allreduce_recursive_doubling(
    ctx, b: Binding, op: ReduceOp = ReduceOp.SUM
) -> Schedule:
    """Recursive-doubling allreduce (MPICH small-message algorithm).

    Non-power-of-two sizes use the standard fold: the first 2·rem ranks
    pair up (even sends to odd) so ``pof2`` ranks run the doubling
    rounds, then the even partners receive the final result back.
    """
    size, rank = ctx.size, ctx.rank
    sched = Schedule(ctx, b)
    n, dt = b.sizes[0], b.dtype
    acc = sched.buffer(n, dt, init=((0, 0),))
    out = ((COPY, acc, 1),)
    if size == 1:
        sched.overhead()
        sched.compute(out, after=(sched.last,))
        return sched
    tag = sched.claim()
    pof2 = largest_pof2(size)
    rem = size - pof2
    deps: List[int] = []
    rnd = 0
    # Fold-in (tag offset 4): even ranks below 2·rem contribute and sit out.
    if rank < 2 * rem:
        if rank % 2 == 0:
            # donate: acc is rebound, never mutated, and the fold-out
            # recv that overwrites it is causally behind the partner's
            # fold-in, which is the last read of the donated array.
            deps = [sched.send(acc, rank + 1, tag + 4, donate=True)]
            newrank = -1
        else:
            tmp0 = sched.buffer(n, dt, adopt=True)
            r = sched.recv(tmp0, rank - 1, tag + 4)
            deps = [sched.compute(((REBIND, op, tmp0, acc, acc),),
                                  after=(r,))]
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            rnd += 1
            partner_new = newrank ^ mask
            partner = (
                partner_new * 2 + 1 if partner_new < rem
                else partner_new + rem
            )
            tmp = sched.buffer(n, dt, adopt=True)
            # donate: acc is rebound (never mutated), so the in-flight
            # array can never observe a later write — the partner may
            # adopt it as its combine input.
            s = sched.send(acc, partner, tag, after=deps, round=rnd,
                           donate=True)
            r = sched.recv(tmp, partner, tag, after=deps, round=rnd)
            pair = (tmp, acc) if partner < rank else (acc, tmp)
            deps = [sched.compute(((REBIND, op, *pair, acc),),
                                  after=(s, r), round=rnd)]
            mask <<= 1
    # Fold-out (tag offset 5): odd partners hand the result back.
    if rank < 2 * rem:
        rnd += 1
        if rank % 2 == 1:
            # alias_ok (not donate): acc holds this rank's final result
            # and is still read by the trailing out-copy below.
            deps = [sched.send(acc, rank - 1, tag + 5, after=deps,
                               round=rnd, alias_ok=True)]
        else:
            deps = [sched.recv(acc, rank + 1, tag + 5, after=deps,
                               round=rnd)]
    sched.compute(out, after=deps)
    return sched


def _ring_chunker(acc: Tuple, dt: np.dtype, size: int):
    """Chunk refs for a ring over ``size`` pieces of the byte range
    ``acc`` (split by elements, like ``np.array_split``); its bounds
    and the chunk numbers may be arrays over the shape's ranks."""
    slot, lo, hi = acc
    isz = dt.itemsize
    n = (hi - lo) // isz

    def chunk(c) -> Tuple:
        c = c % size
        return (slot, lo + (c * n) // size * isz,
                lo + ((c + 1) * n) // size * isz)

    return chunk


def append_ring_reduce_scatter(
    sched,
    ctx,
    acc: Tuple,
    dt: np.dtype,
    op: ReduceOp,
    tag,
    after=(),
    round0=0,
) -> List:
    """Ring reduce-scatter over ``ctx``'s communicator (tag offsets
    0..3): after P−1 steps rank *r* owns the fully combined chunk
    ``(r+1) mod P`` of the byte range ``acc`` (elements of ``dt``).

    Wide: ``sched`` is a :class:`~repro.mpi.algorithms.schedule.Shape`,
    or — for the hierarchical composition — a
    :class:`~repro.mpi.algorithms.schedule.SubShape` on an intra-domain
    or peer communicator's members, and each step is built for all of
    its ranks at once; on one rank's own schedule (or its
    :class:`~repro.mpi.algorithms.schedule.SubSchedule`), for that
    rank.
    """
    size, rank = ctx.size, ctx.rank
    chunk = _ring_chunker(acc, dt, size)
    right = (rank + 1) % size
    left = (rank - 1) % size
    deps = list(after)
    for step in range(size - 1):
        send_c = chunk(rank - step)
        recv_c = chunk(rank - step - 1)
        tmp = sched.buffer(recv_c[2] - recv_c[1], dt, adopt=True)
        rnd = round0 + step
        # donate: acc is collective-private and the sent chunk is next
        # written only in the allgather phase, which is causally behind
        # the right neighbor's combine — the last read of the adopted
        # chunk view.
        s = sched.send(send_c, right, tag + step % 4, after=deps, round=rnd,
                       donate=True)
        r = sched.recv(tmp, left, tag + step % 4, after=deps, round=rnd)
        deps = [sched.compute(((COMBINE, op, tmp, recv_c, recv_c),),
                              after=(s, r), round=rnd)]
    return deps


def append_ring_allgather(
    sched,
    ctx,
    acc: Tuple,
    dt: np.dtype,
    tag,
    after=(),
    round0=0,
) -> List:
    """Ring allgather of the chunks a reduce-scatter left behind (tag
    offsets 0..3): circulates from each rank's owned chunk
    ``(r+1) mod P`` until every rank holds all of ``acc``.  Wide, like
    :func:`append_ring_reduce_scatter`."""
    size, rank = ctx.size, ctx.rank
    chunk = _ring_chunker(acc, dt, size)
    right = (rank + 1) % size
    left = (rank - 1) % size
    deps = list(after)
    for step in range(size - 1):
        rnd = round0 + step
        # alias_ok: acc is collective-private and a forwarded chunk is
        # never written again after its send.
        s = sched.send(chunk(rank + 1 - step), right, tag + step % 4,
                       after=deps, round=rnd, alias_ok=True)
        r = sched.recv(chunk(rank - step), left, tag + step % 4,
                       after=deps, round=rnd)
        deps = [s, r]
    return deps


@wide
def build_allreduce_ring(
    ctx, b: Binding, op: ReduceOp = ReduceOp.SUM
) -> Union[Schedule, Shape]:
    """Ring allreduce: reduce-scatter then allgather over 1/P chunks.

    Works for any P (including non-powers of two) and any element count
    (trailing chunks may be empty when count < P).  Wide, like its two
    appenders.
    """
    size = ctx.size
    sched = open_schedule(ctx, b)
    n, dt = b.sizes[0], b.dtype
    acc = sched.buffer(n, dt, init=((0, 0),))
    out = ((COPY, acc, 1),)
    if size == 1:
        sched.compute(out, after=(sched.overhead(),))
        return sched
    tag = sched.claim()
    deps = append_ring_reduce_scatter(sched, ctx, (acc, 0, n), dt, op, tag)
    deps = append_ring_allgather(
        sched, ctx, (acc, 0, n), dt, tag + 4, after=deps, round0=size - 1
    )
    sched.compute(out, after=deps)
    return sched
