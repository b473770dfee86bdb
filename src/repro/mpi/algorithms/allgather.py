"""Allgather algorithms: ring (seed), recursive doubling, and Bruck.

* ``ring`` — P−1 steps each forwarding one block: bandwidth-optimal,
  handles unequal block sizes (the vector variant) and any P.
* ``recursive_doubling`` — ⌈log2 P⌉ rounds, doubling the forwarded
  volume each round; same total bytes, far fewer per-message latencies.
  Requires a power-of-two communicator and equal block sizes (as
  MPI_Allgather guarantees); the selector falls back to the ring
  otherwise.
* ``bruck`` — ⌈log2 P⌉ rounds for *any* P (the store-and-rotate
  schedule of Bruck et al.): round k forwards the min(2^k, P−2^k)
  blocks accumulated so far to rank−2^k, receiving the matching run
  from rank+2^k.  Latency-optimal on non-power-of-two communicators,
  where recursive doubling cannot run; the final rotation is a local
  index remap (no wire traffic).  Equal block sizes only.

Each algorithm is a ``build_*`` function compiling to a data-free
:class:`~repro.mpi.algorithms.schedule.Schedule`.  Binding slot 0 is
the send buffer; the receive side is slot 1 — one contiguous
``P × block`` array (the ``MPI_Allgather`` layout, ``binding.flat``) —
or slots ``1..P``, one buffer per block.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Union

from ..errors import MpiError
from .base import is_pof2
from .schedule import (
    BYTES, COPY, Binding, Schedule, Shape, at, open_schedule, wide,
)

__all__ = [
    "build_allgather_ring",
    "build_allgather_recursive_doubling",
    "build_allgather_bruck",
]


def recv_blocks(b: Binding, size: int) -> List:
    """The refs of the ``size`` receive blocks: ranges of the flat
    receive array, or the per-block slots."""
    if b.flat:
        blk = b.sizes[0]
        return [(1, i * blk, (i + 1) * blk) for i in range(size)]
    return list(range(1, size + 1))


def block_sizes(b: Binding, size: int) -> List[int]:
    return [b.sizes[0]] * size if b.flat else list(b.sizes[1:])


def block_ref(b: Binding, i: int):
    """The ref of receive block ``i`` alone (``recv_blocks(b, P)[i]``)."""
    if b.flat:
        blk = b.sizes[0]
        return (1, i * blk, (i + 1) * blk)
    return 1 + i


def build_allgather_ring(ctx, b: Binding) -> Schedule:
    """Ring allgather: P−1 steps, each forwarding one block."""
    sched = Schedule(ctx, b)
    tag = sched.claim()
    size, rank = ctx.size, ctx.rank
    blocks = recv_blocks(b, size)
    deps = [sched.compute(((COPY, 0, blocks[rank]),))]
    if size == 1:
        sched.overhead(after=deps)
        return sched
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        s = sched.send(blocks[send_block], right, tag + step % 4,
                       after=deps, round=step)
        r = sched.recv(blocks[recv_block], left, tag + step % 4,
                       after=deps, round=step)
        deps = [s, r]
    return sched


@wide
def build_allgather_recursive_doubling(
    ctx, b: Binding
) -> Union[Schedule, Shape]:
    """Recursive-doubling allgather (power-of-two P, equal blocks).

    After round ``i`` every rank holds the contiguous run of ``2^(i+1)``
    blocks it shares with its partner's half, so both sides always know
    exactly which blocks travel: the packed exchange needs no index
    metadata on the wire.

    Into one flat receive array the runs already sit contiguously in
    place, so the exchange sends zero-copy views of the assembled run
    and receives straight into the destination run; per-block buffers
    are packed and unpacked around a staging vector instead.  Wire
    traffic — message sizes, tags, rounds, dependencies — is identical
    either way, so timing is too.  Wide: each round is built for all
    of ``ctx``'s ranks at once (a
    :class:`~repro.mpi.algorithms.schedule.Ranks`), or for one rank.
    """
    size, rank = ctx.size, ctx.rank
    if not is_pof2(size):
        raise MpiError("recursive-doubling allgather needs power-of-two P")
    sched = open_schedule(ctx, b)
    tag = sched.claim()
    deps = [sched.compute(((COPY, 0, block_ref(b, rank)),))]
    if size == 1:
        sched.overhead(after=deps)
        return sched
    # Per-block slots: block j is slot 1 + j, at byte ``ends[j]`` of the
    # concatenation of all blocks.
    ends = list(accumulate(b.sizes[1:], initial=0))
    mask = 1
    rnd = 0
    while mask < size:
        partner = rank ^ mask
        my_lo = rank & ~(mask - 1)
        peer_lo = my_lo ^ mask
        if b.flat:
            block = b.sizes[0]
            # alias_ok: the sent run is fully assembled (its blocks
            # arrived in earlier rounds, which are dependencies) and is
            # never written again — later receives only ever fill the
            # disjoint peer half.
            s = sched.send((1, my_lo * block, (my_lo + mask) * block),
                           partner, tag, after=deps, round=rnd,
                           alias_ok=True)
            r = sched.recv((1, peer_lo * block, (peer_lo + mask) * block),
                           partner, tag, after=deps, round=rnd)
            deps = [s, r]
        else:
            first = at(ends, peer_lo)
            stage = sched.buffer(at(ends, peer_lo + mask) - first,
                                 adopt=True)
            # donate: the pack is a fresh concatenation nothing else
            # ever writes or reads again.
            s = sched.send(tuple(1 + my_lo + j for j in range(mask)),
                           partner, tag, after=deps, round=rnd, donate=True,
                           pack=True)
            r = sched.recv(stage, partner, tag, after=deps, round=rnd)
            unpack = tuple(
                (BYTES, (stage, at(ends, peer_lo + j) - first,
                         at(ends, peer_lo + j + 1) - first), 1 + peer_lo + j)
                for j in range(mask))
            deps = [s, sched.compute(unpack, after=(r,), round=rnd)]
        mask <<= 1
        rnd += 1
    return sched


def build_allgather_bruck(ctx, b: Binding) -> Schedule:
    """Bruck allgather (any P, equal blocks): ⌈log2 P⌉ rounds.

    The working vector is kept in rank-rotated order — slot ``i`` holds
    block ``(rank + i) mod P`` — so every round forwards a contiguous
    run of slots with no index metadata on the wire, exactly like the
    recursive-doubling pack.  The de-rotation at the end is a local
    remap into the receive blocks.
    """
    size, rank = ctx.size, ctx.rank
    if b.dtype is None:
        raise MpiError("bruck allgather requires an array payload")
    block = b.sizes[0]
    if any(n != block for n in block_sizes(b, size)):
        raise MpiError("bruck allgather needs equal-size recv blocks")
    sched = Schedule(ctx, b)
    tag = sched.claim()
    blocks = recv_blocks(b, size)
    if size == 1:
        sched.compute(((COPY, 0, blocks[rank]),))
        sched.overhead(after=(sched.last,))
        return sched
    work = sched.buffer(size * block, init=((0, 0),))
    deps: List[int] = []
    step = 1
    rnd = 0
    while step < size:
        count = min(step, size - step)
        dst = (rank - step) % size
        src = (rank + step) % size
        stage = sched.buffer(count * block, adopt=True)
        # donate: slots 0..count−1 of the working vector are complete
        # and never written again (this round fills slots step.., and
        # count <= step).
        s = sched.send((work, 0, count * block), dst, tag + rnd % 2,
                       after=deps, round=rnd, donate=True)
        r = sched.recv(stage, src, tag + rnd % 2, after=deps, round=rnd)
        # Received slots step..step+count−1: blocks (rank+step+j) mod P.
        absorb = ((BYTES, stage, (work, step * block,
                                  (step + count) * block)),)
        deps = [s, sched.compute(absorb, after=(r,), round=rnd)]
        step <<= 1
        rnd += 1
    # De-rotate: slot i is block (rank + i) mod P.
    sched.compute(tuple(
        (BYTES, (work, i * block, (i + 1) * block), blocks[(rank + i) % size])
        for i in range(size)
    ), after=deps)
    return sched
