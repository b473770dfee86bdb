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

Each algorithm is a ``build_*`` function compiling to a round-based
:class:`~repro.mpi.algorithms.schedule.Schedule`; packing and the Bruck
rotation use lazy buffers because a round's payload only exists once the
previous round delivered.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..datatypes import AdoptBuf, Payload, payload_array
from ..errors import MpiError
from .base import is_pof2, next_tag
from .schedule import Schedule

__all__ = [
    "build_allgather_ring",
    "build_allgather_recursive_doubling",
    "build_allgather_bruck",
]


def build_allgather_ring(
    ctx,
    sendbuf: Payload,
    recvbufs: Sequence[Payload],
) -> Schedule:
    """Ring allgather: P−1 steps, each forwarding one block.

    Buffer-count validation happens once at the dispatch layer
    (``collectives.allgather``).
    """
    sched = Schedule()
    tag = next_tag(ctx)
    size, rank = ctx.size, ctx.rank
    own = payload_array(recvbufs[rank])
    mine = payload_array(sendbuf)

    def local_copy():
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)

    deps = [sched.compute(local_copy)]
    if size == 1:
        sched.overhead(after=deps)
        return sched
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        s = sched.send(recvbufs[send_block], right, tag + step % 4,
                       after=deps, round=step)
        r = sched.recv(recvbufs[recv_block], left, tag + step % 4,
                       after=deps, round=step)
        deps = [s, r]
    return sched


def _contiguous_span(
    arrays: Sequence[Optional[np.ndarray]], block: int
) -> Optional[np.ndarray]:
    """One uint8 view covering ``arrays`` back-to-back, or ``None``.

    When the recv blocks are adjacent equal-size slices of a single
    buffer (the common flat-recvbuf layout), recursive doubling can
    receive each round's packed run straight into its final location
    and send fully-assembled runs as zero-copy views — no staging
    buffers, no pack/unpack memcpy at all.
    """
    if block == 0 or any(a is None for a in arrays):
        return None
    base = arrays[0].base
    if base is None or not isinstance(base, np.ndarray):
        return None
    if not base.flags.c_contiguous:
        return None
    if any(
        a.base is not base or not a.flags.c_contiguous or a.nbytes != block
        for a in arrays
    ):
        return None
    flat = base.view(np.uint8).reshape(-1)
    p0 = flat.__array_interface__["data"][0]
    offs = [a.__array_interface__["data"][0] - p0 for a in arrays]
    if offs[0] < 0 or offs[-1] + block > flat.size:
        return None
    if any(offs[i + 1] - offs[i] != block for i in range(len(arrays) - 1)):
        return None
    return flat[offs[0] : offs[0] + len(arrays) * block]


def build_allgather_recursive_doubling(
    ctx,
    sendbuf: Payload,
    recvbufs: Sequence[Payload],
) -> Schedule:
    """Recursive-doubling allgather (power-of-two P, equal blocks).

    After round ``i`` every rank holds the contiguous run of ``2^(i+1)``
    blocks it shares with its partner's half, so both sides always know
    exactly which blocks travel: the packed exchange needs no index
    metadata on the wire.

    When the recv blocks are adjacent slices of one flat buffer the
    packed runs already exist contiguously in place, so the exchange
    sends zero-copy views of the assembled run and receives directly
    into the destination run (see :func:`_contiguous_span`).  Wire
    traffic — message sizes, tags, rounds, dependencies — is identical
    to the staging variant, so timing is unchanged.
    """
    size, rank = ctx.size, ctx.rank
    if not is_pof2(size):
        raise MpiError("recursive-doubling allgather needs power-of-two P")
    sched = Schedule()
    tag = next_tag(ctx)
    arrays: List[Optional[np.ndarray]] = [payload_array(b) for b in recvbufs]
    mine = payload_array(sendbuf)
    own = arrays[rank]

    def local_copy():
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)

    deps = [sched.compute(local_copy)]
    if size == 1:
        sched.overhead(after=deps)
        return sched

    block = arrays[0].nbytes if arrays[0] is not None else 0
    span = _contiguous_span(arrays, block)
    if span is not None:
        # The span path has no pack/unpack steps: a different DAG for
        # the same dispatch key.
        sched.layout = ("span",)
        mask = 1
        rnd = 0
        while mask < size:
            partner = rank ^ mask
            my_lo = rank & ~(mask - 1)
            peer_lo = my_lo ^ mask
            # alias_ok: the sent run is fully assembled (its blocks
            # arrived in earlier rounds, which are dependencies) and is
            # never written again — later receives only ever fill the
            # disjoint peer half.
            s = sched.send(
                span[my_lo * block : (my_lo + mask) * block],
                partner, tag, after=deps, round=rnd, alias_ok=True,
            )
            r = sched.recv(
                span[peer_lo * block : (peer_lo + mask) * block],
                partner, tag, after=deps, round=rnd,
            )
            deps = [s, r]
            mask <<= 1
            rnd += 1
        return sched

    def pack(lo: int, count: int) -> np.ndarray:
        views = [
            a.view(np.uint8).reshape(-1)
            for a in arrays[lo : lo + count]
            if a is not None
        ]
        if not views:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(views)

    def unpack(buf: np.ndarray, lo: int, count: int) -> None:
        off = 0
        for a in arrays[lo : lo + count]:
            if a is None:
                continue
            view = a.view(np.uint8).reshape(-1)
            view[...] = buf[off : off + view.size]
            off += view.size

    mask = 1
    rnd = 0
    while mask < size:
        partner = rank ^ mask
        my_lo = rank & ~(mask - 1)
        peer_lo = my_lo ^ mask
        peer_bytes = sum(
            a.nbytes for a in arrays[peer_lo : peer_lo + mask] if a is not None
        )
        # AdoptBuf staging: the unpack below reads through ``.arr`` at
        # compute time, so the receive may adopt the in-flight pack.
        recvpack = AdoptBuf(peer_bytes)
        # The outgoing pack only exists once earlier rounds unpacked —
        # resolve it lazily at send time.  donate: pack() returns a
        # fresh concatenation nothing else ever writes or reads again.
        s = sched.send(lambda lo=my_lo, c=mask: pack(lo, c), partner, tag,
                       after=deps, round=rnd, donate=True)
        r = sched.recv(recvpack, partner, tag, after=deps, round=rnd)
        deps = [s, sched.compute(
            lambda b=recvpack, lo=peer_lo, c=mask: unpack(b.arr, lo, c),
            after=(r,), round=rnd,
        )]
        mask <<= 1
        rnd += 1
    return sched


def build_allgather_bruck(
    ctx,
    sendbuf: Payload,
    recvbufs: Sequence[Payload],
) -> Schedule:
    """Bruck allgather (any P, equal blocks): ⌈log2 P⌉ rounds.

    The working vector is kept in rank-rotated order — slot ``i`` holds
    block ``(rank + i) mod P`` — so every round forwards a contiguous
    run of slots with no index metadata on the wire, exactly like the
    recursive-doubling pack.  The de-rotation at the end is a local
    remap into ``recvbufs``.
    """
    size, rank = ctx.size, ctx.rank
    arrays: List[Optional[np.ndarray]] = [payload_array(b) for b in recvbufs]
    mine = payload_array(sendbuf)
    if mine is None:
        raise MpiError("bruck allgather requires an array payload")
    block = mine.nbytes
    if any(a is None or a.nbytes != block for a in arrays):
        raise MpiError("bruck allgather needs equal-size recv blocks")
    sched = Schedule()
    tag = next_tag(ctx)
    if size == 1:
        own = arrays[rank]
        sched.compute(lambda: own.__setitem__(..., mine.reshape(own.shape)))
        sched.overhead(after=(sched.last,))
        return sched
    work: List[np.ndarray] = [mine.view(np.uint8).reshape(-1).copy()]
    deps: List[int] = []
    step = 1
    rnd = 0
    while step < size:
        count = min(step, size - step)
        dst = (rank - step) % size
        src = (rank + step) % size
        recvpack = AdoptBuf(count * block)
        # donate: the payload is a fresh concatenation (np.concatenate
        # copies even for a single input), or work[0] — this rank's
        # private copy of its own block, which nobody ever writes (so
        # donating it to several receivers across rounds stays safe).
        s = sched.send(
            lambda c=count: np.concatenate(work[:c]) if c > 1 else work[0],
            dst, tag + rnd % 2, after=deps, round=rnd, donate=True,
        )
        r = sched.recv(recvpack, src, tag + rnd % 2, after=deps, round=rnd)

        def absorb(buf=recvpack, c=count):
            # Received slots step..step+count−1: blocks (rank+step+j) mod P.
            arr = buf.arr
            for j in range(c):
                work.append(arr[j * block : (j + 1) * block])

        deps = [s, sched.compute(absorb, after=(r,), round=rnd)]
        step <<= 1
        rnd += 1

    def derotate():
        # De-rotate: slot i is block (rank + i) mod P.
        for i, blk in enumerate(work):
            dest = arrays[(rank + i) % size]
            view = dest.view(np.uint8).reshape(-1)
            view[...] = blk

    sched.compute(derotate, after=deps)
    return sched

