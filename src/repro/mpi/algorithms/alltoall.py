"""Alltoall algorithms: shift (seed), pairwise exchange, and Bruck.

``shift`` and ``pairwise`` run P−1 rounds moving one block per rank per
round; they differ in partnering.  The shift schedule sends to
``rank+k`` while receiving from ``rank−k`` (two different peers per
round); pairwise exchange uses the XOR partner ``rank^k`` so each round
is a perfect matching of bidirectional pairs — the schedule real MPIs
prefer on power-of-two communicators because it keeps per-round traffic
contention-free.

``bruck`` (Bruck et al. 1997) trades bandwidth for latency: after a
local rotation, round k ships *every* block whose slot index has bit k
set to ``rank+2^k`` — ⌈log2 P⌉ rounds moving ≈(P/2)·log2 P blocks total
instead of P−1 rounds of one block.  For small blocks, where per-round
latency dominates, that is the winning trade on any communicator size
(it is the only sub-linear schedule for non-powers of two); the final
inverse rotation is a local remap.  Selected by the autotuned
``alltoall_bruck_max_bytes`` threshold.

Binding slots ``0..P-1`` are the send blocks, ``P..2P-1`` the receive
blocks.
"""

from __future__ import annotations

from typing import List

from ..errors import MpiError
from .base import is_pof2
from .schedule import BYTES, COPY, Binding, Schedule

__all__ = [
    "build_alltoall_shift",
    "build_alltoall_pairwise",
    "build_alltoall_bruck",
]


def build_alltoall_shift(ctx, b: Binding) -> Schedule:
    """Shift-schedule all-to-all (the seed algorithm)."""
    size, rank = ctx.size, ctx.rank
    sched = Schedule(ctx, b)
    deps = [sched.compute(((COPY, rank, size + rank),))]
    tag = sched.claim()
    if size == 1:
        sched.overhead(after=deps)
        return sched
    for k in range(1, size):
        dst = (rank + k) % size
        src = (rank - k) % size
        s = sched.send(dst, dst, tag, after=deps, round=k - 1)
        r = sched.recv(size + src, src, tag, after=deps, round=k - 1)
        deps = [s, r]
    return sched


def build_alltoall_pairwise(ctx, b: Binding) -> Schedule:
    """Pairwise (XOR-partner) exchange; requires power-of-two P."""
    size, rank = ctx.size, ctx.rank
    if not is_pof2(size):
        raise MpiError("pairwise alltoall needs power-of-two P")
    sched = Schedule(ctx, b)
    deps = [sched.compute(((COPY, rank, size + rank),))]
    tag = sched.claim()
    if size == 1:
        sched.overhead(after=deps)
        return sched
    for k in range(1, size):
        partner = rank ^ k
        s = sched.send(partner, partner, tag, after=deps, round=k - 1)
        r = sched.recv(size + partner, partner, tag, after=deps,
                       round=k - 1)
        deps = [s, r]
    return sched


def build_alltoall_bruck(ctx, b: Binding) -> Schedule:
    """Bruck alltoall (any P, equal blocks): ⌈log2 P⌉ packed rounds.

    Slot invariant: after the initial rotation, slot ``i`` of the
    working vector holds the block this rank must deliver to
    ``rank+i``; a block at slot ``i`` travels +2^k in exactly the rounds
    where bit k of ``i`` is set, so every rank exchanges the same slot
    set each round and no index metadata crosses the wire.  The final
    remap stores slot ``i`` as the block received *from* ``rank−i``.
    """
    size, rank = ctx.size, ctx.rank
    if b.dtype is None:
        raise MpiError("bruck alltoall requires array payloads")
    block = b.sizes[0]
    if any(n != block for n in b.sizes):
        raise MpiError("bruck alltoall needs equal-size blocks")
    sched = Schedule(ctx, b)
    tag = sched.claim()
    # Local rotation: slot i ← block destined to (rank + i) mod P.
    work = sched.buffer(size * block, init=tuple(
        ((rank + i) % size, i * block) for i in range(size)
    ))

    def slot(i: int):
        return (work, i * block, (i + 1) * block)

    if size == 1:
        sched.compute(((BYTES, slot(0), size),))
        sched.overhead(after=(sched.last,))
        return sched
    deps: List[int] = []
    step = 1
    rnd = 0
    while step < size:
        idxs = [i for i in range(size) if i & step]
        dst = (rank + step) % size
        src = (rank - step) % size
        stage = sched.buffer(len(idxs) * block, adopt=True)
        # donate: the payload is a fresh concatenation of the slots,
        # which the sender never touches again.
        s = sched.send(tuple(slot(i) for i in idxs), dst, tag + rnd % 2,
                       after=deps, round=rnd, donate=True, pack=True)
        r = sched.recv(stage, src, tag + rnd % 2, after=deps, round=rnd)
        unpack = tuple(
            (BYTES, (stage, j * block, (j + 1) * block), slot(i))
            for j, i in enumerate(idxs)
        )
        deps = [s, sched.compute(unpack, after=(r,), round=rnd)]
        step <<= 1
        rnd += 1
    # Slot i ended at this rank carrying the block from rank−i.
    sched.compute(tuple(
        (BYTES, slot(i), size + (rank - i) % size) for i in range(size)
    ), after=deps)
    return sched
