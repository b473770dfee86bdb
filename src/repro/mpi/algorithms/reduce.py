"""Reduce-to-root algorithms: binomial tree (seed) and Rabenseifner.

* ``binomial`` — ⌈log2 P⌉ rounds each moving the full vector: the
  classic MVAPICH2 tree the seed shipped with.  Latency-optimal; every
  round ships all n bytes, so large vectors pay ⌈log2 P⌉·nβ.
* ``rabenseifner`` — recursive-halving reduce-scatter followed by a
  binomial gather of the combined chunks to the root: 2·⌈log2 P⌉
  rounds but only ≈2·nβ total bytes on the critical path — the
  bandwidth-optimal root-ended reduction (Rabenseifner 2004), selected
  for large messages on any communicator size (non-powers of two pay
  one extra fold-in round first).

Both compile to data-free :class:`~repro.mpi.algorithms.schedule.Schedule`
DAGs over binding slots 0 (send) and 1 (recv, used at the root);
``mpi/collectives.py`` dispatches blocking ``reduce`` (and the new
``ireduce``) through the selector onto these builders, and the
reduce+bcast allreduce splices the binomial schedule in front of its
broadcast leg.
"""

from __future__ import annotations

from typing import List, Sequence

from ..datatypes import ReduceOp
from .base import largest_pof2
from .schedule import COMBINE, COPY, REBIND, Binding, Schedule

__all__ = [
    "build_reduce_binomial",
    "build_reduce_rabenseifner",
    "append_reduce_binomial",
]


def append_reduce_binomial(
    sched: Schedule,
    ctx,
    b: Binding,
    op: ReduceOp = ReduceOp.SUM,
    root: int = 0,
    after: Sequence[int] = (),
) -> List[int]:
    """Binomial-tree reduction of slot 0 into slot 1 at ``root`` (the
    seed schedule); returns the terminal step indices."""
    size, rank = ctx.size, ctx.rank
    tag = sched.claim()
    n, dt = b.sizes[0], b.dtype
    acc = sched.buffer(n, dt, init=((0, 0),))
    deps = list(after)
    if size > 1:
        vrank = (rank - root) % size
        mask = 1
        rnd = 0
        while mask < size:
            if vrank & mask:
                dst = ((vrank & ~mask) + root) % size
                # donate: acc is rebound, and this rank's tree role
                # ends at this send — nothing touches acc afterwards.
                deps = [sched.send(acc, dst, tag, after=deps, round=rnd,
                                   donate=True)]
                break
            partner_v = vrank | mask
            if partner_v < size:
                tmp = sched.buffer(n, dt, adopt=True)
                partner = (partner_v + root) % size
                r = sched.recv(tmp, partner, tag, after=deps, round=rnd)
                deps = [sched.compute(((REBIND, op, acc, tmp, acc),),
                                      after=(r,), round=rnd)]
            mask <<= 1
            rnd += 1
    else:
        deps = [sched.overhead(after=deps)]
    if rank == root:
        deps = [sched.compute(((COPY, acc, 1),), after=deps)]
    return deps


def build_reduce_binomial(
    ctx, b: Binding, op: ReduceOp = ReduceOp.SUM, root: int = 0
) -> Schedule:
    sched = Schedule(ctx, b)
    append_reduce_binomial(sched, ctx, b, op=op, root=root)
    return sched


def build_reduce_rabenseifner(
    ctx, b: Binding, op: ReduceOp = ReduceOp.SUM, root: int = 0
) -> Schedule:
    """Recursive-halving reduce-scatter + binomial gather to the root.

    Any communicator size: on non-powers of two the ``rem = P − pof2``
    excess virtual ranks first fold their full vector into virtual rank
    ``vr − pof2`` (one extra round, mirroring the recursive-doubling
    allreduce fold-in; no fold-out — only the root needs the result and
    virtual rank 0 always participates), then the power-of-two
    participant set runs the standard halving + gather.  Tolerates
    element counts below P (trailing chunks are empty).  Chunk c of the
    vector ends fully combined on virtual rank c after the halving
    phase, then the gather phase folds the chunk ranges upward to the
    root in ⌈log2 pof2⌉ doubling rounds.
    """
    size, rank = ctx.size, ctx.rank
    sched = Schedule(ctx, b)
    nbytes, dt = b.sizes[0], b.dtype
    acc = sched.buffer(nbytes, dt, init=((0, 0),))
    out = ((COPY, acc, 1),)
    if size == 1:
        sched.overhead()
        sched.compute(out, after=(sched.last,))
        return sched
    tag = sched.claim()
    vr = (rank - root) % size
    pof2 = largest_pof2(size)
    rem = size - pof2
    isz = dt.itemsize
    n = nbytes // isz
    bounds = [((c * n) // pof2) * isz for c in range(pof2 + 1)]

    def seg(lo: int, hi: int):
        return (acc, bounds[lo], bounds[hi])

    def real(v: int) -> int:
        return (v + root) % size

    deps: List[int] = []
    rnd = 0
    # Fold-in (tag offset 6) — the excess virtual ranks (vr ≥ pof2)
    # hand their whole vector to vr − pof2 and are done; the receiver
    # combines it and carries both contributions forward.
    if rem:
        if vr >= pof2:
            # donate: acc is collective-private and this rank is done.
            sched.send(acc, real(vr - pof2), tag + 6, after=deps,
                       round=rnd, donate=True)
            return sched
        if vr < rem:
            fold_src = real(vr + pof2)
            tmp0 = sched.buffer(nbytes, dt, adopt=True)
            r = sched.recv(tmp0, fold_src, tag + 6, after=deps, round=rnd)
            pair = (tmp0, acc) if fold_src < rank else (acc, tmp0)
            deps = [sched.compute(((COMBINE, op, *pair, acc),), after=(r,),
                                  round=rnd)]
        rnd += 1
    # Phase 1 (tag offsets 0/1) — recursive halving reduce-scatter: each
    # round trades half of the live range with the partner at distance
    # ``half`` and combines the kept half.
    lo, hi = 0, pof2
    while hi - lo > 1:
        half = (hi - lo) // 2
        mid = lo + half
        partner = real(vr ^ half)
        if vr < mid:
            keep_lo, keep_hi = lo, mid
            give_lo, give_hi = mid, hi
        else:
            keep_lo, keep_hi = mid, hi
            give_lo, give_hi = lo, mid
        mine = seg(keep_lo, keep_hi)
        tmp = sched.buffer(mine[2] - mine[1], dt, adopt=True)
        # donate: acc is collective-private; the given-away half is
        # next written only by a gather recv, causally behind the
        # partner's combine — the last read of the adopted view.
        s = sched.send(seg(give_lo, give_hi), partner, tag + rnd % 2,
                       after=deps, round=rnd, donate=True)
        r = sched.recv(tmp, partner, tag + rnd % 2, after=deps, round=rnd)
        pair = (tmp, mine) if partner < rank else (mine, tmp)
        deps = [sched.compute(((COMBINE, op, *pair, mine),), after=(s, r),
                              round=rnd)]
        lo, hi = keep_lo, keep_hi
        rnd += 1
    # Phase 2 (tag offsets 2/3) — binomial gather of the combined chunks:
    # vrank v owns chunk range [v, v + m) after absorbing partners at
    # distances 1, 2, ... until its bit fires and it ships the range to
    # v − mask.
    mask = 1
    own_lo, own_hi = vr, vr + 1
    while mask < pof2:
        if vr & mask:
            dst = real(vr - mask)
            # alias_ok: acc is collective-private and this rank's gather
            # role ends here — nothing writes the sent range afterwards.
            deps = [sched.send(seg(own_lo, own_hi), dst, tag + 2 + rnd % 2,
                               after=deps, round=rnd, alias_ok=True)]
            break
        partner_v = vr + mask
        if partner_v < pof2:
            deps = [sched.recv(seg(partner_v, min(partner_v + mask, pof2)),
                               real(partner_v), tag + 2 + rnd % 2,
                               after=deps, round=rnd)]
            own_hi = min(partner_v + mask, pof2)
        mask <<= 1
        rnd += 1
    if rank == root:
        sched.compute(out, after=deps)
    return sched
