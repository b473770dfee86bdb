"""Hierarchical collectives composed from real sub-communicators.

On an oversubscribed fabric with a fragmented rank placement, every
step of a flat schedule crosses the bottleneck uplinks, paying the
oversubscription factor each time.  The hierarchical schedules cross
only in their middle phase — and these days that decomposition is
*literally* communicator composition: the communicator's
:meth:`~repro.mpi.communicator.Communicator.hier_comms` bundle supplies
an **intra-domain** communicator per locality group, a **leader**
communicator (first member of each group), and — for equal-size groups
— one **peer** communicator per member index.  Each phase is an
ordinary collective schedule built *against the sub-communicator* (its
local ranks, its tag space) and spliced into one composite
:class:`~repro.mpi.algorithms.schedule.Schedule` through
:class:`~repro.mpi.algorithms.schedule.SubSchedule`, so no domain rank
arithmetic is hand-rolled here.

* ``allreduce`` — equal pods (s members × G domains): intra-domain
  ring reduce-scatter → peer-communicator ring allreduce of the owned
  chunk (the only phase crossing uplinks, moving n/(s·G) per step) →
  intra-domain ring allgather.  *Unequal* pods: intra-domain binomial
  reduce to the domain leader → ring allreduce on the leader
  communicator → intra-domain binomial broadcast.  The equal-pod path
  reproduces the PR 2 hand-rolled schedule step for step; the unequal
  path is what the old code refused to run.
* ``allgather`` — intra-domain gather to the leader → ring allgather
  of the (possibly unequal) domain blocks on the leader communicator →
  intra-domain broadcast + local scatter into the per-rank buffers.
* ``alltoall`` — intra-domain gather of per-destination buckets to the
  leader → leader-communicator alltoall of domain super-buckets →
  intra-domain dispersal (uniform block sizes; the selector guards).
"""

from __future__ import annotations

from typing import Dict, List, Union

from ..datatypes import ReduceOp
from ..errors import MpiError
from .allgather import block_sizes, recv_blocks
from .allreduce import append_ring_allgather, append_ring_reduce_scatter
from .schedule import (
    BYTES, COPY, Binding, Schedule, Shape, at, open_schedule, wide,
)

__all__ = [
    "build_allreduce_hierarchical",
    "build_allgather_hierarchical",
    "build_alltoall_hierarchical",
]


def _hier_setup(ctx):
    """Common preamble: the communicator's sub-communicator bundle."""
    comm = ctx.comm
    groups: List[List[int]] = getattr(comm, "locality_groups", None)
    if not groups or len(groups) < 2:
        raise MpiError(
            "hierarchical collectives need >= 2 locality groups; "
            "use the flat schedules on single-domain communicators"
        )
    return comm.hier_comms(), groups


# ---------------------------------------------------------------------------
# Allreduce
# ---------------------------------------------------------------------------

@wide
def build_allreduce_hierarchical(
    ctx, b: Binding, op: ReduceOp = ReduceOp.SUM
) -> Union[Schedule, Shape]:
    """Two-level allreduce over the communicator's locality groups.

    Wide: for many ranks, each phase runs the ring appenders once over
    every member of its kind of sub-communicator (all intra-domain, all
    peer communicators), each step built for all of them at once.
    """
    sched = open_schedule(ctx, b)
    n = b.sizes[0]
    acc = sched.buffer(n, b.dtype, init=((0, 0),))
    if ctx.size == 1:
        sched.compute(((COPY, acc, 1),), after=(sched.overhead(),))
        return sched
    hier, _groups = _hier_setup(ctx)
    if hier.equal_groups:
        deps = _allreduce_equal_pods(sched, b, acc, op)
    else:
        deps = _allreduce_unequal_pods(sched, b, acc, op)
    sched.compute(((COPY, acc, 1),), after=deps)
    return sched


def _allreduce_equal_pods(sched, b, acc, op) -> List:
    """Equal pods: intra RS → peer-comm ring allreduce → intra AG.

    Same message sequence as the PR 2 hand-rolled schedule, but every
    phase is the ordinary ring schedule over a sub-communicator.
    """
    dt = b.dtype
    nbytes = b.sizes[0]
    intra_sub = sched.sub("intra")
    intra = intra_sub.ctx
    s = intra.size
    deps: List = []
    itag = intra_sub.claim()
    if s > 1:
        deps = append_ring_reduce_scatter(
            intra_sub, intra, (acc, 0, nbytes), dt, op, itag
        )
    # After the reduce-scatter this member owns chunk (m+1) mod s; the
    # peer communicator (member m of every domain) allreduces it.
    n = nbytes // dt.itemsize
    bounds = [((c * n) // s) * dt.itemsize for c in range(s + 1)]
    own = (intra.rank + 1) % s if s > 1 else 0
    mine = (acc, at(bounds, own), at(bounds, own + 1))
    peer_sub = sched.sub("peer")
    if peer_sub is not None and peer_sub.ctx.size > 1:
        peer = peer_sub.ctx
        ptag = peer_sub.claim()
        deps = append_ring_reduce_scatter(
            peer_sub, peer, mine, dt, op, ptag, after=deps,
            round0=sched.n_rounds,
        )
        deps = append_ring_allgather(
            peer_sub, peer, mine, dt, ptag + 4, after=deps,
            round0=sched.n_rounds,
        )
    if s > 1:
        deps = append_ring_allgather(
            intra_sub, intra, (acc, 0, nbytes), dt, itag + 4, after=deps,
            round0=sched.n_rounds,
        )
    return deps


def _allreduce_unequal_pods(sched, b, acc, op) -> List:
    """Unequal pods: ring allreduce on a locality-reordered comm.

    The peer rings of the equal-pod path need member *i* to exist in
    every domain; with ragged pod sizes the hierarchy is instead
    exploited through *rank reordering*: ``split(color=0, key=domain)``
    yields a communicator whose rank order walks the pods contiguously,
    so every step of the ordinary ring allreduce crosses each domain
    boundary exactly once — G simultaneous crossings, one per uplink,
    each **uncontended** — where the fragmented flat ring crossed the
    loaded bottleneck on every hop.  Works for any pod sizes (including
    singletons); the allreduce result is rank-symmetric, so no data
    reordering is needed.
    """
    sub = sched.sub("reordered")
    rctx = sub.ctx
    whole = (acc, 0, b.sizes[0])
    tag = sub.claim()
    deps = append_ring_reduce_scatter(sub, rctx, whole, b.dtype, op, tag)
    return append_ring_allgather(
        sub, rctx, whole, b.dtype, tag + 4, after=deps,
        round0=sched.n_rounds,
    )


# ---------------------------------------------------------------------------
# Allgather
# ---------------------------------------------------------------------------

def build_allgather_hierarchical(ctx, b: Binding) -> Schedule:
    """Topology-aware allgather: gather → leader ring → broadcast.

    Every rank's block first travels to its domain leader (leaf-switch
    traffic); the leaders then ring-allgather the concatenated domain
    blocks — the only phase crossing the fabric bottleneck, once per
    domain instead of once per rank — and finally fan the full vector
    out inside their domains.  Handles unequal pod sizes and unequal
    block sizes (the vector variant).
    """
    from .bcast import _append_binomial

    if b.dtype is None:
        raise MpiError("hierarchical allgather requires an array payload")
    sched = Schedule(ctx, b)
    hier, groups = _hier_setup(ctx)
    G = len(groups)
    gi = hier.dom_of[ctx.rank]
    blocks = recv_blocks(b, ctx.size)

    # Assembly order: domain-major, member-minor (parent-rank order
    # within each group) — offsets are derived per rank, so unequal
    # blocks fall out naturally.
    block_bytes = block_sizes(b, ctx.size)
    offset: Dict[int, int] = {}
    off = 0
    for g in groups:
        for r in g:
            offset[r] = off
            off += block_bytes[r]
    full = sched.buffer(off)
    dom_lo = [offset[g[0]] for g in groups]
    dom_hi = [offset[g[-1]] + block_bytes[g[-1]] for g in groups]

    def part(r: int):
        return (full, offset[r], offset[r] + block_bytes[r])

    intra_sub = sched.sub("intra")
    intra = intra_sub.ctx
    s = intra.size
    itag = intra_sub.claim()
    deps: List[int] = []
    members = groups[gi]
    if intra.rank == 0:
        # Leader: collect the domain's blocks (own block via memcpy).
        deps = [sched.compute(((BYTES, 0, part(ctx.rank)),))]
        for m in range(1, s):
            deps.append(intra_sub.recv(part(members[m]), m, itag))
    elif s > 1:
        deps = [intra_sub.send(0, 0, itag)]

    # Leader ring over the (unequal) domain blocks of ``full``.
    lsub = sched.sub("leader")
    if lsub is not None and lsub.ctx.size > 1:
        leader = lsub.ctx
        ltag = lsub.claim()
        right = (leader.rank + 1) % G
        left = (leader.rank - 1) % G
        rnd0 = sched.n_rounds
        for step in range(G - 1):
            send_d = (gi - step) % G
            recv_d = (gi - step - 1) % G
            snd = lsub.send((full, dom_lo[send_d], dom_hi[send_d]), right,
                            ltag + step % 4, after=deps, round=rnd0 + step)
            rcv = lsub.recv((full, dom_lo[recv_d], dom_hi[recv_d]), left,
                            ltag + step % 4, after=deps, round=rnd0 + step)
            deps = [snd, rcv]

    # Intra-domain broadcast of the assembled vector.
    btag = intra_sub.claim()
    if s > 1:
        deps = _append_binomial(
            intra_sub, intra, full, list(range(s)), 0, btag,
            after=deps, round0=sched.n_rounds,
        )
    sched.compute(tuple(
        (BYTES, part(r), blocks[r]) for r in range(ctx.size)
    ), after=deps)
    return sched


# ---------------------------------------------------------------------------
# Alltoall
# ---------------------------------------------------------------------------

def build_alltoall_hierarchical(ctx, b: Binding) -> Schedule:
    """Topology-aware alltoall: bucket-gather → leader exchange →
    dispersal.

    Members ship their whole per-destination payload to the domain
    leader; leaders exchange per-domain *super-buckets* (all the data
    domain g holds for domain d, in one transfer) so the bottleneck
    sees G−1 large transfers per leader instead of P−1 small ones per
    rank; leaders then deal each member its slice.  Uniform block sizes
    only (as the selector guarantees).
    """
    if b.dtype is None:
        raise MpiError(
            "hierarchical alltoall needs array payloads on every rank"
        )
    B = b.sizes[0]
    if any(n != B for n in b.sizes):
        raise MpiError("hierarchical alltoall needs uniform block sizes")
    sched = Schedule(ctx, b)
    hier, groups = _hier_setup(ctx)
    G = len(groups)
    gi = hier.dom_of[ctx.rank]
    sizes = [len(g) for g in groups]
    P = ctx.size

    # Destination order inside every payload: domain-major,
    # member-minor (``dm_order``), so a domain's bucket is contiguous.
    dm_order: List[int] = [r for g in groups for r in g]
    dstart = [0] * (G + 1)
    for d in range(G):
        dstart[d + 1] = dstart[d] + sizes[d] * B

    intra_sub = sched.sub("intra")
    s = intra_sub.ctx.size
    itag = intra_sub.claim()
    if intra_sub.ctx.rank == 0:
        # Leader: stage member m's full payload (dm order) at m·P·B.
        stage = sched.buffer(s * P * B)
        deps = [sched.compute(tuple(
            (BYTES, j, (stage, k * B, (k + 1) * B))
            for k, j in enumerate(dm_order)
        ))]
        for m in range(1, s):
            deps.append(intra_sub.recv((stage, m * P * B, (m + 1) * P * B),
                                       m, itag))

        def super_bucket(d: int):
            # Every local member's bucket for domain d, in member order.
            return tuple((stage, m * P * B + dstart[d],
                          m * P * B + dstart[d + 1]) for m in range(s))

        # inbuf: per source domain d, its s_d·s·B super-bucket.
        inbuf = sched.buffer(P * s * B)
        ibase = [0] * (G + 1)
        for d in range(G):
            ibase[d + 1] = ibase[d] + sizes[d] * s * B

        def inbox(d: int):
            return (inbuf, ibase[d], ibase[d + 1])

        keep = []
        off = ibase[gi]
        for ref in super_bucket(gi):
            keep.append((BYTES, ref, (inbuf, off, off + ref[2] - ref[1])))
            off += ref[2] - ref[1]
        deps = [sched.compute(tuple(keep), after=deps)]
        # Leader exchange: shift schedule over super-buckets.
        lsub = sched.sub("leader")
        if lsub is not None and lsub.ctx.size > 1:
            ltag = lsub.claim()
            rnd0 = sched.n_rounds
            for k in range(1, G):
                dst = (gi + k) % G
                src = (gi - k) % G
                snd = lsub.send(super_bucket(dst), dst, ltag + (k - 1) % 4,
                                after=deps, round=rnd0 + k - 1, pack=True)
                rcv = lsub.recv(inbox(src), src, ltag + (k - 1) % 4,
                                after=deps, round=rnd0 + k - 1)
                deps = [snd, rcv]

        # Dispersal: member m's result is, per source domain d and
        # source member index q, the m-th block of bucket (q → my
        # domain) inside inbox(d).
        def member_result(m: int):
            return tuple(
                (inbuf, ibase[d] + (q * s + m) * B,
                 ibase[d] + (q * s + m + 1) * B)
                for d in range(G) for q in range(sizes[d])
            )

        dtag = intra_sub.claim()
        rnd = sched.n_rounds
        for m in range(1, s):
            intra_sub.send(member_result(m), m, dtag, after=deps, round=rnd,
                           pack=True)
        sched.compute(tuple(
            (BYTES, ref, P + j)
            for ref, j in zip(member_result(0), dm_order)
        ), after=deps)
    else:
        # Member: ship the payload up, await the dealt result.
        snd = intra_sub.send(tuple(dm_order), 0, itag, pack=True)
        dtag = intra_sub.claim()
        res = sched.buffer(P * B)
        rcv = intra_sub.recv(res, 0, dtag)
        sched.compute(tuple(
            (BYTES, (res, k * B, (k + 1) * B), P + j)
            for k, j in enumerate(dm_order)
        ), after=(snd, rcv))
    return sched
