"""Broadcast algorithms: binomial tree (seed), hierarchical, pipelined.

* ``binomial`` — the ⌈log2 P⌉-hop tree MVAPICH2-era MPIs run; the seed's
  only broadcast and still the default on non-blocking fabrics.
* ``hierarchical`` — two nested binomial trees: root → one leader per
  locality domain (pod), then each leader → its domain.  The payload
  crosses the fabric's bottleneck once per domain instead of once per
  rank, which is what wins on an oversubscribed fat tree with a
  fragmented rank placement.
* ``pipelined`` — the message is cut into S segments streamed down a
  chain in rank order: rank i forwards segment s while receiving
  segment s+1, so for large messages the whole broadcast approaches a
  single nβ transfer instead of the tree's ⌈log2 P⌉·nβ.  This schedule
  is only expressible with the round-based engine: its win *is* the
  overlap of each hop's send with the next segment's receive, which a
  run-to-completion generator loop cannot produce.

All three compile to data-free
:class:`~repro.mpi.algorithms.schedule.Schedule` DAGs over binding slot
0; ``append_bcast`` lets other collectives (reduce+bcast, the
hierarchical allgather) splice a broadcast of any buffer ref behind
their own steps.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..errors import MpiError
from .schedule import Binding, Schedule

__all__ = [
    "build_bcast_binomial",
    "build_bcast_hierarchical",
    "build_bcast_pipelined",
    "append_bcast",
    "best_pipeline_segments",
]


def _append_binomial(
    sched: Schedule,
    ctx,
    buf,
    members: Sequence[int],
    root: int,
    tag: int,
    after: Sequence[int] = (),
    round0: int = 0,
) -> List[int]:
    """Binomial-tree broadcast among ``members`` (``root`` ∈ members).

    With ``members == range(P)`` this is exactly the seed broadcast:
    same virtual-rank arithmetic, same message sequence.  Returns the
    terminal step indices of this rank's part of the tree.
    """
    size = len(members)
    if size == 1:
        return list(after)
    idx = members.index(ctx.rank)
    ridx = members.index(root)
    vrank = (idx - ridx) % size
    deps = list(after)
    # The edge reaching the child at offset 2^j fires in global round
    # n_rounds-1-j: the root peels off its largest subtree first, and
    # every forwarded edge lands in the round its sender is first able
    # to send.  Labeling rounds by that wall-clock position (rather
    # than loop order) is what lets the analytic backend price the
    # tree at its true log2(P) depth.
    n_rounds = (size - 1).bit_length()
    # Phase 1 — non-roots receive from their parent.  ``mask`` stops at
    # the lowest set bit of vrank (or the first power of two >= size for
    # the root).
    mask = 1
    j = 0
    while mask < size:
        if vrank & mask:
            parent = members[((vrank - mask) + ridx) % size]
            deps = [sched.recv(buf, parent, tag, after=deps,
                               round=round0 + n_rounds - 1 - j)]
            break
        mask <<= 1
        j += 1
    # Phase 2 — forward to children: vrank + m for each m below mask.
    mask >>= 1
    while mask > 0:
        child_v = vrank + mask
        if child_v < size:
            child = members[(child_v + ridx) % size]
            j = mask.bit_length() - 1
            deps = [sched.send(buf, child, tag, after=deps,
                               round=round0 + n_rounds - 1 - j)]
        mask >>= 1
    return deps


def build_bcast_binomial(ctx, b: Binding, root: int = 0) -> Schedule:
    """Binomial-tree broadcast of slot 0 (in place for non-roots)."""
    sched = Schedule(ctx, b)
    append_bcast_binomial(sched, ctx, 0, root=root)
    return sched


def append_bcast_binomial(
    sched: Schedule, ctx, buf, root: int = 0,
    after: Sequence[int] = (), round0: int = 0,
) -> List[int]:
    tag = sched.claim()
    if ctx.size == 1:
        return [sched.overhead(after=after)]
    return _append_binomial(
        sched, ctx, buf, list(range(ctx.size)), root, tag, after=after,
        round0=round0,
    )


def build_bcast_hierarchical(ctx, b: Binding, root: int = 0) -> Schedule:
    """Domain-leader broadcast: root → leaders → domain members."""
    sched = Schedule(ctx, b)
    append_bcast_hierarchical(sched, ctx, 0, root=root)
    return sched


def append_bcast_hierarchical(
    sched: Schedule, ctx, buf, root: int = 0,
    after: Sequence[int] = (), round0: int = 0,
) -> List[int]:
    """Requires the communicator to expose locality groups (every rank in
    exactly one group); the root acts as its own group's leader so the
    payload never takes a detour."""
    groups: List[List[int]] = getattr(ctx.comm, "locality_groups", None)
    if not groups or len(groups) < 2:
        raise MpiError(
            "hierarchical bcast needs >= 2 locality groups; "
            "use the binomial tree on flat fabrics"
        )
    tag = sched.claim()
    if ctx.size == 1:
        return [sched.overhead(after=after)]
    my_group = next(g for g in groups if ctx.rank in g)
    leaders = [root if root in g else g[0] for g in groups]
    my_leader = root if root in my_group else my_group[0]
    deps = list(after)
    # Phase 1 (tag+0): binomial over the domain leaders.
    if ctx.rank in leaders:
        deps = _append_binomial(sched, ctx, buf, leaders, root, tag,
                                after=deps, round0=round0)
    # Phase 2 (tag+1): each leader fans out inside its domain.  The
    # phase boundary is the leader tree's depth — computed, not read
    # off this rank's schedule, so every rank labels phase-2 rounds
    # identically (non-leaders have no phase-1 steps to count).
    leader_rounds = (len(leaders) - 1).bit_length()
    return _append_binomial(
        sched, ctx, buf, my_group, my_leader, tag + 1,
        after=deps, round0=round0 + leader_rounds,
    )


def best_pipeline_segments(nbytes: int, size: int, ib) -> int:
    """Segment count minimizing the chain-pipeline makespan.

    The chain completes in (S + P − 2) hops of one segment each, so the
    makespan is (S + P − 2)·(c + (n/S)·β) with c the per-message fixed
    cost (software overhead + wire latency).  The minimizer is
    S* = sqrt((P − 2)·nβ / c), clamped to [2, 64] and to segments of at
    least one eager-threshold quantum so tiny fragments never pay more
    fixed cost than they hide.
    """
    if size <= 2 or nbytes <= 0:
        return 1
    beta = 1.0 / (ib.bw_GBps * 1e9)
    fixed = (ib.sw_overhead_us + ib.lat_us) * 1e-6
    s_opt = math.sqrt(max(1.0, (size - 2) * nbytes * beta / fixed))
    s_cap = max(1, nbytes // max(1, ib.eager_threshold))
    return int(max(1, min(64, round(s_opt), s_cap)))


def build_bcast_pipelined(
    ctx, b: Binding, root: int = 0, segments: Optional[int] = None
) -> Schedule:
    """Segmented chain broadcast (large messages).

    The chain runs in rank order rotated so the root leads; each rank
    receives segment s from its predecessor while forwarding segment
    s−1 to its successor.  Segment count defaults to the analytic
    optimum for the communicator's fabric parameters.
    """
    sched = Schedule(ctx, b)
    append_bcast_pipelined(sched, ctx, 0, root=root, segments=segments)
    return sched


def append_bcast_pipelined(
    sched: Schedule, ctx, buf, root: int = 0,
    after: Sequence[int] = (), segments: Optional[int] = None,
    round0: int = 0,
) -> List[int]:
    tag = sched.claim()
    size, rank = ctx.size, ctx.rank
    if size == 1:
        return [sched.overhead(after=after)]
    slot = buf
    n = sched.size_of(slot)
    S = segments if segments is not None else best_pipeline_segments(
        n, size, ctx.comm._ib
    )
    S = max(1, min(S, max(1, n)))
    bounds = [(s * n) // S for s in range(S + 1)]
    # Chain order is rank order rotated to start at the root.
    pos = (rank - root) % size
    prev = (root + pos - 1) % size
    nxt = (root + pos + 1) % size
    recvs: List[int] = []
    last_send: List[int] = list(after)
    ends: List[int] = []
    for s in range(S):
        seg = (slot, bounds[s], bounds[s + 1])
        if pos > 0:
            # Receive segment s from the predecessor; chained so the
            # wire keeps FIFO order on the single (src, tag) pair.
            r = sched.recv(seg, prev, tag, after=recvs[-1:] or list(after),
                           round=round0 + s)
            recvs.append(r)
            ends = [r]
        if pos < size - 1:
            send_after = list(last_send)
            if pos > 0:
                send_after.append(recvs[-1])
            snd = sched.send(seg, nxt, tag, after=send_after,
                             round=round0 + s)
            last_send = [snd]
            ends = [snd] if pos == 0 else [recvs[-1], snd]
    if not ends:
        ends = list(after)
    return ends


#: Builder registry for splicing a broadcast behind another schedule
#: (reduce+bcast) — mirrors ``SCHEDULES["bcast"]``.
_APPENDERS = {
    "binomial": append_bcast_binomial,
    "hierarchical": append_bcast_hierarchical,
    "pipelined": append_bcast_pipelined,
}


def append_bcast(
    algo: str, sched: Schedule, ctx, buf, root: int = 0,
    after: Sequence[int] = (), round0: int = 0,
) -> List[int]:
    """Append the named broadcast schedule behind ``after``.

    ``round0`` offsets the appended rounds past the host schedule's —
    splices (reduce+bcast) must pass ``sched.n_rounds`` so the two
    legs' rounds never overlap in the analytic per-round pricing.
    """
    return _APPENDERS[algo](sched, ctx, buf, root=root, after=after,
                            round0=round0)
