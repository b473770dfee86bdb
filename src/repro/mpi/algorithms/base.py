"""Shared plumbing for collective algorithms.

Every collective call consumes one :data:`TAG_STRIDE`-wide block of the
internal tag space (kept consistent across ranks by the requirement, as
in real MPI, that all ranks invoke collectives in the same order).
Algorithms address sub-steps with offsets inside their block; messages
between the same (source, tag) pair match FIFO, so step-loops may reuse
offsets the way the seed ring allgather always has.
"""

from __future__ import annotations

from ..communicator import INTERNAL_TAG_BASE, MpiContext

__all__ = [
    "TAG_STRIDE",
    "is_pof2",
    "largest_pof2",
    "hier_ok",
    "next_tag",
]

#: Stride between the tag blocks of successive collective calls.
TAG_STRIDE = 8


def is_pof2(n: int) -> bool:
    """True when ``n`` is a power of two."""
    return n > 0 and not (n & (n - 1))


def largest_pof2(n: int) -> int:
    """The largest power of two ≤ ``n`` (``n`` ≥ 1).

    The participant count of the fold-in schedules (recursive-doubling
    allreduce, Rabenseifner reduce) — and what the autotune cost model
    must price identically.
    """
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    return pof2


def hier_ok(ctx: MpiContext) -> bool:
    """Hierarchical variants apply when the placement spans ≥ 2
    locality domains with some intra-domain structure to exploit
    (``hier_capable`` — group sizes may differ, the sub-communicator
    composition handles unequal pods) *and* is fragmented across the
    topology's domains — a contiguous placement's flat ring/tree is
    already near-optimal (one bottleneck crossing per domain)."""
    comm = ctx.comm
    return bool(
        getattr(comm, "hier_capable", False)
        and getattr(comm, "fragmented", False)
    )


def next_tag(ctx: MpiContext) -> int:
    """Claim this rank's next collective tag block."""
    comm = ctx.comm
    seq = comm._coll_seq[ctx.rank]
    comm._coll_seq[ctx.rank] += 1
    return INTERNAL_TAG_BASE + (seq * TAG_STRIDE)
