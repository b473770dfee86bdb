"""Dissemination barrier as a round-based schedule.

⌈log2 P⌉ rounds of 0-byte messages: in round k every rank signals
``rank+2^k`` while awaiting ``rank−2^k``.  The schedule form exists so
``ibarrier`` can progress in the background (MPI-3 nonblocking barrier)
while the blocking ``barrier`` executes the identical DAG inline.  The
builder is wide: each round is one send and one receive over all the
ranks it builds for, or the one rank's own two steps.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .schedule import Binding, Schedule, Shape, open_schedule, wide

__all__ = ["build_barrier_dissemination"]


@wide
def build_barrier_dissemination(
    ctx, b: Optional[Binding] = None
) -> Union[Schedule, Shape]:
    """Dissemination barrier for the ranks of ``ctx`` (a
    :class:`~repro.mpi.algorithms.schedule.Ranks`, or one rank's
    context)."""
    sched = open_schedule(ctx, b)
    tag = sched.claim()
    size, rank = ctx.size, ctx.rank
    if size == 1:
        sched.overhead()
        return sched
    deps: List = []
    k = 1
    rnd = 0
    while k < size:
        s = sched.send(None, (rank + k) % size, tag, after=deps, round=rnd)
        r = sched.recv(None, (rank - k) % size, tag, after=deps, round=rnd)
        deps = [s, r]
        k <<= 1
        rnd += 1
    return sched
