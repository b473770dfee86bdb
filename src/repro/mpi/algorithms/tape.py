"""The pricing tape: a max-plus program evaluated one dependency level
at a time.

Both analytic pricers compile to it — the collective fast path
(:mod:`repro.mpi.algorithms.fastpath`, one tape per plan) and the
one-sided RMA epochs (:mod:`repro.mpi.rma`, one tape per batch of
logged operations).  The first ``P`` slots hold resolved times (the
seeds: arrivals, issue times, carried channel cursors); every other
slot is one node's output

    ``(max of its input slots + a) + b``

with ``a`` and ``b`` kept apart, because ``(t + a) + b`` rounds
differently from ``t + (a + b)`` and each pricer's nodes must repeat
the float operations of the walk they replace.  :func:`lay_out` orders
the nodes by dependency level — the nodes of one level never feed each
other — and :func:`run_levels` resolves a level per iteration with one
gather, at most one ``np.maximum.reduceat`` and two adds.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

__all__ = ["Tape", "lay_out", "ranges", "run_levels"]


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``[s, s + c)`` (CSR row gather)."""
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + (starts - ends + counts).repeat(counts)


def _levels(ins: np.ndarray, cnt: np.ndarray, P: int,
            never: int) -> List[np.ndarray]:
    """The nodes by dependency level: node ``k`` (slot ``P + k``) has
    inputs ``ins`` (CSR, ``cnt`` per node) and resolves once they all
    have; slots below ``P`` are resolved, ``never`` never is."""
    node = np.arange(len(cnt)).repeat(cnt)
    inner = ins >= P
    missing = np.bincount(node[inner], minlength=len(cnt))
    edge = inner & (ins < never)
    out_to = node[edge][ins[edge].argsort(kind="stable")]
    out_n = np.bincount(ins[edge] - P, minlength=len(cnt))
    out_lo = out_n.cumsum() - out_n
    levels = []
    front = (missing == 0).nonzero()[0]
    while front.size:
        levels.append(front)
        hit = out_to[ranges(out_lo[front], out_n[front])]
        np.subtract.at(missing, hit, 1)
        # The nodes resolved now, each once, in slot order.
        front = hit[missing[hit] == 0]
        front.sort()
        if len(front) > 1:
            keep = front[1:] != front[:-1]
            if not keep.all():
                front = front[np.concatenate(([True], keep))]
    return levels


class Tape(NamedTuple):
    """Nodes laid out level by level (see :func:`lay_out`)."""

    #: Old slot → its slot in the layout; ``never`` for a node that
    #: never resolves.
    slot: np.ndarray
    #: Node ``k``'s input slots are ``ins[p0 + rel[k] : ...]``, CSR
    #: within its level.
    ins: np.ndarray
    rel: np.ndarray
    a: np.ndarray
    b: np.ndarray
    #: ``(lo, hi, p0, p1)`` per level: its nodes and input entries.
    levels: List[Tuple[int, int, int, int]]


def lay_out(ins: np.ndarray, cnt: np.ndarray, a: np.ndarray, b: np.ndarray,
            P: int, never: int) -> Tape:
    """Number the nodes (inputs ``ins``, CSR with ``cnt`` per node;
    constants ``a``, ``b``) level by level, after ``P`` seed slots.
    Nodes that depend on slot ``never`` are left out."""
    levels = _levels(ins, cnt, P, never)
    order = np.concatenate(levels) if levels else np.zeros(0, np.intp)
    slot = np.full(never + 1, never, dtype=np.intp)
    slot[:P] = np.arange(P)
    slot[P + order] = P + np.arange(len(order))
    width = cnt[order]
    ptr = cnt.cumsum() - cnt
    lins = slot[ins[ranges(ptr[order], width)]]
    lo = width.cumsum() - width
    n_level = [len(lv) for lv in levels]
    bounds = np.array([0] + n_level).cumsum()
    rel = lo - lo[bounds[:-1]].repeat(n_level)
    p = np.append(lo, len(lins))[bounds].tolist()
    bounds = bounds.tolist()
    return Tape(slot, lins, rel, a[order], b[order],
                list(zip(bounds[:-1], bounds[1:], p[:-1], p[1:])))


def run_levels(v: np.ndarray, P: int, ins: np.ndarray, rel: np.ndarray,
               a: np.ndarray, b: np.ndarray,
               levels: List[Tuple[int, int, int, int]]) -> None:
    """Resolve every node of a laid-out tape into ``v``, whose first
    ``P`` entries hold the seeds; each level writes its slots before
    any later level reads them."""
    for lo, hi, p0, p1 in levels:
        t = v[ins[p0:p1]]
        if p1 - p0 > hi - lo:
            t = np.maximum.reduceat(t, rel[lo:hi])
        t += a[lo:hi]
        t += b[lo:hi]
        v[P + lo : P + hi] = t
