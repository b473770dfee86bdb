"""The wide builders against the per-rank builders they replaced.

The dissemination barrier, the recursive-doubling allgather and the
ring reduce-scatter/allgather appenders (alone, in the ring allreduce,
and through the hierarchical allreduce's sub-communicator views) build
a call's shape for all ranks at once (:class:`Shape`), or one rank's
own :class:`Schedule`.  The per-rank builders they replaced are kept
below as the oracle: for every rank, the shape's slice and the one-rank
build must each equal the oracle's schedule column by column, symbolic
tags included, and each issuing its recorded claims on its own twin
communicator must leave the three in the same state.
"""

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.mpi import MpiJob, ReduceOp
from repro.mpi.algorithms.allgather import (
    block_ref, build_allgather_recursive_doubling,
)
from repro.mpi.algorithms.allreduce import build_allreduce_ring
from repro.mpi.algorithms.barrier import build_barrier_dissemination
from repro.mpi.algorithms.hierarchical import build_allreduce_hierarchical
from repro.mpi.algorithms.schedule import (
    BYTES, COMBINE, COPY, Binding, Call, Schedule, issue_claims,
)
from repro.sim import Simulator

COLUMNS = ("kind", "deps", "round", "peer", "tag", "via", "ref", "flags",
           "sizes", "scratch", "claims", "via_names")


# ---------------------------------------------------------------------------
# The oracle: the per-rank builders, as they were
# ---------------------------------------------------------------------------

def oracle_barrier(ctx, b=None):
    sched = Schedule(ctx, b)
    tag = sched.claim()
    size, rank = ctx.size, ctx.rank
    if size == 1:
        sched.overhead()
        return sched
    deps = []
    k = 1
    rnd = 0
    while k < size:
        s = sched.send(None, (rank + k) % size, tag, after=deps, round=rnd)
        r = sched.recv(None, (rank - k) % size, tag, after=deps, round=rnd)
        deps = [s, r]
        k <<= 1
        rnd += 1
    return sched


def oracle_allgather_rd(ctx, b):
    size, rank = ctx.size, ctx.rank
    sched = Schedule(ctx, b)
    tag = sched.claim()
    deps = [sched.compute(((COPY, 0, block_ref(b, rank)),))]
    if size == 1:
        sched.overhead(after=deps)
        return sched
    mask = 1
    rnd = 0
    while mask < size:
        partner = rank ^ mask
        my_lo = rank & ~(mask - 1)
        peer_lo = my_lo ^ mask
        if b.flat:
            block = b.sizes[0]
            s = sched.send((1, my_lo * block, (my_lo + mask) * block),
                           partner, tag, after=deps, round=rnd,
                           alias_ok=True)
            r = sched.recv((1, peer_lo * block, (peer_lo + mask) * block),
                           partner, tag, after=deps, round=rnd)
            deps = [s, r]
        else:
            sizes = b.sizes[1 + peer_lo: 1 + peer_lo + mask]
            stage = sched.buffer(sum(sizes), adopt=True)
            s = sched.send(tuple(range(1 + my_lo, 1 + my_lo + mask)),
                           partner, tag, after=deps, round=rnd, donate=True,
                           pack=True)
            r = sched.recv(stage, partner, tag, after=deps, round=rnd)
            unpack = []
            off = 0
            for j, n in enumerate(sizes, 1 + peer_lo):
                unpack.append((BYTES, (stage, off, off + n), j))
                off += n
            deps = [s, sched.compute(tuple(unpack), after=(r,), round=rnd)]
        mask <<= 1
        rnd += 1
    return sched


def _ring_chunker(acc, dt, size):
    slot, lo, hi = acc
    isz = dt.itemsize
    n = (hi - lo) // isz
    bounds = [lo + ((c * n) // size) * isz for c in range(size + 1)]

    def chunk(c):
        c %= size
        return (slot, bounds[c], bounds[c + 1])

    return chunk


def oracle_ring_reduce_scatter(sched, ctx, acc, dt, op, tag, after=(),
                               round0=0):
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
        s = sched.send(send_c, right, tag + step % 4, after=deps, round=rnd,
                       donate=True)
        r = sched.recv(tmp, left, tag + step % 4, after=deps, round=rnd)
        deps = [sched.compute(((COMBINE, op, tmp, recv_c, recv_c),),
                              after=(s, r), round=rnd)]
    return deps


def oracle_ring_allgather(sched, ctx, acc, dt, tag, after=(), round0=0):
    size, rank = ctx.size, ctx.rank
    chunk = _ring_chunker(acc, dt, size)
    right = (rank + 1) % size
    left = (rank - 1) % size
    deps = list(after)
    for step in range(size - 1):
        rnd = round0 + step
        s = sched.send(chunk(rank + 1 - step), right, tag + step % 4,
                       after=deps, round=rnd, alias_ok=True)
        r = sched.recv(chunk(rank - step), left, tag + step % 4,
                       after=deps, round=rnd)
        deps = [s, r]
    return deps


def oracle_allreduce_ring(ctx, b, op=ReduceOp.SUM):
    size = ctx.size
    sched = Schedule(ctx, b)
    n, dt = b.sizes[0], b.dtype
    acc = sched.buffer(n, dt, init=((0, 0),))
    out = ((COPY, acc, 1),)
    if size == 1:
        sched.overhead()
        sched.compute(out, after=(sched.last,))
        return sched
    tag = sched.claim()
    deps = oracle_ring_reduce_scatter(sched, ctx, (acc, 0, n), dt, op, tag)
    deps = oracle_ring_allgather(sched, ctx, (acc, 0, n), dt, tag + 4,
                                 after=deps, round0=size - 1)
    sched.compute(out, after=deps)
    return sched


def oracle_allreduce_hierarchical(ctx, b, op=ReduceOp.SUM):
    sched = Schedule(ctx, b)
    n = b.sizes[0]
    dt = b.dtype
    acc = sched.buffer(n, dt, init=((0, 0),))
    if ctx.size == 1:
        sched.overhead()
        sched.compute(((COPY, acc, 1),), after=(sched.last,))
        return sched
    if ctx.comm.hier_comms().equal_groups:
        intra_sub = sched.sub("intra")
        intra = intra_sub.ctx
        s = intra.size
        deps = []
        itag = intra_sub.claim()
        if s > 1:
            deps = oracle_ring_reduce_scatter(intra_sub, intra, (acc, 0, n),
                                              dt, op, itag)
        count = n // dt.itemsize
        bounds = [((c * count) // s) * dt.itemsize for c in range(s + 1)]
        own = (intra.rank + 1) % s if s > 1 else 0
        mine = (acc, bounds[own], bounds[own + 1])
        peer_sub = sched.sub("peer")
        if peer_sub is not None and peer_sub.ctx.size > 1:
            peer = peer_sub.ctx
            ptag = peer_sub.claim()
            deps = oracle_ring_reduce_scatter(
                peer_sub, peer, mine, dt, op, ptag, after=deps,
                round0=sched.n_rounds)
            deps = oracle_ring_allgather(
                peer_sub, peer, mine, dt, ptag + 4, after=deps,
                round0=sched.n_rounds)
        if s > 1:
            deps = oracle_ring_allgather(
                intra_sub, intra, (acc, 0, n), dt, itag + 4, after=deps,
                round0=sched.n_rounds)
    else:
        sub = sched.sub("reordered")
        rctx = sub.ctx
        whole = (acc, 0, n)
        tag = sub.claim()
        deps = oracle_ring_reduce_scatter(sub, rctx, whole, dt, op, tag)
        deps = oracle_ring_allgather(sub, rctx, whole, dt, tag + 4,
                                     after=deps, round0=sched.n_rounds)
    sched.compute(((COPY, acc, 1),), after=deps)
    return sched


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def _job(P, fabric="flat"):
    """One rank per node on the flat fabric; on the fat tree two ranks
    per node, each pair in a pod of its own (odd P: unequal pods)."""
    sim = Simulator()
    if fabric == "fattree":
        spec = ClusterSpec(nodes=2 * P, gpus_per_node=0, topology=TopologySpec(
            kind="fattree", pod_size=2, oversubscription=2.0))
        placement = [r // 2 * 2 for r in range(P)]
    else:
        spec = ClusterSpec(nodes=P, gpus_per_node=0)
        placement = list(range(P))
    return MpiJob(build_cluster(sim, spec), placement, backend="exact")


def assert_slices_match(P, wide_builder, oracle, binding, args=(),
                        fabric="flat", ranks=None):
    """Every rank of ``ranks`` (default: all): the wide shape's slice
    and the one-rank build equal the oracle's schedule, column by
    column; issuing their claims leaves the same state on all three
    communicators."""
    ranks = range(P) if ranks is None else ranks
    wide_job, oracle_job = _job(P, fabric), _job(P, fabric)
    call = Call("op", "algo", 0, None, binding, wide_builder, args)
    shape = call.shape(wide_job.comm, range(P))
    one_job = _job(P, fabric)
    for r in ranks:
        want = oracle(oracle_job.comm.ctx(r), binding, *args)
        issue_claims(oracle_job.comm.ctx(r), want.claims)
        # The shape's slice, and the same builder run for the one rank.
        for job, got in ((wide_job, shape.slice(r, wide_job.comm.ctx(r))),
                         (one_job, call.build(one_job.comm.ctx(r)))):
            for col in COLUMNS:
                assert getattr(got, col) == getattr(want, col), (P, r, col)
            assert got.sig == want.sig and len(got) == len(want)
            issue_claims(job.comm.ctx(r), got.claims)
    comms = [(wide_job.comm, oracle_job.comm), (one_job.comm, oracle_job.comm)]
    if fabric == "fattree":
        for job in (wide_job, one_job):
            comms += zip(job.comm.hier_comms().children(),
                         oracle_job.comm.hier_comms().children())
    for a, b in comms:
        assert a.stats == b.stats and a._coll_seq == b._coll_seq


def _sample(P):
    """Every rank up to 64; at 1024, ranks at both ends and in between."""
    return None if P <= 64 else (0, 1, 2, 511, 512, 1021, 1022, 1023)


SIZES = list(range(1, 34)) + [64, 1024]
POF2 = [P for P in SIZES if P & (P - 1) == 0]


@pytest.mark.parametrize("P", SIZES)
def test_barrier_matches_oracle(P):
    assert_slices_match(P, build_barrier_dissemination, oracle_barrier,
                        Binding(()), ranks=_sample(P))


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "per-block"])
@pytest.mark.parametrize("P", POF2)
def test_recursive_doubling_allgather_matches_oracle(P, flat):
    block = np.zeros(3)
    recv = np.zeros(3 * P) if flat else [np.zeros(3) for _ in range(P)]
    binding = (Binding((block, recv), flat=True) if flat
               else Binding((block, *recv)))
    assert_slices_match(P, build_allgather_recursive_doubling,
                        oracle_allgather_rd, binding, ranks=_sample(P))


@pytest.mark.parametrize("P,count", [
    (P, count) for P in SIZES for count in (3, 40)
    if P < 1024 or count == 40
])
def test_ring_allreduce_matches_oracle(P, count):
    """Ring reduce-scatter + allgather, with empty chunks when the
    vector is shorter than P (at P=1024 only the longer vector: the
    oracle's own build is the slow part)."""
    binding = Binding((np.zeros(count), np.zeros(count)))
    ranks = _sample(P) if P <= 64 else (0, 1, 1023)
    assert_slices_match(P, build_allreduce_ring, oracle_allreduce_ring,
                        binding, (ReduceOp.SUM,), ranks=ranks)


@pytest.mark.parametrize("P", [3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 33])
def test_hierarchical_allreduce_matches_oracle(P):
    """The ring appenders through the sub-communicator views: equal
    pods (even P) run the intra and peer rings, unequal pods the ring
    on the locality-reordered communicator."""
    binding = Binding((np.zeros(24), np.zeros(24)))
    assert_slices_match(P, build_allreduce_hierarchical,
                        oracle_allreduce_hierarchical, binding,
                        (ReduceOp.MAX,), fabric="fattree")
