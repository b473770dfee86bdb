"""Pinned numbers of the two-sided (send/recv) wire protocol.

Each case runs a small exact program over one rank per node: eager and
rendezvous ``send``/``recv``, ``isend``/``irecv``, an ``ANY_SOURCE``
receive, adopted receives of private payloads and a rendezvous-size
``sendrecv``.  Two 4-rank allreduces, one whose pairs are all eager and
one whose pairs are all rendezvous, also run on the ``analytic`` and
``pricing`` backends, whose pricing tape folds the same protocol rows.
The literals are each rank's completion time, the events popped, the
payload copy/view/adopt counters and a digest of the received data, so
any change to a protocol leg, to its pricing or to the data a message
moves shows up here as a changed number.  ``p2p_time``, the selector's
evaluation of the same rows, is pinned on both sides of the eager
threshold.
"""

import numpy as np
import pytest

from repro.hw import ClusterSpec, IbParams, build_cluster
from repro.mpi import ANY_SOURCE, MpiJob
from repro.mpi.algorithms.autotune import p2p_time
from repro.mpi.datatypes import AdoptBuf
from repro.sim import Simulator

#: Payload lengths in float64 elements: 512 B (eager) and 64 KB
#: (rendezvous; the default eager limit is 16 KB).
SMALL, BIG = 64, 8192


def _fill(rank, n):
    return np.arange(n, dtype=np.float64) * (rank + 1)


def _send_recv(n):
    def prog(ctx, out):
        if ctx.rank == 0:
            yield from ctx.send(_fill(0, n), dest=1, tag=3)
        else:
            buf = np.zeros(n)
            st = yield from ctx.recv(buf, source=0, tag=3)
            out.append((st.source, st.tag, st.nbytes, buf))
    return prog


def _isend_irecv(n):
    def prog(ctx, out):
        if ctx.rank == 0:
            req = ctx.isend(_fill(0, n), dest=1, tag=4)
            yield from req.wait()
        else:
            buf = np.zeros(n)
            req = ctx.irecv(buf, source=0, tag=4)
            st = yield from req.wait()
            out.append((st.source, st.tag, st.nbytes, buf))
    return prog


def _any_source(ctx, out):
    if ctx.rank == 0:
        for _ in range(2):
            buf = np.zeros(BIG)
            st = yield from ctx.recv(buf, source=ANY_SOURCE, tag=5)
            out.append((st.source, st.tag, st.nbytes, buf))
    else:
        n = SMALL if ctx.rank == 1 else BIG
        yield from ctx.send(_fill(ctx.rank, n), dest=0, tag=5)


def _adopt(n):
    def prog(ctx, out):
        if ctx.rank == 0:
            # isend donates its snapshot: the payload is private.
            req = ctx.isend(_fill(0, n), dest=1, tag=6)
            yield from req.wait()
        else:
            buf = AdoptBuf(n * 8, np.float64)
            st = yield from ctx.recv(buf, source=0, tag=6)
            out.append((st.source, st.tag, st.nbytes, buf.array()))
    return prog


def _sendrecv(ctx, out):
    peer = 1 - ctx.rank
    buf = np.zeros(BIG)
    st = yield from ctx.sendrecv(_fill(ctx.rank, BIG), peer, buf, peer,
                                 sendtag=7, recvtag=7)
    out.append((st.source, st.tag, st.nbytes, buf))


def _allreduce(n):
    def prog(ctx, out):
        buf = np.zeros(n)
        yield from ctx.allreduce(_fill(ctx.rank, n), buf)
        out.append((ctx.rank, 0, n * 8, buf))
    return prog


#: case → (program, ranks, backends it runs on)
P2P = ("exact",)
ALL = ("exact", "analytic", "pricing")
CASES = {
    "send-eager": (_send_recv(SMALL), 2, P2P),
    "send-rndv": (_send_recv(BIG), 2, P2P),
    "isend-irecv-eager": (_isend_irecv(SMALL), 2, P2P),
    "isend-irecv-rndv": (_isend_irecv(BIG), 2, P2P),
    "any-source": (_any_source, 3, P2P),
    "adopt-eager": (_adopt(SMALL), 2, P2P),
    "adopt-rndv": (_adopt(BIG), 2, P2P),
    "sendrecv-rndv": (_sendrecv, 2, P2P),
    "allreduce-eager": (_allreduce(SMALL), 4, ALL),
    "allreduce-rndv": (_allreduce(BIG), 4, ALL),
}


def run_case(case, backend):
    """Run one case; returns (per-rank completion times, events
    popped, (payload copies, views, adoptions), data digest)."""
    prog, ranks, _backends = CASES[case]
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=ranks, gpus_per_node=0))
    job = MpiJob(cluster, list(range(ranks)), backend=backend)
    times = [0.0] * ranks
    out = []

    def main(ctx):
        yield from prog(ctx, out)
        times[ctx.rank] = sim.now

    job.start(main)
    job.run()
    digest = 0.0
    for source, tag, nbytes, buf in out:
        weights = np.arange(buf.size, dtype=np.float64) + 1.0
        digest += float(buf @ weights) + source * 1e3 + tag + nbytes
    st = sim.stats
    return (
        tuple(times),
        st.events_popped,
        (st.payload_copies, st.payload_views, st.payload_adopted),
        digest,
    )


PARAMS = [(c, b) for c in sorted(CASES) for b in CASES[c][2]]


@pytest.mark.parametrize("case,backend", PARAMS)
def test_protocol_numbers_are_pinned(case, backend):
    assert run_case(case, backend) == EXPECTED[(case, backend)]


#: (α, β) hops p2p_time is pinned on: the default IB link and a slow,
#: high-latency one.
HOPS = [(1.5e-6, 1.0 / 1.15e9), (7.25e-6, 3.1e-9)]


def p2p_times():
    """``p2p_time`` at the eager threshold and one byte above it."""
    ib = IbParams()
    return [
        p2p_time(n, a, b, ib)
        for a, b in HOPS
        for n in (ib.eager_threshold, ib.eager_threshold + 1)
    ]


def test_p2p_time_is_pinned():
    assert p2p_times() == P2P_TIME_EXPECTED


# Captured at the commit that introduced this file.
EXPECTED = {
    ('adopt-eager', 'exact'): (
        (2.2508695652173914e-06, 2.2508695652173914e-06),
        13, (1, 1, 1), 87878.0,
    ),
    ('adopt-rndv', 'exact'): (
        (6.184913043478261e-05, 6.184913043478261e-05),
        23, (1, 1, 1), 183252000774.0,
    ),
    ('allreduce-eager', 'exact'): (
        (
            4.501739130434783e-06,
            4.501739130434783e-06,
            4.501739130434783e-06,
            4.501739130434783e-06,
        ),
        84, (0, 8, 8), 3502448.0,
    ),
    ('allreduce-eager', 'analytic'): (
        (
            4.501739130434783e-06,
            4.501739130434783e-06,
            4.501739130434783e-06,
            4.501739130434783e-06,
        ),
        9, (0, 8, 8), 3502448.0,
    ),
    ('allreduce-eager', 'pricing'): (
        (
            4.501739130434783e-06,
            4.501739130434783e-06,
            4.501739130434783e-06,
            4.501739130434783e-06,
        ),
        9, (0, 0, 0), 8048.0,
    ),
    ('allreduce-rndv', 'exact'): (
        (
            9.631565217391305e-05,
            9.631565217391305e-05,
            9.631565217391305e-05,
            9.631565217391305e-05,
        ),
        228, (0, 24, 12), 7330077677424.0,
    ),
    ('allreduce-rndv', 'analytic'): (
        (
            9.631565217391305e-05,
            9.631565217391305e-05,
            9.631565217391305e-05,
            9.631565217391305e-05,
        ),
        9, (0, 24, 12), 7330077677424.0,
    ),
    ('allreduce-rndv', 'pricing'): (
        (
            9.631565217391305e-05,
            9.631565217391305e-05,
            9.631565217391305e-05,
            9.631565217391305e-05,
        ),
        9, (0, 0, 0), 268144.0,
    ),
    ('any-source', 'exact'): (
        (6.209913043478262e-05, 2.5556521739130435e-06, 6.184913043478261e-05),
        30, (2, 0, 0), 549756049474.0,
    ),
    ('isend-irecv-eager', 'exact'): (
        (2.2508695652173914e-06, 2.2508695652173914e-06),
        15, (1, 1, 0), 87876.0,
    ),
    ('isend-irecv-rndv', 'exact'): (
        (6.184913043478261e-05, 6.184913043478261e-05),
        25, (1, 1, 0), 183252000772.0,
    ),
    ('send-eager', 'exact'): (
        (2.2508695652173914e-06, 2.2508695652173914e-06),
        11, (1, 0, 0), 87875.0,
    ),
    ('send-rndv', 'exact'): (
        (6.184913043478261e-05, 6.184913043478261e-05),
        21, (1, 0, 0), 183252000771.0,
    ),
    ('sendrecv-rndv', 'exact'): (
        (6.184913043478261e-05, 6.184913043478261e-05),
        42, (2, 2, 0), 549755937782.0,
    ),
}
P2P_TIME_EXPECTED = [
    1.6052608695652172e-05,
    1.9109130434782607e-05,
    5.84888e-05,
    7.31903e-05,
]
