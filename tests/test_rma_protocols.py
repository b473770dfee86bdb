"""Pinned numbers of every one-sided wire protocol.

Each case issues one RMA operation from rank 0 to rank 1 and closes it
with a fence or a lock/unlock epoch, on the ``exact``, ``analytic`` and
``pricing`` backends.  The literals below are the completion times, the
``comm.stats`` protocol counters, the events popped and a digest of the
landed data, so any change to a protocol's legs, to their pricing or
to the data an operation moves shows up here as a changed number.
"""

import numpy as np
import pytest

from repro.hw import ClusterSpec, build_cluster
from repro.mpi import MpiJob, Window
from repro.sim import Simulator

#: Window length in float64 elements (32 KB per rank).
WIN = 4096
#: Eager and rendezvous payload lengths (512 B and 16 KB; the default
#: eager limit is 8 KB).
SMALL, BIG = 64, 2048


def _put(n, offset=0):
    def op(w, out):
        yield from w.put(1, np.full(n, 3.0), offset=offset)
    return op


def _rput(w, out):
    req = yield from w.rput(1, np.full(SMALL, 5.0), offset=8)
    yield from req.wait()


def _get(w, out):
    yield from w.get(1, out, offset=16)


def _rget(w, out):
    req = yield from w.rget(1, out, offset=24)
    yield from req.wait()


def _acc(n):
    def op(w, out):
        yield from w.accumulate(1, np.full(n, 2.0), op="sum", offset=4)
    return op


def _get_acc(w, out):
    yield from w.get_accumulate(1, np.full(SMALL, 7.0), out, op="sum")


def _coalesced(w, out):
    for i in range(4):
        yield from w.put(1, np.full(16, float(i)), offset=16 * i)


#: case → (operation, device-memory window?, coalescing window?)
CASES = {
    "put-eager": (_put(SMALL), False, False),
    "put-rndv": (_put(BIG), False, False),
    "rput": (_rput, False, False),
    "get": (_get, False, False),
    "rget": (_rget, False, False),
    "acc-eager": (_acc(SMALL), False, False),
    "acc-rndv": (_acc(BIG), False, False),
    "get_accumulate": (_get_acc, False, False),
    "coalesced": (_coalesced, False, True),
    "dev-put": (_put(SMALL), True, False),
    "dev-get": (_get, True, False),
    "dev-acc": (_acc(SMALL), True, False),
}


def run_case(case, backend, sync):
    """Run one case; returns (op return time, epoch close time,
    protocol counters, events popped, data digest)."""
    op, device, coalesce = CASES[case]
    sim = Simulator()
    cluster = build_cluster(
        sim, ClusterSpec(nodes=2, gpus_per_node=1 if device else 0)
    )
    job = MpiJob(cluster, [0, 1], backend=backend)
    if device:
        bufs = [cluster.nodes[n].gpus[0].alloc(WIN) for n in range(2)]
    else:
        bufs = [cluster.nodes[n].alloc(WIN) for n in range(2)]
    for buf in bufs:
        buf.data[...] = np.arange(WIN, dtype=np.float64)
    win = Window(job.comm, bufs, coalesce=coalesce)
    out = np.zeros(SMALL)
    times = []

    def prog(ctx):
        w = win.ctx(ctx.rank)
        if sync == "fence":
            yield from w.fence()
        elif ctx.rank == 0:
            yield from w.lock(1, exclusive=True)
        if ctx.rank == 0:
            yield from op(w, out)
            times.append(sim.now)
        if sync == "fence":
            yield from w.fence()
        elif ctx.rank == 0:
            yield from w.unlock(1)
        if ctx.rank == 0:
            times.append(sim.now)

    job.start(prog)
    job.run()
    counters = {
        k: v for k, v in job.comm.stats.items() if k.startswith("rma_")
        and "[" in k
    }
    weights = np.arange(WIN, dtype=np.float64)
    digest = float(win.region(1) @ weights) + float(out @ weights[:SMALL])
    return times[0], times[1], counters, sim.stats.events_popped, digest


# (case, backend, sync) → run_case(...) at the commit that introduced
# this file, except that on the fast-path backends a fence that waits
# for its own operations pops one event fewer: the wait folds into the
# barrier's arrival instead of being a timeout of its own.
EXPECTED = {
    ("acc-eager", "exact", "fence"): (
        2.0056521739130432e-06, 7.044901185770751e-06,
        {"rma_accumulate[eager]": 1}, 58, 22898108864.0,
    ),
    ("acc-eager", "exact", "lock"): (
        3.511304347826087e-06, 8.300553359683794e-06,
        {"rma_accumulate[eager]": 1}, 27, 22898108864.0,
    ),
    ("acc-eager", "analytic", "fence"): (
        2.0056521739130432e-06, 7.0449011857707505e-06,
        {"rma_accumulate[eager]": 1}, 7, 22898108864.0,
    ),
    ("acc-eager", "analytic", "lock"): (
        3.511304347826087e-06, 8.300553359683794e-06,
        {"rma_accumulate[eager]": 1}, 19, 22898108864.0,
    ),
    ("acc-eager", "pricing", "fence"): (
        2.0056521739130432e-06, 7.0449011857707505e-06,
        {"rma_accumulate[eager]": 1}, 7, 22898104320.0,
    ),
    ("acc-eager", "pricing", "lock"): (
        3.511304347826087e-06, 8.300553359683794e-06,
        {"rma_accumulate[eager]": 1}, 19, 22898104320.0,
    ),
    ("acc-rndv", "exact", "fence"): (
        2.0056521739130432e-06, 3.117249011857708e-05,
        {"rma_accumulate[rendezvous]": 1}, 66, 22902312960.0,
    ),
    ("acc-rndv", "exact", "lock"): (
        3.511304347826087e-06, 3.2428142292490116e-05,
        {"rma_accumulate[rendezvous]": 1}, 35, 22902312960.0,
    ),
    ("acc-rndv", "analytic", "fence"): (
        2.0056521739130432e-06, 3.117249011857708e-05,
        {"rma_accumulate[rendezvous]": 1}, 7, 22902312960.0,
    ),
    ("acc-rndv", "analytic", "lock"): (
        3.511304347826087e-06, 3.242814229249011e-05,
        {"rma_accumulate[rendezvous]": 1}, 19, 22902312960.0,
    ),
    ("acc-rndv", "pricing", "fence"): (
        2.0056521739130432e-06, 3.117249011857708e-05,
        {"rma_accumulate[rendezvous]": 1}, 7, 22898104320.0,
    ),
    ("acc-rndv", "pricing", "lock"): (
        3.511304347826087e-06, 3.242814229249011e-05,
        {"rma_accumulate[rendezvous]": 1}, 19, 22898104320.0,
    ),
    ("coalesced", "exact", "fence"): (
        2.6056521739130426e-06, 7.644901185770749e-06,
        {"rma_put[coalesced]": 4, "rma_put[coalesced_flush]": 1}, 60, 22898023280.0,
    ),
    ("coalesced", "exact", "lock"): (
        4.111304347826086e-06, 8.900553359683792e-06,
        {"rma_put[coalesced]": 4, "rma_put[coalesced_flush]": 1}, 29, 22898023280.0,
    ),
    ("coalesced", "analytic", "fence"): (
        2.6056521739130426e-06, 7.64490118577075e-06,
        {"rma_put[coalesced]": 4, "rma_put[coalesced_flush]": 1}, 10, 22898023280.0,
    ),
    ("coalesced", "analytic", "lock"): (
        4.111304347826086e-06, 8.900553359683793e-06,
        {"rma_put[coalesced]": 4, "rma_put[coalesced_flush]": 1}, 22, 22898023280.0,
    ),
    ("coalesced", "pricing", "fence"): (
        2.6056521739130426e-06, 7.64490118577075e-06,
        {"rma_put[coalesced]": 4, "rma_put[coalesced_flush]": 1}, 10, 22898104320.0,
    ),
    ("coalesced", "pricing", "lock"): (
        4.111304347826086e-06, 8.900553359683793e-06,
        {"rma_put[coalesced]": 4, "rma_put[coalesced_flush]": 1}, 22, 22898104320.0,
    ),
    ("dev-acc", "exact", "fence"): (
        2.0056521739130432e-06, 3.538623451910408e-05,
        {"rma_accumulate[eager]": 1}, 62, 22898108864.0,
    ),
    ("dev-acc", "exact", "lock"): (
        3.511304347826087e-06, 3.664188669301712e-05,
        {"rma_accumulate[eager]": 1}, 31, 22898108864.0,
    ),
    ("dev-acc", "analytic", "fence"): (
        2.0056521739130432e-06, 3.5386234519104084e-05,
        {"rma_accumulate[eager]": 1}, 20, 22898108864.0,
    ),
    ("dev-acc", "analytic", "lock"): (
        3.511304347826087e-06, 3.664188669301712e-05,
        {"rma_accumulate[eager]": 1}, 31, 22898108864.0,
    ),
    ("dev-acc", "pricing", "fence"): (
        2.0056521739130432e-06, 3.5386234519104084e-05,
        {"rma_accumulate[eager]": 1}, 20, 22898108864.0,
    ),
    ("dev-acc", "pricing", "lock"): (
        3.511304347826087e-06, 3.664188669301712e-05,
        {"rma_accumulate[eager]": 1}, 31, 22898108864.0,
    ),
    ("dev-get", "exact", "fence"): (
        1.9732840579710147e-05, 2.153849275362319e-05,
        {}, 61, 22898221920.0,
    ),
    ("dev-get", "exact", "lock"): (
        2.1238492753623192e-05, 2.2794144927536235e-05,
        {}, 30, 22898221920.0,
    ),
    ("dev-get", "analytic", "fence"): (
        1.9732840579710147e-05, 2.153849275362319e-05,
        {}, 19, 22898221920.0,
    ),
    ("dev-get", "analytic", "lock"): (
        2.1238492753623192e-05, 2.2794144927536235e-05,
        {}, 30, 22898221920.0,
    ),
    ("dev-get", "pricing", "fence"): (
        1.9732840579710147e-05, 2.153849275362319e-05,
        {}, 19, 22898221920.0,
    ),
    ("dev-get", "pricing", "lock"): (
        2.1238492753623192e-05, 2.2794144927536235e-05,
        {}, 30, 22898221920.0,
    ),
    ("dev-put", "exact", "fence"): (
        2.0056521739130432e-06, 2.1215567852437418e-05,
        {"rma_put[eager]": 1}, 59, 22898025024.0,
    ),
    ("dev-put", "exact", "lock"): (
        3.511304347826087e-06, 2.247122002635046e-05,
        {"rma_put[eager]": 1}, 28, 22898025024.0,
    ),
    ("dev-put", "analytic", "fence"): (
        2.0056521739130432e-06, 2.1215567852437418e-05,
        {"rma_put[eager]": 1}, 17, 22898025024.0,
    ),
    ("dev-put", "analytic", "lock"): (
        3.511304347826087e-06, 2.247122002635046e-05,
        {"rma_put[eager]": 1}, 28, 22898025024.0,
    ),
    ("dev-put", "pricing", "fence"): (
        2.0056521739130432e-06, 2.1215567852437418e-05,
        {"rma_put[eager]": 1}, 17, 22898025024.0,
    ),
    ("dev-put", "pricing", "lock"): (
        3.511304347826087e-06, 2.247122002635046e-05,
        {"rma_put[eager]": 1}, 28, 22898025024.0,
    ),
    ("get", "exact", "fence"): (
        5.562173913043479e-06, 7.367826086956523e-06,
        {}, 59, 22898221920.0,
    ),
    ("get", "exact", "lock"): (
        7.067826086956522e-06, 8.623478260869566e-06,
        {}, 28, 22898221920.0,
    ),
    ("get", "analytic", "fence"): (
        5.562173913043478e-06, 7.367826086956521e-06,
        {}, 8, 22898221920.0,
    ),
    ("get", "analytic", "lock"): (
        7.0678260869565216e-06, 8.623478260869564e-06,
        {}, 19, 22898221920.0,
    ),
    ("get", "pricing", "fence"): (
        5.562173913043478e-06, 7.367826086956521e-06,
        {}, 8, 22898104320.0,
    ),
    ("get", "pricing", "lock"): (
        7.0678260869565216e-06, 8.623478260869564e-06,
        {}, 19, 22898104320.0,
    ),
    ("get_accumulate", "exact", "fence"): (
        7.240118577075098e-06, 9.045770750988141e-06,
        {"rma_accumulate[eager]": 1}, 62, 22898203776.0,
    ),
    ("get_accumulate", "exact", "lock"): (
        8.74577075098814e-06, 1.0301422924901184e-05,
        {"rma_accumulate[eager]": 1}, 31, 22898203776.0,
    ),
    ("get_accumulate", "analytic", "fence"): (
        7.240118577075098e-06, 9.045770750988143e-06,
        {"rma_accumulate[eager]": 1}, 8, 22898203776.0,
    ),
    ("get_accumulate", "analytic", "lock"): (
        8.745770750988142e-06, 1.0301422924901185e-05,
        {"rma_accumulate[eager]": 1}, 19, 22898203776.0,
    ),
    ("get_accumulate", "pricing", "fence"): (
        7.240118577075098e-06, 9.045770750988143e-06,
        {"rma_accumulate[eager]": 1}, 8, 22898104320.0,
    ),
    ("get_accumulate", "pricing", "lock"): (
        8.745770750988142e-06, 1.0301422924901185e-05,
        {"rma_accumulate[eager]": 1}, 19, 22898104320.0,
    ),
    ("put-eager", "exact", "fence"): (
        2.0056521739130432e-06, 7.044901185770751e-06,
        {"rma_put[eager]": 1}, 57, 22898025024.0,
    ),
    ("put-eager", "exact", "lock"): (
        3.511304347826087e-06, 8.300553359683794e-06,
        {"rma_put[eager]": 1}, 26, 22898025024.0,
    ),
    ("put-eager", "analytic", "fence"): (
        2.0056521739130432e-06, 7.0449011857707505e-06,
        {"rma_put[eager]": 1}, 7, 22898025024.0,
    ),
    ("put-eager", "analytic", "lock"): (
        3.511304347826087e-06, 8.300553359683794e-06,
        {"rma_put[eager]": 1}, 19, 22898025024.0,
    ),
    ("put-eager", "pricing", "fence"): (
        2.0056521739130432e-06, 7.0449011857707505e-06,
        {"rma_put[eager]": 1}, 7, 22898104320.0,
    ),
    ("put-eager", "pricing", "lock"): (
        3.511304347826087e-06, 8.300553359683794e-06,
        {"rma_put[eager]": 1}, 19, 22898104320.0,
    ),
    ("put-rndv", "exact", "fence"): (
        2.0056521739130432e-06, 2.272521739130435e-05,
        {"rma_put[rendezvous]": 1}, 63, 20043177984.0,
    ),
    ("put-rndv", "exact", "lock"): (
        3.511304347826087e-06, 2.3980869565217393e-05,
        {"rma_put[rendezvous]": 1}, 32, 20043177984.0,
    ),
    ("put-rndv", "analytic", "fence"): (
        2.0056521739130432e-06, 2.2725217391304346e-05,
        {"rma_put[rendezvous]": 1}, 7, 20043177984.0,
    ),
    ("put-rndv", "analytic", "lock"): (
        3.511304347826087e-06, 2.398086956521739e-05,
        {"rma_put[rendezvous]": 1}, 19, 20043177984.0,
    ),
    ("put-rndv", "pricing", "fence"): (
        2.0056521739130432e-06, 2.2725217391304346e-05,
        {"rma_put[rendezvous]": 1}, 7, 22898104320.0,
    ),
    ("put-rndv", "pricing", "lock"): (
        3.511304347826087e-06, 2.398086956521739e-05,
        {"rma_put[rendezvous]": 1}, 19, 22898104320.0,
    ),
    ("rget", "exact", "fence"): (
        5.562173913043479e-06, 7.367826086956523e-06,
        {}, 59, 22898238048.0,
    ),
    ("rget", "exact", "lock"): (
        7.067826086956522e-06, 8.623478260869566e-06,
        {}, 28, 22898238048.0,
    ),
    ("rget", "analytic", "fence"): (
        5.562173913043478e-06, 7.367826086956521e-06,
        {}, 8, 22898238048.0,
    ),
    ("rget", "analytic", "lock"): (
        7.0678260869565216e-06, 8.623478260869564e-06,
        {}, 19, 22898238048.0,
    ),
    ("rget", "pricing", "fence"): (
        5.562173913043478e-06, 7.367826086956521e-06,
        {}, 8, 22898104320.0,
    ),
    ("rget", "pricing", "lock"): (
        7.0678260869565216e-06, 8.623478260869564e-06,
        {}, 19, 22898104320.0,
    ),
    ("rput", "exact", "fence"): (
        5.239249011857707e-06, 7.044901185770751e-06,
        {"rma_put[eager]": 1}, 57, 22897995264.0,
    ),
    ("rput", "exact", "lock"): (
        6.74490118577075e-06, 8.300553359683794e-06,
        {"rma_put[eager]": 1}, 26, 22897995264.0,
    ),
    ("rput", "analytic", "fence"): (
        5.239249011857707e-06, 7.0449011857707505e-06,
        {"rma_put[eager]": 1}, 8, 22897995264.0,
    ),
    ("rput", "analytic", "lock"): (
        6.744901185770751e-06, 8.300553359683794e-06,
        {"rma_put[eager]": 1}, 19, 22897995264.0,
    ),
    ("rput", "pricing", "fence"): (
        5.239249011857707e-06, 7.0449011857707505e-06,
        {"rma_put[eager]": 1}, 8, 22898104320.0,
    ),
    ("rput", "pricing", "lock"): (
        6.744901185770751e-06, 8.300553359683794e-06,
        {"rma_put[eager]": 1}, 19, 22898104320.0,
    ),
}


@pytest.mark.parametrize("sync", ["fence", "lock"])
@pytest.mark.parametrize("backend", ["exact", "analytic", "pricing"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_protocol_numbers_are_pinned(case, backend, sync):
    assert run_case(case, backend, sync) == EXPECTED[(case, backend, sync)]
