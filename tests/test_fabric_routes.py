"""One route per topology: the exact transfer, the uncontended wire
time, the link accounting and the fast-path wire cost all derive from
``Topology.route``, so they must agree with each other on every fabric.

The golden values pin exact contended timings (captured before the
route refactor) with ``==``: the exact backend must keep its event
order on every topology, not just the paper's flat switch.
"""

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster, make_topology
from repro.hw.params import IbParams
from repro.mpi import MpiJob
from repro.mpi.rma import Window
from repro.obs import link_report
from repro.sim import Simulator

N = 6
KINDS = {
    "flat": TopologySpec(),
    "fattree": TopologySpec(kind="fattree", pod_size=2, oversubscription=2.0),
    "multirail": TopologySpec(kind="multirail", rails=3),
    "torus2d": TopologySpec(kind="torus2d", torus_x=3, torus_y=2),
}
#: (src, dst): intra-node, neighbors, a multi-hop / cross-pod pair each way.
PAIRS = [(0, 0), (0, 1), (0, 5), (4, 1), (1, 4)]
#: Zero-byte control, a sliver smaller than the rail count, odd, large.
SIZES = [0, 1, 4103, 1 << 20]

#: Every node sends a large message to its successor and a small one
#: three ahead, plus an intra-node copy and an incast into node 0 — all
#: issued at t=0, so NICs, pod links and rails contend.
PATTERN = (
    [(i, (i + 1) % N, 100_000 + 7 * i) for i in range(N)]
    + [(i, (i + 3) % N, 777) for i in range(N)]
    + [(0, 0, 4096), (5, 0, 1), (2, 0, 0)]
)

GOLDEN = {
    "flat": [
        8.845652173913045e-05, 8.846260869565219e-05, 8.846869565217392e-05,
        8.847478260869566e-05, 8.84808695652174e-05, 8.848695652173914e-05,
        8.988217391304349e-05, 8.988826086956522e-05, 8.989434782608696e-05,
        8.99004347826087e-05, 8.990652173913044e-05, 8.991260869565218e-05,
        2.861818181818182e-06, 9.14004347826087e-05, 9.06504347826087e-05,
    ],
    "fattree": [
        8.845652173913045e-05, 0.0002638878260869565, 8.846869565217392e-05,
        0.00026392434782608696, 8.84808695652174e-05, 0.0002639608695652174,
        0.0002653134782608696, 0.0002667756521739131, 0.00026535,
        0.00026681217391304353, 0.00026538652173913047,
        0.00026673913043478265, 2.861818181818182e-06,
        0.0002683130434782609, 0.0002675621739130435,
    ],
    "multirail": [
        3.0486086956521742e-05, 3.0487826086956525e-05,
        3.0489565217391305e-05, 3.049217391304348e-05,
        3.0493913043478264e-05, 3.0495652173913047e-05,
        3.1461304347826085e-05, 3.146304347826087e-05, 3.146478260869565e-05,
        3.146739130434783e-05, 3.146913043478261e-05, 3.1470869565217394e-05,
        2.861818181818182e-06, 3.296652173913043e-05, 3.221652173913043e-05,
    ],
    "torus2d": [
        8.845652173913045e-05, 8.846260869565219e-05, 8.921869565217393e-05,
        8.847478260869566e-05, 8.84808695652174e-05, 8.923695652173915e-05,
        8.996869565217393e-05, 8.988826086956522e-05, 8.989434782608696e-05,
        8.998695652173915e-05, 8.990652173913044e-05, 8.991260869565218e-05,
        2.861818181818182e-06, 9.148695652173916e-05, 9.073695652173915e-05,
    ],
}


def topology(kind):
    sim = Simulator()
    return sim, make_topology(sim, N, IbParams(), KINDS[kind])


def channel_state(topo):
    return {ch.name: (ch.bytes_moved, ch.busy_s) for ch in topo.channels()}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_contended_exact_timings_are_pinned(kind):
    sim, topo = topology(kind)
    done = [None] * len(PATTERN)

    def send(k, src, dst, nbytes):
        yield from topo.transfer(src, dst, nbytes)
        done[k] = sim.now

    for k, (src, dst, nbytes) in enumerate(PATTERN):
        sim.process(send(k, src, dst, nbytes))
    sim.run()
    assert done == GOLDEN[kind]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("nbytes", SIZES)
def test_transfer_wire_time_and_account_agree(kind, pair, nbytes):
    """An idle exact transfer takes ``wire_time`` and books exactly
    what ``account`` books: same channels, bytes, busy seconds and
    ``chan_bytes``."""
    src, dst = pair
    sim, topo = topology(kind)

    def proc():
        return (yield from topo.transfer(src, dst, nbytes))

    p = sim.process(proc())
    sim.run()
    assert p.value == pytest.approx(topo.wire_time(src, dst, nbytes),
                                    rel=1e-12)

    sim2, booked = topology(kind)
    booked.account(src, dst, nbytes)
    assert channel_state(booked) == channel_state(topo)
    assert sim2.stats.chan_bytes == sim.stats.chan_bytes
    assert sum(r["bytes"] for r in link_report(booked)) == (
        sim2.stats.chan_bytes
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_static_profile_agrees_with_routes(kind):
    """The autotuner's FabricProfile summarizes the same routes: mean
    zero-byte latency of an ordinary hop (within a locality domain
    where the fabric has domains), worst-case latency, per-byte time
    of a neighbor hop and of the worst crossing."""
    _, topo = topology(kind)
    prof = topo.profile()
    pairs = [(s, d) for s in range(N) for d in range(N) if s != d]
    lat = {p: topo.wire_time(*p, 0) for p in pairs}
    ordinary = [
        p for p in pairs
        if topo.locality_group(p[0]) == topo.locality_group(p[1])
    ] or pairs
    far = max(pairs, key=lambda p: (lat[p], p))
    n = 3 * (1 << 20)

    def beta(src, dst):
        return (topo.wire_time(src, dst, n) - topo.wire_time(src, dst, 0)) / n

    assert prof.alpha_s == pytest.approx(
        sum(lat[p] for p in ordinary) / len(ordinary)
    )
    assert prof.cross_alpha_s == pytest.approx(lat[far])
    assert prof.beta_s_per_B == pytest.approx(beta(0, 1))
    assert prof.cross_beta_s_per_B == pytest.approx(beta(*far))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_negative_size_rejected_by_every_view(kind):
    sim, topo = topology(kind)
    with pytest.raises(ValueError, match="negative transfer size"):
        topo.wire_time(0, 1, -8)
    with pytest.raises(ValueError, match="negative transfer size"):
        topo.account(0, 5, -8)
    with pytest.raises(ValueError, match="negative transfer size"):
        topo.wire_cost(1, 4, -8)
    assert sim.stats.chan_bytes == 0
    assert all(ch.busy_s == 0.0 for ch in topo.channels())

    def proc():
        yield from topo.transfer(0, 5, -8)

    sim.process(proc())
    with pytest.raises(ValueError, match="negative transfer size"):
        sim.run()


def test_wire_cost_interns_and_books():
    sim, topo = topology("fattree")
    t = topo.wire_cost(0, 5, 4096)
    assert t == topo.wire_time(0, 5, 4096)
    assert topo.wire_cost(0, 5, 4096) == t
    assert (sim.stats.wire_cost_misses, sim.stats.wire_cost_hits) == (1, 1)
    assert sim.stats.chan_bytes == 0
    topo.accounting = True
    topo.wire_cost(0, 5, 4096)
    assert sim.stats.chan_bytes == 3 * 4096  # tx, pod up, pod down


def _analytic_job(n, **spec):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=n, gpus_per_node=0,
                                             **spec))
    return sim, cluster, MpiJob(cluster, list(range(n)), backend="analytic")


def test_one_wire_cost_cache_per_topology():
    """Every fast-path engine and window of a cluster prices through
    the topology's one cache: a second communicator's allreduce, fences
    and puts find every leg already interned."""
    sim, cluster, job = _analytic_job(2)
    misses = []

    def prog(ctx, win):
        data = np.ones(8)
        yield from ctx.allreduce(data, np.zeros(8))
        w = win.ctx(ctx.rank)
        yield from w.fence()
        yield from w.put(1 - ctx.rank, data)
        yield from w.fence()

    for comm in (job.comm, job.comm.dup()):
        win = Window.allocate(comm, 8)
        for rank in range(comm.size):
            sim.process(prog(comm.ctx(rank), win))
        sim.run()
        misses.append(sim.stats.wire_cost_misses)
    assert misses[0] > 0
    assert misses[1] == misses[0]


def _link_bytes(backend, prog, n=2):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=n, gpus_per_node=0))
    cluster.topology.accounting = backend != "exact"
    job = MpiJob(cluster, list(range(n)), backend=backend)
    job.start(prog, Window.allocate(job.comm, 1 << 14))
    job.run()
    return {r["name"]: r["bytes"] for r in link_report(cluster.topology)}


def test_analytic_rma_books_response_legs():
    """A get's payload travels target -> origin; analytic accounting
    books that response leg just as the exact channels carry it."""

    def prog(ctx, win):
        w = win.ctx(ctx.rank)
        if ctx.rank == 0:
            yield from w.lock_all()
            yield from w.get(1, np.zeros(1 << 14))
            yield from w.unlock_all()
        yield ctx.sim.timeout(0)

    exact = _link_bytes("exact", prog)
    assert exact["nic1.tx"] > (1 << 17)
    assert _link_bytes("analytic", prog) == exact


def test_analytic_interned_barriers_book_every_repeat():
    """Repeat barriers replay the fast path's retained plan; with
    accounting on they still book their legs, as the exact run does."""

    def prog(ctx, win):
        for _ in range(3):
            yield from ctx.barrier()

    exact = _link_bytes("exact", prog, n=4)
    assert _link_bytes("analytic", prog, n=4) == exact
