"""One store of compiled collective plans per fabric.

The analytic fast path keeps its plans in ``Topology.plans``, keyed by
the topology's ``signature`` of the communicator's placement, so
communicators the fabric cannot tell apart compile each shape once.
These tests check the signature's contract on every fabric, that
sharing jobs compile once per key yet produce exactly what compiling
every call afresh produces (link accounting included), and that a hit
from another communicator is still checked against its buffers.
"""

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.hw.topology.base import ordinal
from repro.mpi import CollectiveTuning, MpiError, MpiJob, ReduceOp
from repro.mpi.algorithms import fastpath
from repro.mpi.algorithms.schedule import Binding, Call, Schedule
from repro.sim import Simulator

from test_fastpath_compile import FABRICS

KB = 1024


def _topology(fabric, nodes=16):
    spec = ClusterSpec(nodes=nodes, gpus_per_node=0,
                       topology=FABRICS[fabric])
    return build_cluster(Simulator(), spec).topology


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_equal_signatures_price_and_order_alike(fabric):
    """Seeded 4-rank placements over 8 nodes (ranks may share a node):
    two with one signature price every ordered rank pair alike at 0 B,
    96 B and 256 KB, and order their locality domains alike."""
    topo = _topology(fabric, nodes=8)
    rng = np.random.default_rng(7)
    groups = {}
    for _ in range(300):
        nodes = rng.integers(0, 8, 4).tolist()
        groups.setdefault(topo.signature(nodes), []).append(nodes)
    shared = [g for g in groups.values() if len(g) > 1]
    if fabric == "torus":
        # Only equal placements share a signature.
        assert all(len({tuple(p) for p in g}) == 1 for g in shared)
    else:
        assert len(shared) > 10
    for first, *rest in shared:
        want = [[topo.wire_cost(first[i], first[j], n)
                 for i in range(4) for j in range(4)]
                for n in (0, 96, 256 * KB)]
        domains = ordinal([topo.locality_group(n) for n in first])
        for other in rest:
            got = [[topo.wire_cost(other[i], other[j], n)
                    for i in range(4) for j in range(4)]
                   for n in (0, 96, 256 * KB)]
            assert got == want, (first, other)
            assert ordinal([topo.locality_group(n) for n in other]) == domains


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_packed_jobs_on_different_pods_share_a_signature(fabric):
    """Two jobs, each filling one pod-sized block of nodes: every fabric
    but the torus (whose hop counts depend on the nodes) shares."""
    topo = _topology(fabric)
    pod = FABRICS["fattree"].pod_size
    first = list(range(pod))
    second = list(range(4 * pod, 5 * pod))
    shares = topo.signature(first) == topo.signature(second)
    assert shares == (fabric != "torus")


#: Four 4-rank jobs on a 16-node fat tree of 4-node pods: ``packed``
#: gives each job a pod; ``spanning`` gives each two nodes in each of
#: two pods, so jobs share uplinks and their plans price spine legs.
JOBS = {
    "packed": [list(range(4 * k, 4 * k + 4)) for k in range(4)],
    "spanning": [[2 * k, 2 * k + 1, 8 + 2 * k, 9 + 2 * k]
                 for k in range(4)],
}


def _shared_run(layout):
    """Two skewed rounds of four collectives on each of the jobs: every
    call's completion time and data, every channel's accounting, and
    the compile and plan-hit counts."""
    sim = Simulator()
    spec = ClusterSpec(nodes=16, gpus_per_node=0,
                       topology=TopologySpec(kind="fattree", pod_size=4,
                                             oversubscription=2.0))
    cluster = build_cluster(sim, spec)
    cluster.topology.accounting = True
    out = {}

    def prog(ctx, job):
        rng = np.random.default_rng([job, ctx.rank])
        for call in range(2):
            yield ctx.sim.timeout(float(rng.random()) * 2e-5)
            yield from ctx.barrier()
            out[job, ctx.rank, call, "barrier"] = ctx.sim.now
            red = np.zeros(12)
            yield from ctx.allreduce(rng.random(12), red, op=ReduceOp.SUM)
            buf = rng.random(1536) if ctx.rank == 0 else np.zeros(1536)
            yield from ctx.bcast(buf, root=0)
            gat = np.zeros(4 * ctx.size)
            yield from ctx.allgather(rng.random(4), gat)
            out[job, ctx.rank, call] = (ctx.sim.now, red.tobytes(),
                                        buf.tobytes(), gat.tobytes())

    jobs = [MpiJob(cluster, nodes, backend="analytic")
            for nodes in JOBS[layout]]
    for j, job in enumerate(jobs):
        job.start(prog, j)
    sim.run()
    st = sim.stats
    channels = [(ch.name, ch.busy_s, ch.bytes_moved)
                for ch in cluster.topology.channels()]
    return (out, channels, st.chan_bytes,
            st.fastpath_collectives - st.fastpath_sched_cache_hits)


@pytest.mark.parametrize("layout", sorted(JOBS))
def test_jobs_of_one_structure_compile_each_key_once(layout, monkeypatch):
    """The four jobs compile each of their four plan keys once, and
    produce what compiling every call afresh produces: times, data and
    every channel's ``busy_s`` and ``bytes_moved``, bit for bit."""
    out, channels, chan_bytes, compiles = _shared_run(layout)
    assert compiles == 4
    monkeypatch.setattr(fastpath, "PLAN_STEP_BUDGET", 0)
    fresh_out, fresh_channels, fresh_bytes, fresh_compiles = (
        _shared_run(layout))
    assert fresh_compiles == 4 * 2 * 4  # jobs x rounds x collectives
    assert out == fresh_out
    assert channels == fresh_channels
    assert chan_bytes == fresh_bytes > 0


#: Three placements of two ranks on each of three nodes, the nodes in
#: different orders: the fabric prices them alike, but a hierarchical
#: collective lists its locality domains by id, so each has a shape of
#: its own.  The values cancel only in the order each shape sums them.
MIRRORED = ([5, 5, 2, 2, 9, 9], [2, 2, 5, 5, 9, 9], [9, 9, 5, 5, 2, 2])
CANCEL = [1e16, 1e16, 1.0, 1.0, -1e16, -1e16]


def _mirrored_run():
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=12, gpus_per_node=0))
    out = {}

    def prog(ctx, j):
        got = np.zeros(3)
        yield from ctx.allreduce(np.full(3, CANCEL[ctx.rank]), got)
        out[j, ctx.rank] = (ctx.sim.now, got.tolist())

    for j, nodes in enumerate(MIRRORED):
        job = MpiJob(cluster, nodes, backend="analytic",
                     tuning=CollectiveTuning(force_allreduce="hierarchical"))
        job.start(prog, j)
        sim.run()
    return out, sim.stats.fastpath_sched_cache_hits


def test_placements_that_order_domains_apart_do_not_share(monkeypatch):
    """Relabelling nodes by first appearance would give the three
    placements one signature and replay the first one's sums on the
    others; the signature keeps the nodes' order, so each compiles its
    own shape and every result is what a fresh compile gives."""
    topo = _topology("flat", nodes=12)
    assert len({topo.signature(nodes) for nodes in MIRRORED}) == 3
    out, hits = _mirrored_run()
    assert hits == 0
    monkeypatch.setattr(fastpath, "PLAN_STEP_BUDGET", 0)
    assert _mirrored_run()[0] == out


def _fixture_job(cluster, nodes):
    """A job whose calls all carry the key ``("fixture",)``, whatever
    their size: a builder whose key omits what its shape depends on."""
    job = MpiJob(cluster, nodes, backend="analytic")

    def build_fixture(ctx, b):
        sched = Schedule(ctx, b)
        if ctx.rank == 0:
            sched.send(0, 1, tag=1)
        else:
            sched.recv(0, 0, tag=1)
        return sched

    def prog(ctx, nbytes):
        b = Binding((np.zeros(nbytes, dtype=np.uint8),))
        call = Call("fixture", "fixture", nbytes, ("fixture",), b,
                    build_fixture)
        yield from ctx.comm.engine.execute(ctx, call)

    return job, prog


def test_wrong_key_builder_raises_across_communicators():
    """Another job of the same structure hits the first job's plan; its
    buffers disagree with the plan's, and the hit says so."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    first, prog = _fixture_job(cluster, [0, 1])
    first.start(prog, 8)
    first.run()
    second, prog = _fixture_job(cluster, [2, 3])
    second.start(prog, 16)
    with pytest.raises(MpiError, match="fixture"):
        second.run()
