"""Topology subsystem tests: routing cost sanity, collective correctness
on each fabric at non-power-of-two node counts, autotune derivation, and
the hierarchical collective paths."""

import numpy as np
import pytest

from repro.hw import (
    ClusterSpec,
    FatTree,
    FlatSwitch,
    MultiRail,
    TopologySpec,
    Torus2D,
    build_cluster,
    make_topology,
)
from repro.hw.params import IbParams
from repro.mpi import (
    CollectiveTuning,
    MpiError,
    MpiJob,
    ReduceOp,
    pod_cyclic_placement,
)
from repro.mpi.algorithms.autotune import (
    autotune_tuning,
    clear_cache,
    derive_tuning,
)
from repro.sim import Simulator, us

KB = 1024
MB = 1024 * 1024


def fattree_spec(pod=4, oversub=2.0):
    return TopologySpec(kind="fattree", pod_size=pod, oversubscription=oversub)


def timed_transfer(topo_builder, n, src, dst, nbytes):
    sim = Simulator()
    topo = topo_builder(sim, n, IbParams())

    def proc():
        t = yield from topo.transfer(src, dst, nbytes)
        return t

    p = sim.process(proc())
    sim.run()
    return p.value


# ---------------------------------------------------------------------------
# Routing cost sanity
# ---------------------------------------------------------------------------

class TestTopologyCosts:
    def test_flat_switch_matches_seed_formula(self):
        """The FlatSwitch must charge exactly what the seed interconnect
        charged: tx latency/2 + size/bw, + rx latency/2."""
        params = IbParams(lat_us=2.0, bw_GBps=1.0)
        t = timed_transfer(
            lambda s, n, p: FlatSwitch(s, n, params), 4, 0, 1, 10**6
        )
        assert t == pytest.approx(us(2.0) + 1e-3)

    def test_fattree_intra_pod_equals_flat(self):
        flat = timed_transfer(FlatSwitch, 8, 0, 1, 10**6)
        ft = timed_transfer(
            lambda s, n, p: FatTree(s, n, p, pod_size=4), 8, 0, 1, 10**6
        )
        assert ft == pytest.approx(flat)

    def test_fattree_crossing_costs_more_than_flat(self):
        flat = timed_transfer(FlatSwitch, 8, 0, 5, 10**6)
        ft = timed_transfer(
            lambda s, n, p: FatTree(s, n, p, pod_size=4, oversubscription=2.0),
            8, 0, 5, 10**6,
        )
        assert ft > flat

    def test_fattree_higher_oversubscription_is_slower(self):
        t2 = timed_transfer(
            lambda s, n, p: FatTree(s, n, p, pod_size=4, oversubscription=2.0),
            8, 0, 5, 10**6,
        )
        t4 = timed_transfer(
            lambda s, n, p: FatTree(s, n, p, pod_size=4, oversubscription=4.0),
            8, 0, 5, 10**6,
        )
        assert t4 > t2

    def test_fattree_uplink_contention_serializes(self):
        """Two simultaneous pod crossings share the uplink; two flat
        transfers from distinct nodes would not contend."""
        sim = Simulator()
        ft = FatTree(sim, 8, IbParams(), pod_size=4, oversubscription=4.0)
        done = []

        def sender(src, dst):
            yield from ft.transfer(src, dst, 10**6)
            done.append(sim.now)

        sim.process(sender(0, 4))
        sim.process(sender(1, 5))
        sim.run()
        solo = ft.wire_time(0, 4, 10**6)
        uplink_service = 10**6 / ft._up[0].bandwidth_Bps
        # The loser queues behind the winner's full uplink transfer.
        assert max(done) >= solo + 0.9 * uplink_service

    def test_multirail_speeds_up_large_transfers(self):
        flat = timed_transfer(FlatSwitch, 4, 0, 1, 10**7)
        two = timed_transfer(
            lambda s, n, p: MultiRail(s, n, p, rails=2), 4, 0, 1, 10**7
        )
        four = timed_transfer(
            lambda s, n, p: MultiRail(s, n, p, rails=4), 4, 0, 1, 10**7
        )
        assert two == pytest.approx(flat / 2, rel=0.01)
        assert four == pytest.approx(flat / 4, rel=0.01)

    def test_multirail_zero_byte_pays_one_latency(self):
        t = timed_transfer(
            lambda s, n, p: MultiRail(s, n, p, rails=2), 4, 0, 1, 0
        )
        assert t == pytest.approx(us(IbParams().lat_us))

    def test_torus_latency_grows_with_hops(self):
        def builder(s, n, p):
            return Torus2D(s, n, p, nx=4, ny=4)

        near = timed_transfer(builder, 16, 0, 1, 0)    # 1 hop
        far = timed_transfer(builder, 16, 0, 10, 0)    # diameter-ish
        sim = Simulator()
        topo = builder(sim, 16, IbParams())
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 10) == 4
        assert topo.hops(0, 3) == 1    # wraparound
        assert far > near

    def test_torus_monotone_in_size(self):
        def builder(s, n, p):
            return Torus2D(s, n, p, nx=4, ny=4)

        small = timed_transfer(builder, 16, 0, 10, 10**4)
        large = timed_transfer(builder, 16, 0, 10, 10**6)
        assert large > small

    def test_monotone_in_size_every_topology(self):
        builders = {
            "flat": FlatSwitch,
            "fattree": lambda s, n, p: FatTree(s, n, p, pod_size=2),
            "multirail": lambda s, n, p: MultiRail(s, n, p, rails=2),
            "torus2d": lambda s, n, p: Torus2D(s, n, p, nx=3, ny=2),
        }
        for name, b in builders.items():
            prev = -1.0
            for nbytes in (0, 10**3, 10**5, 10**7):
                t = timed_transfer(b, 6, 0, 5, nbytes)
                assert t > prev, name
                prev = t

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(pod_size=0)
        with pytest.raises(ValueError):
            TopologySpec(oversubscription=0.5)
        with pytest.raises(ValueError):
            TopologySpec(rails=0)
        sim = Simulator()
        with pytest.raises(ValueError, match="unknown topology kind"):
            make_topology(sim, 4, IbParams(), TopologySpec(kind="clos"))
        with pytest.raises(ValueError, match="does not match"):
            Torus2D(sim, 6, IbParams(), nx=4, ny=4)

    def test_torus_derives_square_grid(self):
        sim = Simulator()
        topo = Torus2D(sim, 12, IbParams())
        assert (topo.nx, topo.ny) == (3, 4)


# ---------------------------------------------------------------------------
# Collective correctness on each topology, non-power-of-two node counts
# ---------------------------------------------------------------------------

TOPOLOGY_CASES = [
    ("fattree-2to1", fattree_spec(), 6),
    ("fattree-2to1", fattree_spec(), 12),
    ("multirail-2", TopologySpec(kind="multirail", rails=2), 6),
    ("multirail-2", TopologySpec(kind="multirail", rails=2), 12),
    ("torus-4x4", TopologySpec(kind="torus2d", torus_x=4, torus_y=4), 16),
    ("torus-2x3", TopologySpec(kind="torus2d", torus_x=2, torus_y=3), 6),
]


def make_topo_job(topo_spec, n_nodes, tuning=None, placement=None):
    sim = Simulator()
    spec = ClusterSpec(nodes=n_nodes, gpus_per_node=0, topology=topo_spec)
    cluster = build_cluster(sim, spec)
    if placement is None:
        placement = list(range(n_nodes))
    job = MpiJob(cluster, placement, tuning=tuning)
    return sim, job


class TestCollectivesOnTopologies:
    @pytest.mark.parametrize("label,topo,n", TOPOLOGY_CASES)
    @pytest.mark.parametrize("count", [7, 4097])
    def test_allreduce_correct(self, label, topo, n, count):
        sim, job = make_topo_job(topo, n)
        payloads = [
            np.random.default_rng(100 + r).standard_normal(count)
            for r in range(n)
        ]
        expected = np.sum(payloads, axis=0)
        result = {}

        def prog(ctx):
            recv = np.zeros(count)
            yield from ctx.allreduce(
                payloads[ctx.rank].copy(), recv, op=ReduceOp.SUM
            )
            result[ctx.rank] = recv

        job.start(prog)
        job.run()
        for r in range(n):
            assert np.allclose(result[r], expected), f"{label} rank {r}"

    @pytest.mark.parametrize("label,topo,n", TOPOLOGY_CASES)
    def test_allgather_correct(self, label, topo, n):
        count = 33
        sim, job = make_topo_job(topo, n)
        payloads = [
            np.random.default_rng(200 + r).standard_normal(count)
            for r in range(n)
        ]
        result = {}

        def prog(ctx):
            recvbufs = [np.zeros(count) for _ in range(n)]
            yield from ctx.allgather(payloads[ctx.rank].copy(), recvbufs)
            result[ctx.rank] = [b.copy() for b in recvbufs]

        job.start(prog)
        job.run()
        for r in range(n):
            for s in range(n):
                assert np.allclose(result[r][s], payloads[s]), (
                    f"{label} rank {r} block {s}"
                )

    @pytest.mark.parametrize("label,topo,n", TOPOLOGY_CASES)
    def test_bcast_and_barrier_correct(self, label, topo, n):
        sim, job = make_topo_job(topo, n)
        payload = np.random.default_rng(7).standard_normal(65)
        result = {}

        def prog(ctx):
            buf = payload.copy() if ctx.rank == 2 else np.zeros(65)
            yield from ctx.barrier()
            yield from ctx.bcast(buf, root=2)
            result[ctx.rank] = buf

        job.start(prog)
        job.run()
        for r in range(n):
            assert np.allclose(result[r], payload), f"{label} rank {r}"

    def test_monotone_collective_cost_across_topologies(self):
        """1 MB allreduce: oversubscribed fat tree with a scattered
        placement is slower than flat; 2-rail multirail is faster."""
        times = {}
        n = 8
        for label, topo, placement in [
            ("flat", TopologySpec(), None),
            ("fattree", fattree_spec(), pod_cyclic_placement(n, 4)),
            ("multirail", TopologySpec(kind="multirail", rails=2), None),
        ]:
            sim, job = make_topo_job(topo, n, placement=placement)

            def prog(ctx):
                send = np.zeros(1 * MB, dtype=np.uint8)
                recv = np.zeros(1 * MB, dtype=np.uint8)
                yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)

            job.start(prog)
            job.run()
            times[label] = sim.now
        assert times["fattree"] > times["flat"]
        assert times["multirail"] < times["flat"]


# ---------------------------------------------------------------------------
# Hierarchical collective paths
# ---------------------------------------------------------------------------

class TestHierarchicalCollectives:
    def _scattered_job(self, n=16, tuning=None):
        return make_topo_job(
            fattree_spec(), n, tuning=tuning,
            placement=pod_cyclic_placement(n, 4),
        )

    def test_hierarchical_allreduce_selected_and_correct(self):
        sim, job = self._scattered_job()
        count = 32 * KB  # float64 => 256 KB payload, past the hier gate
        payloads = [
            np.random.default_rng(300 + r).standard_normal(count)
            for r in range(16)
        ]
        expected = np.sum(payloads, axis=0)
        result = {}

        def prog(ctx):
            recv = np.zeros(count)
            yield from ctx.allreduce(
                payloads[ctx.rank].copy(), recv, op=ReduceOp.SUM
            )
            result[ctx.rank] = recv

        job.start(prog)
        job.run()
        assert job.comm.stats.get("allreduce[hierarchical]") == 16
        for r in range(16):
            assert np.allclose(result[r], expected), f"rank {r}"

    def test_hierarchical_bcast_selected_and_correct(self):
        sim, job = self._scattered_job()
        payload = np.random.default_rng(9).standard_normal(64 * KB)
        result = {}

        def prog(ctx):
            buf = payload.copy() if ctx.rank == 5 else np.zeros(64 * KB)
            yield from ctx.bcast(buf, root=5)
            result[ctx.rank] = buf

        job.start(prog)
        job.run()
        assert job.comm.stats.get("bcast[hierarchical]") == 16
        for r in range(16):
            assert np.allclose(result[r], payload), f"rank {r}"

    def test_hierarchical_beats_flat_constants_on_scattered_fattree(self):
        """The acceptance regime: >=1.2x on >=16 nodes, >=1 MB."""

        def run(tuning):
            sim, job = self._scattered_job(tuning=tuning)

            def prog(ctx):
                send = np.zeros(1 * MB, dtype=np.uint8)
                recv = np.zeros(1 * MB, dtype=np.uint8)
                yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)

            job.start(prog)
            job.run()
            return sim.now

        t_constants = run(CollectiveTuning())
        t_autotuned = run(None)
        assert t_constants / t_autotuned >= 1.2

    def test_contiguous_placement_keeps_flat_schedules(self):
        """A contiguous placement is not fragmented: the flat ring is
        near-optimal (one uplink crossing per pod) and hierarchical
        must not trigger."""
        sim, job = make_topo_job(fattree_spec(), 16)
        assert not job.comm.fragmented

        def prog(ctx):
            send = np.zeros(1 * MB, dtype=np.uint8)
            recv = np.zeros(1 * MB, dtype=np.uint8)
            yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)

        job.start(prog)
        job.run()
        assert job.comm.stats.get("allreduce[ring]") == 16

    def test_unequal_groups_run_hierarchical(self):
        # 6 nodes, pod_size 4 => pods of 4 and 2: unequal pods are
        # hier-capable since the sub-communicator rebuild (PR 4) — the
        # leader-based composition replaces the old hard error.
        sim, job = make_topo_job(
            fattree_spec(), 6,
            tuning=CollectiveTuning(force_allreduce="hierarchical"),
        )
        assert job.comm.hier_capable
        results = {}

        def prog(ctx):
            send = np.full(256, ctx.rank + 1, dtype=np.int64)
            recv = np.zeros(256, dtype=np.int64)
            yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
            results[ctx.rank] = recv

        job.start(prog)
        job.run()
        expected = np.full(256, sum(range(1, 7)), dtype=np.int64)
        for r in range(6):
            assert np.array_equal(results[r], expected)
        assert job.comm.stats.get("allreduce[hierarchical]") == 6

    def test_forced_hierarchical_any_equal_grouping(self):
        """Even a contiguous placement can run it when forced."""
        sim, job = make_topo_job(
            fattree_spec(), 8,
            tuning=CollectiveTuning(force_allreduce="hierarchical"),
        )
        count = 129
        payloads = [
            np.random.default_rng(400 + r).standard_normal(count)
            for r in range(8)
        ]
        expected = np.sum(payloads, axis=0)
        result = {}

        def prog(ctx):
            recv = np.zeros(count)
            yield from ctx.allreduce(
                payloads[ctx.rank].copy(), recv, op=ReduceOp.SUM
            )
            result[ctx.rank] = recv

        job.start(prog)
        job.run()
        assert job.comm.stats.get("allreduce[hierarchical]") == 8
        for r in range(8):
            assert np.allclose(result[r], expected)


# ---------------------------------------------------------------------------
# Autotune derivation
# ---------------------------------------------------------------------------

class TestAutotune:
    def test_flat_derivation_matches_calibrated_shape(self):
        """On the flat switch the derivation must reproduce the intent
        of the PR-1 constants: rd needs 8 ranks (P=4 loses at the eager
        boundary), the small-block exception is half the eager
        threshold, and no hierarchical path."""
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=16, gpus_per_node=0))
        tuning = autotune_tuning(cluster)
        ib = cluster.spec.params.ib
        assert tuning.allgather_rd_min_ranks == 8
        assert tuning.allgather_rd_small_max_bytes == ib.eager_threshold // 2
        assert tuning.allreduce_hier_min_bytes is None
        assert tuning.bcast_hier_min_bytes is None
        assert 0 < tuning.allreduce_ring_min_bytes <= 64 * KB
        assert tuning.allgather_bruck_max_bytes > 0

    def test_fattree_derivation_enables_hierarchical(self):
        sim = Simulator()
        cluster = build_cluster(
            sim,
            ClusterSpec(nodes=16, gpus_per_node=0, topology=fattree_spec()),
        )
        tuning = autotune_tuning(cluster)
        assert tuning.allreduce_hier_min_bytes is not None
        assert tuning.bcast_hier_min_bytes is not None
        # Floored at half the eager threshold (latency-bound regime).
        ib = cluster.spec.params.ib
        assert tuning.allreduce_hier_min_bytes >= ib.eager_threshold // 2

    def test_multirail_shifts_bandwidth_crossovers_up(self):
        """Doubling the wire bandwidth keeps latency constant, so the
        bandwidth-optimal ring pays off only at larger payloads."""
        sim = Simulator()
        flat = build_cluster(sim, ClusterSpec(nodes=16, gpus_per_node=0))
        rail = build_cluster(
            Simulator(),
            ClusterSpec(
                nodes=16, gpus_per_node=0,
                topology=TopologySpec(kind="multirail", rails=2),
            ),
        )
        t_flat = autotune_tuning(flat)
        t_rail = autotune_tuning(rail)
        assert (
            t_rail.allreduce_ring_min_bytes > t_flat.allreduce_ring_min_bytes
        )

    def test_derivation_cached_per_fabric_shape(self):
        clear_cache()
        sim = Simulator()
        spec = ClusterSpec(nodes=8, gpus_per_node=0, topology=fattree_spec())
        c1 = build_cluster(sim, spec)
        c2 = build_cluster(Simulator(), spec)
        t1 = autotune_tuning(c1)
        assert autotune_tuning(c2) is t1  # same shape => cached object
        other = build_cluster(
            Simulator(), ClusterSpec(nodes=8, gpus_per_node=0)
        )
        assert autotune_tuning(other) is not t1

    def test_derive_tuning_respects_profile_not_globals(self):
        """derive_tuning is a pure function of (profile, ib)."""
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
        prof = cluster.topology.profile()
        ib = cluster.spec.params.ib
        assert derive_tuning(prof, ib) == derive_tuning(prof, ib)


@pytest.mark.parametrize("spec", [
    TopologySpec(),
    TopologySpec(kind="fattree", pod_size=3, oversubscription=2.0),
    TopologySpec(kind="torus2d"),
    TopologySpec(kind="multirail", rails=2),
], ids=["flat", "fattree", "torus", "multirail"])
def test_wire_class_pairs_price_alike(spec):
    """Every pair of nodes in one ``wire_class`` has a bit-equal
    ``wire_time`` at 0 B, 96 B and 256 KB: the class memo that fills the
    per-pair cache's misses changes no priced time."""
    sim = Simulator()
    topo = build_cluster(sim, ClusterSpec(nodes=10, gpus_per_node=0,
                                          topology=spec)).topology
    for nbytes in (0, 96, 256 * 1024):
        seen = {}
        for src in range(topo.n_nodes):
            for dst in range(topo.n_nodes):
                t = topo.wire_time(src, dst, nbytes)
                assert seen.setdefault(topo.wire_class(src, dst), t) == t
        fresh = build_cluster(Simulator(), ClusterSpec(
            nodes=10, gpus_per_node=0, topology=spec)).topology
        pairs = [(s, d) for s in range(10) for d in range(10)]
        costs = fresh.wire_costs(*zip(*[(s, d, nbytes) for s, d in pairs]))
        assert costs == [topo.wire_time(s, d, nbytes) for s, d in pairs]
