"""Property-based tests (hypothesis) on core data structures & invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dcgn import DcgnConfig, NodeConfig, RankMap
from repro.dcgn.queues import sleep_poll_wait
from repro.hw import build_cluster, paper_cluster
from repro.mpi import MpiJob, ReduceOp, block_placement
from repro.sim import (
    BandwidthChannel,
    FilterStore,
    Resource,
    Simulator,
    us,
)

FAST = settings(max_examples=25, deadline=None)


class TestSimProperties:
    @FAST
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                    max_size=40))
    def test_timeouts_fire_in_sorted_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(d):
            yield sim.timeout(d)
            fired.append(d)

        for d in delays:
            sim.process(proc(d))
        sim.run()
        assert fired == sorted(fired, key=float) or fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(min_value=0, max_value=5)),
            # A receive accepting the values ``v % m == r``; (1, 0)
            # accepts everything.
            st.tuples(st.just("get"), st.sampled_from(
                [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2)])),
        ),
        min_size=1, max_size=60,
    ))
    def test_store_preserves_fifo_for_any_sequence(self, ops):
        """Random interleavings of puts and predicate receives match
        the brute-force pairing: after every call, repeatedly pair the
        first posted receive that accepts anything with the earliest
        queued message it accepts."""
        sim = Simulator()
        store = FilterStore(sim)
        posted, queued = [], []  # reference: (gid, (m, r)) / (seq, v)
        want, events = {}, {}

        def accepts(mr, item):
            return item[1] % mr[0] == mr[1]

        for i, (kind, arg) in enumerate(ops):
            if kind == "put":
                store.put((i, arg))
                queued.append((i, arg))
            else:
                events[i] = store.get(lambda item, mr=arg: accepts(mr, item))
                posted.append((i, arg))
            matched = True
            while matched:
                matched = False
                for gi, (gid, mr) in enumerate(posted):
                    for qi, item in enumerate(queued):
                        if accepts(mr, item):
                            want[gid] = item
                            del posted[gi], queued[qi]
                            matched = True
                            break
                    if matched:
                        break
        sim.run(detect_deadlock=False)
        got = {gid: ev.value for gid, ev in events.items() if ev.processed}
        assert got == want
        assert list(store.items) == queued
        fifo = [item for _kind, item in sorted(want.items())]
        if all(mr == (1, 0) for kind, mr in ops if kind == "get"):
            assert fifo == sorted(fifo)

    @FAST
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.floats(min_value=1e-6, max_value=1.0),
                 min_size=1, max_size=30),
    )
    def test_resource_never_oversubscribed(self, capacity, holds):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        max_seen = [0]

        def user(hold):
            yield res.request()
            max_seen[0] = max(max_seen[0], res.in_use)
            yield sim.timeout(hold)
            res.release()

        for h in holds:
            sim.process(user(h))
        sim.run()
        assert max_seen[0] <= capacity
        assert res.in_use == 0

    @FAST
    @given(
        st.floats(min_value=0.0, max_value=1e-3),
        st.integers(min_value=0, max_value=1 << 22),
    )
    def test_bandwidth_channel_time_is_affine(self, lat, nbytes):
        sim = Simulator()
        ch = BandwidthChannel(sim, latency_s=lat, bandwidth_Bps=1e9)
        assert ch.transfer_time(nbytes) == pytest.approx(lat + nbytes / 1e9)
        # Monotone in size.
        assert ch.transfer_time(nbytes + 1024) >= ch.transfer_time(nbytes)

    @FAST
    @given(
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=5e-3),
    )
    def test_sleep_poll_quantizes_to_tick_grid(self, poll_us, event_delay):
        """Detection happens at the first poll tick >= the event time."""
        sim = Simulator()
        ev = sim.event()
        marks = {}

        def firer():
            yield sim.timeout(event_delay)
            ev.succeed("v")

        def waiter():
            start = sim.now
            v = yield from sleep_poll_wait(sim, ev, poll_us)
            marks["waited"] = sim.now - start
            return v

        sim.process(firer())
        p = sim.process(waiter())
        sim.run()
        interval = us(poll_us)
        waited = marks["waited"]
        # Never earlier than the event, never a full tick later.
        assert waited >= event_delay - 1e-12
        assert waited <= event_delay + interval + 1e-9
        # On (approximately) a tick boundary.
        ticks = waited / interval
        assert abs(ticks - round(ticks)) < 1e-6


class TestRankMapProperties:
    node_cfg = (
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=4),
        )
        .filter(lambda t: t[0] + t[1] > 0)
        .map(
            lambda t: NodeConfig(
                cpu_threads=t[0], gpus=t[1], slots_per_gpu=t[2]
            )
        )
    )

    @FAST
    @given(st.lists(node_cfg, min_size=1, max_size=5))
    def test_rank_assignment_is_a_bijection(self, node_cfgs):
        cfg = DcgnConfig(node_cfgs)
        rm = RankMap(cfg)
        assert rm.size == cfg.total_ranks
        # Every vrank maps to a resource and back.
        seen = set()
        for v in range(rm.size):
            info = rm.info(v)
            assert info.vrank == v
            key = (
                ("cpu", info.node, info.cpu_index)
                if rm.is_cpu(v)
                else ("gpu", info.node, info.gpu_index, info.slot)
            )
            assert key not in seen
            seen.add(key)

    @FAST
    @given(st.lists(node_cfg, min_size=1, max_size=5))
    def test_ranks_consecutive_within_nodes(self, node_cfgs):
        """Paper §3.2.3: ranks assigned consecutively within a node, in
        increasing order across successive nodes."""
        cfg = DcgnConfig(node_cfgs)
        rm = RankMap(cfg)
        offset = 0
        for n, nc in enumerate(node_cfgs):
            local = rm.local_ranks(n)
            assert local == list(range(offset, offset + nc.ranks))
            # CPUs first, then (gpu, slot) in order.
            for i in range(nc.cpu_threads):
                assert rm.cpu_rank(n, i) == offset + i
            k = nc.cpu_threads
            for g in range(nc.gpus):
                for s in range(nc.slots_per_gpu):
                    assert rm.slot_rank(n, g, s) == offset + k
                    k += 1
            offset += nc.ranks


class TestMpiProperties:
    @FAST
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=7),
        st.sampled_from([np.int32, np.int64, np.float64]),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_bcast_delivers_exact_payload(self, n_ranks, count, root_seed,
                                          dtype, data_seed):
        root = root_seed % n_ranks
        rng = np.random.default_rng(data_seed)
        payload = (rng.integers(-1000, 1000, count)).astype(dtype)
        sim = Simulator()
        n_nodes = 2 if n_ranks % 2 == 0 else 1
        cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
        job = MpiJob(cluster, block_placement(n_ranks, n_nodes))
        result = {}

        def prog(ctx):
            buf = payload.copy() if ctx.rank == root else np.zeros(
                count, dtype=dtype
            )
            yield from ctx.bcast(buf, root=root)
            result[ctx.rank] = buf

        job.start(prog)
        job.run()
        for r in range(n_ranks):
            assert np.array_equal(result[r], payload), f"rank {r}"

    @FAST
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([ReduceOp.SUM, ReduceOp.MAX, ReduceOp.MIN]),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_allreduce_matches_numpy(self, n_ranks, count, op, data_seed):
        rng = np.random.default_rng(data_seed)
        contributions = rng.integers(-50, 50, (n_ranks, count)).astype(
            np.float64
        )
        expected = {
            ReduceOp.SUM: contributions.sum(axis=0),
            ReduceOp.MAX: contributions.max(axis=0),
            ReduceOp.MIN: contributions.min(axis=0),
        }[op]
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=1))
        job = MpiJob(cluster, [0] * n_ranks)
        result = {}

        def prog(ctx):
            recv = np.zeros(count)
            yield from ctx.allreduce(contributions[ctx.rank], recv, op=op)
            result[ctx.rank] = recv

        job.start(prog)
        job.run()
        for r in range(n_ranks):
            assert np.allclose(result[r], expected)

    @FAST
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    def test_alltoall_is_a_transpose(self, n_ranks, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 1000, (n_ranks, n_ranks))
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=1))
        job = MpiJob(cluster, [0] * n_ranks)
        result = {}

        def prog(ctx):
            sendbufs = [
                np.array([matrix[ctx.rank, dst]], dtype=np.int64)
                for dst in range(n_ranks)
            ]
            recvbufs = [np.zeros(1, dtype=np.int64) for _ in range(n_ranks)]
            yield from ctx.alltoall(sendbufs, recvbufs)
            result[ctx.rank] = [int(b[0]) for b in recvbufs]

        job.start(prog)
        job.run()
        for r in range(n_ranks):
            assert result[r] == list(matrix[:, r])


class TestAppProperties:
    @FAST
    @given(
        st.integers(min_value=16, max_value=64).map(lambda x: x * 2),
        st.integers(min_value=16, max_value=128),
    )
    def test_mandelbrot_strips_tile_the_image(self, size, max_iter):
        from repro.apps import mandelbrot as mb

        cfg = mb.MandelbrotConfig(
            width=size, height=size, strip_height=size // 2,
            max_iter=max_iter,
        )
        ref = mb.mandelbrot_reference(cfg)
        strips = [mb._strip_pixels(cfg, i) for i in range(cfg.n_strips)]
        assert np.array_equal(np.vstack(strips), ref)
        counts = mb.strip_iteration_counts(cfg)
        assert counts.sum() == ref.sum()

    @FAST
    @given(
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=1, max_value=9),
    )
    def test_nbody_chunks_partition(self, n_bodies, p):
        from repro.apps import nbody

        bounds = [nbody._chunk_bounds(n_bodies, p, r) for r in range(p)]
        # Contiguous, ordered, covering.
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n_bodies
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
            assert a1 >= a0
