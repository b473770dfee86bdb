"""Collective algorithm engine: per-algorithm correctness, selector
policy, config plumbing, and adaptive-vs-seed timing guards."""

import numpy as np
import pytest

from repro.dcgn import DcgnConfig, DcgnRuntime
from repro.hw import build_cluster, paper_cluster
from repro.mpi import (
    AlgorithmSelector,
    CollectiveTuning,
    MpiError,
    MpiJob,
    ReduceOp,
    SEED_TUNING,
    block_placement,
)
from repro.sim import Simulator

KB = 1024
MB = 1024 * 1024


def make_job(n_ranks, tuning=None):
    """One rank per node: every message crosses the interconnect."""
    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=n_ranks, gpus_per_node=0)
    )
    job = MpiJob(cluster, block_placement(n_ranks, n_ranks), tuning=tuning)
    return sim, job


def rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Per-algorithm correctness
# ---------------------------------------------------------------------------

ALLREDUCE_ALGOS = ["reduce_bcast", "recursive_doubling", "ring"]


@pytest.mark.parametrize("algo", ALLREDUCE_ALGOS)
@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("count", [1, 3, 257])
def test_allreduce_algorithms_sum(algo, n_ranks, count):
    tuning = CollectiveTuning(force_allreduce=algo)
    sim, job = make_job(n_ranks, tuning=tuning)
    payloads = [
        rng(100 * n_ranks + r).standard_normal(count) for r in range(n_ranks)
    ]
    expected = np.sum(payloads, axis=0)
    result = {}

    def prog(ctx):
        send = payloads[ctx.rank].copy()
        recv = np.zeros(count)
        yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
        result[ctx.rank] = recv.copy()

    job.start(prog)
    job.run()
    assert job.comm.stats.get(f"allreduce[{algo}]") == n_ranks
    for r in range(n_ranks):
        assert np.allclose(result[r], expected), f"rank {r} ({algo})"


@pytest.mark.parametrize("algo", ALLREDUCE_ALGOS)
@pytest.mark.parametrize("op,reducer", [
    (ReduceOp.MAX, np.maximum.reduce),
    (ReduceOp.MIN, np.minimum.reduce),
    (ReduceOp.BOR, np.bitwise_or.reduce),
])
def test_allreduce_algorithms_integer_ops_exact(algo, op, reducer):
    n_ranks, count = 6, 33  # non-power-of-two, count not divisible by P
    tuning = CollectiveTuning(force_allreduce=algo)
    sim, job = make_job(n_ranks, tuning=tuning)
    payloads = [
        rng(7 * n_ranks + r).integers(0, 1 << 20, size=count)
        for r in range(n_ranks)
    ]
    expected = reducer(np.stack(payloads))
    result = {}

    def prog(ctx):
        send = payloads[ctx.rank].copy()
        recv = np.zeros(count, dtype=np.int64)
        yield from ctx.allreduce(send, recv, op=op)
        result[ctx.rank] = recv.copy()

    job.start(prog)
    job.run()
    for r in range(n_ranks):
        assert np.array_equal(result[r], expected), f"rank {r} ({algo}/{op})"


@pytest.mark.parametrize("algo,n_ranks", [
    ("ring", 1), ("ring", 2), ("ring", 3), ("ring", 5), ("ring", 8),
    ("recursive_doubling", 1), ("recursive_doubling", 2),
    ("recursive_doubling", 4), ("recursive_doubling", 8),
    ("bruck", 1), ("bruck", 2), ("bruck", 3), ("bruck", 5),
    ("bruck", 6), ("bruck", 7), ("bruck", 8), ("bruck", 12),
])
def test_allgather_algorithms(algo, n_ranks):
    count = 17
    tuning = CollectiveTuning(force_allgather=algo)
    sim, job = make_job(n_ranks, tuning=tuning)
    payloads = [
        rng(31 * n_ranks + r).standard_normal(count) for r in range(n_ranks)
    ]
    result = {}

    def prog(ctx):
        recvbufs = [np.zeros(count) for _ in range(n_ranks)]
        yield from ctx.allgather(payloads[ctx.rank].copy(), recvbufs)
        result[ctx.rank] = [b.copy() for b in recvbufs]

    job.start(prog)
    job.run()
    assert job.comm.stats.get(f"allgather[{algo}]") == n_ranks
    for r in range(n_ranks):
        for src in range(n_ranks):
            assert np.allclose(result[r][src], payloads[src]), (
                f"rank {r} block {src} ({algo})"
            )


def test_allgather_recursive_doubling_rejects_non_pof2():
    sim, job = make_job(
        3, tuning=CollectiveTuning(force_allgather="recursive_doubling")
    )

    def prog(ctx):
        recvbufs = [np.zeros(2) for _ in range(3)]
        yield from ctx.allgather(np.zeros(2), recvbufs)

    job.start(prog)
    with pytest.raises(MpiError, match="power-of-two"):
        job.run()


def test_allgather_unequal_blocks_takes_ring():
    """Vector-style unequal blocks must fall back to the ring."""
    n_ranks = 4
    sim, job = make_job(n_ranks)  # default adaptive tuning
    result = {}

    def prog(ctx):
        recvbufs = [np.zeros(r + 1) for r in range(n_ranks)]
        send = np.full(ctx.rank + 1, float(ctx.rank))
        yield from ctx.allgather(send, recvbufs)
        result[ctx.rank] = [b.copy() for b in recvbufs]

    job.start(prog)
    job.run()
    assert job.comm.stats.get("allgather[ring]") == n_ranks
    for r in range(n_ranks):
        for src in range(n_ranks):
            assert np.allclose(result[r][src], float(src))


def test_allgather_tiny_non_pof2_selects_bruck_and_wins():
    """The selector routes tiny blocks on non-power-of-two communicators
    to Bruck (ROADMAP open item), and it must beat the seed ring there."""
    n_ranks, count = 6, 16  # 128 B blocks, far below the Bruck ceiling

    def run(tuning):
        sim, job = make_job(n_ranks, tuning=tuning)

        def prog(ctx):
            recvbufs = [np.zeros(count) for _ in range(n_ranks)]
            yield from ctx.allgather(np.zeros(count), recvbufs)

        job.start(prog)
        job.run()
        return sim.now, job

    t_adaptive, job = run(None)
    assert job.comm.stats.get("allgather[bruck]") == n_ranks
    t_ring, _ = run(CollectiveTuning(force_allgather="ring"))
    assert t_adaptive < t_ring


@pytest.mark.parametrize("algo,n_ranks", [
    ("shift", 2), ("shift", 3), ("shift", 5), ("shift", 8),
    ("pairwise", 2), ("pairwise", 4), ("pairwise", 8),
])
def test_alltoall_algorithms(algo, n_ranks):
    tuning = CollectiveTuning(force_alltoall=algo)
    sim, job = make_job(n_ranks, tuning=tuning)
    result = {}

    def prog(ctx):
        sendbufs = [
            np.array([float(ctx.rank * 100 + dst)]) for dst in range(n_ranks)
        ]
        recvbufs = [np.zeros(1) for _ in range(n_ranks)]
        yield from ctx.alltoall(sendbufs, recvbufs)
        result[ctx.rank] = [float(b[0]) for b in recvbufs]

    job.start(prog)
    job.run()
    assert job.comm.stats.get(f"alltoall[{algo}]") == n_ranks
    for r in range(n_ranks):
        assert result[r] == [float(s * 100 + r) for s in range(n_ranks)]


# ---------------------------------------------------------------------------
# Selector policy
# ---------------------------------------------------------------------------

class TestSelector:
    def test_allreduce_size_thresholds(self):
        sel = AlgorithmSelector(CollectiveTuning(allreduce_ring_min_bytes=64 * KB))
        assert sel.allreduce(1 * KB, 8) == "recursive_doubling"
        assert sel.allreduce(64 * KB, 8) == "ring"
        assert sel.allreduce(4 * MB, 8) == "ring"
        # Tiny communicators never chunk.
        assert sel.allreduce(4 * MB, 2) == "recursive_doubling"

    def test_allgather_thresholds_and_shape_guards(self):
        sel = AlgorithmSelector(CollectiveTuning(allgather_rd_max_bytes=32 * KB))
        assert sel.allgather(1 * KB, 8) == "recursive_doubling"
        assert sel.allgather(1 * MB, 8) == "ring"          # too big
        assert sel.allgather(1 * KB, 6) == "bruck"         # non-pof2 small
        assert sel.allgather(1 * MB, 6) == "ring"          # non-pof2 big
        assert sel.allgather(1 * KB, 8, uniform=False) == "ring"

    def test_allgather_small_communicator_needs_tiny_blocks(self):
        """Below the rank floor RD only runs while packed rounds stay
        eager — at P=4 it saves one round, which rendezvous would eat."""
        sel = AlgorithmSelector()
        assert sel.allgather(1 * KB, 4) == "recursive_doubling"
        assert sel.allgather(16 * KB, 4) == "ring"
        assert sel.allgather(16 * KB, 8) == "recursive_doubling"

    def test_alltoall_policy(self):
        sel = AlgorithmSelector()
        assert sel.alltoall(1 * KB, 8) == "pairwise"
        assert sel.alltoall(1 * KB, 6) == "shift"
        off = AlgorithmSelector(CollectiveTuning(force_alltoall="shift"))
        assert off.alltoall(1 * KB, 8) == "shift"

    def test_thresholds_config_overridable(self):
        always_ring = AlgorithmSelector(
            CollectiveTuning(allreduce_ring_min_bytes=0)
        )
        assert always_ring.allreduce(1, 8) == "ring"
        never_ring = AlgorithmSelector(
            CollectiveTuning(allreduce_ring_min_bytes=1 << 60)
        )
        assert never_ring.allreduce(64 * MB, 64) == "recursive_doubling"

    def test_force_overrides_and_unknown_name_raises(self):
        sel = AlgorithmSelector(CollectiveTuning(force_allreduce="ring"))
        assert sel.allreduce(0, 64) == "ring"
        bad = AlgorithmSelector(CollectiveTuning(force_allreduce="nope"))
        with pytest.raises(MpiError, match="unknown allreduce algorithm"):
            bad.allreduce(1, 4)

    def test_seed_tuning_pins_seed_algorithms(self):
        sel = AlgorithmSelector(SEED_TUNING)
        assert sel.allreduce(4 * MB, 16) == "reduce_bcast"
        assert sel.allgather(1 * KB, 16) == "ring"
        assert sel.alltoall(1 * KB, 16) == "shift"


# ---------------------------------------------------------------------------
# Adaptive-vs-seed timing guards (the benchmark sweeps far wider)
# ---------------------------------------------------------------------------

def _allreduce_time(n_nodes, nbytes, tuning):
    sim, job = make_job(n_nodes, tuning=tuning)

    def prog(ctx):
        send = np.zeros(nbytes, dtype=np.uint8)
        recv = np.zeros(nbytes, dtype=np.uint8)
        yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)

    job.start(prog)
    job.run()
    return sim.now


@pytest.mark.parametrize("n_nodes,nbytes", [
    (4, 1 * KB), (4, 1 * MB), (8, 16 * KB), (16, 1 * MB),
])
def test_adaptive_allreduce_never_slower_than_seed(n_nodes, nbytes):
    t_seed = _allreduce_time(n_nodes, nbytes, SEED_TUNING)
    t_adaptive = _allreduce_time(n_nodes, nbytes, None)
    assert t_adaptive <= t_seed, (
        f"adaptive {t_adaptive:.6f}s > seed {t_seed:.6f}s "
        f"at {n_nodes} nodes / {nbytes} B"
    )


def test_adaptive_allreduce_large_message_strict_win():
    """Acceptance: >1.2× over the seed at 16 nodes / 1 MB."""
    t_seed = _allreduce_time(16, 1 * MB, SEED_TUNING)
    t_adaptive = _allreduce_time(16, 1 * MB, None)
    assert t_seed / t_adaptive > 1.2, (
        f"win only {t_seed / t_adaptive:.2f}×"
    )


# ---------------------------------------------------------------------------
# DCGN-layer dispatch through the same engine
# ---------------------------------------------------------------------------

class TestDcgnDispatch:
    def _run_allreduce(self, tuning, nbytes=256 * KB, n_nodes=4):
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
        cfg = DcgnConfig.homogeneous(n_nodes, cpu_threads=1, tuning=tuning)
        rt = DcgnRuntime(cluster, cfg)
        count = nbytes // 8
        result = {}

        def kernel(ctx):
            send = np.full(count, float(ctx.rank + 1))
            recv = np.zeros(count)
            yield from ctx.allreduce(send, recv, op="sum")
            result[ctx.rank] = recv

        rt.launch_cpu(kernel)
        rt.run(max_time=5.0)
        total = sum(range(1, rt.size + 1))
        for r, arr in result.items():
            assert np.allclose(arr, float(total)), f"vrank {r}"
        return rt

    def test_dcgn_allreduce_rides_ring_for_large_payloads(self):
        rt = self._run_allreduce(tuning=None)
        assert rt.node_comm.stats.get("allreduce[ring]", 0) > 0

    def test_dcgn_tuning_forces_algorithm(self):
        rt = self._run_allreduce(
            tuning=CollectiveTuning(force_allreduce="reduce_bcast")
        )
        assert rt.node_comm.stats.get("allreduce[reduce_bcast]", 0) > 0
        assert "allreduce[ring]" not in rt.node_comm.stats
