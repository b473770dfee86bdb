"""Analytic fast-path backend: cross-checks against the exact simulator.

Property tests for :mod:`repro.mpi.algorithms.fastpath` at P ≤ 16:
identical algorithm selection, completion times within tolerance,
delivered data bit-identical, plus the pricing-only sweep mode and the
observability counters the backend feeds.
"""

import numpy as np
import pytest

from repro.hw import build_cluster, paper_cluster
from repro.mpi import (
    CollectiveTuning,
    MpiError,
    MpiJob,
    ReduceOp,
    block_placement,
)
from repro.sim import Simulator

KB = 1024
MB = 1024 * 1024

#: Analytic vs exact simulated-time tolerance.  Power-of-two grids
#: agree to float precision; the per-step critical-path model follows
#: dependency skew exactly, so the residual error is channel
#: *contention* — concurrent transfers sharing a NIC or spine link
#: serialize in the exact engine but never in the analytic one.
TOL = 0.08

COLLECTIVES = ["allreduce", "allgather", "alltoall", "bcast", "reduce",
               "barrier"]


def run_job(n_ranks, prog_factory, backend, tuning=None):
    """Build a 1-rank-per-node job, run ``prog_factory(rank)`` on every
    rank; returns (sim, job, per-rank result dict)."""
    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=n_ranks, gpus_per_node=0)
    )
    job = MpiJob(
        cluster, block_placement(n_ranks, n_ranks), tuning=tuning,
        backend=backend,
    )
    out = {}
    job.start(prog_factory(out))
    job.run()
    return sim, job, out


def collective_prog(op, n_ranks, nbytes, seed=7):
    """A program factory: deterministic per-rank payloads, results
    captured into the shared ``out`` dict."""

    def factory(out):
        def prog(ctx):
            r = ctx.rank
            rng = np.random.default_rng(seed + r)
            if op == "allreduce":
                send = rng.integers(0, 200, nbytes, dtype=np.uint8)
                recv = np.zeros(nbytes, dtype=np.uint8)
                yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
                out[r] = recv
            elif op == "allgather":
                send = rng.integers(0, 255, nbytes, dtype=np.uint8)
                recvbufs = [
                    np.zeros(nbytes, dtype=np.uint8)
                    for _ in range(n_ranks)
                ]
                yield from ctx.allgather(send, recvbufs)
                out[r] = np.concatenate(recvbufs)
            elif op == "alltoall":
                sendbufs = [
                    rng.integers(0, 255, nbytes, dtype=np.uint8)
                    for _ in range(n_ranks)
                ]
                recvbufs = [
                    np.zeros(nbytes, dtype=np.uint8)
                    for _ in range(n_ranks)
                ]
                yield from ctx.alltoall(sendbufs, recvbufs)
                out[r] = np.concatenate(recvbufs)
            elif op == "bcast":
                buf = (
                    rng.integers(0, 255, nbytes, dtype=np.uint8)
                    if r == 0 else np.zeros(nbytes, dtype=np.uint8)
                )
                yield from ctx.bcast(buf, root=0)
                out[r] = buf
            elif op == "reduce":
                send = rng.integers(0, 200, nbytes, dtype=np.uint8)
                recv = np.zeros(nbytes, dtype=np.uint8)
                yield from ctx.reduce(send, recv, op=ReduceOp.MAX, root=0)
                out[r] = recv if r == 0 else send
            elif op == "barrier":
                yield from ctx.barrier()
                out[r] = np.zeros(1, dtype=np.uint8)
            else:  # pragma: no cover - defensive
                raise ValueError(op)

        return prog

    return factory


def algo_keys(job):
    """The collective-algorithm counters the selector bumped."""
    return sorted(k for k in job.comm.stats if "[" in k)


# ---------------------------------------------------------------------------
# Cross-check: exact vs analytic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", COLLECTIVES)
@pytest.mark.parametrize("n_ranks", [4, 5, 8, 13, 16])
def test_analytic_matches_exact(op, n_ranks):
    """Same algorithms, same data, times within tolerance."""
    for nbytes in (1 * KB, 64 * KB):
        sim_e, job_e, out_e = run_job(
            n_ranks, collective_prog(op, n_ranks, nbytes), "exact"
        )
        sim_a, job_a, out_a = run_job(
            n_ranks, collective_prog(op, n_ranks, nbytes), "analytic"
        )
        assert algo_keys(job_a) == algo_keys(job_e)
        # The per-step critical-path model overlaps rounds exactly as
        # the exact engine's in-flight wire steps do, so even the
        # non-power-of-two binomial trees (straggler subtrees firing
        # early) price within the uniform tolerance — no special case.
        assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
        for r in range(n_ranks):
            np.testing.assert_array_equal(out_a[r], out_e[r])


@pytest.mark.parametrize("n_ranks", [4, 8])
def test_analytic_exact_on_pof2(n_ranks):
    """Power-of-two grids have no fold skew: times match to float
    precision, not just tolerance."""
    for op in ("allreduce", "allgather", "alltoall"):
        sim_e, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 4 * KB), "exact"
        )
        sim_a, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 4 * KB), "analytic"
        )
        assert sim_a.now == pytest.approx(sim_e.now, rel=1e-12)


def test_large_message_rendezvous_agrees():
    """≥ eager-threshold payloads exercise the rendezvous pricing."""
    sim_e, _, out_e = run_job(
        8, collective_prog("allreduce", 8, 1 * MB), "exact"
    )
    sim_a, _, out_a = run_job(
        8, collective_prog("allreduce", 8, 1 * MB), "analytic"
    )
    assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
    np.testing.assert_array_equal(out_a[0], out_e[0])


@pytest.mark.parametrize("force", ["ring", "recursive_doubling",
                                   "reduce_bcast"])
def test_forced_algorithms_agree(force):
    """Every allreduce algorithm family prices within tolerance."""
    tuning = CollectiveTuning(force_allreduce=force)
    for n_ranks in (6, 8):
        sim_e, _, out_e = run_job(
            n_ranks, collective_prog("allreduce", n_ranks, 16 * KB),
            "exact", tuning=tuning,
        )
        sim_a, _, out_a = run_job(
            n_ranks, collective_prog("allreduce", n_ranks, 16 * KB),
            "analytic", tuning=tuning,
        )
        # Composed reduce+bcast schedules overlap their tree rounds in
        # both engines now — uniform tolerance, no straggler carve-out.
        assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
        for r in range(n_ranks):
            np.testing.assert_array_equal(out_a[r], out_e[r])


# ---------------------------------------------------------------------------
# Mixed blocking / nonblocking and sub-communicators
# ---------------------------------------------------------------------------

def mixed_prog(n_ranks, nbytes):
    def factory(out):
        def prog(ctx):
            r = ctx.rank
            a = np.full(nbytes, r + 1, dtype=np.uint8)
            b = np.zeros(nbytes, dtype=np.uint8)
            req = ctx.iallreduce(a, b, op=ReduceOp.MAX)
            c = np.full(nbytes, r + 10, dtype=np.uint8)
            d = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.allreduce(c, d, op=ReduceOp.SUM)
            yield from req.wait()
            out[r] = np.concatenate([b, d])
        return prog
    return factory


@pytest.mark.parametrize("n_ranks", [4, 6])
def test_mixed_blocking_nonblocking(n_ranks):
    """An i-collective in flight across a blocking one: the issue-order
    instance claims keep the two backends aligned."""
    _, _, out_e = run_job(n_ranks, mixed_prog(n_ranks, 2 * KB), "exact")
    _, _, out_a = run_job(n_ranks, mixed_prog(n_ranks, 2 * KB), "analytic")
    for r in range(n_ranks):
        np.testing.assert_array_equal(out_a[r], out_e[r])


def split_prog(n_ranks, nbytes):
    def factory(out):
        def prog(ctx):
            r = ctx.rank
            sub = yield from ctx.split(color=r % 2, key=r)
            send = np.full(nbytes, r + 1, dtype=np.uint8)
            recv = np.zeros(nbytes, dtype=np.uint8)
            yield from sub.allreduce(send, recv, op=ReduceOp.SUM)
            out[r] = recv.copy()
            yield from sub.free()
        return prog
    return factory


@pytest.mark.parametrize("n_ranks", [4, 8])
def test_subcommunicator_collectives(n_ranks):
    """Derived communicators inherit the backend; data matches exact."""
    _, job_e, out_e = run_job(n_ranks, split_prog(n_ranks, 4 * KB), "exact")
    _, job_a, out_a = run_job(
        n_ranks, split_prog(n_ranks, 4 * KB), "analytic"
    )
    for r in range(n_ranks):
        np.testing.assert_array_equal(out_a[r], out_e[r])


def gather_scatter_prog(n_ranks, nbytes):
    """Gather every rank's bytes to rank 0, then scatter them back;
    records both completion times and every buffer."""

    def factory(out):
        def prog(ctx):
            r = ctx.rank
            mine = np.full(nbytes, r + 1, dtype=np.uint8)
            full = None
            if r == 0:
                full = [np.zeros(nbytes, np.uint8) for _ in range(n_ranks)]
            yield from ctx.gather(mine, full, root=0)
            t_gather = ctx.sim.now
            piece = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.scatter(full, piece, root=0)
            out[r] = (t_gather, ctx.sim.now, piece,
                      None if full is None else np.concatenate(full))

        return prog

    return factory


@pytest.mark.parametrize("n_ranks", [4, 16])
@pytest.mark.parametrize("nbytes", [128, 1 * MB])
def test_gather_scatter_stay_exact(n_ranks, nbytes):
    """Linear gather/scatter are not schedule-compiled: on the analytic
    backend they run the exact p2p path, so simulated times and data
    equal the exact backend's bit for bit.  (The contention-free
    pricing tape would under-price the root's fan-in/fan-out.)"""
    _, _, out_e = run_job(
        n_ranks, gather_scatter_prog(n_ranks, nbytes), "exact"
    )
    _, _, out_a = run_job(
        n_ranks, gather_scatter_prog(n_ranks, nbytes), "analytic"
    )
    for r in range(n_ranks):
        t_gather, t_scatter, piece, full = out_a[r]
        assert (t_gather, t_scatter) == out_e[r][:2]
        np.testing.assert_array_equal(piece, out_e[r][2])
        np.testing.assert_array_equal(piece, r + 1)
        if r == 0:
            np.testing.assert_array_equal(full, out_e[r][3])


# ---------------------------------------------------------------------------
# Pricing-only mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", ["allreduce", "allgather", "alltoall",
                                "bcast"])
def test_pricing_time_bit_identical_to_analytic(op):
    for n_ranks in (5, 8):
        sim_a, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 8 * KB), "analytic"
        )
        sim_p, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 8 * KB), "pricing"
        )
        assert sim_p.now == sim_a.now


def test_pricing_leaves_buffers_untouched():
    """Sweep mode never writes receive buffers (documented contract)."""
    def factory(out):
        def prog(ctx):
            send = np.full(1024, ctx.rank + 1, dtype=np.uint8)
            recv = np.zeros(1024, dtype=np.uint8)
            yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
            out[ctx.rank] = recv
        return prog
    _, _, out = run_job(4, factory, "pricing")
    for r in range(4):
        assert not out[r].any()


def test_unknown_backend_rejected():
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2, gpus_per_node=0))
    with pytest.raises(MpiError, match="backend"):
        MpiJob(cluster, block_placement(2, 2), backend="magic")


# ---------------------------------------------------------------------------
# Observability counters
# ---------------------------------------------------------------------------

def test_fastpath_stats_counters():
    """fastpath_collectives/rounds tick; completions go through one
    EventBatch (heap traffic stays tiny); zero-copy deliveries are
    counted as views."""
    sim, job, _ = run_job(
        8, collective_prog("allreduce", 8, 4 * KB), "analytic"
    )
    s = sim.stats
    assert s.fastpath_collectives == 1
    assert s.fastpath_rounds >= 1
    assert s.batch_events >= 8  # one completion per rank, batched
    assert s.payload_views > 0
    d = s.as_dict()
    assert d["fastpath_collectives"] == 1


def test_exact_backend_never_ticks_fastpath_counters():
    sim, _, _ = run_job(
        8, collective_prog("allreduce", 8, 4 * KB), "exact"
    )
    assert sim.stats.fastpath_collectives == 0
    assert sim.stats.batch_events == 0


def test_double_deposit_detected():
    """Two collectives issued concurrently by the same rank into one
    instance slot is a programming error the engine reports."""
    from repro.mpi.algorithms.fastpath import _Instance

    inst = _Instance(2)
    inst.deposit(0, None, object(), None)
    with pytest.raises(MpiError, match="deposited twice"):
        inst.deposit(0, None, object(), None)
