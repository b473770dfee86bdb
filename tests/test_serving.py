"""Serving-layer tests: scheduler lifecycle, backfill, cancellation,
sub-communicator isolation and tuning fallback, workload helpers, and
the tile service end to end.
"""

import numpy as np
import pytest

from repro.apps.mandelbrot import MandelbrotConfig
from repro.apps.tile_service import TileService, TileServiceConfig
from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.serve import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    ClusterScheduler,
    JobSpec,
    OpenLoopDriver,
    PlacementError,
    RequestLog,
    SchedulerError,
    open_loop_arrivals,
    percentile,
)
from repro.sim import Simulator, us


def make_sched(n_nodes=4, policy="packed", topo=None, **kw):
    sim = Simulator()
    cluster = build_cluster(
        sim, ClusterSpec(nodes=n_nodes, gpus_per_node=0, topology=topo)
    )
    return sim, ClusterScheduler(cluster, policy=policy, **kw)


def allreduce_prog(ctx):
    out = np.zeros(8)
    yield from ctx.allreduce(np.ones(8), out)
    return float(out[0])


def spec(name, n, prog=allreduce_prog, **kw):
    return JobSpec(name=name, n_nodes=n, program=prog, **kw)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_submit_run_done(self):
        sim, sched = make_sched(4)
        job = sched.submit(spec("j", 4))
        assert job.state in (QUEUED, "placing")
        sim.run()
        assert job.state == DONE
        assert job.results() == [4.0] * 4
        assert job.nodes == [0, 1, 2, 3]
        assert job.queue_wait == 0.0
        assert job.comm._freed
        assert sched.n_free == 4

    def test_program_args(self):
        sim, sched = make_sched(2)

        def prog(ctx, base):
            yield ctx.sim.timeout(0.0)
            return base + ctx.rank

        job = sched.submit(JobSpec(name="a", n_nodes=2, program=prog,
                                   args=(10,)))
        sim.run()
        assert job.results() == [10, 11]

    def test_launch_overhead_scales_with_nodes(self):
        sim, sched = make_sched(4, place_delay_us=100.0,
                                launch_us_per_node=25.0)
        job = sched.submit(spec("j", 4))
        sim.run()
        assert job.start_t == pytest.approx(us(100.0 + 25.0 * 4))

    def test_concurrent_jobs_are_isolated(self):
        """Two jobs allreduce concurrently on disjoint sub-comms; each
        sees only its own size — tag spaces do not leak."""
        sim, sched = make_sched(6)
        a = sched.submit(spec("a", 2))
        b = sched.submit(spec("b", 4))
        sim.run()
        assert a.results() == [2.0] * 2
        assert b.results() == [4.0] * 4
        assert set(a.nodes).isdisjoint(b.nodes)

    def test_custom_launch_and_finalize(self):
        sim, sched = make_sched(2)
        seen = []

        def launch(job):
            def prog(ctx):
                yield ctx.sim.timeout(0.0)
                return ctx.rank

            return [
                sim.process(prog(job.comm.ctx(r)), name=f"x{r}")
                for r in range(job.comm.size)
            ]

        def finalize(job):
            seen.append(sim.now)
            yield sim.timeout(0.0)

        job = sched.submit(
            JobSpec(name="c", n_nodes=2, launch=launch, finalize=finalize)
        )
        sim.run()
        assert job.state == DONE
        assert job.results() == [0, 1]
        assert len(seen) == 1

    def test_submit_validation(self):
        sim, sched = make_sched(4)
        with pytest.raises(SchedulerError):
            sched.submit(spec("zero", 0))
        with pytest.raises(SchedulerError):
            sched.submit(spec("huge", 5))
        with pytest.raises(SchedulerError):
            sched.submit(JobSpec(name="empty", n_nodes=2))

    def test_bad_policy_rejected(self):
        with pytest.raises(PlacementError):
            make_sched(4, policy="densest")


# ---------------------------------------------------------------------------
# Queueing and backfill
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_fifo_waits_for_release(self):
        sim, sched = make_sched(4)
        a = sched.submit(spec("a", 4))
        b = sched.submit(spec("b", 4))
        assert b.state == QUEUED
        sim.run()
        assert a.state == DONE and b.state == DONE
        assert b.place_t >= a.end_t

    def test_backfill_small_job_jumps_blocked_head(self):
        sim, sched = make_sched(4)
        rec = sim.attach_spans()
        hog = sched.submit(spec("hog", 3))
        big = sched.submit(spec("big", 4))   # blocked head
        small = sched.submit(spec("small", 1))  # fits right now
        assert big.state == QUEUED
        assert small.state != QUEUED  # backfilled immediately
        sim.run()
        assert {j.state for j in (hog, big, small)} == {DONE}
        assert sched.stats["backfilled"] == 1
        assert sim.stats.serve_backfills == 1
        queued = {
            s.track: s.attrs for s in rec.select("serve.job", "queued")
        }
        assert queued["job.small"] == {"job_id": small.id, "backfilled": True}
        assert "backfilled" not in queued["job.hog"]
        assert "backfilled" not in queued["job.big"]

    def test_owner_map_tracks_reservations(self):
        sim, sched = make_sched(4)
        job = sched.submit(spec("j", 2))
        assert sched.owner_of(job.nodes[0]) == job.id
        assert sched.n_free == 2
        sim.run()
        assert sched.owner_of(job.nodes[0]) is None

    def test_serve_counters(self):
        sim, sched = make_sched(4)
        sched.submit(spec("a", 2))
        sched.submit(spec("b", 2))
        sim.run()
        assert sim.stats.serve_jobs == 2
        assert sched.stats["submitted"] == 2
        assert sched.stats["completed"] == 2


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------

class TestCancel:
    def test_cancel_queued(self):
        sim, sched = make_sched(4)
        a = sched.submit(spec("a", 4))
        b = sched.submit(spec("b", 4))
        sched.cancel(b)
        assert b.state == CANCELLED
        assert b.nodes is None
        sim.run()
        assert a.state == DONE
        assert sched.stats["cancelled"] == 1

    def test_cancel_placing_rolls_back_reservation(self):
        sim, sched = make_sched(4)
        job = sched.submit(spec("j", 2))
        assert job.state == "placing"
        sched.cancel(job)  # lands inside the launch delay
        sim.run()
        assert job.state == CANCELLED
        assert job.comm is None
        assert sched.n_free == 4

    def test_cancel_unblocks_queued_job(self):
        sim, sched = make_sched(4)
        hog = sched.submit(spec("hog", 4))
        waiting = sched.submit(spec("w", 4))
        sched.cancel(hog)
        sim.run()
        assert hog.state == CANCELLED
        assert waiting.state == DONE

    def test_cancel_running_raises(self):
        sim, sched = make_sched(2)
        job = sched.submit(spec("j", 2, prog=_slow_prog))
        sim.run(until=us(500.0))
        assert job.state == RUNNING
        with pytest.raises(SchedulerError):
            sched.cancel(job)
        sim.run()
        assert job.state == DONE

    def test_cancel_terminal_is_noop(self):
        sim, sched = make_sched(2)
        job = sched.submit(spec("j", 2))
        sim.run()
        sched.cancel(job)
        assert job.state == DONE


def _slow_prog(ctx):
    yield ctx.sim.timeout(1e-3)
    out = np.zeros(4)
    yield from ctx.allreduce(np.ones(4), out)


# ---------------------------------------------------------------------------
# Release and teardown
# ---------------------------------------------------------------------------

class TestRelease:
    def test_release_refuses_live_jobs(self):
        sim, sched = make_sched(2)
        sched.submit(spec("j", 2, prog=_slow_prog))
        with pytest.raises(SchedulerError):
            sched.release()
        sim.run()
        sched.release()
        sched.release()  # idempotent
        with pytest.raises(SchedulerError):
            sched.submit(spec("late", 1))

    def test_fabric_freed_on_release(self):
        sim, sched = make_sched(2)
        sched.submit(spec("j", 2))
        sim.run()
        sched.release()
        assert sched.fabric._freed


# ---------------------------------------------------------------------------
# Placement quality reaches the sub-communicator
# ---------------------------------------------------------------------------

class TestSubCommTuning:
    def test_fragmented_placement_detected_by_subcomm(self):
        topo = TopologySpec(kind="fattree", pod_size=4,
                            oversubscription=4.0)
        sim, sched = make_sched(16, policy="spread", topo=topo)
        job = sched.submit(spec("frag", 8, prog=_slow_prog))
        sim.run(until=us(500.0))
        assert job.state == RUNNING
        # Spread put one rank in each pod twice over: the derived
        # communicator sees the fragmentation and keeps hierarchical
        # fallback available (PR 2 machinery, no extra wiring).
        assert len(job.comm.locality_groups) == 4
        assert job.comm.hier_capable
        sim.run()
        assert job.state == DONE

    def test_packed_placement_is_one_domain(self):
        topo = TopologySpec(kind="fattree", pod_size=4,
                            oversubscription=4.0)
        sim, sched = make_sched(16, policy="packed", topo=topo)
        job = sched.submit(spec("tight", 4, prog=_slow_prog))
        sim.run(until=us(500.0))
        assert job.state == RUNNING
        assert len(job.comm.locality_groups) == 1
        assert not job.comm.fragmented
        sim.run()


# ---------------------------------------------------------------------------
# Workload helpers
# ---------------------------------------------------------------------------

class TestWorkload:
    def test_open_loop_arrivals_deterministic(self):
        a = open_loop_arrivals(1000.0, 50, seed=3)
        b = open_loop_arrivals(1000.0, 50, seed=3)
        c = open_loop_arrivals(1000.0, 50, seed=4)
        assert a == b and a != c
        assert len(a) == 50
        assert all(t2 >= t1 for t1, t2 in zip(a, a[1:]))
        mean_gap = a[-1] / (len(a) - 1)
        assert 0.5e-3 < mean_gap < 2e-3  # ~1/rate

    def test_arrivals_validation(self):
        with pytest.raises(ValueError):
            open_loop_arrivals(0.0, 5)
        with pytest.raises(ValueError):
            open_loop_arrivals(10.0, 0)

    def test_percentile_matches_numpy(self):
        vals = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        for q in (0, 25, 50, 90, 99, 100):
            assert percentile(vals, q) == pytest.approx(
                float(np.percentile(vals, q))
            )
        assert percentile([4.0], 99) == 4.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_request_log_summary(self):
        sim = Simulator()
        log = RequestLog(sim)

        def driver():
            for i in range(4):
                req = log.arrived(i, payload=i)
                log.started(req)
                yield sim.timeout(1e-3)
                log.completed(req)

        sim.process(driver(), name="d")
        sim.run()
        s = log.summary()
        assert s["n_offered"] == 4
        assert s["n_completed"] == 4
        assert s["n_dropped"] == 0
        assert s["p50_s"] == pytest.approx(1e-3)
        assert s["goodput_rps"] == pytest.approx(4 / s["span_s"])

    def test_bounded_queue_drops(self):
        sim = Simulator()
        tile = MandelbrotConfig(width=32, height=32, strip_height=16,
                                max_iter=16)
        svc = TileService(
            sim, TileServiceConfig(tile=tile, max_queue=1), name="drop"
        )
        # No job attached: the queue never drains, so arrivals past the
        # bound are dropped at the front door.
        svc.submit(0)
        svc.submit(1)
        svc.submit(2)
        assert svc.log.summary()["n_dropped"] == 2
        assert len(svc._queue) == 1


# ---------------------------------------------------------------------------
# Tile service end to end
# ---------------------------------------------------------------------------

class TestTileService:
    def run_service(self, backend="exact", n_req=5, rate=500.0):
        sim = Simulator()
        topo = TopologySpec(kind="fattree", pod_size=4,
                            oversubscription=4.0)
        cluster = build_cluster(
            sim, ClusterSpec(nodes=8, gpus_per_node=0, topology=topo)
        )
        sched = ClusterScheduler(cluster, policy="packed",
                                 backend=backend)
        tile = MandelbrotConfig(width=64, height=64, strip_height=16,
                                max_iter=32)
        svc = TileService(sim, TileServiceConfig(tile=tile), name="t")
        job = sched.submit(svc.job_spec(n_nodes=4))
        OpenLoopDriver(
            sim, svc, open_loop_arrivals(rate, n_req, seed=2, start=0.01),
            name="drv",
        ).start()
        sim.run()
        return sim, sched, svc, job

    def test_exact_backend_serves_and_verifies(self):
        sim, sched, svc, job = self.run_service("exact")
        assert job.state == DONE
        s = svc.log.summary()
        assert s["n_completed"] == 5
        svc.verify()
        assert sim.stats.serve_requests == 5
        sched.release()

    def test_analytic_backend_bit_exact(self):
        _, _, svc, job = self.run_service("analytic")
        assert job.state == DONE
        svc.verify()

    def test_pricing_backend_rejected(self):
        with pytest.raises(Exception):
            sim, sched, svc, job = self.run_service("pricing")

    def test_latencies_rise_under_overload(self):
        _, _, slow, _ = self.run_service(n_req=12, rate=50_000.0)
        _, _, fast, _ = self.run_service(n_req=12, rate=50.0)
        assert (
            slow.log.summary()["p99_s"] > fast.log.summary()["p99_s"]
        )
