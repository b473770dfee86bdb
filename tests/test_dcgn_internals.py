"""Unit tests for DCGN internals: queues, polling policies, requests,
and the GPU poller's sleep."""

import dataclasses

import numpy as np
import pytest

from repro.dcgn import (
    AdaptiveBurstPolicy,
    DcgnConfig,
    DcgnRuntime,
    FixedIntervalPolicy,
)
from repro.dcgn.polling import make_policy
from repro.dcgn.queues import WorkQueue, sleep_poll_wait
from repro.dcgn.requests import CommRequest, CommStatus
from repro.hw import HWParams, build_cluster, paper_cluster
from repro.hw.params import DcgnParams
from repro.sim import Signal, Simulator, us


class TestWorkQueue:
    def test_put_charges_time(self):
        sim = Simulator()
        q = WorkQueue(sim, queue_op_us=5.0)

        def producer():
            yield from q.put("a")
            return sim.now

        p = sim.process(producer())
        sim.run()
        assert p.value == pytest.approx(us(5.0))
        assert q.puts == 1
        assert len(q) == 1

    def test_drain_takes_batch_with_one_charge(self):
        sim = Simulator()
        q = WorkQueue(sim, queue_op_us=2.0)

        def producer():
            for x in range(5):
                yield from q.put(x)

        def consumer():
            yield sim.timeout(us(100.0))
            t0 = sim.now
            items = yield from q.drain()
            return items, sim.now - t0

        sim.process(producer())
        c = sim.process(consumer())
        sim.run()
        items, dt = c.value
        assert items == [0, 1, 2, 3, 4]
        assert dt == pytest.approx(us(2.0))
        assert q.drains == 1

    def test_nowait_variants_charge_nothing(self):
        sim = Simulator()
        q = WorkQueue(sim, queue_op_us=2.0)
        q.put_nowait("x")
        assert q.drain_nowait() == ["x"]
        assert q.drain_nowait() == []
        assert sim.now == 0.0

    def test_kick_signal_fired_on_put(self):
        sim = Simulator()
        sig = Signal(sim)
        q = WorkQueue(sim, queue_op_us=1.0, kick=sig)
        woken = []

        def waiter():
            yield sig.wait()
            woken.append(sim.now)

        def producer():
            yield from q.put("x")

        sim.process(waiter())
        sim.process(producer())
        sim.run()
        assert len(woken) == 1


class TestSleepPollWait:
    def test_immediate_event_still_waits_one_tick(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")

        def waiter():
            v = yield from sleep_poll_wait(sim, ev, 10.0)
            return v, sim.now

        p = sim.process(waiter())
        sim.run()
        v, t = p.value
        assert v == "v"
        assert t == pytest.approx(us(10.0))

    def test_zero_interval_returns_at_event(self):
        sim = Simulator()
        ev = sim.event()

        def firer():
            yield sim.timeout(1.0)
            ev.succeed(7)

        def waiter():
            v = yield from sleep_poll_wait(sim, ev, 0.0)
            return v, sim.now

        sim.process(firer())
        p = sim.process(waiter())
        sim.run()
        assert p.value == (7, 1.0)


class TestPollPolicies:
    def test_fixed_interval_constant(self):
        pol = FixedIntervalPolicy(100.0)
        assert pol.next_delay_us() == 100.0
        pol.observe(True)
        pol.kicked()  # no-op on base class path
        assert pol.next_delay_us() == 100.0
        assert not pol.supports_kick

    def test_fixed_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            FixedIntervalPolicy(0.0)

    def test_adaptive_burst_on_kick(self):
        pol = AdaptiveBurstPolicy(300.0, 25.0, burst_polls=2)
        assert pol.next_delay_us() == 300.0
        pol.kicked()
        assert pol.next_delay_us() == 25.0
        pol.observe(False)
        assert pol.next_delay_us() == 25.0
        pol.observe(False)
        assert pol.next_delay_us() == 300.0  # budget exhausted

    def test_adaptive_burst_on_found_work(self):
        pol = AdaptiveBurstPolicy(300.0, 25.0, burst_polls=3)
        pol.observe(True)
        assert pol.next_delay_us() == 25.0
        pol.observe(True)  # refresh
        for _ in range(3):
            pol.observe(False)
        assert pol.next_delay_us() == 300.0

    def test_adaptive_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBurstPolicy(10.0, 25.0, 2)  # burst > interval
        with pytest.raises(ValueError):
            AdaptiveBurstPolicy(100.0, 25.0, 0)
        with pytest.raises(ValueError):
            AdaptiveBurstPolicy(-1.0, 25.0, 1)

    def test_make_policy_respects_kick_flag(self):
        import dataclasses

        on = make_policy(DcgnParams())
        assert isinstance(on, AdaptiveBurstPolicy)
        off = make_policy(
            dataclasses.replace(DcgnParams(), gpu_poll_kick=False)
        )
        assert isinstance(off, FixedIntervalPolicy)


class TestCommRequest:
    def test_complete_fires_done(self):
        sim = Simulator()
        req = CommRequest(op="send", src_vrank=0, peer=1)
        req.done = sim.event()
        status = CommStatus(source=1, nbytes=8)
        req.complete(status)
        assert req.done.triggered
        assert req.status == status

    def test_mark_records_req_instant(self):
        sim = Simulator()
        req = CommRequest(op="recv", src_vrank=0)
        rec = sim.attach_spans()
        req.mark(sim, "picked", "t", 1.0)
        req.mark(sim, "completed", "t")
        (picked, completed) = rec.select(category="dcgn.req")
        assert (picked.name, picked.t0, picked.t1) == ("picked", 1.0, 1.0)
        assert picked.attrs == {"req": req.req_id, "op": "recv"}
        assert (completed.name, completed.t0) == ("completed", sim.now)
        assert picked.track == completed.track == "t"

    def test_request_ids_unique(self):
        """Ids are unique across a runtime's comm threads and numbered
        from 0 in every runtime, whatever ran before it."""
        for _ in range(2):
            rt = DcgnRuntime(build_cluster(Simulator(), paper_cluster(2)),
                             DcgnConfig.homogeneous(2, cpu_threads=1))
            a, b = rt.cpu_context(0), rt.cpu_context(1)
            reqs = [a._req("send", 1, 8), b._req("recv", 0, 8),
                    a._coll("barrier")]
            assert [r.req_id for r in reqs] == [0, 1, 2]


class TestPollerWaits:
    @pytest.mark.parametrize("kick", [False, True], ids=["fixed", "adaptive"])
    def test_lost_poll_waits_do_not_pile_up(self, kick):
        """A poll tick the timer wins withdraws its signal waits: over a
        long compute the completion and kick signals hold at most one
        wait per poller, not one more per tick."""
        params = HWParams(
            dcgn=dataclasses.replace(DcgnParams(), gpu_poll_kick=kick)
        )
        sim = Simulator()
        cluster = build_cluster(
            sim, paper_cluster(nodes=1, gpus_per_node=1, params=params)
        )
        rt = DcgnRuntime(
            cluster,
            DcgnConfig.homogeneous(1, cpu_threads=1, gpus=1, slots_per_gpu=1),
        )
        gt = rt.gpu_threads[(0, 0)]
        assert isinstance(gt.policy, AdaptiveBurstPolicy if kick
                          else FixedIntervalPolicy)
        interval = us(params.dcgn.gpu_poll_interval_us)
        compute_s = 60 * interval
        samples = []

        def gpu_kernel(ctx):
            yield from ctx.compute(seconds=compute_s)
            dbuf = ctx.device.alloc(1, dtype=np.int64)
            dbuf.data[0] = 7
            yield from ctx.comm.send(0, 0, dbuf)

        def cpu_kernel(ctx):
            buf = np.zeros(1, dtype=np.int64)
            yield from ctx.recv(1, buf)
            return int(buf[0])

        def sampler():
            while sim.now < compute_s:
                samples.append(
                    (gt._completion_sig.waiting, gt.kick.waiting)
                )
                yield sim.timeout(interval / 2)

        rt.launch_cpu(cpu_kernel)
        rt.launch_gpu(gpu_kernel)
        sim.process(sampler())
        report = rt.run()
        assert report.cpu_results() == [7]
        assert gt.polls >= 50
        assert len(samples) >= 100
        assert max(comp for comp, _ in samples) <= 1
        assert max(k for _, k in samples) <= len(rt.gpu_threads)
