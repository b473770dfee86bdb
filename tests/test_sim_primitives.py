"""Tests for AnyOf/AllOf conditions, resources, and bandwidth channels."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    BandwidthChannel,
    Mutex,
    Resource,
    Simulator,
)


class TestConditions:
    def test_any_of_fires_on_first(self):
        sim = Simulator()

        def proc():
            t1 = sim.timeout(5.0, value="slow")
            t2 = sim.timeout(2.0, value="fast")
            result = yield AnyOf(sim, [t1, t2])
            return result, sim.now

        p = sim.process(proc())
        sim.run()
        result, t = p.value
        assert t == pytest.approx(2.0)
        assert list(result.values()) == ["fast"]

    def test_all_of_waits_for_all(self):
        sim = Simulator()

        def proc():
            t1 = sim.timeout(5.0, value="a")
            t2 = sim.timeout(2.0, value="b")
            result = yield AllOf(sim, [t1, t2])
            return result, sim.now

        p = sim.process(proc())
        sim.run()
        result, t = p.value
        assert t == pytest.approx(5.0)
        assert sorted(result.values()) == ["a", "b"]

    def test_empty_all_of_is_immediate(self):
        sim = Simulator()

        def proc():
            result = yield AllOf(sim, [])
            return result, sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == ({}, 0.0)

    def test_condition_failure_propagates(self):
        sim = Simulator()
        ev = sim.event()

        def failer():
            yield sim.timeout(1.0)
            ev.fail(ValueError("member died"))

        def proc():
            try:
                yield AllOf(sim, [ev, sim.timeout(10.0)])
            except ValueError:
                return "caught"

        p = sim.process(proc())
        sim.process(failer())
        sim.run(detect_deadlock=False)
        assert p.value == "caught"

    def test_cross_simulator_members_rejected(self):
        sim1, sim2 = Simulator(), Simulator()
        with pytest.raises(ValueError):
            AnyOf(sim1, [sim2.timeout(1.0)])

    def test_any_of_with_already_triggered_member(self):
        sim = Simulator()

        def proc():
            done = sim.event()
            done.succeed("now")
            # Let the event get processed first.
            yield sim.timeout(1.0)
            result = yield AnyOf(sim, [done, sim.timeout(50.0)])
            return sim.now

        p = sim.process(proc())
        sim.run(detect_deadlock=False)
        assert p.value == pytest.approx(1.0)


class TestResource:
    def test_fifo_granting(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(i, hold):
            yield res.request()
            order.append(("in", i, sim.now))
            yield sim.timeout(hold)
            res.release()

        sim.process(user(0, 2.0))
        sim.process(user(1, 1.0))
        sim.process(user(2, 1.0))
        sim.run()
        assert order == [("in", 0, 0.0), ("in", 1, 2.0), ("in", 2, 3.0)]

    def test_capacity_allows_concurrency(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        entries = []

        def user(i):
            yield res.request()
            entries.append((i, sim.now))
            yield sim.timeout(1.0)
            res.release()

        for i in range(4):
            sim.process(user(i))
        sim.run()
        times = [t for _, t in entries]
        assert times == [0.0, 0.0, 1.0, 1.0]

    def test_release_idle_is_error(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_queued_counter(self):
        sim = Simulator()
        res = Mutex(sim)

        def holder():
            yield res.request()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=5.0, detect_deadlock=False)
        assert res.queued == 1
        assert res.in_use == 1
        sim.run()
        assert res.queued == 0


class TestBandwidthChannel:
    def test_transfer_time_formula(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, latency_s=1.0, bandwidth_Bps=100.0)
        assert ch.transfer_time(0) == pytest.approx(1.0)
        assert ch.transfer_time(200) == pytest.approx(3.0)

    def test_transfers_serialize(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, latency_s=1.0, bandwidth_Bps=100.0)
        done = []

        def xfer(i):
            yield from ch.transfer(100)  # 2s each
            done.append((i, sim.now))

        sim.process(xfer(0))
        sim.process(xfer(1))
        sim.run()
        assert done == [(0, 2.0), (1, 4.0)]

    def test_lanes_allow_parallel_transfers(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, latency_s=1.0, bandwidth_Bps=100.0, lanes=2)
        done = []

        def xfer(i):
            yield from ch.transfer(100)
            done.append((i, sim.now))

        sim.process(xfer(0))
        sim.process(xfer(1))
        sim.run()
        assert done == [(0, 2.0), (1, 2.0)]

    def test_accounting(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, latency_s=0.5, bandwidth_Bps=10.0)

        def xfer():
            yield from ch.transfer(10)

        sim.process(xfer())
        sim.run()
        assert ch.bytes_moved == 10
        assert ch.busy_s == pytest.approx(1.5)

    def test_negative_size_rejected(self):
        sim = Simulator()
        ch = BandwidthChannel(sim, latency_s=0.0, bandwidth_Bps=1.0)

        def xfer():
            yield from ch.transfer(-1)

        sim.process(xfer())
        with pytest.raises(ValueError):
            sim.run()

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BandwidthChannel(sim, latency_s=-1.0, bandwidth_Bps=1.0)
        with pytest.raises(ValueError):
            BandwidthChannel(sim, latency_s=0.0, bandwidth_Bps=0.0)
