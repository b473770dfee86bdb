"""Tests for stores (FIFO queues) and synchronization primitives."""

import pytest

from repro.dcgn.requests import CommRequest
from repro.obs import SpanRecorder
from repro.sim import (
    AnyOf,
    DeadlockError,
    FilterStore,
    Latch,
    Signal,
    Simulator,
    Timeout,
    Wake,
)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = FilterStore(sim)

        def producer():
            store.put("x")
            yield sim.timeout(0.0)

        def consumer():
            item = yield store.get()
            return item

        sim.process(producer())
        c = sim.process(consumer())
        sim.run()
        assert c.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = FilterStore(sim)

        def consumer():
            item = yield store.get()
            return item, sim.now

        def producer():
            yield sim.timeout(5.0)
            store.put(42)

        c = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert c.value == (42, 5.0)

    def test_fifo_ordering(self):
        sim = Simulator()
        store = FilterStore(sim)
        got = []

        def producer():
            for i in range(5):
                store.put(i)
                yield sim.timeout(0.0)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]


class TestFilterStore:
    def test_predicate_matching(self):
        sim = Simulator()
        store = FilterStore(sim)

        def producer():
            store.put(("tag", 1))
            store.put(("tag", 2))
            yield sim.timeout(0.0)

        def consumer():
            item = yield store.get(lambda x: x[1] == 2)
            return item

        sim.process(producer())
        c = sim.process(consumer())
        sim.run()
        assert c.value == ("tag", 2)
        assert list(store.items) == [("tag", 1)]

    def test_waiting_getter_matched_by_later_put(self):
        sim = Simulator()
        store = FilterStore(sim)

        def consumer():
            item = yield store.get(lambda x: x > 10)
            return item, sim.now

        def producer():
            yield sim.timeout(1.0)
            store.put(5)  # doesn't match
            yield sim.timeout(1.0)
            store.put(50)  # matches

        c = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert c.value == (50, 2.0)
        assert list(store.items) == [5]

    def test_multiple_getters_first_match_wins(self):
        sim = Simulator()
        store = FilterStore(sim)
        got = []

        def consumer(i, pred):
            item = yield store.get(pred)
            got.append((i, item))

        sim.process(consumer(0, lambda x: x % 2 == 0))
        sim.process(consumer(1, lambda x: x % 2 == 1))

        def producer():
            yield sim.timeout(1.0)
            store.put(3)
            store.put(4)

        sim.process(producer())
        sim.run()
        assert sorted(got) == [(0, 4), (1, 3)]

    def test_matcher_put_schedules_no_event(self):
        """A put with no posted receive pushes nothing; a put that
        meets one pushes exactly the receive's completion."""
        sim = Simulator()
        store = FilterStore(sim)
        base = sim.stats.heap_pushes
        store.put("early")
        assert sim.stats.heap_pushes == base
        assert list(store.items) == ["early"]
        ev = store.get(lambda x: x == "late")
        assert sim.stats.heap_pushes == base
        store.put("late")
        assert sim.stats.heap_pushes == base + 1
        assert ev.triggered and ev.value == "late"
        assert list(store.items) == ["early"]


class TestSignal:
    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        sig = Signal(sim)
        woken = []

        def waiter(i):
            val = yield sig.wait()
            woken.append((i, val, sim.now))

        def firer():
            yield sim.timeout(2.0)
            n = sig.fire("go")
            assert n == 3

        for i in range(3):
            sim.process(waiter(i))
        sim.process(firer())
        sim.run()
        assert woken == [(0, "go", 2.0), (1, "go", 2.0), (2, "go", 2.0)]

    def test_wait_after_fire_blocks_until_next(self):
        sim = Simulator()
        sig = Signal(sim)

        def late_waiter():
            yield sim.timeout(5.0)
            yield sig.wait()
            return sim.now

        def firer():
            yield sim.timeout(1.0)
            sig.fire()
            yield sim.timeout(9.0)
            sig.fire()

        w = sim.process(late_waiter())
        sim.process(firer())
        sim.run()
        assert w.value == pytest.approx(10.0)
        assert sig.fired_count == 2


    def test_wait_is_named_lazily_and_cancellable(self):
        sim = Simulator()
        sig = Signal(sim, name="s")
        ev = sig.wait()
        assert ev.name == "wait(s)"
        assert sig.cancel(ev) and sig.waiting == 0
        assert not sig.cancel(ev)
        assert sig.fire() == 0
        sim.run()
        assert not ev.triggered


class TestWake:
    @pytest.mark.parametrize("first", ["timer", "sig", "ev"])
    def test_first_source_wins_with_itself_as_value(self, first):
        sim = Simulator()
        sig, ev, wake = Signal(sim), sim.event(), Wake(sim)
        at = {"timer": 3.0, "sig": 3.0, "ev": 3.0}
        at[first] = 1.0

        def waiter():
            src = yield wake.arm(at["timer"], (sig,), (ev,))
            return sim.now, src

        def firer():
            yield sim.timeout(min(at["sig"], at["ev"]))
            if at["sig"] <= at["ev"]:
                sig.fire()
            else:
                ev.succeed()

        w = sim.process(waiter())
        sim.process(firer())
        sim.run()
        now, src = w.value
        assert now == 1.0
        if first == "timer":
            assert isinstance(src, Timeout) and src.delay == 1.0
        else:
            assert src is {"sig": sig, "ev": ev}[first]

    def test_timer_win_withdraws_signal_waits(self):
        sim = Simulator()
        a, b, wake = Signal(sim), Signal(sim), Wake(sim)
        ticks = []

        def poller():
            for _ in range(20):
                src = yield wake.arm(1.0, (a, b))
                assert isinstance(src, Timeout)
                ticks.append((a.waiting, b.waiting))

        sim.process(poller())
        sim.run()
        assert ticks == [(0, 0)] * 20
        # Nothing left for a late fire to push through the heap.
        assert a.fire() == 0 and b.fire() == 0

    def test_lost_timer_does_not_resume_a_later_arm(self):
        sim = Simulator()
        sig, later, wake = Signal(sim), Signal(sim), Wake(sim)
        resumed = []

        def waiter():
            src = yield wake.arm(10.0, (sig,))
            resumed.append((sim.now, src))
            # The first arm's timer is still queued for t=10.
            src = yield wake.arm(None, (later,))
            resumed.append((sim.now, src))

        def firer():
            yield sim.timeout(1.0)
            sig.fire()
            yield sim.timeout(19.0)
            later.fire()

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert resumed == [(1.0, sig), (20.0, later)]

    def test_failing_event_member_fails_the_hop_and_is_defused(self):
        sim = Simulator()
        sig, ev, wake = Signal(sim), sim.event(), Wake(sim)

        def waiter():
            try:
                yield wake.arm(5.0, (sig,), (ev,))
            except ValueError as exc:
                return sim.now, str(exc)

        def failer():
            yield sim.timeout(2.0)
            ev.fail(ValueError("boom"))

        w = sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert w.value == (2.0, "boom")
        assert ev._defused and sig.waiting == 0

    def test_processed_event_members_win_once(self):
        """Already-processed members bridge in; only the first resumes
        the arm, the second's bridge finds no arm and is ignored."""
        sim = Simulator()
        a, b, wake = sim.event(), sim.event(), Wake(sim)
        a.succeed("a")
        b.succeed("b")
        sim.run()

        def waiter():
            src = yield wake.arm(1.0, (), (a, b))
            return sim.now, src

        w = sim.process(waiter())
        sim.run()
        assert w.value == (0.0, a)

    def test_rearm_drops_the_unwon_arm(self):
        sim = Simulator()
        sig, wake = Signal(sim), Wake(sim)
        first = wake.arm(None, (sig,))
        second = wake.arm(None, (sig,))
        assert sig.waiting == 1

        def firer():
            yield sim.timeout(1.0)
            sig.fire()

        sim.process(firer())
        sim.run()
        assert second.value is sig and not first.triggered

    def test_blocked_arm_names_its_waits_in_the_deadlock_chain(self):
        sim = Simulator()
        sig, wake = Signal(sim, name="gpu0.comp"), Wake(sim)

        def waiter():
            yield wake.arm(None, (sig,))

        sim.process(waiter(), name="poller")
        with pytest.raises(DeadlockError) as info:
            sim.run()
        (chain,) = info.value.chains
        assert chain[0] == "poller"
        assert any("wait(gpu0.comp)" in link for link in chain[1:])

    @staticmethod
    def _scripted(use_wake):
        """Three pollers over two signals whose fires land on timer
        expiries; returns the ``(now, poller, source)`` resumes."""
        sim = Simulator()
        a, b = Signal(sim, name="a"), Signal(sim, name="b")
        log = []

        def poller(i, delay):
            wake = Wake(sim)
            for k in range(8):
                if use_wake:
                    src = yield wake.arm(delay, (a, b))
                    label = "timer" if isinstance(src, Timeout) else src.name
                else:
                    waits = [sim.timeout(delay), a.wait(), b.wait()]
                    fired = yield AnyOf(sim, waits)
                    (ev,) = fired
                    label = ("timer", "a", "b")[waits.index(ev)]
                log.append((sim.now, i, label))
                if i == 2 and label == "timer" and k % 2:
                    a.fire()  # same-instant fire from inside a poller
                if label != "timer":
                    yield sim.timeout(0.0)

        def firer():
            for t, sig in [(1.0, a), (0.5, b), (0.0, a), (1.5, b), (1.5, a)]:
                yield sim.timeout(t)
                sig.fire()

        for i, delay in enumerate((1.0, 1.5, 0.5)):
            sim.process(poller(i, delay), name=f"p{i}")
        sim.process(firer())
        sim.run()
        return log

    def test_same_resume_order_as_any_of(self):
        with_any_of = self._scripted(use_wake=False)
        assert len(with_any_of) == 24
        assert {label for _t, _i, label in with_any_of} == {"timer", "a", "b"}
        assert self._scripted(use_wake=True) == with_any_of


class TestLatch:
    def test_counts_down(self):
        sim = Simulator()
        latch = Latch(sim, 3)

        def waiter():
            yield latch.wait()
            return sim.now

        def arriver(delay):
            yield sim.timeout(delay)
            latch.arrive()

        w = sim.process(waiter())
        for d in (1.0, 2.0, 3.0):
            sim.process(arriver(d))
        sim.run()
        assert w.value == pytest.approx(3.0)

    def test_zero_count_immediate(self):
        sim = Simulator()
        latch = Latch(sim, 0)

        def waiter():
            yield latch.wait()
            return sim.now

        w = sim.process(waiter())
        sim.run()
        assert w.value == 0.0

    def test_over_arrival_is_error(self):
        sim = Simulator()
        latch = Latch(sim, 1)
        latch.arrive()
        with pytest.raises(RuntimeError):
            latch.arrive()

    def test_arrive_n(self):
        sim = Simulator()
        latch = Latch(sim, 5)
        latch.arrive(5)
        assert latch.done.triggered


class TestTracer:
    """The simulator's one event recorder, ``sim.spans`` (a
    :class:`~repro.obs.SpanRecorder`; ``tests/test_obs.py`` covers its
    ring buffer and pause/resume for intervals, these for instants)."""

    def test_records_and_filters(self):
        sim = Simulator()
        rec = sim.attach_spans()

        def proc():
            rec.instant(sim.now, "poll", "dcgn.poll", "gpu0")
            yield sim.timeout(1.0)
            rec.instant(sim.now, "send", "p2p.send", "r0", {"nbytes": 64})

        sim.process(proc())
        sim.run()
        assert rec.count("dcgn.poll") == 1
        sends = rec.select("p2p.send")
        assert len(sends) == 1
        assert sends[0].attrs["nbytes"] == 64
        assert sends[0].t0 == sends[0].t1 == pytest.approx(1.0)

    def test_no_tracer_is_noop(self):
        sim = Simulator()
        assert sim.spans is None
        # Instrumentation points check sim.spans and record nothing.
        CommRequest(op="send", src_vrank=0).mark(sim, "issued", "t")

    def test_maxlen_ring_buffer(self):
        rec = SpanRecorder(maxlen=3)
        for i in range(10):
            rec.instant(float(i), "tick", "c", "t", {"i": i})
        assert len(rec.spans) == 3
        assert [s.attrs["i"] for s in rec.spans] == [7, 8, 9]

    def test_pause_resume(self):
        rec = SpanRecorder()
        rec.instant(0.0, "kept", "c", "t")
        rec.pause()
        assert rec.instant(1.0, "dropped", "c", "t") is None
        rec.resume()
        rec.instant(2.0, "kept", "c", "t")
        assert len(rec.select(name="kept")) == 2
        assert rec.select(name="dropped") == []

    def test_clear(self):
        rec = SpanRecorder()
        a = rec.instant(0.0, "tick", "c", "t")
        rec.clear()
        assert len(rec.spans) == 0
        # The sid counter keeps advancing across a clear.
        assert rec.instant(1.0, "tick", "c", "t") > a
        assert len(rec.spans) == 1
