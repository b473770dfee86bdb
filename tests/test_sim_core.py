"""Unit tests for the discrete-event simulation kernel (repro.sim.core)."""

import pytest

from repro.sim import (
    DeadlockError,
    Event,
    Interrupt,
    Process,
    ScheduleError,
    SimulationError,
    Simulator,
    ms,
    us,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_unit_helpers():
    assert us(1) == pytest.approx(1e-6)
    assert ms(2.5) == pytest.approx(2.5e-3)


def test_timeout_advances_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(5.0)
    assert p.value == pytest.approx(5.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ScheduleError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert p.ok
    assert p.value == "done"


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_two_processes_interleave():
    sim = Simulator()
    log = []

    def a():
        yield sim.timeout(1.0)
        log.append(("a", sim.now))
        yield sim.timeout(2.0)
        log.append(("a", sim.now))

    def b():
        yield sim.timeout(2.0)
        log.append(("b", sim.now))

    sim.process(a())
    sim.process(b())
    sim.run()
    assert log == [("a", 1.0), ("b", 2.0), ("a", 3.0)]


def test_equal_time_events_fifo_order():
    sim = Simulator()
    log = []

    def mk(i):
        def proc():
            yield sim.timeout(1.0)
            log.append(i)

        return proc

    for i in range(10):
        sim.process(mk(i)())
    sim.run()
    assert log == list(range(10))


def test_process_joins_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 7

    def parent():
        c = sim.process(child())
        val = yield c
        return val * 2

    p = sim.process(parent())
    sim.run()
    assert p.value == 14
    assert sim.now == pytest.approx(3.0)


def test_join_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "x"

    def parent(c):
        yield sim.timeout(5.0)
        val = yield c  # c finished long ago
        assert sim.now == pytest.approx(5.0)
        return val

    c = sim.process(child())
    p = sim.process(parent(c))
    sim.run()
    assert p.value == "x"


def test_event_succeed_value_propagates():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        val = yield ev
        return val

    def firer():
        yield sim.timeout(2.0)
        ev.succeed(99)

    w = sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert w.value == 99


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as e:
            return f"caught {e}"

    def firer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    w = sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert w.value == "caught boom"


def test_unwaited_failed_event_crashes_run():
    sim = Simulator()
    ev = sim.event()

    def firer():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("lost failure"))

    sim.process(firer())
    with pytest.raises(RuntimeError, match="lost failure"):
        sim.run()


def test_uncaught_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("oops")

    sim.process(bad())
    with pytest.raises(KeyError):
        sim.run()


def test_joined_process_exception_delivered_to_parent():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("oops")

    def parent():
        c = sim.process(bad())
        try:
            yield c
        except KeyError:
            return "handled"

    p = sim.process(parent())
    sim.run()
    assert p.value == "handled"


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(ScheduleError):
        ev.succeed(2)
    with pytest.raises(ScheduleError):
        ev.fail(ValueError())


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield "not an event"  # type: ignore[misc]

    sim.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_yield_event_from_other_simulator_is_error():
    sim1 = Simulator()
    sim2 = Simulator()

    def bad():
        yield sim2.timeout(1.0)

    sim1.process(bad())
    with pytest.raises(SimulationError, match="another simulator"):
        sim1.run()


def test_run_until_stops_midway():
    sim = Simulator()
    log = []

    def proc():
        for _ in range(10):
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(proc())
    t = sim.run(until=4.5, detect_deadlock=False)
    assert t == pytest.approx(4.5)
    assert log == [1.0, 2.0, 3.0, 4.0]
    # Continue to completion.
    sim.run()
    assert len(log) == 10


def test_run_until_beyond_end_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    t = sim.run(until=100.0)
    assert t == pytest.approx(100.0)


def test_stop_simulation():
    sim = Simulator()

    def stopper():
        yield sim.timeout(2.0)
        sim.stop()

    def runner():
        yield sim.timeout(10.0)

    sim.process(stopper())
    sim.process(runner())
    t = sim.run(detect_deadlock=False)
    assert t == pytest.approx(2.0)


def test_deadlock_detected():
    sim = Simulator()
    ev = sim.event()  # never fired

    def stuck():
        yield ev

    sim.process(stuck())
    with pytest.raises(DeadlockError) as ei:
        sim.run()
    assert len(ei.value.blocked) == 1


def test_deadlock_detection_disabled():
    sim = Simulator()
    ev = sim.event()

    def stuck():
        yield ev

    sim.process(stuck())
    sim.run(detect_deadlock=False)  # returns silently


def test_interrupt_wakes_blocked_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as i:
            return ("interrupted", i.cause, sim.now)

    def interrupter(p):
        yield sim.timeout(3.0)
        p.interrupt("wakeup")

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run(detect_deadlock=False)
    assert p.value == ("interrupted", "wakeup", 3.0)


def test_interrupt_dead_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    def late(p):
        yield sim.timeout(5.0)
        p.interrupt()

    p = sim.process(quick())
    sim.process(late(p))
    with pytest.raises(SimulationError, match="dead"):
        sim.run()


def test_self_interrupt_is_error():
    sim = Simulator()

    def proc():
        me = sim._current
        yield sim.timeout(0.0)
        me.interrupt()
        yield sim.timeout(1.0)

    # The error surfaces when the process body runs.
    def outer():
        p = sim.process(proc())
        try:
            yield p
        except SimulationError:
            return "caught"

    # proc captures _current before first yield — build it inside a wrapper.
    def proc2():
        yield sim.timeout(0.0)
        sim._current.interrupt()

    sim2 = Simulator()

    def proc3():
        yield sim2.timeout(0.0)
        sim2._current.interrupt()

    sim2.process(proc3())
    with pytest.raises(SimulationError, match="itself"):
        sim2.run()


def test_peek_and_step():
    sim = Simulator()

    def proc():
        yield sim.timeout(7.0)

    sim.process(proc())
    assert sim.peek() == pytest.approx(0.0)  # init event
    sim.step()
    assert sim.peek() == pytest.approx(7.0)
    sim.step()
    assert sim.peek() == pytest.approx(7.0)  # process-completion event
    sim.step()
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_process_chains():
    sim = Simulator()

    def leaf(n):
        yield sim.timeout(float(n))
        return n

    def mid(n):
        a = yield sim.process(leaf(n))
        b = yield sim.process(leaf(n + 1))
        return a + b

    def root():
        total = 0
        for i in range(3):
            total += yield sim.process(mid(i))
        return total

    p = sim.process(root())
    sim.run()
    # (0+1) + (1+2) + (2+3) = 9; durations sum: 1 + 3 + 5 = 9
    assert p.value == 9
    assert sim.now == pytest.approx(9.0)


def test_many_processes_scale():
    sim = Simulator()
    results = []

    def proc(i):
        yield sim.timeout(float(i % 17) * 0.001)
        results.append(i)

    for i in range(1000):
        sim.process(proc(i))
    sim.run()
    assert len(results) == 1000
    assert sorted(results) == list(range(1000))


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        val = yield sim.timeout(1.0, value="payload")
        return val

    p = sim.process(proc())
    sim.run()
    assert p.value == "payload"


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    log = []

    def a():
        yield sim.timeout(0.0)
        log.append("a")

    def b():
        yield sim.timeout(0.0)
        log.append("b")

    sim.process(a())
    sim.process(b())
    sim.run()
    assert log == ["a", "b"]
    assert sim.now == 0.0


def test_late_waiter_on_failed_event_catches_it():
    """A waiter that joins an already-failed (and handled) event gets
    the failure through the bridge event; the bridge itself must not
    crash the run as an uncaught failure."""
    from repro.sim import AnyOf

    sim = Simulator()
    ev = sim.event(name="ev")
    caught = []

    def first():
        try:
            yield ev
        except ValueError as exc:
            caught.append(("first", sim.now, str(exc)))

    def late():
        yield sim.timeout(1.0)
        try:
            yield AnyOf(sim, [ev])
        except ValueError as exc:
            caught.append(("late", sim.now, str(exc)))

    sim.process(first())
    sim.process(late())
    ev.fail(ValueError("x"))
    sim.run()
    assert caught == [("first", 0.0, "x"), ("late", 1.0, "x")]


def test_default_names_read_as_before():
    """Default names are built lazily but read the same strings."""
    from repro.sim import ExploringSimulator, Resource

    sim = Simulator()
    assert sim.timeout(2.5).name == "timeout(2.5)"
    assert sim.timeout(1e-6, name="t").name == "t"
    res = Resource(sim, capacity=1, name="lock")
    assert res.request().name == "request(lock)"
    assert Resource(sim, capacity=2).request().name == (
        "request(resource(cap=2))"
    )

    xsim = ExploringSimulator(seed=0)

    def idle():
        yield xsim.timeout(0.0)

    xsim.process(idle(), name="a")
    xsim.process(idle(), name="b")
    xsim.run()
    assert xsim.schedule_trace[0].ready == ("init(a)", "init(b)")
    assert ("timeout(0)", "timeout(0)") in [
        c.ready for c in xsim.schedule_trace
    ]


def _random_pushes(seed, depth):
    """Fire a random program of pushes made from inside callbacks.

    Returns the simulator and its log of ``("push", key)`` /
    ``("pop", key)`` / ``("until", t)`` records in the order they
    happened, ``key`` being a heap entry's ``(time, priority, seq)``;
    a batch carrier logs one pop, when its first member fires.
    """
    import random

    from repro.sim import LOW, NORMAL, URGENT, EventBatch

    rng = random.Random(seed)
    sim = Simulator()
    log = []
    budget = [600]
    drains = {}  # carrier key -> member indices fired so far

    def on_fire(key, member):
        def cb(_ev):
            if member is None:
                log.append(("pop", key))
            else:
                got = drains.setdefault(key, [])
                if not got:
                    log.append(("pop", key))
                got.append(member)
            spawn()

        return cb

    def push(delay, prio):
        ev = Event(sim)
        ev._ok, ev._value = True, None
        # The seq of a push is the count of pushes before it.
        key = (sim.now + delay, prio, sim.stats.heap_pushes)
        ev.callbacks.append(on_fire(key, None))
        log.append(("push", key))
        sim._schedule(ev, delay, prio)

    def batch():
        b = EventBatch(sim, name="b")
        times = [sim.now + rng.choice((0.0, 0.0, 0.25, 1.0))
                 for _ in range(rng.randint(1, 4))]
        # One carrier per distinct time, pushed in time order.
        base = sim.stats.heap_pushes
        carrier = {
            t: (sim.now + (t - sim.now), NORMAL, base + i)
            for i, t in enumerate(sorted(set(times)))
        }
        for idx, t in enumerate(times):
            ev = Event(sim)
            ev.callbacks.append(on_fire(carrier[t], idx))
            b.add(t, ev)
        b.commit()
        log.extend(("push", k) for k in sorted(carrier.values(),
                                                key=lambda k: k[2]))

    def spawn():
        for _ in range(rng.randint(0, 3)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            if rng.random() < 0.1:
                batch()
                continue
            delay = rng.choice((0.0, 0.0, 0.0, 0.125, 0.5, 1.0,
                                sim.now * 1e-17))  # now + delay == now
            push(delay, rng.choice((URGENT, NORMAL, LOW)))

    # A deep background of future entries under every same-instant lane.
    for _ in range(depth):
        push(rng.choice((0.5, 1.0, 1.5, 2.0, 3.0)),
             rng.choice((URGENT, NORMAL, LOW)))
    for _ in range(8):
        push(0.0, rng.choice((URGENT, NORMAL, LOW)))
    sim.run(until=1.0)
    log.append(("until", sim.now))
    sim.run()
    for key, got in drains.items():
        assert got == sorted(got), f"carrier {key} drained out of order"
    return sim, log


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("depth", [0, 1500])
def test_lane_pop_order_is_the_total_order(seed, depth):
    """Replaying the log against a plain heapq on ``(time, priority,
    seq)`` pops exactly what the kernel fired, and ``run(until=...)``
    stopped with nothing due at or before ``until`` left."""
    import heapq

    sim, log = _random_pushes(seed, depth)
    ref = []
    pops = 0
    for what, key in log:
        if what == "push":
            heapq.heappush(ref, key)
        elif what == "pop":
            assert heapq.heappop(ref) == key
            pops += 1
        else:
            assert key == 1.0 and (not ref or ref[0][0] > 1.0)
    assert not ref
    assert pops == sim.stats.events_popped == sim.stats.heap_pushes


def test_exploring_ready_set_spans_heap_and_lanes():
    """Timeouts scheduled earlier for t and zero-delay events pushed at
    t are one ready set, named in seq order."""
    from repro.sim import ExploringSimulator

    sim = ExploringSimulator(seed=3)

    def follow_ups(ev):
        for i in range(2):
            sim.event(name=f"{ev.name}.z{i}").succeed()

    for name in ("t0", "t1", ""):
        sim.timeout(1.0, name=name).callbacks.append(follow_ups)
    sim.run()
    first, second = sim.schedule_trace[:2]
    assert first.ready == ("t0", "t1", "timeout(1)")
    picked = first.ready[first.picked]
    rest = tuple(n for n in first.ready if n != picked)
    assert second.ready == rest + (f"{picked}.z0", f"{picked}.z1")


def test_deliver_processes_an_event_inside_another_firing():
    """``Event.deliver`` runs the waiters at once, in the current
    firing, and a failure no waiter took crashes the run as usual."""
    sim = Simulator()
    got = []
    done = sim.event("done")
    lost = sim.event("lost")

    def waiter():
        value = yield done
        got.append((sim.now, value))

    sim.process(waiter())
    carrier = sim.timeout(2.0)
    carrier.callbacks.append(lambda _e: done.deliver("v"))
    sim.run()
    assert got == [(2.0, "v")] and done.processed and done.ok
    with pytest.raises(ScheduleError):
        done.deliver("again")
    sim.timeout(1.0).callbacks.append(
        lambda _e: lost.deliver(ValueError("nobody waits"), ok=False))
    with pytest.raises(ValueError, match="nobody waits"):
        sim.run()
