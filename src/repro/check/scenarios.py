"""Adversarial interleaving scenarios over the real MPI/DCGN/RMA stack.

Each scenario is a self-contained concurrent program exercising one of
the hand-rolled synchronization paths PRs 3-5 added to the runtime —
passive-target lock grant queues, PSCW partial-group sync, fence
epochs, split-during-collective sequencing, ``Comm_free`` drains, the
DCGN comm-thread completer, and the event core's batched same-instant
drains.  A scenario:

* builds its cluster/job on the :class:`~repro.sim.ExploringSimulator`
  it is given (so every event-heap tie is a scheduling choice),
* runs to completion, and
* checks its end-state invariant, raising
  :class:`~repro.check.errors.InvariantViolation` when the state is
  silently wrong.

Deadlocks, livelocks and crashes are *not* caught here — the sweep
runner classifies them.  ``expect`` declares which outcomes are healthy
(normally just ``ok``); ``must_find`` inverts the game for deliberately
buggy fixtures: the sweep fails unless that outcome is observed.

Invariants prefer *order-independent* truths (lock-protected counters
summing correctly, disjoint slots holding their writer's value) so that
every legal interleaving passes and only a real synchronization bug —
lost update, misrouted grant, premature free — fails.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Generator, Optional

import numpy as np

from ..hw import ClusterSpec, build_cluster, paper_cluster
from ..mpi import MpiError, MpiJob
from ..sim.core import Simulator
from .buggy import BuggyGrantQueue, BuggyReservingScheduler
from .errors import InvariantViolation

__all__ = ["ScenarioSpec", "SCENARIOS", "scenario_names", "get_scenario"]


class ScenarioSpec:
    """A named, classifiable concurrent scenario."""

    __slots__ = ("name", "run", "doc", "expect", "must_find")

    def __init__(
        self,
        name: str,
        run: Callable[[Simulator], None],
        doc: str,
        expect: FrozenSet[str] = frozenset({"ok"}),
        must_find: Optional[str] = None,
    ) -> None:
        self.name = name
        self.run = run
        self.doc = doc
        self.expect = frozenset(expect)
        self.must_find = must_find

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ScenarioSpec {self.name!r}>"


def _job(sim: Simulator, n_nodes: int) -> MpiJob:
    cluster = build_cluster(
        sim, ClusterSpec(nodes=n_nodes, gpus_per_node=0)
    )
    return MpiJob(cluster, list(range(n_nodes)))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantViolation(msg)


# ---------------------------------------------------------------------------
# Passive-target locking
# ---------------------------------------------------------------------------

def _run_lock_writers(sim: Simulator) -> None:
    """3 ranks do read-modify-write increments of one counter on rank
    0's window under exclusive locks.  Any lost update — a grant queue
    handing the lock to two origins at once — breaks the total."""
    job = _job(sim, 3)
    increments = 3

    def prog(ctx):
        w = yield from ctx.win_allocate(1)
        if ctx.rank == 0:
            w.local[:] = 0.0
        yield from w.fence()
        yield from w.fence(end=True)
        cur = np.zeros(1)
        for _ in range(increments):
            yield from w.lock(0, exclusive=True)
            yield from w.get(0, cur)
            yield from w.put(0, cur + 1.0)
            yield from w.unlock(0)
        yield from ctx.barrier()
        if ctx.rank == 0:
            total = float(w.local[0])
            _require(
                total == float(job.size * increments),
                f"lost update: counter {total} != {job.size * increments}",
            )
        yield from w.free()

    job.start(prog)
    job.run()


def _run_lockall_vs_lock(sim: Simulator) -> None:
    """A ``lock_all`` holder (shared on every rank) races two exclusive
    lockers of rank 0's window.  Disjoint slots must hold exactly their
    writer's value; the shared accumulate slot must sum."""
    job = _job(sim, 4)

    def prog(ctx):
        w = yield from ctx.win_allocate(4)
        w.local[:] = 0.0
        yield from w.fence()
        yield from w.fence(end=True)
        if ctx.rank == 1:
            # Shared locks everywhere; writes slot 1 of every rank.
            yield from w.lock_all()
            for t in range(ctx.size):
                yield from w.put(t, np.full(1, 10.0 + t), offset=1)
            yield from w.unlock_all()
        elif ctx.rank in (2, 3):
            # Exclusive read-modify-write on rank 0 slot 0, twice.
            cur = np.zeros(1)
            for _ in range(2):
                yield from w.lock(0, exclusive=True)
                yield from w.get(0, cur, offset=0)
                yield from w.put(0, cur + 1.0, offset=0)
                yield from w.unlock(0)
        yield from ctx.barrier()
        _require(
            float(w.local[1]) == 10.0 + ctx.rank,
            f"rank {ctx.rank} slot1 = {w.local[1]}, want {10.0 + ctx.rank}",
        )
        if ctx.rank == 0:
            _require(
                float(w.local[0]) == 4.0,
                f"rank0 slot0 = {w.local[0]}, want 4.0 (2 lockers x 2)",
            )
        yield from w.free()

    job.start(prog)
    job.run()


def _run_fence_vs_passive(sim: Simulator) -> None:
    """Fence epochs and passive-target locks race on one window: ranks
    0/1 exchange puts inside collective fence epochs while ranks 2/3
    take exclusive locks on rank 1 and accumulate — the grant traffic
    interleaves with the fence's barrier traffic."""
    job = _job(sim, 4)

    def prog(ctx):
        w = yield from ctx.win_allocate(4)
        w.local[:] = 0.0
        yield from w.fence()
        if ctx.rank in (0, 1):
            peer = 1 - ctx.rank
            yield from w.put(peer, np.full(1, 1.0 + ctx.rank), offset=ctx.rank)
        else:
            yield from w.lock(1, exclusive=True)
            yield from w.accumulate(1, np.ones(1), op="sum", offset=3)
            yield from w.unlock(1)
        yield from w.fence()
        if ctx.rank in (0, 1):
            peer = 1 - ctx.rank
            _require(
                float(w.local[peer]) == 1.0 + peer,
                f"rank {ctx.rank} slot{peer} = {w.local[peer]}",
            )
        if ctx.rank == 1:
            _require(
                float(w.local[3]) == 2.0,
                f"accumulate slot = {w.local[3]}, want 2.0",
            )
        yield from w.free()

    job.start(prog)
    job.run()


# ---------------------------------------------------------------------------
# Communicator lifecycle under fire
# ---------------------------------------------------------------------------

def _run_split_during_icollective(sim: Simulator) -> None:
    """``split`` while a nonblocking allreduce is still in flight on
    the parent: the split's allgather and the background schedule share
    matching stores and sequence spaces."""
    job = _job(sim, 4)

    def prog(ctx):
        out = np.zeros(16)
        req = ctx.iallreduce(np.full(16, float(ctx.rank + 1)), out)
        sub = yield from ctx.split(ctx.rank % 2, key=ctx.rank)
        sout = np.zeros(1)
        yield from sub.allreduce(np.ones(1), sout)
        yield from req.wait()
        _require(
            bool(np.all(out == 10.0)),
            f"parent allreduce produced {out[0]}, want 10.0",
        )
        _require(
            float(sout[0]) == 2.0,
            f"sub allreduce produced {sout[0]}, want 2.0",
        )
        yield from sub.free()

    job.start(prog)
    job.run()


def _run_free_with_inflight_rput(sim: Simulator) -> None:
    """Freeing a communicator while a window is live (and an ``rput``
    may still be on the wire) must raise — both the driver-level and
    the collective free — and the orderly window-then-communicator
    sequence must still succeed afterwards."""
    job = _job(sim, 2)
    n = 1 << 12  # rendezvous-sized: still in flight at the free attempts

    def prog(ctx):
        sub = yield from ctx.split(0, key=ctx.rank)
        w = yield from sub.win_allocate(n)
        yield from w.fence()
        req = None
        if sub.rank == 0:
            req = yield from w.rput(1, np.ones(n))
            try:
                sub.comm.free()
                raise InvariantViolation(
                    "driver free succeeded with a live window"
                )
            except MpiError:
                pass
        try:
            yield from sub.free()
            raise InvariantViolation(
                "collective free succeeded with a live window"
            )
        except MpiError:
            pass
        if req is not None:
            yield from req.wait()
        yield from w.fence()
        if sub.rank == 1:
            _require(
                bool(np.all(w.local == 1.0)),
                "rput payload never landed in the target window",
            )
        yield from w.free()
        yield from sub.free()
        return sub.comm

    job.start(prog)
    comms = job.run()
    # The release happens when the LAST rank completes the collective
    # free; check after the whole run, not from inside one rank.
    _require(
        all(c._freed for c in comms),
        "communicator not freed after the orderly window-then-comm free",
    )


def _run_comm_free_drain(sim: Simulator) -> None:
    """Collective free with rendezvous p2p *and* a background
    nonblocking collective still in flight: the drain must hold the
    release back until both the p2p counter and the schedule engine go
    idle, and the pending operations must still complete correctly."""
    job = _job(sim, 4)
    n = 1 << 14

    def prog(ctx):
        sub = yield from ctx.split(0, key=ctx.rank)
        out = np.zeros(n // 8)
        creq = sub.iallreduce(np.ones(n // 8), out)
        if sub.rank == 0:
            preq = sub.isend(np.full(n // 8, 5.0), 1)
        elif sub.rank == 1:
            preq = sub.irecv(np.zeros(n // 8), 0)
        else:
            preq = None
        yield from sub.free()
        yield from creq.wait()
        got = None
        if preq is not None:
            got = yield from preq.wait()
        _require(
            bool(np.all(out == 4.0)),
            f"drained allreduce produced {out[0]}, want 4.0",
        )
        if sub.rank == 1:
            _require(got is not None, "irecv returned no status")
        return sub.comm

    job.start(prog)
    comms = job.run()
    _require(
        all(c._freed for c in comms),
        "deferred free never released the comm after the drain",
    )


# ---------------------------------------------------------------------------
# PSCW generalized active target
# ---------------------------------------------------------------------------

def _run_pscw_skew(sim: Simulator) -> None:
    """Partial-group PSCW with skewed, overlapping groups: rank 0
    exposes to {1, 2}, rank 1 exposes to {2}, rank 2 accesses both —
    post/start/complete/wait notifications race in every order."""
    job = _job(sim, 4)

    def prog(ctx):
        w = yield from ctx.win_allocate(4)
        w.local[:] = 0.0
        yield from w.fence()
        yield from w.fence(end=True)
        if ctx.rank == 0:
            yield from w.post([1, 2])
            yield from w.wait_sync()
            _require(
                float(w.local[1]) == 11.0 and float(w.local[2]) == 22.0,
                f"rank0 window {w.local[:3]}, want [., 11, 22]",
            )
        elif ctx.rank == 1:
            yield from w.post([2])
            yield from w.start([0])
            yield from w.put(0, np.full(1, 11.0), offset=1)
            yield from w.complete()
            yield from w.wait_sync()
            _require(
                float(w.local[0]) == 33.0,
                f"rank1 window {w.local[0]}, want 33",
            )
        elif ctx.rank == 2:
            yield from w.start([0, 1])
            yield from w.put(0, np.full(1, 22.0), offset=2)
            yield from w.put(1, np.full(1, 33.0), offset=0)
            yield from w.complete()
        yield from ctx.barrier()
        yield from w.free()

    job.start(prog)
    job.run()


# ---------------------------------------------------------------------------
# DCGN comm-thread completer
# ---------------------------------------------------------------------------

def _run_dcgn_completer(sim: Simulator) -> None:
    """CPU-rank MPI traffic and GPU-slot sends share one comm-thread
    completer per node; both ping-pongs must finish with the right
    values no matter how the completer interleaves their requests."""
    from ..dcgn import DcgnConfig, DcgnRuntime

    cluster = build_cluster(sim, paper_cluster(nodes=2))
    cfg = DcgnConfig.homogeneous(2, cpu_threads=1, gpus=1, slots_per_gpu=1)
    rt = DcgnRuntime(cluster, cfg)
    # Ranks: node0 = [cpu 0, gpu-slot 1], node1 = [cpu 2, gpu-slot 3].
    result: Dict[str, Any] = {}

    def cpu_kernel(ctx):
        buf = np.zeros(2, dtype=np.float32)
        if ctx.rank == 0:
            buf[:] = [1.0, 2.0]
            yield from ctx.send(2, buf)
            yield from ctx.recv(2, buf)
            result["cpu"] = buf.copy()
        else:
            yield from ctx.recv(0, buf)
            buf *= 10.0
            yield from ctx.send(0, buf)

    def gpu_kernel(ctx):
        comm = ctx.comm
        me = comm.rank(0)
        dbuf = ctx.device.alloc(2, dtype=np.float32)
        if me == 1:
            dbuf.data[:] = [3.0, 4.0]
            yield from comm.send(0, 3, dbuf)
            yield from comm.recv(0, 3, dbuf)
            result["gpu"] = dbuf.data.copy()
        else:
            yield from comm.recv(0, 1, dbuf)
            dbuf.data[:] += 100.0
            yield from comm.send(0, 1, dbuf)

    rt.launch_cpu(cpu_kernel)
    rt.launch_gpu(gpu_kernel)
    rt.run()
    _require(
        "cpu" in result and bool(np.allclose(result["cpu"], [10.0, 20.0])),
        f"cpu ping-pong produced {result.get('cpu')}, want [10, 20]",
    )
    _require(
        "gpu" in result and bool(np.allclose(result["gpu"], [103.0, 104.0])),
        f"gpu ping-pong produced {result.get('gpu')}, want [103, 104]",
    )


# ---------------------------------------------------------------------------
# Event core: batched drains under the tie-break
# ---------------------------------------------------------------------------

def _run_batch_drain_storm(sim: Simulator) -> None:
    """Same-instant :class:`~repro.sim.batch.EventBatch` carriers race
    plain timeouts and zero-delay follow-ups on the event heap.  A deep
    background fill of 1,424 distinct completion times keeps the heap
    deep while the exploring tie-break pops ready sets and re-inserts
    the losers; two independently committed batches then drain members
    at the *same* instants as three ticker timeouts, and waiters
    resumed from inside a drain immediately re-enter the same instant.
    Invariants are order-independent: every completion fires exactly
    once with its value, delivery is time-monotone at the exact
    scheduled instants, and each instant's tag *set* is the same no
    matter which schedule the seed picked."""
    from ..sim.batch import EventBatch
    from ..sim.core import Event

    log = []  # (time, tag) in delivery order
    counts: Dict[str, int] = {}
    values: Dict[str, Any] = {}

    def record(tag):
        def cb(ev: Event) -> None:
            log.append((sim.now, tag))
            counts[tag] = counts.get(tag, 0) + 1
            values[tag] = ev.value

        return cb

    # Background fill: one carrier per distinct completion time, so
    # the heap stays deep under every ready set of the storm.
    n_fill = 1424
    fill = EventBatch(sim, name="fill")
    for i in range(n_fill):
        ev = Event(sim, name=f"fill.{i}")
        ev.callbacks.append(record(f"fill.{i}"))
        fill.add(0.25 + i * 1e-6, ev, i)
    fill.commit()

    # Two independently committed batches with members at the SAME
    # instants: two carriers per wave, co-scheduled with the tickers.
    # Wave times are dyadic so process-relative delays reconstruct
    # them exactly and the ready sets genuinely collide.
    waves = [1.0, 1.0 + 2.0 ** -20, 2.0]
    storm: Dict[str, Event] = {}
    for b in range(2):
        batch = EventBatch(sim, name=f"storm{b}")
        for wi, t in enumerate(waves):
            for m in range(4):
                tag = f"storm{b}.w{wi}.m{m}"
                ev = Event(sim, name=tag)
                ev.callbacks.append(record(tag))
                storm[tag] = ev
                batch.add(t, ev, (b, wi, m))
        batch.commit()

    def ticker(name: str) -> Generator:
        for t in waves:
            yield sim.timeout(t - sim.now, name=name)
            log.append((sim.now, name))

    def waiter(tag: str, wave: float) -> Generator:
        yield storm[tag]
        _require(
            sim.now == wave,
            f"waiter on {tag} resumed at {sim.now!r}, want {wave!r}",
        )
        # Zero-delay follow-up: lands back in the instant's ready set.
        yield sim.timeout(0.0, name=f"post.{tag}")
        log.append((sim.now, f"post.{tag}"))

    for k in range(3):
        sim.process(ticker(f"tick{k}"), name=f"storm.tick{k}")
    waited = [
        ("storm0.w0.m0", waves[0]),
        ("storm1.w0.m3", waves[0]),
        ("storm0.w2.m1", waves[2]),
    ]
    for tag, wave in waited:
        sim.process(waiter(tag, wave), name=f"storm.wait.{tag}")
    sim.run()

    # Exactly-once delivery with the right payloads.
    n_storm = 2 * len(waves) * 4
    _require(
        len(values) == n_fill + n_storm,
        f"{len(values)} distinct completions fired, "
        f"want {n_fill + n_storm}",
    )
    dup = sorted(t for t, c in counts.items() if c != 1)
    _require(not dup, f"double-fired completions: {dup[:5]}")
    for i in range(n_fill):
        _require(
            values[f"fill.{i}"] == i,
            f"fill.{i} delivered {values[f'fill.{i}']!r}",
        )
    for b in range(2):
        for wi in range(len(waves)):
            for m in range(4):
                tag = f"storm{b}.w{wi}.m{m}"
                _require(
                    values[tag] == (b, wi, m),
                    f"{tag} delivered {values[tag]!r}",
                )

    # Time-monotone delivery at the exact scheduled instants.
    times = [t for t, _ in log]
    _require(
        all(a <= b2 for a, b2 in zip(times, times[1:])),
        "delivery log is not time-monotone",
    )
    for wi, t in enumerate(waves):
        want = {f"storm{b}.w{wi}.m{m}" for b in range(2) for m in range(4)}
        want |= {f"tick{k}" for k in range(3)}
        want |= {f"post.{tag}" for tag, wave in waited if wave == t}
        got = {tag for tt, tag in log if tt == t}
        _require(
            got == want,
            f"wave {wi} tag set {sorted(got ^ want)} out of place",
        )

    # Every member was drained through its batch carrier.
    _require(
        sim.stats.batch_events == n_fill + n_storm,
        f"batch_events {sim.stats.batch_events}, "
        f"want {n_fill + n_storm}",
    )
    _require(
        getattr(sim, "decisions", 1) > 0,
        "no scheduling decisions: the storm never built a ready set",
    )


# ---------------------------------------------------------------------------
# Serving scheduler: admission, cancellation and reservation races
# ---------------------------------------------------------------------------

def _scheduler(sim: Simulator, n_nodes: int):
    from ..serve import ClusterScheduler

    cluster = build_cluster(
        sim, ClusterSpec(nodes=n_nodes, gpus_per_node=0)
    )
    return ClusterScheduler(cluster, policy="packed", seed=0)


def _serve_prog_factory(duration_s: float = 0.0):
    """A job program: allreduce (checks tag isolation) + optional work."""

    def prog(ctx):
        if duration_s > 0.0:
            yield ctx.sim.timeout(duration_s)
        out = np.zeros(16)
        yield from ctx.allreduce(np.ones(16), out)
        _require(
            float(out[0]) == float(ctx.size),
            f"job allreduce produced {out[0]}, want {ctx.size} — "
            "traffic leaked between job communicators",
        )

    return prog


def _check_serve_end_state(sched, jobs) -> None:
    """Shared order-independent invariants after a scheduler run."""
    from ..serve.scheduler import CANCELLED, DONE, TERMINAL

    for job in jobs:
        _require(
            job.state in TERMINAL,
            f"job {job.name!r} ended non-terminal: {job.state}",
        )
        if job.state == DONE:
            _require(
                job.comm is not None and job.comm._freed,
                f"done job {job.name!r} left its communicator live",
            )
        if job.state == CANCELLED:
            _require(
                job.comm is None,
                f"cancelled job {job.name!r} got a communicator",
            )
    _require(
        sched.n_free == sched.cluster.n_nodes,
        f"{sched.cluster.n_nodes - sched.n_free} nodes still owned "
        "after every job ended",
    )
    # No two jobs whose node sets intersect may have overlapping
    # ownership intervals (reservation at place_t, release at end_t).
    placed = [j for j in jobs if j.nodes is not None and j.end_t is not None]
    for i, a in enumerate(placed):
        for b in placed[i + 1:]:
            if not (set(a.nodes) & set(b.nodes)):
                continue
            _require(
                not (a.place_t < b.end_t and b.place_t < a.end_t),
                f"jobs {a.name!r} and {b.name!r} owned shared nodes "
                "concurrently",
            )


def _run_sched_cancel_mid_placement(sim: Simulator) -> None:
    """A cancel lands at the exact instant a job's placement delay
    expires: the tie-break decides whether the job launches (the cancel
    then raises — running jobs need preemption) or the reservation is
    rolled back.  Both outcomes must leave the cluster clean."""
    from ..serve import SchedulerError

    sched = _scheduler(sim, 4)
    job = sched.submit(
        _job_spec("victim", 2, _serve_prog_factory(duration_s=1e-4))
    )

    def canceller() -> Generator:
        # Sleep exactly the launch overhead: the cancel and the
        # placement completion become a same-instant tie.
        yield sim.timeout(sched._launch_overhead_s(2))
        try:
            sched.cancel(job)
        except SchedulerError:
            pass  # lost the race: the job is already running

    sim.process(canceller(), name="serve.canceller")
    sim.run()
    _check_serve_end_state(sched, [job])
    _require(
        sched.stats["completed"] + sched.stats["cancelled"] == 1,
        f"stats inconsistent: {sched.stats}",
    )


def _run_sched_free_race(sim: Simulator) -> None:
    """A full-cluster job's completion (communicator free + node release
    + synchronous re-admission) races fresh submissions: two jobs are
    already queued when the release happens, and a third submission
    rides the completion callback into the same instant."""
    sched = _scheduler(sim, 4)
    prog = _serve_prog_factory(duration_s=5e-5)
    job_a = sched.submit(_job_spec("hog", 4, prog))
    late = []

    def submitter(name: str, n: int) -> Generator:
        yield sim.timeout(1e-5)  # while the hog is still placing/running
        late.append(sched.submit(_job_spec(name, n, prog)))

    def on_done() -> Generator:
        yield job_a.done  # same instant as the release + re-admission
        late.append(sched.submit(_job_spec("tail", 1, prog)))

    sim.process(submitter("mid", 2), name="serve.submit.mid")
    sim.process(submitter("big", 3), name="serve.submit.big")
    sim.process(on_done(), name="serve.submit.tail")
    sim.run()
    jobs = [job_a] + late
    _require(len(jobs) == 4, f"only {len(jobs)} jobs submitted")
    _check_serve_end_state(sched, jobs)
    _require(
        sched.stats["completed"] == 4,
        f"completed {sched.stats['completed']} of 4 jobs",
    )


def _run_sched_last_nodes(sim: Simulator) -> None:
    """Two 3-node jobs contend for 4 nodes: whichever submission wins
    the same-instant tie runs first and the other must wait — they can
    never hold nodes concurrently (pigeonhole: the sets must share at
    least two nodes)."""
    sched = _scheduler(sim, 4)
    prog = _serve_prog_factory(duration_s=5e-5)
    jobs = []

    def submitter(name: str) -> Generator:
        yield sim.timeout(0.0)
        jobs.append(sched.submit(_job_spec(name, 3, prog)))

    sim.process(submitter("left"), name="serve.submit.left")
    sim.process(submitter("right"), name="serve.submit.right")
    sim.run()
    _require(len(jobs) == 2, f"only {len(jobs)} jobs submitted")
    _check_serve_end_state(sched, jobs)
    starts = sorted(j.place_t for j in jobs)
    ends = sorted(j.end_t for j in jobs)
    _require(
        starts[1] >= ends[0],
        "second 3-node job started before the first released",
    )


def _job_spec(name: str, n_nodes: int, prog):
    from ..serve import JobSpec

    return JobSpec(name=name, n_nodes=n_nodes, program=prog)


# ---------------------------------------------------------------------------
# Detector fixtures: the checker must catch these
# ---------------------------------------------------------------------------

def _run_buggy_double_alloc(sim: Simulator) -> None:
    """The scheduler TOCTOU fixture (see :mod:`repro.check.buggy`): a
    second admission lands inside the select/reserve window, reads the
    stale free set, and both jobs reserve the same nodes.  The sweep
    must observe the double allocation on at least one seed."""
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    sched = BuggyReservingScheduler(cluster, policy="packed", seed=0)
    prog = _serve_prog_factory(duration_s=5e-5)
    jobs = [sched.submit(_job_spec("first", 2, prog))]

    def submitter() -> Generator:
        # Races the first job's deferred reservation at instant 0.
        yield sim.timeout(0.0)
        jobs.append(sched.submit(_job_spec("second", 2, prog)))

    sim.process(submitter(), name="serve.submit.second")
    sim.run()
    hits = sched.overlaps()
    if hits:
        ja, jb, node = hits[0]
        raise InvariantViolation(
            f"double allocation: jobs {ja} and {jb} both owned node "
            f"{node}"
        )

def _run_buggy_grant_queue(sim: Simulator) -> None:
    """The lock-order-inversion fixture (see :mod:`repro.check.buggy`):
    the sweep must observe at least one deadlock — and attach a
    waits-for chain naming both mutexes — or the checker has no
    teeth."""
    q = BuggyGrantQueue(sim)
    rounds = 3

    def requester() -> Generator:
        for _ in range(rounds):
            yield from q.enqueue()

    def granter() -> Generator:
        for _ in range(rounds):
            yield from q.grant()

    sim.process(requester(), name="grantq.requester")
    sim.process(granter(), name="grantq.granter")
    sim.run()
    _require(
        q.pending >= 0 and q.granted <= rounds,
        f"grant queue accounting broke: {q.pending} pending, "
        f"{q.granted} granted",
    )


def _run_spin_livelock(sim: Simulator) -> None:
    """Two processes re-scheduling zero-delay events forever: simulated
    time never advances, the heap never drains — only the livelock
    detector can classify this."""

    def spinner() -> Generator:
        while True:
            yield sim.timeout(0.0)

    sim.process(spinner(), name="spin.a")
    sim.process(spinner(), name="spin.b")
    sim.run()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in [
        ScenarioSpec(
            "lock-writers",
            _run_lock_writers,
            "exclusive-lock read-modify-write counter, 3 writers",
        ),
        ScenarioSpec(
            "lockall-vs-lock",
            _run_lockall_vs_lock,
            "lock_all shared holder vs exclusive lockers on one rank",
        ),
        ScenarioSpec(
            "fence-vs-passive",
            _run_fence_vs_passive,
            "fence epochs racing passive-target locks on one window",
        ),
        ScenarioSpec(
            "split-during-icollective",
            _run_split_during_icollective,
            "comm split while a nonblocking allreduce is in flight",
        ),
        ScenarioSpec(
            "free-with-inflight-rput",
            _run_free_with_inflight_rput,
            "comm free with a live window / in-flight rput must raise",
        ),
        ScenarioSpec(
            "comm-free-drain",
            _run_comm_free_drain,
            "collective free drains pending p2p + background collective",
        ),
        ScenarioSpec(
            "pscw-skew",
            _run_pscw_skew,
            "overlapping partial-group PSCW post/start/complete skew",
        ),
        ScenarioSpec(
            "dcgn-completer",
            _run_dcgn_completer,
            "comm-thread completer multiplexing CPU and GPU-slot traffic",
        ),
        ScenarioSpec(
            "batch-drain-storm",
            _run_batch_drain_storm,
            "same-instant EventBatch drains vs timeouts on the "
            "event heap",
        ),
        ScenarioSpec(
            "sched-cancel-mid-placement",
            _run_sched_cancel_mid_placement,
            "cancel racing the placement delay's expiry instant",
        ),
        ScenarioSpec(
            "sched-free-race",
            _run_sched_free_race,
            "full-cluster job release racing queued + fresh admissions",
        ),
        ScenarioSpec(
            "sched-last-nodes",
            _run_sched_last_nodes,
            "two 3-node jobs contending for 4 nodes; never concurrent",
        ),
        ScenarioSpec(
            "buggy-double-alloc",
            _run_buggy_double_alloc,
            "KNOWN-BUGGY select/reserve TOCTOU; sweep must find the "
            "double allocation",
            expect=frozenset({"ok", "invariant-violation"}),
            must_find="invariant-violation",
        ),
        ScenarioSpec(
            "buggy-grant-queue",
            _run_buggy_grant_queue,
            "KNOWN-BUGGY lock-order inversion; sweep must find deadlock",
            expect=frozenset({"ok", "deadlock"}),
            must_find="deadlock",
        ),
        ScenarioSpec(
            "spin-livelock",
            _run_spin_livelock,
            "KNOWN-BUGGY zero-delay spin; sweep must classify livelock",
            expect=frozenset({"livelock"}),
            must_find="livelock",
        ),
    ]
}


def scenario_names() -> list:
    """All registered scenario names, registration-ordered."""
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name (KeyError lists the valid names)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; valid: {', '.join(SCENARIOS)}"
        ) from None
