"""Compiled collective plans of the analytic fast path.

:class:`repro.mpi.algorithms.fastpath.Plan` holds what a collective
shape needs beyond its buffers and arrival times: the pricing tape
and the replay program lowered from its order.  A plan is kept from
its key's first sighting and replayed from then on, without running
any schedule builder, by every communicator of the same structure on
the fabric, so these tests check that a
replay is indistinguishable from a fresh compile — data, completion
times, payload counters, link accounting, span trees, and every
communicator's stats and tag sequence, bit for bit, under random
arrival skew — and that keys separate the shapes they must.
"""

import functools

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.mpi import (
    CollectiveTuning, MpiError, MpiJob, ReduceOp, pod_cyclic_placement,
)
from repro.mpi import collectives
from repro.mpi.algorithms import fastpath, selector
from repro.mpi.algorithms.schedule import Binding, Call, Schedule
from repro.sim import Simulator

#: Calls per job: the first compiles, the rest replay the plan.
CALLS = 3

#: (op, forced algorithm); ``pof2`` algorithms run at powers of two.
SHAPES = [
    ("allreduce", "reduce_bcast"),
    ("allreduce", "recursive_doubling"),
    ("allreduce", "ring"),
    ("allgather", "ring"),
    ("allgather", "recursive_doubling"),
    ("allgather", "bruck"),
    ("alltoall", "shift"),
    ("alltoall", "pairwise"),
    ("alltoall", "bruck"),
    ("bcast", "binomial"),
    ("bcast", "pipelined"),
    ("reduce", "binomial"),
    ("reduce", "rabenseifner"),
    ("barrier", None),
]
POF2_ONLY = {("allgather", "recursive_doubling"), ("alltoall", "pairwise")}
DTYPES = (np.float32, np.float64, np.int64)
#: Bytes per rank contribution: one eager, one past the 8 KB
#: rendezvous threshold.
SIZES = (96, 12 * 1024)


def _tuning(op, algo):
    if algo is None:
        return None
    return CollectiveTuning(**{f"force_{op}": algo})


def _collective(ctx, op, dtype, count, flat, rng):
    """One call of ``op``; returns the rank's result bytes."""
    P, r = ctx.size, ctx.rank

    def vec(n):
        return rng.integers(0, 100, n).astype(dtype)

    if op == "allreduce":
        out = np.zeros(count, dtype=dtype)
        yield from ctx.allreduce(vec(count), out, op=ReduceOp.SUM)
        return out.tobytes()
    if op == "reduce":
        out = np.zeros(count, dtype=dtype)
        yield from ctx.reduce(vec(count), out, op=ReduceOp.MAX, root=P - 1)
        return out.tobytes()
    if op == "bcast":
        buf = vec(count) if r == 0 else np.zeros(count, dtype=dtype)
        yield from ctx.bcast(buf, root=0)
        return buf.tobytes()
    if op == "allgather":
        block = max(1, count // P)
        if flat:
            recv = np.zeros(block * P, dtype=dtype)
            yield from ctx.allgather(vec(block), recv)
            return recv.tobytes()
        recv = [np.zeros(block, dtype=dtype) for _ in range(P)]
        yield from ctx.allgather(vec(block), recv)
        return b"".join(b.tobytes() for b in recv)
    if op == "alltoall":
        block = max(1, count // P)
        recv = [np.zeros(block, dtype=dtype) for _ in range(P)]
        yield from ctx.alltoall([vec(block) for _ in range(P)], recv)
        return b"".join(b.tobytes() for b in recv)
    yield from ctx.barrier()
    return b""


def _comm_state(job):
    """Every communicator's stats and per-rank tag sequence (the world
    and, once built, its hierarchical sub-communicators)."""
    comms = [job.comm]
    if job.comm._hier is not None:
        comms += job.comm._hier.children()
    return [(c.name, dict(c.stats), list(c._coll_seq)) for c in comms]


#: A fragmented 2:1 fat tree: pods of 4 nodes, ranks dealt pod-cyclic,
#: so the hierarchical schedules have >= 2 locality groups per size.
HIER_NODES = 8


def _hier_cluster(sim, P):
    spec = ClusterSpec(
        nodes=HIER_NODES, gpus_per_node=0,
        topology=TopologySpec(kind="fattree", pod_size=4,
                              oversubscription=2.0),
    )
    return build_cluster(sim, spec), pod_cyclic_placement(HIER_NODES, 4)[:P]


def run(op, algo, P, dtype, nbytes, backend, observed, seed=0,
        flat=False, calls=CALLS, hier=False):
    """``calls`` skewed calls of one collective; everything a replay
    must reproduce: per-call completion times and data, payload
    counters, communicator stats and tag sequences, and (``observed``)
    link accounting and spans."""
    sim = Simulator()
    if hier:
        cluster, placement = _hier_cluster(sim, P)
    else:
        cluster = build_cluster(sim, ClusterSpec(nodes=P, gpus_per_node=0))
        placement = list(range(P))
    cluster.topology.accounting = observed
    rec = sim.attach_spans() if observed else None
    job = MpiJob(cluster, placement, tuning=_tuning(op, algo),
                 backend=backend)
    count = max(1, nbytes // np.dtype(dtype).itemsize)
    out = {}

    def prog(ctx):
        rng = np.random.default_rng([seed, ctx.rank])
        for call in range(calls):
            yield ctx.sim.timeout(float(rng.random()) * 2e-5)
            data = yield from _collective(ctx, op, dtype, count, flat, rng)
            out[ctx.rank, call] = (ctx.sim.now, data)

    job.start(prog)
    job.run()
    stats = sim.stats
    result = {
        "out": out,
        "counters": (stats.payload_copies, stats.payload_views,
                     stats.payload_adopted, stats.fastpath_collectives,
                     stats.fastpath_rounds, stats.chan_bytes),
        "comms": _comm_state(job),
    }
    if observed:
        result["busy"] = [ch.busy_s for ch in cluster.topology.channels()]
        result["spans"] = [
            (s.name, s.category, s.track, s.t0, s.t1, s.parent, s.attrs)
            for s in rec.spans
        ]
    return result, stats.fastpath_sched_cache_hits, job


@pytest.mark.parametrize("P", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("op,algo", SHAPES)
def test_replay_equals_fresh_compile(op, algo, P, monkeypatch):
    """Every call compiled afresh (no plan retained) and calls that
    replay a retained plan agree bit for bit, under seeded random
    arrival skew, on both fast-path backends."""
    if (op, algo) in POF2_ONLY and P & (P - 1):
        pytest.skip("power-of-two algorithm")
    cases = [
        (dtype, nbytes, backend, observed)
        for dtype in DTYPES for nbytes in SIZES
        for backend, observed in (("analytic", False), ("analytic", True),
                                  ("pricing", True))
    ]
    for seed, (dtype, nbytes, backend, observed) in enumerate(cases):
        # Odd seeds gather into one flat buffer (allgather's span path).
        args = (op, algo, P, dtype, nbytes, backend, observed, seed,
                seed % 2 == 1)
        replayed, hits, _ = run(*args)
        monkeypatch.setattr(fastpath, "PLAN_STEP_BUDGET", 0)
        fresh, fresh_hits, _ = run(*args)
        monkeypatch.undo()
        assert hits == CALLS - 1, args
        assert fresh_hits == 0
        assert replayed == fresh, args


def test_large_plans_replay_as_levels():
    """A 256-rank retained plan runs its tape as several numpy levels
    and its replays match fresh compiles; a barrier moves no data, so
    it has no replay program, while an allreduce has one."""
    for op, nbytes in (("barrier", 0), ("allreduce", 96)):
        replayed, hits, job = run(op, None, 256, np.float64, nbytes,
                                  "analytic", True, calls=4)
        (plan,) = job.comm.engine._held
        assert len(plan.levels) > 1 and hits == 3
        assert (plan.program is None) == (op == "barrier")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fastpath, "PLAN_STEP_BUDGET", 0)
            fresh, _, _ = run(op, None, 256, np.float64, nbytes,
                              "analytic", True, calls=4)
        assert replayed == fresh, op


def test_repeated_data_collectives_hit_the_plan():
    """Data-carrying collectives intern their plans too: every call
    from the second on is a hit, whatever the arrival skew."""
    _, hits, job = run("allreduce", None, 8, np.float64, 4096,
                       "analytic", False, calls=6)
    assert hits == 5
    assert len(job.comm.engine._held) == 1


def test_dtype_separates_ring_allreduce_keys():
    """float32 and float64 vectors of equal byte size chunk differently
    in the ring; both shapes alternate without tripping the hit check."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    job = MpiJob(cluster, list(range(4)), backend="analytic",
                 tuning=CollectiveTuning(force_allreduce="ring"))
    got = {}

    def prog(ctx):
        for call in range(6):
            dtype = (np.float32, np.float64)[call % 2]
            n = 24 // np.dtype(dtype).itemsize
            out = np.zeros(n, dtype=dtype)
            yield from ctx.allreduce(np.full(n, ctx.rank + 1, dtype), out)
            got[ctx.rank, call] = out

    job.start(prog)
    job.run()
    assert all(np.all(v == 10) for v in got.values())
    keys = sorted(p.key[4] for p in job.comm.engine._held)
    assert keys == ["<f4", "<f8"]
    assert sim.stats.fastpath_sched_cache_hits == 4


def test_allgather_layout_separates_keys():
    """Recursive doubling into one flat array (zero-copy span path) and
    into separate arrays (pack path) are different DAGs; the receive
    layout, known at dispatch, keeps their plans apart."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    job = MpiJob(cluster, list(range(4)), backend="analytic",
                 tuning=CollectiveTuning(force_allgather="recursive_doubling"))
    ok = []

    def prog(ctx):
        for call in range(6):
            _, data = yield from _gather_once(ctx, flat=call % 2 == 0)
            ok.append(data == list(range(4)))

    job.start(prog)
    job.run()
    assert all(ok) and len(ok) == 24
    keys = {p.key[-1] for p in job.comm.engine._held}
    assert keys == {"flat", np.dtype(np.int64).str}
    assert sim.stats.fastpath_sched_cache_hits == 4


def _gather_once(ctx, flat):
    P = ctx.size
    mine = np.array([ctx.rank], dtype=np.int64)
    if flat:
        recv = np.zeros(P, dtype=np.int64)
        yield from ctx.allgather(mine, recv)
        return ctx.sim.now, recv.tolist()
    recv = [np.zeros(1, dtype=np.int64) for _ in range(P)]
    yield from ctx.allgather(mine, recv)
    return ctx.sim.now, [int(b[0]) for b in recv]


def test_mixed_layouts_after_a_retained_plan():
    """Once the flat layout's plan is retained, a call where only some
    ranks pass the flat array hits on those ranks at issue; the
    instance's keys disagree, so it compiles afresh — building the
    hitting ranks' shapes on the tags they already claimed."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    job = MpiJob(cluster, list(range(4)), backend="analytic",
                 tuning=CollectiveTuning(force_allgather="recursive_doubling"))
    ok = []

    def prog(ctx):
        for call in range(4):
            flat = call < 2 or ctx.rank % 2 == 0
            _, data = yield from _gather_once(ctx, flat=flat)
            ok.append(data == list(range(4)))
        yield from ctx.barrier()

    job.start(prog)
    job.run()
    assert all(ok) and len(ok) == 16
    assert sim.stats.fastpath_sched_cache_hits == 1
    assert job.comm._coll_seq == [5] * 4


def test_vector_allgather_is_never_interned():
    """Unequal blocks (the vector variant) carry no plan key."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    job = MpiJob(cluster, list(range(4)), backend="analytic")

    def prog(ctx):
        for _ in range(4):
            recv = [np.zeros(j + 1) for j in range(ctx.size)]
            yield from ctx.allgather(np.full(ctx.rank + 1, 1.0), recv)

    job.start(prog)
    job.run()
    engine = job.comm.engine
    assert sim.stats.fastpath_collectives == 4
    assert sim.stats.fastpath_sched_cache_hits == 0
    assert not engine._held and not cluster.topology.plans


def test_wrong_key_builder_raises():
    """A builder that stamps one key on two different shapes is caught
    at the first hit whose binding disagrees with the plan."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=2, gpus_per_node=0))
    job = MpiJob(cluster, [0, 1], backend="analytic")

    def build_fixture(ctx, b):
        sched = Schedule(ctx, b)
        if ctx.rank == 0:
            sched.send(0, 1, tag=1)
        else:
            sched.recv(0, 0, tag=1)
        return sched

    def prog(ctx):
        for nbytes in (8, 8, 16):
            b = Binding((np.zeros(nbytes, dtype=np.uint8),))
            call = Call("fixture", "fixture", nbytes, ("fixture",), b,
                        build_fixture)
            yield from ctx.comm.engine.execute(ctx, call)

    job.start(prog)
    with pytest.raises(MpiError, match="fixture"):
        job.run()


# ---------------------------------------------------------------------------
# Plan hits run no builder
# ---------------------------------------------------------------------------

def _count_builds(monkeypatch):
    """Wrap every dispatched ``build_*`` to count its calls."""
    counter = {"n": 0}

    def counting(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counter["n"] += 1
            return fn(*args, **kwargs)
        return wrapped

    for menu in selector.SCHEDULES.values():
        for name, fn in list(menu.items()):
            monkeypatch.setitem(menu, name, counting(fn))
    monkeypatch.setattr(collectives, "build_barrier_dissemination",
                        counting(collectives.build_barrier_dissemination))
    return counter


@pytest.mark.parametrize("backend", ["analytic", "pricing"])
@pytest.mark.parametrize("P", [4, 5])
@pytest.mark.parametrize("op,algo", SHAPES)
def test_plan_hits_run_no_builder(op, algo, P, backend, monkeypatch):
    """Six calls of one shape build it once (the key's first sighting
    compiles): a wide builder once for all ranks, a per-rank one once
    per rank; the five hits bind and replay."""
    if (op, algo) in POF2_ONLY and P & (P - 1):
        pytest.skip("power-of-two algorithm")
    counter = _count_builds(monkeypatch)
    _, hits, _ = run(op, algo, P, np.float64, 96, backend, False, calls=6)
    assert hits == 5
    menu = selector.SCHEDULES.get(op, {})
    builder = (menu[algo] if algo in menu
               else collectives.build_barrier_dissemination)
    assert counter["n"] == (1 if getattr(builder, "wide", False) else P)


HIER_SHAPES = [
    ("allreduce", "hierarchical"),
    ("allgather", "hierarchical"),
    ("alltoall", "hierarchical"),
    ("bcast", "hierarchical"),
]


@pytest.mark.parametrize("P", [5, 8])
@pytest.mark.parametrize("op,algo", HIER_SHAPES)
def test_hierarchical_replay_equals_fresh_compile(op, algo, P, monkeypatch):
    """The sub-communicator compositions on a fragmented fat tree (P=8:
    equal pods, P=5: unequal): replays match fresh compiles, including
    the sub-communicators' stats and tag sequences, flat allgather
    receives included."""
    cases = [
        (dtype, nbytes, backend, observed)
        for dtype in (np.float64, np.int64) for nbytes in SIZES
        for backend, observed in (("analytic", True), ("pricing", True))
    ]
    for seed, (dtype, nbytes, backend, observed) in enumerate(cases):
        args = (op, algo, P, dtype, nbytes, backend, observed, seed,
                seed % 2 == 1)
        replayed, hits, job = run(*args, hier=True)
        assert job.comm.stats.get(f"{op}[{algo}]") == CALLS * P
        monkeypatch.setattr(fastpath, "PLAN_STEP_BUDGET", 0)
        fresh, fresh_hits, _ = run(*args, hier=True)
        monkeypatch.undo()
        assert hits == CALLS - 1 and fresh_hits == 0, args
        assert replayed == fresh, args


# ---------------------------------------------------------------------------
# Size mismatches are typed errors at issue
# ---------------------------------------------------------------------------

def _mismatched(op, algo, ctx):
    P = ctx.size
    if op == "allgather":
        return ctx.allgather(np.zeros(2), [np.zeros(4) for _ in range(P)])
    if op == "allgather-flat":
        return ctx.allgather(np.zeros(2), np.zeros(4 * P))
    if op == "allreduce":
        return ctx.allreduce(np.zeros(2), np.zeros(4))
    return ctx.alltoall([np.zeros(2) for _ in range(P)],
                        [np.zeros(4) for _ in range(P)])


@pytest.mark.parametrize("backend", ["exact", "analytic"])
@pytest.mark.parametrize("op,algo", [
    ("allgather", "ring"),
    ("allgather", "recursive_doubling"),
    ("allgather", "bruck"),
    ("allgather-flat", "ring"),
    ("allreduce", "reduce_bcast"),
    ("allreduce", "recursive_doubling"),
    ("allreduce", "ring"),
    ("alltoall", "shift"),
    ("alltoall", "pairwise"),
    ("alltoall", "bruck"),
])
def test_size_mismatch_raises_typed_error(op, algo, backend):
    """A send that does not fit the receive layout is an MpiError at
    dispatch naming the op and both sizes, on every backend."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    kind = op.split("-")[0]
    job = MpiJob(cluster, list(range(4)), backend=backend,
                 tuning=CollectiveTuning(**{f"force_{kind}": algo}))

    def prog(ctx):
        yield from _mismatched(op, algo, ctx)

    job.start(prog)
    recv = 128 if op == "allgather-flat" else 32
    with pytest.raises(MpiError, match=rf"{kind}: send buffer is 16 B but"
                                       rf" .* is {recv} B"):
        job.run()


@pytest.mark.parametrize("backend", ["exact", "analytic"])
def test_short_bcast_receive_raises(backend):
    """Non-roots passing a larger bcast buffer than the root's used to
    keep the buffer's stale tail: a collective receive that lands fewer
    bytes than its buffer is an MpiError naming the op (the exact
    engine checks the landed receive, the fast path the paired sizes
    at plan compile)."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    job = MpiJob(cluster, list(range(4)), backend=backend,
                 tuning=CollectiveTuning(force_bcast="binomial"))

    def prog(ctx):
        yield from ctx.bcast(np.ones(2 if ctx.rank == 0 else 4), root=0)

    job.start(prog)
    with pytest.raises(MpiError, match="bcast: a rank received 16 B into "
                                       "a 32 B buffer"):
        job.run()
