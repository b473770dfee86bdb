"""Pinned outputs of the fast-path compiler.

:meth:`FastPathEngine._compile_tape` turns every rank's schedule into
the plan's pricing tape.  These literals are what the compiler
produced for small shapes on four fabrics and for four 1024-rank
shapes, so a rewrite of the compiler shows up here as a changed
number, not as a drifting benchmark:

* per (fabric, op, algorithm), over P in {3, 8, 12} and one eager and
  one rendezvous size, under seeded arrival skew: one digest of every
  rank's completion time of every call, ``fastpath_rounds``,
  ``chan_bytes``, the channels' ``busy_s`` with accounting on (to 12
  significant digits) and the recorded span tree; beside it, in the
  clear, the lookup counts (``wire_cost`` hits and misses, plan hits),
  which say how often a cache served, not what was priced;
* the P=1024 pricing points, which also equal their committed
  ``BENCH_scale.json`` records;
* a stalled shape and a short receive raise their ``MpiError``;
* the replay's structure over the same small grid on the analytic
  backend: each step ordered after its dependencies, and every
  delivery and opcode done once by the lowered program, whose moves
  stay inside their slots and read no adopt slot before it lands.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import _sig
from repro.bench.sweeps import collective_time
from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.mpi import CollectiveTuning, MpiError, MpiJob, ReduceOp
from repro.mpi.algorithms.fastpath import (
    FastPathEngine, _RUN, _SEND, _TAKE, _order,
)
from repro.mpi.algorithms.schedule import (
    COMPUTE, RECV, SEND, Binding, Call, Schedule,
)
from repro.sim import Simulator

KB = 1024

FABRICS = {
    "flat": TopologySpec(),
    "fattree": TopologySpec(kind="fattree", pod_size=2,
                            oversubscription=2.0),
    "torus": TopologySpec(kind="torus2d"),
    "multirail": TopologySpec(kind="multirail", rails=2),
}

#: (op, forced algorithm); ``None``: the selector's pick.
SHAPES = [
    ("allreduce", "reduce_bcast"),
    ("allreduce", "recursive_doubling"),
    ("allreduce", "ring"),
    ("allreduce", "hierarchical"),
    ("allgather", "ring"),
    ("allgather", "recursive_doubling"),
    ("allgather", "bruck"),
    ("allgather", "hierarchical"),
    ("alltoall", "shift"),
    ("alltoall", "pairwise"),
    ("alltoall", "bruck"),
    ("alltoall", "hierarchical"),
    ("bcast", "binomial"),
    ("bcast", "pipelined"),
    ("bcast", "hierarchical"),
    ("reduce", "binomial"),
    ("reduce", "rabenseifner"),
    ("barrier", None),
]
POF2_ONLY = {("allgather", "recursive_doubling"), ("alltoall", "pairwise")}
RANKS = (3, 8, 12)
#: Bytes per rank: every message eager, and (past the 16 kB eager
#: limit even for a twelfth of it) rendezvous.
SIZES = (96, 256 * KB)
CALLS = 3


def _cluster(sim, fabric, P):
    """Two ranks per node on the fat tree, each pair in a pod of its
    own (so the hierarchical shapes see several locality groups), one
    rank per node elsewhere."""
    if fabric == "fattree":
        nodes = 2 * P
        placement = [r // 2 * 2 for r in range(P)]
    else:
        nodes = P
        placement = list(range(P))
    spec = ClusterSpec(nodes=nodes, gpus_per_node=0,
                       topology=FABRICS[fabric])
    return build_cluster(sim, spec), placement


def _call(ctx, op, count):
    P = ctx.size

    def vec(n):
        return np.ones(n)

    if op == "allreduce":
        yield from ctx.allreduce(vec(count), np.zeros(count), op=ReduceOp.SUM)
    elif op == "reduce":
        yield from ctx.reduce(vec(count), np.zeros(count), op=ReduceOp.MAX,
                              root=P - 1)
    elif op == "bcast":
        yield from ctx.bcast(vec(count), root=0)
    elif op == "allgather":
        block = max(1, count // P)
        yield from ctx.allgather(vec(block), np.zeros(block * P))
    elif op == "alltoall":
        block = max(1, count // P)
        yield from ctx.alltoall([vec(block) for _ in range(P)],
                                [np.zeros(block) for _ in range(P)])
    else:
        yield from ctx.barrier()


def _case(fabric, op, algo, P, nbytes):
    """Everything the compiler decides for one shape, under skew."""
    sim = Simulator()
    cluster, placement = _cluster(sim, fabric, P)
    cluster.topology.accounting = True
    rec = sim.attach_spans()
    tuning = CollectiveTuning(**{f"force_{op}": algo}) if algo else None
    # The rendezvous size prices only: its replay would just copy data.
    backend = "analytic" if nbytes < 16 * KB else "pricing"
    job = MpiJob(cluster, placement, tuning=tuning, backend=backend)
    count = max(1, nbytes // 8)
    done = {}

    def prog(ctx):
        rng = np.random.default_rng([P, nbytes, ctx.rank])
        for call in range(CALLS):
            yield ctx.sim.timeout(float(rng.random()) * 2e-5)
            yield from _call(ctx, op, count)
            done[ctx.rank, call] = ctx.sim.now

    job.start(prog)
    job.run()
    st = sim.stats
    spans = [(s.name, s.category, s.track, s.t0, s.t1, s.parent,
              sorted(s.attrs.items()) if s.attrs else None)
             for s in rec.spans]
    return {
        "times": [done[k] for k in sorted(done)],
        "counts": [st.fastpath_rounds, st.chan_bytes],
        # How often a lookup hit: these move with plan retention, never
        # with what the compiler decides, so they stay out of the digest.
        "lookups": [st.wire_cost_hits, st.wire_cost_misses,
                    st.fastpath_sched_cache_hits],
        # To 12 digits: a channel's busy_s sums its legs in the order
        # they are priced, which the compiler picks; the last bits of
        # that float sum say nothing about the model.
        "busy": [float(f"{ch.busy_s:.12g}")
                 for ch in cluster.topology.channels()],
        "spans": spans,
    }


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def shape_digest(fabric, op, algo):
    """One digest over P x size of every output, plus the lookup counts
    in the clear: per case the ``wire_cost`` hits and misses and the
    plan hits."""
    cases = []
    for P in RANKS:
        if (op, algo) in POF2_ONLY and P & (P - 1):
            continue
        for nbytes in SIZES:
            cases.append(_case(fabric, op, algo, P, nbytes))
    lookups = [c.pop("lookups") for c in cases]
    return (_digest(cases), lookups)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("op,algo", SHAPES)
def test_small_shapes_are_pinned(fabric, op, algo):
    assert shape_digest(fabric, op, algo) == SMALL[fabric, op, algo]


#: (op, bytes) -> the simulated seconds of one pricing-backend call at
#: P=1024, one rank per node on the flat fabric.
LARGE = {
    ("barrier", 0): 1.8056521739130433e-05,
    ("allgather", 256): 0.0002549521739130435,
    ("allreduce", KB): 2.6960869565217388e-05,
    ("allreduce", 64 * KB): 0.0006184913043478261,
}


def _scale_record(op, nbytes):
    doc = json.loads((Path(__file__).parent.parent
                      / "BENCH_scale.json").read_text())
    size = f"{nbytes // KB} kB" if nbytes >= KB else f"{nbytes} B"
    prefix = f"P=1024 {op} {size} pricing="
    (rec,) = [r for r in doc["records"] if r["row"].startswith(prefix)]
    return rec["measured"]


def _p1024_barrier():
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=1024, gpus_per_node=0))
    job = MpiJob(cluster, list(range(1024)), backend="pricing")

    def prog(ctx):
        yield from ctx.barrier()

    job.start(prog)
    job.run()
    return sim.now


@pytest.mark.parametrize("op,nbytes", sorted(LARGE))
def test_p1024_pricing_is_pinned(op, nbytes):
    if op == "barrier":
        # BENCH_scale.json has no barrier row.
        assert _p1024_barrier() == LARGE[op, nbytes]
        return
    spec = ClusterSpec(nodes=1024, gpus_per_node=0)
    t, _, _ = collective_time(op, spec, nbytes, backend="pricing")
    assert t == LARGE[op, nbytes]
    assert _sig(t * 1e6) == _scale_record(op, nbytes)


def _raw_job(P=2):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=P, gpus_per_node=0))
    return sim, MpiJob(cluster, list(range(P)), backend="analytic")


def _run_shape(build):
    """Both ranks run one keyless call built by ``build(sched, rank)``."""
    sim, job = _raw_job()

    def builder(ctx, binding):
        sched = Schedule(ctx, binding)
        build(sched, ctx.rank)
        return sched

    def prog(ctx):
        call = Call("shape", "test", 0, None, Binding([np.zeros(64)]),
                    builder)
        yield from ctx.comm.engine.execute(ctx, call)

    job.start(prog)
    job.run()


def test_stalled_shape_raises():
    """Rank 0 receives from rank 1, which never sends."""
    def build(sched, rank):
        if rank == 0:
            sched.recv(0, 1, 7)

    with pytest.raises(MpiError, match=r"stalled.*\{0: 1\}"):
        _run_shape(build)


def test_short_receive_raises():
    """A 512 B receive matched by a 256 B send."""
    def build(sched, rank):
        if rank == 0:
            sched.send((0, 0, 256), 1, 7)
        else:
            sched.recv(0, 0, 7)

    with pytest.raises(MpiError, match="received 256 B into a 512 B"):
        _run_shape(build)


def _compiled(fabric, op, algo, P, monkeypatch):
    """``(plan, schedules, contexts)`` of every compile of one analytic
    call of the shape."""
    seen = []
    compile_tape = FastPathEngine._compile_tape

    def spy(self, plan, scheds, ctxs):
        seen.append((plan, scheds, ctxs))
        return compile_tape(self, plan, scheds, ctxs)

    monkeypatch.setattr(FastPathEngine, "_compile_tape", spy)
    sim = Simulator()
    cluster, placement = _cluster(sim, fabric, P)
    tuning = CollectiveTuning(**{f"force_{op}": algo}) if algo else None
    job = MpiJob(cluster, placement, tuning=tuning, backend="analytic")
    job.start(lambda ctx: _call(ctx, op, SIZES[0] // 8))
    job.run()
    monkeypatch.undo()
    return seen


def _partners(plan, scheds, ctxs):
    """Send <-> receive global ids: the k-th send on each (communicator,
    source, destination, tag) key meets the k-th receive."""
    ends = {SEND: {}, RECV: {}}
    for r, s in enumerate(scheds):
        for i, kind in enumerate(s.kind):
            if kind not in ends:
                continue
            tctx = s.ctxs[s.via[i]] if s.via[i] else ctxs[r]
            src, dst = ((tctx.rank, s.peer[i]) if kind == SEND
                        else (s.peer[i], tctx.rank))
            key = (id(tctx.comm), src, dst, s.tag[i])
            ends[kind].setdefault(key, []).append(plan.lo[r] + i)
    partner = {}
    for key, sends in ends[SEND].items():
        for gs, gr in zip(sends, ends[RECV][key]):
            partner[gs], partner[gr] = gr, gs
    return partner


def _program_slots(plan, scheds):
    """Each byte view's structural size, and the views a coded entry
    sets when an adopt slot lands."""
    prog = plan.program
    size = [scheds[r].sizes[s] for r, s in prog.init]
    size += [None] * prog.late
    lands = []
    for _moves, coded in prog.runs:
        sets = []
        if coded is not None and coded[0] == _RUN:
            sets = [(coded[1], slot, u) for slot, u in coded[3]]
        elif coded is not None and coded[0] in (_SEND, _TAKE):
            r, x, u = ((coded[4], coded[5], coded[6]) if coded[0] == _SEND
                       else (coded[1], coded[2], coded[4]))
            sets = [(r, x, u)] if u >= 0 else []
        for r, x, u in sets:
            size[u] = scheds[r].sizes[x]
        lands.append({u for _r, _x, u in sets})
    return size, lands


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("op,algo", SHAPES)
def test_replay_order_structure(fabric, op, algo, monkeypatch):
    """The replay order lets the data flow, and the program lowered
    from it does every delivery and opcode once: every step comes after
    the steps it depends on (a receive's data lands at its own position
    or at its send's, whichever is later); a pair whose receive comes
    first is one delivery (a move or a coded send), any other a queued
    message plus its take; every move copies equal byte ranges inside
    its slots and reads no adopt slot before the coded entry that lands
    it."""
    plans = 0
    for P in RANKS:
        if (op, algo) in POF2_ONLY and P & (P - 1):
            continue
        for plan, scheds, ctxs in _compiled(fabric, op, algo, P,
                                            monkeypatch):
            plans += 1
            partner = _partners(plan, scheds, ctxs)
            kind = np.array([k for s in scheds for k in s.kind])
            ref = [x for s in scheds for x in s.ref]
            pos = _order(plan, kind).tolist()
            assert sorted(pos) == list(range(plan.n_steps))
            for r, s in enumerate(scheds):
                for i, deps in enumerate(s.deps):
                    g = plan.lo[r] + i
                    for d in (plan.lo[r] + d for d in deps):
                        land = pos[d]
                        if kind[d] == RECV:
                            land = max(land, pos[partner[d]])
                        assert land < pos[g], (P, g, d)
            if op == "barrier":
                assert plan.program is None
                continue
            want = 0
            for g, x in enumerate(ref):
                if kind[g] == COMPUTE:
                    want += len(x)
                elif kind[g] == SEND and x is not None:
                    queued = pos[partner[g]] > pos[g]
                    want += 1 + (queued and ref[partner[g]] is not None)
            got = 0
            size, lands = _program_slots(plan, scheds)
            have = set(range(len(plan.program.init)))
            for (moves, coded), landed in zip(plan.program.runs, lands):
                for d, a, b, src, c, e in moves:
                    assert d in have and src in have, (P, d, src)
                    assert 0 <= a <= b <= size[d] and b - a == e - c, P
                    assert 0 <= c <= e <= size[src], P
                got += len(moves)
                if coded is not None:
                    got += len(coded[2]) if coded[0] == _RUN else 1
                have |= landed
            assert got == want, P
    assert plans


#: (fabric, op, algorithm) -> (digest of every case, per case the
#: ``wire_cost`` hits and misses and the plan hits).
SMALL = {
    ('fattree', 'allreduce', 'reduce_bcast'):
        ('ae95762fd8079e59', [[1, 3, 2], [6, 6, 2], [4, 10, 2], [22, 20, 2], [6, 16, 2], [34, 32, 2]]),
    ('fattree', 'allreduce', 'recursive_doubling'):
        ('7fd70291bc6e509f', [[1, 3, 2], [6, 6, 2], [12, 12, 2], [48, 24, 2], [8, 24, 2], [48, 48, 2]]),
    ('fattree', 'allreduce', 'ring'):
        ('4eedf28adef1feb9', [[9, 3, 2], [27, 9, 2], [96, 16, 2], [316, 20, 2], [252, 12, 2], [750, 42, 2]]),
    ('fattree', 'allreduce', 'hierarchical'):
        ('82f15beb3cb377f6', [[9, 3, 2], [27, 9, 2], [52, 12, 2], [172, 20, 2], [132, 12, 2], [396, 36, 2]]),
    ('fattree', 'allgather', 'ring'):
        ('87bfaac5448478a9', [[3, 3, 2], [12, 6, 2], [48, 8, 2], [148, 20, 2], [120, 12, 2], [366, 30, 2]]),
    ('fattree', 'allgather', 'recursive_doubling'):
        ('7a7ed848dc702851', [[12, 12, 2], [48, 24, 2]]),
    ('fattree', 'allgather', 'bruck'):
        ('91d3a792c0ad14f2', [[3, 3, 2], [12, 6, 2], [8, 16, 2], [40, 32, 2], [18, 30, 2], [84, 60, 2]]),
    ('fattree', 'allgather', 'hierarchical'):
        ('85b5a60c1fcd8bfa', [[0, 4, 2], [5, 7, 2], [8, 12, 2], [36, 24, 2], [24, 18, 2], [90, 36, 2]]),
    ('fattree', 'alltoall', 'shift'):
        ('39f04c0b60bbf892', [[3, 3, 2], [12, 6, 2], [40, 16, 2], [136, 32, 2], [96, 36, 2], [324, 72, 2]]),
    ('fattree', 'alltoall', 'pairwise'):
        ('44e0f5c680c8a3da', [[40, 16, 2], [136, 32, 2]]),
    ('fattree', 'alltoall', 'bruck'):
        ('a3044af72a6e675c', [[3, 3, 2], [12, 6, 2], [12, 12, 2], [44, 28, 2], [24, 24, 2], [90, 54, 2]]),
    ('fattree', 'alltoall', 'hierarchical'):
        ('f7ec819f002a37ec', [[1, 3, 2], [6, 6, 2], [4, 16, 2], [28, 32, 2], [6, 36, 2], [54, 72, 2]]),
    ('fattree', 'bcast', 'binomial'):
        ('4be35bcb23ba48bc', [[0, 2, 2], [1, 5, 2], [0, 7, 2], [4, 17, 2], [0, 11, 2], [6, 27, 2]]),
    ('fattree', 'bcast', 'pipelined'):
        ('ac19a793f9a6b30d', [[0, 2, 2], [59, 7, 2], [0, 7, 2], [105, 7, 2], [0, 11, 2], [165, 11, 2]]),
    ('fattree', 'bcast', 'hierarchical'):
        ('503198b93dd973c5', [[0, 2, 2], [1, 5, 2], [0, 7, 2], [4, 17, 2], [0, 11, 2], [6, 27, 2]]),
    ('fattree', 'reduce', 'binomial'):
        ('1d3aa0b7ff5277e1', [[1, 1, 2], [3, 3, 2], [2, 5, 2], [6, 15, 2], [3, 8, 2], [9, 24, 2]]),
    ('fattree', 'reduce', 'rabenseifner'):
        ('4c6e3ee793f6d6b9', [[1, 3, 2], [7, 5, 2], [7, 24, 2], [61, 32, 2], [6, 29, 2], [62, 43, 2]]),
    ('fattree', 'barrier', None):
        ('53503f60473042a6', [[3, 3, 2], [3, 3, 2], [12, 12, 2], [12, 12, 2], [24, 24, 2], [24, 24, 2]]),
    ('flat', 'allreduce', 'reduce_bcast'):
        ('64f50aa6a5445844', [[0, 4, 2], [4, 8, 2], [0, 14, 2], [14, 28, 2], [0, 22, 2], [22, 44, 2]]),
    ('flat', 'allreduce', 'recursive_doubling'):
        ('727841fc95a8899b', [[0, 4, 2], [4, 8, 2], [0, 24, 2], [24, 48, 2], [0, 32, 2], [32, 64, 2]]),
    ('flat', 'allreduce', 'ring'):
        ('60d29355560abd22', [[9, 3, 2], [24, 12, 2], [96, 16, 2], [312, 24, 2], [252, 12, 2], [744, 48, 2]]),
    ('flat', 'allreduce', 'hierarchical'):
        ('d817bf3d40d42de1', [[9, 3, 2], [24, 12, 2], [96, 16, 2], [312, 24, 2], [252, 12, 2], [744, 48, 2]]),
    ('flat', 'allgather', 'ring'):
        ('34ced000fe4b784f', [[3, 3, 2], [9, 9, 2], [48, 8, 2], [144, 24, 2], [120, 12, 2], [360, 36, 2]]),
    ('flat', 'allgather', 'recursive_doubling'):
        ('20442d166af6dc80', [[0, 24, 2], [24, 48, 2]]),
    ('flat', 'allgather', 'bruck'):
        ('28552bb2950f4049', [[0, 6, 2], [6, 12, 2], [0, 24, 2], [8, 64, 2], [0, 48, 2], [24, 120, 2]]),
    ('flat', 'allgather', 'hierarchical'):
        ('7f78db0625860c9b', [[3, 3, 2], [9, 9, 2], [48, 8, 2], [144, 24, 2], [120, 12, 2], [360, 36, 2]]),
    ('flat', 'alltoall', 'shift'):
        ('6eb14f31ddfdd499', [[0, 6, 2], [6, 12, 2], [0, 56, 2], [56, 112, 2], [0, 132, 2], [132, 264, 2]]),
    ('flat', 'alltoall', 'pairwise'):
        ('f14e928487a85048', [[0, 56, 2], [56, 112, 2]]),
    ('flat', 'alltoall', 'bruck'):
        ('215d5b885da9f365', [[0, 6, 2], [6, 12, 2], [0, 24, 2], [8, 64, 2], [0, 48, 2], [24, 120, 2]]),
    ('flat', 'alltoall', 'hierarchical'):
        ('7ecb268dbea281a3', [[0, 6, 2], [6, 12, 2], [0, 56, 2], [56, 112, 2], [0, 132, 2], [132, 264, 2]]),
    ('flat', 'bcast', 'binomial'):
        ('0cc9a766a4a920e7', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('flat', 'bcast', 'pipelined'):
        ('d947b2f8e560c664', [[0, 2, 2], [58, 8, 2], [0, 7, 2], [105, 7, 2], [0, 11, 2], [165, 11, 2]]),
    ('flat', 'bcast', 'hierarchical'):
        ('5a94506128d99416', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('flat', 'reduce', 'binomial'):
        ('02ed4cfb625a485c', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('flat', 'reduce', 'rabenseifner'):
        ('af270dafbc931615', [[1, 3, 2], [5, 7, 2], [3, 28, 2], [45, 48, 2], [3, 32, 2], [45, 60, 2]]),
    ('flat', 'barrier', None):
        ('bb569be8f4be587a', [[0, 6, 2], [0, 6, 2], [0, 24, 2], [0, 24, 2], [0, 48, 2], [0, 48, 2]]),
    ('multirail', 'allreduce', 'reduce_bcast'):
        ('3c119655d7eb3f84', [[0, 4, 2], [4, 8, 2], [0, 14, 2], [14, 28, 2], [0, 22, 2], [22, 44, 2]]),
    ('multirail', 'allreduce', 'recursive_doubling'):
        ('f714b0c0ecfc4bc2', [[0, 4, 2], [4, 8, 2], [0, 24, 2], [24, 48, 2], [0, 32, 2], [32, 64, 2]]),
    ('multirail', 'allreduce', 'ring'):
        ('630e00c4a2d2b205', [[9, 3, 2], [24, 12, 2], [96, 16, 2], [312, 24, 2], [252, 12, 2], [744, 48, 2]]),
    ('multirail', 'allreduce', 'hierarchical'):
        ('55dff6f8f98726f2', [[9, 3, 2], [24, 12, 2], [96, 16, 2], [312, 24, 2], [252, 12, 2], [744, 48, 2]]),
    ('multirail', 'allgather', 'ring'):
        ('e8bcb680a7dba1e9', [[3, 3, 2], [9, 9, 2], [48, 8, 2], [144, 24, 2], [120, 12, 2], [360, 36, 2]]),
    ('multirail', 'allgather', 'recursive_doubling'):
        ('e6c75ff315f61598', [[0, 24, 2], [24, 48, 2]]),
    ('multirail', 'allgather', 'bruck'):
        ('f94e201fe1ccb943', [[0, 6, 2], [6, 12, 2], [0, 24, 2], [8, 64, 2], [0, 48, 2], [24, 120, 2]]),
    ('multirail', 'allgather', 'hierarchical'):
        ('f6f4e910230f2410', [[3, 3, 2], [9, 9, 2], [48, 8, 2], [144, 24, 2], [120, 12, 2], [360, 36, 2]]),
    ('multirail', 'alltoall', 'shift'):
        ('e7c2d9993cfa07f4', [[0, 6, 2], [6, 12, 2], [0, 56, 2], [56, 112, 2], [0, 132, 2], [132, 264, 2]]),
    ('multirail', 'alltoall', 'pairwise'):
        ('1f11898a5d851d41', [[0, 56, 2], [56, 112, 2]]),
    ('multirail', 'alltoall', 'bruck'):
        ('e20a178ba22c0eaf', [[0, 6, 2], [6, 12, 2], [0, 24, 2], [8, 64, 2], [0, 48, 2], [24, 120, 2]]),
    ('multirail', 'alltoall', 'hierarchical'):
        ('129c1d3d8b0d4982', [[0, 6, 2], [6, 12, 2], [0, 56, 2], [56, 112, 2], [0, 132, 2], [132, 264, 2]]),
    ('multirail', 'bcast', 'binomial'):
        ('89f7fae5fd7a228c', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('multirail', 'bcast', 'pipelined'):
        ('5f6958a75071b848', [[0, 2, 2], [58, 8, 2], [0, 7, 2], [105, 7, 2], [0, 11, 2], [165, 11, 2]]),
    ('multirail', 'bcast', 'hierarchical'):
        ('092cd0c103a1c1a1', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('multirail', 'reduce', 'binomial'):
        ('6cce574fd3b8bd0c', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('multirail', 'reduce', 'rabenseifner'):
        ('a06c07dfd23a8b35', [[1, 3, 2], [5, 7, 2], [3, 28, 2], [45, 48, 2], [3, 32, 2], [45, 60, 2]]),
    ('multirail', 'barrier', None):
        ('a7c29fb62ed680ed', [[0, 6, 2], [0, 6, 2], [0, 24, 2], [0, 24, 2], [0, 48, 2], [0, 48, 2]]),
    ('torus', 'allreduce', 'reduce_bcast'):
        ('3833d15c5c8a641c', [[0, 4, 2], [4, 8, 2], [0, 14, 2], [14, 28, 2], [0, 22, 2], [22, 44, 2]]),
    ('torus', 'allreduce', 'recursive_doubling'):
        ('0babc732e3bb4daf', [[0, 4, 2], [4, 8, 2], [0, 24, 2], [24, 48, 2], [0, 32, 2], [32, 64, 2]]),
    ('torus', 'allreduce', 'ring'):
        ('cced0153b9292962', [[9, 3, 2], [24, 12, 2], [96, 16, 2], [312, 24, 2], [252, 12, 2], [744, 48, 2]]),
    ('torus', 'allreduce', 'hierarchical'):
        ('ea4254440aaca38c', [[9, 3, 2], [24, 12, 2], [96, 16, 2], [312, 24, 2], [252, 12, 2], [744, 48, 2]]),
    ('torus', 'allgather', 'ring'):
        ('707e42204c56ac29', [[3, 3, 2], [9, 9, 2], [48, 8, 2], [144, 24, 2], [120, 12, 2], [360, 36, 2]]),
    ('torus', 'allgather', 'recursive_doubling'):
        ('598069bd3912decc', [[0, 24, 2], [24, 48, 2]]),
    ('torus', 'allgather', 'bruck'):
        ('735ad0418bdb7b71', [[0, 6, 2], [6, 12, 2], [0, 24, 2], [8, 64, 2], [0, 48, 2], [24, 120, 2]]),
    ('torus', 'allgather', 'hierarchical'):
        ('00353d5506916c86', [[3, 3, 2], [9, 9, 2], [48, 8, 2], [144, 24, 2], [120, 12, 2], [360, 36, 2]]),
    ('torus', 'alltoall', 'shift'):
        ('dc876bc65d6eea93', [[0, 6, 2], [6, 12, 2], [0, 56, 2], [56, 112, 2], [0, 132, 2], [132, 264, 2]]),
    ('torus', 'alltoall', 'pairwise'):
        ('8156763e2ee83a66', [[0, 56, 2], [56, 112, 2]]),
    ('torus', 'alltoall', 'bruck'):
        ('757982e68735ff59', [[0, 6, 2], [6, 12, 2], [0, 24, 2], [8, 64, 2], [0, 48, 2], [24, 120, 2]]),
    ('torus', 'alltoall', 'hierarchical'):
        ('29246f51b7be92d0', [[0, 6, 2], [6, 12, 2], [0, 56, 2], [56, 112, 2], [0, 132, 2], [132, 264, 2]]),
    ('torus', 'bcast', 'binomial'):
        ('83b104dc919c493e', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('torus', 'bcast', 'pipelined'):
        ('a650715283ac9862', [[0, 2, 2], [58, 8, 2], [0, 7, 2], [105, 7, 2], [0, 11, 2], [165, 11, 2]]),
    ('torus', 'bcast', 'hierarchical'):
        ('ec62a78df47d1125', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('torus', 'reduce', 'binomial'):
        ('5b727378f417805b', [[0, 2, 2], [0, 6, 2], [0, 7, 2], [0, 21, 2], [0, 11, 2], [0, 33, 2]]),
    ('torus', 'reduce', 'rabenseifner'):
        ('1b6b00f106b02c30', [[1, 3, 2], [5, 7, 2], [3, 28, 2], [45, 48, 2], [3, 32, 2], [45, 60, 2]]),
    ('torus', 'barrier', None):
        ('217e8da98357cb9c', [[0, 6, 2], [0, 6, 2], [0, 24, 2], [0, 24, 2], [0, 48, 2], [0, 48, 2]]),
}
