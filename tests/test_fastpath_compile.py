"""Pinned outputs of the fast-path compiler.

:meth:`FastPathEngine._compile_tape` turns every rank's schedule into
the plan's pricing tape.  These literals are what the compiler
produced for small shapes on four fabrics and for four 1024-rank
shapes, so a rewrite of the compiler shows up here as a changed
number, not as a drifting benchmark:

* per (fabric, op, algorithm), over P in {3, 8, 12} and one eager and
  one rendezvous size, under seeded arrival skew: every rank's
  completion time of every call (the first two compile, the third
  replays the retained plan), the ``wire_cost`` hits and misses,
  ``fastpath_rounds``, ``chan_bytes``, the channels' ``busy_s`` with
  accounting on (to 12 significant digits) and the recorded span
  tree;
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
        "counts": [st.wire_cost_hits, st.wire_cost_misses,
                   st.fastpath_rounds, st.chan_bytes,
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
    """One digest over P x size of every output, plus the wire counts
    in the clear (they say the most when a digest moves)."""
    cases = []
    for P in RANKS:
        if (op, algo) in POF2_ONLY and P & (P - 1):
            continue
        for nbytes in SIZES:
            cases.append(_case(fabric, op, algo, P, nbytes))
    return (_digest(cases), [c["counts"][:2] for c in cases])


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
#: ``wire_cost`` hits and misses).
SMALL = {
    ('fattree', 'allreduce', 'reduce_bcast'):
        ('9a385b84b68d9f01', [[5, 3], [18, 6], [18, 10], [64, 20], [28, 16], [100, 32]]),
    ('fattree', 'allreduce', 'recursive_doubling'):
        ('579c15e4caa95c43', [[5, 3], [18, 6], [36, 12], [120, 24], [40, 24], [144, 48]]),
    ('fattree', 'allreduce', 'ring'):
        ('abae703f5e2bf611', [[21, 3], [63, 9], [208, 16], [652, 20], [516, 12], [1542, 42]]),
    ('fattree', 'allreduce', 'hierarchical'):
        ('2e4a06d799972fdb', [[21, 3], [63, 9], [116, 12], [364, 20], [276, 12], [828, 36]]),
    ('fattree', 'allgather', 'ring'):
        ('bf91a1867de42412', [[9, 3], [30, 6], [104, 8], [316, 20], [252, 12], [762, 30]]),
    ('fattree', 'allgather', 'recursive_doubling'):
        ('4ebf9743f4af3b27', [[36, 12], [120, 24]]),
    ('fattree', 'allgather', 'bruck'):
        ('45771c4cb1e236b1', [[9, 3], [30, 6], [32, 16], [112, 32], [66, 30], [228, 60]]),
    ('fattree', 'allgather', 'hierarchical'):
        ('6c957d585f6a2897', [[4, 4], [17, 7], [28, 12], [96, 24], [66, 18], [216, 36]]),
    ('fattree', 'alltoall', 'shift'):
        ('7d375b8efd79f984', [[9, 3], [30, 6], [96, 16], [304, 32], [228, 36], [720, 72]]),
    ('fattree', 'alltoall', 'pairwise'):
        ('d201ca9bccb42b3d', [[96, 16], [304, 32]]),
    ('fattree', 'alltoall', 'bruck'):
        ('695f45df6e78a39a', [[9, 3], [30, 6], [36, 12], [116, 28], [72, 24], [234, 54]]),
    ('fattree', 'alltoall', 'hierarchical'):
        ('b1f9cac4dedf78ac', [[5, 3], [18, 6], [24, 16], [88, 32], [48, 36], [180, 72]]),
    ('fattree', 'bcast', 'binomial'):
        ('f60afbca2908b1d2', [[2, 2], [7, 5], [7, 7], [25, 17], [11, 11], [39, 27]]),
    ('fattree', 'bcast', 'pipelined'):
        ('2154442aad2d4d7c', [[2, 2], [125, 7], [7, 7], [217, 7], [11, 11], [341, 11]]),
    ('fattree', 'bcast', 'hierarchical'):
        ('2f5628f3f2bba1ac', [[2, 2], [7, 5], [7, 7], [25, 17], [11, 11], [39, 27]]),
    ('fattree', 'reduce', 'binomial'):
        ('78a9dd06e55192be', [[3, 1], [9, 3], [9, 5], [27, 15], [14, 8], [42, 24]]),
    ('fattree', 'reduce', 'rabenseifner'):
        ('583126c313793b24', [[5, 3], [19, 5], [38, 24], [154, 32], [41, 29], [167, 43]]),
    ('fattree', 'barrier', None):
        ('d14aa3a664136ddb', [[9, 3], [9, 3], [36, 12], [36, 12], [72, 24], [72, 24]]),
    ('flat', 'allreduce', 'reduce_bcast'):
        ('0d07e8f814b8faaf', [[4, 4], [16, 8], [14, 14], [56, 28], [22, 22], [88, 44]]),
    ('flat', 'allreduce', 'recursive_doubling'):
        ('c18af52e2fa4262b', [[4, 4], [16, 8], [24, 24], [96, 48], [32, 32], [128, 64]]),
    ('flat', 'allreduce', 'ring'):
        ('27a61232079e36ad', [[21, 3], [60, 12], [208, 16], [648, 24], [516, 12], [1536, 48]]),
    ('flat', 'allreduce', 'hierarchical'):
        ('5fbcb46576c1a7eb', [[21, 3], [60, 12], [208, 16], [648, 24], [516, 12], [1536, 48]]),
    ('flat', 'allgather', 'ring'):
        ('bad30c6618e12de0', [[9, 3], [27, 9], [104, 8], [312, 24], [252, 12], [756, 36]]),
    ('flat', 'allgather', 'recursive_doubling'):
        ('80861bf3cab5149a', [[24, 24], [96, 48]]),
    ('flat', 'allgather', 'bruck'):
        ('6cf24fd83aa15ef2', [[6, 6], [24, 12], [24, 24], [80, 64], [48, 48], [168, 120]]),
    ('flat', 'allgather', 'hierarchical'):
        ('69de0fff024bdf2a', [[9, 3], [27, 9], [104, 8], [312, 24], [252, 12], [756, 36]]),
    ('flat', 'alltoall', 'shift'):
        ('7045fa49b5421f99', [[6, 6], [24, 12], [56, 56], [224, 112], [132, 132], [528, 264]]),
    ('flat', 'alltoall', 'pairwise'):
        ('58b2b132d12e0d00', [[56, 56], [224, 112]]),
    ('flat', 'alltoall', 'bruck'):
        ('2afa3fbfa88f3868', [[6, 6], [24, 12], [24, 24], [80, 64], [48, 48], [168, 120]]),
    ('flat', 'alltoall', 'hierarchical'):
        ('59da6c2c48663874', [[6, 6], [24, 12], [56, 56], [224, 112], [132, 132], [528, 264]]),
    ('flat', 'bcast', 'binomial'):
        ('8114e4f8ad4092b7', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('flat', 'bcast', 'pipelined'):
        ('dec6dbad3623d187', [[2, 2], [124, 8], [7, 7], [217, 7], [11, 11], [341, 11]]),
    ('flat', 'bcast', 'hierarchical'):
        ('8569032a2a7fc077', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('flat', 'reduce', 'binomial'):
        ('73bf61be27ec5390', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('flat', 'reduce', 'rabenseifner'):
        ('bd6db35270409cd5', [[5, 3], [17, 7], [34, 28], [138, 48], [38, 32], [150, 60]]),
    ('flat', 'barrier', None):
        ('ca7d412540827200', [[6, 6], [6, 6], [24, 24], [24, 24], [48, 48], [48, 48]]),
    ('multirail', 'allreduce', 'reduce_bcast'):
        ('33d076bb84738dd2', [[4, 4], [16, 8], [14, 14], [56, 28], [22, 22], [88, 44]]),
    ('multirail', 'allreduce', 'recursive_doubling'):
        ('812d8829822cee01', [[4, 4], [16, 8], [24, 24], [96, 48], [32, 32], [128, 64]]),
    ('multirail', 'allreduce', 'ring'):
        ('8a59153c3eb3b7b3', [[21, 3], [60, 12], [208, 16], [648, 24], [516, 12], [1536, 48]]),
    ('multirail', 'allreduce', 'hierarchical'):
        ('8ede0b9e743a8821', [[21, 3], [60, 12], [208, 16], [648, 24], [516, 12], [1536, 48]]),
    ('multirail', 'allgather', 'ring'):
        ('81bd5829f6d2841e', [[9, 3], [27, 9], [104, 8], [312, 24], [252, 12], [756, 36]]),
    ('multirail', 'allgather', 'recursive_doubling'):
        ('bae4000019c1376c', [[24, 24], [96, 48]]),
    ('multirail', 'allgather', 'bruck'):
        ('9074aa6c58f3e300', [[6, 6], [24, 12], [24, 24], [80, 64], [48, 48], [168, 120]]),
    ('multirail', 'allgather', 'hierarchical'):
        ('5a16fb448010e359', [[9, 3], [27, 9], [104, 8], [312, 24], [252, 12], [756, 36]]),
    ('multirail', 'alltoall', 'shift'):
        ('56994f76c96f187a', [[6, 6], [24, 12], [56, 56], [224, 112], [132, 132], [528, 264]]),
    ('multirail', 'alltoall', 'pairwise'):
        ('4b8f3ba8de0b0043', [[56, 56], [224, 112]]),
    ('multirail', 'alltoall', 'bruck'):
        ('61a86618d798622b', [[6, 6], [24, 12], [24, 24], [80, 64], [48, 48], [168, 120]]),
    ('multirail', 'alltoall', 'hierarchical'):
        ('b322242e5c496269', [[6, 6], [24, 12], [56, 56], [224, 112], [132, 132], [528, 264]]),
    ('multirail', 'bcast', 'binomial'):
        ('bef6062cdb4104fe', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('multirail', 'bcast', 'pipelined'):
        ('384201fb2d5ddbdc', [[2, 2], [124, 8], [7, 7], [217, 7], [11, 11], [341, 11]]),
    ('multirail', 'bcast', 'hierarchical'):
        ('9c0cbc663bfe0695', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('multirail', 'reduce', 'binomial'):
        ('6684da64ccfd3aff', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('multirail', 'reduce', 'rabenseifner'):
        ('c5353a3042ee5759', [[5, 3], [17, 7], [34, 28], [138, 48], [38, 32], [150, 60]]),
    ('multirail', 'barrier', None):
        ('907f4d1344825e93', [[6, 6], [6, 6], [24, 24], [24, 24], [48, 48], [48, 48]]),
    ('torus', 'allreduce', 'reduce_bcast'):
        ('0c98a7fd3a61ca87', [[4, 4], [16, 8], [14, 14], [56, 28], [22, 22], [88, 44]]),
    ('torus', 'allreduce', 'recursive_doubling'):
        ('143a756f0b55b2b4', [[4, 4], [16, 8], [24, 24], [96, 48], [32, 32], [128, 64]]),
    ('torus', 'allreduce', 'ring'):
        ('bcd3d3ac4677232c', [[21, 3], [60, 12], [208, 16], [648, 24], [516, 12], [1536, 48]]),
    ('torus', 'allreduce', 'hierarchical'):
        ('c10449046c1be9e9', [[21, 3], [60, 12], [208, 16], [648, 24], [516, 12], [1536, 48]]),
    ('torus', 'allgather', 'ring'):
        ('89ab639d9adb54a1', [[9, 3], [27, 9], [104, 8], [312, 24], [252, 12], [756, 36]]),
    ('torus', 'allgather', 'recursive_doubling'):
        ('e14626110fbf69f6', [[24, 24], [96, 48]]),
    ('torus', 'allgather', 'bruck'):
        ('ef258c53ca9ad7c5', [[6, 6], [24, 12], [24, 24], [80, 64], [48, 48], [168, 120]]),
    ('torus', 'allgather', 'hierarchical'):
        ('5cb0ec60a3e9f60d', [[9, 3], [27, 9], [104, 8], [312, 24], [252, 12], [756, 36]]),
    ('torus', 'alltoall', 'shift'):
        ('049dad9073f86dec', [[6, 6], [24, 12], [56, 56], [224, 112], [132, 132], [528, 264]]),
    ('torus', 'alltoall', 'pairwise'):
        ('25eec2935b542ad5', [[56, 56], [224, 112]]),
    ('torus', 'alltoall', 'bruck'):
        ('28e18ac81726b901', [[6, 6], [24, 12], [24, 24], [80, 64], [48, 48], [168, 120]]),
    ('torus', 'alltoall', 'hierarchical'):
        ('78b923e7b75467db', [[6, 6], [24, 12], [56, 56], [224, 112], [132, 132], [528, 264]]),
    ('torus', 'bcast', 'binomial'):
        ('881f90ba84fa2156', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('torus', 'bcast', 'pipelined'):
        ('ebbc3e85ea249a78', [[2, 2], [124, 8], [7, 7], [217, 7], [11, 11], [341, 11]]),
    ('torus', 'bcast', 'hierarchical'):
        ('f980ab6bc20c6342', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('torus', 'reduce', 'binomial'):
        ('663af6bdd418607a', [[2, 2], [6, 6], [7, 7], [21, 21], [11, 11], [33, 33]]),
    ('torus', 'reduce', 'rabenseifner'):
        ('affeb10bcc4bedc9', [[5, 3], [17, 7], [34, 28], [138, 48], [38, 32], [150, 60]]),
    ('torus', 'barrier', None):
        ('155e6bc40f032bb7', [[6, 6], [6, 6], [24, 24], [24, 24], [48, 48], [48, 48]]),
}
