"""Pinned data results of the analytic fast path's replay.

Every analytic collective call, fresh compile or plan hit, runs its
plan's replay program against the call's buffers.  These literals were
captured from the replay before it was lowered to byte moves, so a
rewrite of the replay shows up here as a changed digest or counter, not
only as a disagreement between two runs of the new code:

* per rank, a digest of the bytes the rank holds after each of
  :data:`CALLS` calls (the first two compile, the third replays the
  retained plan), with fresh seeded data per call;
* ``(payload_copies, payload_views, payload_adopted)`` of the whole job;
* the job communicator's ``comm.stats``.

The cases cover adopt slots and donated sends (ring and
recursive-doubling allreduce, reduce), packed sends (Bruck), ``REBIND``
combines, the hierarchical shapes on a fat tree with several locality
groups, flat and per-block allgather receives, queued messages
(non-power-of-two folds; odd hierarchical shapes, whose queued
message is snapshotted), timing-only (``int``) payloads, a typed copy
into a strided receive buffer, a copy that converts dtypes, and a plan
hit whose receive buffer is laid out differently from the calls that
compiled it.
"""

import hashlib

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.mpi import CollectiveTuning, MpiJob, ReduceOp
from repro.sim import Simulator

#: Calls per job: the first two compile, the third replays the plan.
CALLS = 3


def _job(P, op, algo):
    """Two ranks per node, each node pair in a pod of its own, so the
    hierarchical shapes see several locality groups."""
    sim = Simulator()
    spec = ClusterSpec(nodes=2 * P, gpus_per_node=0,
                       topology=TopologySpec(kind="fattree", pod_size=2,
                                             oversubscription=2.0))
    tuning = CollectiveTuning(**{f"force_{op}": algo}) if algo else None
    return sim, MpiJob(build_cluster(sim, spec),
                       [r // 2 * 2 for r in range(P)], tuning=tuning,
                       backend="analytic")


def _data(rng, n, dtype):
    if np.dtype(dtype).kind == "f":
        return rng.standard_normal(n).astype(dtype)
    return rng.integers(-1000, 1000, n).astype(dtype)


def _strided(n, dtype):
    """A zeroed non-contiguous ``n``-vector and its base array."""
    base = np.zeros((n, 2), dtype=dtype)
    return base[:, 0], base


def _call(ctx, case, call, rng):
    """Run one call of ``case``; return the arrays the rank holds."""
    op, variant, count = case["op"], case.get("variant"), case["count"]
    P = ctx.size
    dt = case.get("dtype", np.int32)
    if op == "allreduce":
        send = _data(rng, count, dt)
        if variant == "strided" or (variant == "strided-last"
                                    and call == CALLS - 1):
            recv, base = _strided(count, case.get("recv_dtype", dt))
        else:
            recv = base = np.zeros(count, case.get("recv_dtype", dt))
        yield from ctx.allreduce(send, recv, op=case.get("rop", ReduceOp.SUM))
        return [send, base]
    if op == "reduce":
        send = _data(rng, count, dt)
        recv = np.zeros(count, dt) if ctx.rank == case["root"] else None
        yield from ctx.reduce(send, recv, op=case.get("rop", ReduceOp.SUM),
                              root=case["root"])
        return [send] + ([recv] if recv is not None else [])
    if op == "bcast":
        if variant == "timing":
            yield from ctx.bcast(count * 4, root=case["root"])
            return []
        buf = (_data(rng, count, dt) if ctx.rank == case["root"]
               else np.zeros(count, dt))
        yield from ctx.bcast(buf, root=case["root"])
        return [buf]
    if op == "allgather":
        if variant == "timing":
            yield from ctx.allgather(count * 4, P * count * 4)
            return []
        send = _data(rng, count, dt)
        if variant == "blocks":
            recv = [np.zeros(count, dt) for _ in range(P)]
        else:
            recv = np.zeros(count * P, dt)
        yield from ctx.allgather(send, recv)
        return [send] + (recv if isinstance(recv, list) else [recv])
    assert op == "alltoall"
    send = [_data(rng, count, dt) for _ in range(P)]
    recv = [np.zeros(count, dt) for _ in range(P)]
    yield from ctx.alltoall(send, recv)
    return send + recv


def run_case(case):
    """``(per-rank digests, payload counters, comm.stats)`` of one case."""
    P = case["P"]
    sim, job = _job(P, case["op"], case.get("algo"))
    digests = {}

    def prog(ctx):
        h = hashlib.sha256()
        rng = np.random.default_rng([P, ctx.rank])
        for call in range(CALLS):
            held = yield from _call(ctx, case, call, rng)
            for arr in held:
                h.update(str(arr.dtype).encode())
                h.update(np.ascontiguousarray(arr).tobytes())
        digests[ctx.rank] = h.hexdigest()[:12]

    job.start(prog)
    job.run()
    st = sim.stats
    return ([digests[r] for r in range(P)],
            (st.payload_copies, st.payload_views, st.payload_adopted),
            sorted(job.comm.stats.items()))


F64, I64 = np.float64, np.int64
CASES = {
    "allreduce-rd-P6": dict(op="allreduce", algo="recursive_doubling",
                            P=6, count=12, dtype=F64),
    "allreduce-rd-P8-max": dict(op="allreduce", algo="recursive_doubling",
                                P=8, count=5, dtype=F64, rop=ReduceOp.MAX),
    "allreduce-ring-P6": dict(op="allreduce", algo="ring", P=6, count=25,
                              dtype=F64),
    "allreduce-reduce_bcast-P6": dict(op="allreduce", algo="reduce_bcast",
                                      P=6, count=7, dtype=F64),
    "allreduce-hierarchical-P6": dict(op="allreduce", algo="hierarchical",
                                      P=6, count=10, dtype=F64),
    "allreduce-rd-P6-strided": dict(op="allreduce",
                                    algo="recursive_doubling", P=6, count=8,
                                    dtype=F64, variant="strided"),
    "allreduce-ring-P4-strided-last": dict(op="allreduce", algo="ring", P=4,
                                           count=16, dtype=F64,
                                           variant="strided-last"),
    "allreduce-rd-P4-int-to-float": dict(op="allreduce",
                                         algo="recursive_doubling", P=4,
                                         count=6, dtype=I64, recv_dtype=F64),
    "reduce-binomial-P6": dict(op="reduce", algo="binomial", P=6, count=9,
                               dtype=F64, root=4),
    "reduce-rabenseifner-P6": dict(op="reduce", algo="rabenseifner", P=6,
                                   count=30, dtype=F64, root=1),
    "bcast-binomial-P6": dict(op="bcast", algo="binomial", P=6, count=4,
                              root=2),
    "bcast-pipelined-P6": dict(op="bcast", algo="pipelined", P=6,
                               count=20000, root=0),
    "bcast-hierarchical-P6": dict(op="bcast", algo="hierarchical", P=6,
                                  count=9, root=5),
    "bcast-binomial-P6-timing": dict(op="bcast", algo="binomial", P=6,
                                     count=16, root=1, variant="timing"),
    "allgather-ring-P6-flat": dict(op="allgather", algo="ring", P=6,
                                   count=3),
    "allgather-ring-P6-blocks": dict(op="allgather", algo="ring", P=6,
                                     count=3, variant="blocks"),
    "allgather-rd-P8-flat": dict(op="allgather", algo="recursive_doubling",
                                 P=8, count=4),
    "allgather-rd-P8-blocks": dict(op="allgather",
                                   algo="recursive_doubling", P=8, count=4,
                                   variant="blocks"),
    "allgather-bruck-P6-flat": dict(op="allgather", algo="bruck", P=6,
                                    count=5),
    "allgather-bruck-P6-blocks": dict(op="allgather", algo="bruck", P=6,
                                      count=5, variant="blocks"),
    "allgather-hierarchical-P6-flat": dict(op="allgather",
                                           algo="hierarchical", P=6,
                                           count=2),
    "allgather-hierarchical-P6-blocks": dict(op="allgather",
                                             algo="hierarchical", P=6,
                                             count=2, variant="blocks"),
    "allgather-ring-P6-timing": dict(op="allgather", algo="ring", P=6,
                                     count=8, variant="timing"),
    "allgather-hierarchical-P5-flat": dict(op="allgather",
                                           algo="hierarchical", P=5,
                                           count=3),
    "alltoall-hierarchical-P5": dict(op="alltoall", algo="hierarchical",
                                     P=5, count=3),
    "alltoall-shift-P6": dict(op="alltoall", algo="shift", P=6, count=3),
    "alltoall-pairwise-P8": dict(op="alltoall", algo="pairwise", P=8,
                                 count=2),
    "alltoall-bruck-P6": dict(op="alltoall", algo="bruck", P=6, count=3),
    "alltoall-hierarchical-P6": dict(op="alltoall", algo="hierarchical",
                                     P=6, count=2),
}

#: Case -> (per-rank digests, payload counters, comm.stats).
GOLDEN = {
    'allgather-bruck-P6-blocks': (
        ['489e887aacf7', 'b590fb161dcb', '27f041afdb86', '5ec082dd9486', '899f581ced0c', 'a8c4da6379bc'],
        (0, 54, 54),
        [('allgather', 18), ('allgather[bruck]', 18)]),
    'allgather-bruck-P6-flat': (
        ['08ab458721fd', '4d615dde38eb', '45ed893f4119', '409399aae60f', '4ee4df2fda1e', '3ad345ba5f49'],
        (0, 54, 54),
        [('allgather', 18), ('allgather[bruck]', 18)]),
    'allgather-hierarchical-P5-flat': (
        ['4a6e76f029c9', '08106fe70583', '20c50736dab5', '66d90b4bddf9', '508a1d790e0b'],
        (3, 27, 0),
        [('allgather', 15), ('allgather[hierarchical]', 15), ('comm_create', 1), ('comm_split', 2)]),
    'allgather-hierarchical-P6-blocks': (
        ['599d8ebb42dc', '061efac3566f', '3523faa2bddb', '9a44a7a013f5', 'e86a197f8369', '40d266e40bec'],
        (0, 36, 0),
        [('allgather', 18), ('allgather[hierarchical]', 18), ('comm_create', 1), ('comm_split', 3)]),
    'allgather-hierarchical-P6-flat': (
        ['cccc8efacc1d', '3d07e0b669f2', '5bb540991d1f', '36125ce75d25', '19247767c03f', '3c4857c0b940'],
        (0, 36, 0),
        [('allgather', 18), ('allgather[hierarchical]', 18), ('comm_create', 1), ('comm_split', 3)]),
    'allgather-rd-P8-blocks': (
        ['d05c2acdf46b', '7f082c77af84', '2aa4b85eb3e8', '19951d2bbd48', '41722ae10a6a', '17484a88fe0c', '6d515c349853', 'ae54e25a6ae7'],
        (0, 72, 72),
        [('allgather', 24), ('allgather[recursive_doubling]', 24)]),
    'allgather-rd-P8-flat': (
        ['9ba6c991b7ae', 'c0c13fee4e71', '74d5909f6752', '302b1414c157', 'c871d0f74d96', '464022279da2', '341b588832db', 'e082ad2e28e7'],
        (0, 72, 0),
        [('allgather', 24), ('allgather[recursive_doubling]', 24)]),
    'allgather-ring-P6-blocks': (
        ['f76e0d0f6286', '6438d71cb48f', '7d196d4d79a2', '726ee1591ad6', '2d0a02bd204b', 'dd445cb01134'],
        (0, 90, 0),
        [('allgather', 18), ('allgather[ring]', 18)]),
    'allgather-ring-P6-flat': (
        ['8a5ce8bf95ee', 'b8dd615fb489', '1ec7b33a4112', '72267ef58957', '56643b40bc3f', '218c574a1035'],
        (0, 90, 0),
        [('allgather', 18), ('allgather[ring]', 18)]),
    'allgather-ring-P6-timing': (
        ['e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc'],
        (0, 0, 0),
        [('allgather', 18), ('allgather[ring]', 18)]),
    'allreduce-hierarchical-P6': (
        ['2f6e20bdbd01', '05ac9b8a3fdf', 'afadbe14d520', '43af049ada23', '74cf1d8f97de', 'a8d4bd669dd7'],
        (0, 108, 54),
        [('allreduce', 18), ('allreduce[hierarchical]', 18), ('comm_create', 1), ('comm_split', 3)]),
    'allreduce-rd-P4-int-to-float': (
        ['ccf1cd91a1a8', '0b4690c49baa', '60c751df8c58', '6b2c62e52716'],
        (0, 24, 24),
        [('allreduce', 12), ('allreduce[recursive_doubling]', 12)]),
    'allreduce-rd-P6': (
        ['bf8f2f3abe1e', 'ba73ad6c779b', 'ef48165d6461', 'c0ff97a9dcfa', 'eef26059c096', 'e3ffcf06c652'],
        (0, 36, 30),
        [('allreduce', 18), ('allreduce[recursive_doubling]', 18)]),
    'allreduce-rd-P6-strided': (
        ['552d84f1d6f5', '94f58c04cd8f', 'fa520060c66a', '5075f606f530', '3c1e47602799', '8aef7f479b03'],
        (0, 36, 30),
        [('allreduce', 18), ('allreduce[recursive_doubling]', 18)]),
    'allreduce-rd-P8-max': (
        ['81e40dc41671', '0d2cc17829e8', 'ce2cdc031f3d', '8123eebd8ec7', '5435bc490eb9', 'b778c088eb16', '872ff4e3c4dc', 'cd00b73611a1'],
        (0, 72, 72),
        [('allreduce', 24), ('allreduce[recursive_doubling]', 24)]),
    'allreduce-reduce_bcast-P6': (
        ['8338463051b6', '30c515128af7', '82feb7487521', '19b2f78003f7', 'd51b176c5895', '7e56d2c97c61'],
        (0, 30, 15),
        [('allreduce', 18), ('allreduce[reduce_bcast]', 18), ('bcast', 18), ('bcast[binomial]', 18), ('reduce', 18)]),
    'allreduce-ring-P4-strided-last': (
        ['b00ee1ff7001', '24a2cde23d65', '01a49c5b56ba', 'fbb2d80db17d'],
        (0, 72, 36),
        [('allreduce', 12), ('allreduce[ring]', 12)]),
    'allreduce-ring-P6': (
        ['ef319d4b7400', '228cda05d8d6', 'c91268670713', '33b9d974902b', 'f30358c81cb4', 'df059b4989a1'],
        (0, 180, 90),
        [('allreduce', 18), ('allreduce[ring]', 18)]),
    'alltoall-bruck-P6': (
        ['afecf0aaf45e', '46d728ef40db', 'd54e0c2d0c94', 'dabfa0baf80b', 'b5791a0045b7', '37cf1eb1fc0a'],
        (0, 54, 54),
        [('alltoall', 18), ('alltoall[bruck]', 18)]),
    'alltoall-hierarchical-P5': (
        ['a4fe0eea72bf', 'c16629ad984f', '600141504f3f', '9d0b1b90784d', '710c62655f7b'],
        (3, 27, 0),
        [('alltoall', 15), ('alltoall[hierarchical]', 15), ('comm_create', 1), ('comm_split', 2)]),
    'alltoall-hierarchical-P6': (
        ['a620551c83fd', 'eed285931608', '27fbebceb2b7', 'c09aa2fa1bf6', 'f458e93e76ff', '6eadcb9acb3b'],
        (0, 36, 0),
        [('alltoall', 18), ('alltoall[hierarchical]', 18), ('comm_create', 1), ('comm_split', 3)]),
    'alltoall-pairwise-P8': (
        ['07e2b1599eef', 'c084359faea6', '698e4daed318', '3eef4a92338f', '09fb4d084201', '0c6a512f6964', 'c318c00f9176', 'f17ac38465c9'],
        (0, 168, 0),
        [('alltoall', 24), ('alltoall[pairwise]', 24)]),
    'alltoall-shift-P6': (
        ['afecf0aaf45e', '46d728ef40db', 'd54e0c2d0c94', 'dabfa0baf80b', 'b5791a0045b7', '37cf1eb1fc0a'],
        (0, 90, 0),
        [('alltoall', 18), ('alltoall[shift]', 18)]),
    'bcast-binomial-P6': (
        ['350927b64231', '350927b64231', '350927b64231', '350927b64231', '350927b64231', '350927b64231'],
        (0, 15, 0),
        [('bcast', 18), ('bcast[binomial]', 18)]),
    'bcast-binomial-P6-timing': (
        ['e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc', 'e3b0c44298fc'],
        (0, 0, 0),
        [('bcast', 18), ('bcast[binomial]', 18)]),
    'bcast-hierarchical-P6': (
        ['83eac3adae77', '83eac3adae77', '83eac3adae77', '83eac3adae77', '83eac3adae77', '83eac3adae77'],
        (0, 15, 0),
        [('bcast', 18), ('bcast[hierarchical]', 18)]),
    'bcast-pipelined-P6': (
        ['7a28e72762fd', '7a28e72762fd', '7a28e72762fd', '7a28e72762fd', '7a28e72762fd', '7a28e72762fd'],
        (0, 60, 0),
        [('bcast', 18), ('bcast[pipelined]', 18)]),
    'reduce-binomial-P6': (
        ['97c483a20952', '5e95beb0f820', '9c37cd42e325', '3b1b287004bb', '02c52bff7f63', 'f289495ecddf'],
        (0, 15, 15),
        [('reduce', 18), ('reduce[binomial]', 18)]),
    'reduce-rabenseifner-P6': (
        ['4924582293ec', 'a220268d8838', '0ea8ebdfe8f9', 'a6d3c382d043', '545cfe3ef14e', 'c8f2743ff525'],
        (0, 39, 30),
        [('reduce', 18), ('reduce[rabenseifner]', 18)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_is_pinned(name):
    digests, counters, stats = run_case(CASES[name])
    want = GOLDEN[name]
    assert digests == want[0]
    assert counters == want[1]
    assert stats == want[2]
