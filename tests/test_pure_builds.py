"""Schedule builds are pure.

A builder reads its call's context and binding and writes only its
schedule: it claims no tag and bumps no ``comm.stats`` counter, on the
communicator or on any of its hierarchical sub-communicators (each rank
claims the recorded tags at issue).  So a build can run anywhere, any
number of times — on a plan miss, for every rank of a shape, for a rank
that hit a plan its peers missed — and always gives the same columns.
"""

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.mpi import MpiError, MpiJob, ReduceOp
from repro.mpi.algorithms.selector import SCHEDULES
from repro.mpi.collectives import MENU, OPS
from repro.sim import Simulator

CASES = ([(op, algo) for op, algos in SCHEDULES.items() for algo in algos]
         + [("barrier", None), ("gather", None), ("scatter", None)])

SCHEDULE_COLUMNS = ("kind", "deps", "round", "peer", "tag", "via", "ref",
                    "flags", "sizes", "scratch", "claims", "via_names", "sig",
                    "meta")
SHAPE_COLUMNS = ("lo", "kind", "round", "peer", "tag", "via", "flags", "rs",
                 "dep_n", "dep", "base", "size", "sc_g", "sc_n", "sc_dt",
                 "sc_adopt", "objs", "scratch", "claims", "via_names", "sigs",
                 "meta")


def _job(P, fabric):
    """One rank per node on the flat fabric; on the fat tree two ranks
    per node, each pair in a pod of its own (odd P: unequal pods)."""
    sim = Simulator()
    if fabric == "fattree":
        spec = ClusterSpec(nodes=2 * P, gpus_per_node=0, topology=TopologySpec(
            kind="fattree", pod_size=2, oversubscription=2.0))
        placement = [r // 2 * 2 for r in range(P)]
    else:
        spec = ClusterSpec(nodes=P, gpus_per_node=0)
        placement = list(range(P))
    return MpiJob(build_cluster(sim, spec), placement, backend="exact")


def _call(ctx, op, algo):
    """Rank ``ctx.rank``'s call of ``op`` (forced to ``algo``)."""
    P, r = ctx.size, ctx.rank
    send, recv = np.full(6, float(r)), np.zeros(6)
    blocks = [np.zeros(6) for _ in range(P)]
    args = {
        "bcast": (send, 0),
        "reduce": (send, recv, ReduceOp.SUM, 0),
        "allreduce": (send, recv),
        "allgather": (send, np.zeros(6 * P)),
        "alltoall": ([send] * P, blocks),
        "barrier": (),
        "gather": (send, blocks if r == 0 else None, 0),
        "scatter": (blocks if r == 0 else None, recv, 0),
    }[op]
    if algo is None:
        return OPS[op](ctx, *args)
    return MENU[op](ctx, algo, *args)


def _state(comm):
    """Tag sequences and counters of ``comm`` and its sub-communicators."""
    comms = [comm, *comm.hier_comms().children()]
    return [(list(c._coll_seq), dict(c.stats)) for c in comms]


def _columns(fn, args, names):
    """The columns ``names`` of what ``fn(*args)`` builds, or the error
    it raised."""
    try:
        obj = fn(*args)
    except MpiError as exc:
        return str(exc)
    return [v.tolist() if isinstance(v, np.ndarray) else v
            for v in (getattr(obj, name) for name in names)]


@pytest.mark.parametrize("fabric", ["flat", "fattree"])
@pytest.mark.parametrize("P", [1, 2, 5, 8])
@pytest.mark.parametrize("op,algo", CASES)
def test_builds_leave_communicator_state_alone(op, algo, P, fabric):
    comm = _job(P, fabric).comm
    comm.hier_comms()
    ctxs = [comm.ctx(r) for r in range(P)]
    calls = [_call(ctx, op, algo) for ctx in ctxs]
    before = _state(comm)
    for ctx, call in zip(ctxs, calls):
        assert (_columns(call.build, (ctx,), SCHEDULE_COLUMNS)
                == _columns(call.build, (ctx,), SCHEDULE_COLUMNS))
    if calls[0].wide:
        args = (comm, range(P))
        assert (_columns(calls[0].shape, args, SHAPE_COLUMNS)
                == _columns(calls[0].shape, args, SHAPE_COLUMNS))
    assert _state(comm) == before
