"""A forced algorithm takes the op table's path.

``ALGORITHMS[op][algo]`` runs the op's own call builder with the
algorithm fixed instead of selected, so a forced call counts, checks its
buffers at issue, names its span and interns its plan exactly like a
``CollectiveTuning(force_<op>=algo)`` call of the same collective.
"""

import numpy as np
import pytest

from repro.hw import build_cluster, paper_cluster
from repro.mpi import (
    ALGORITHMS, CollectiveTuning, MpiError, MpiJob, ReduceOp,
    block_placement,
)
from repro.sim import Simulator

P = 4
MENU = [(op, algo) for op, algos in ALGORITHMS.items() for algo in algos]


def _args(op, rank):
    """One rank's arguments of a small ``op`` call."""
    send, recv = np.full(8, float(rank + 1)), np.zeros(8)
    if op == "bcast":
        return (send, 0)
    if op == "reduce":
        return (send, recv, ReduceOp.SUM, 0)
    if op == "allreduce":
        return (send, recv)
    if op == "allgather":
        return (send[:2], np.zeros(2 * P))
    return ([np.full(2, float(rank))] * P, [np.zeros(2) for _ in range(P)])


def _observe(backend, op, algo, pinned, args=_args):
    """Two calls of ``op`` on four ranks, forced to ``algo`` through
    ``ALGORITHMS`` (``pinned``) or the tuning; what they leave behind:
    the collective spans, ``comm.stats``, plan hits and simulated time,
    or the error the run raised."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=P))
    rec = sim.attach_spans()
    tuning = None if pinned else CollectiveTuning(**{f"force_{op}": algo})
    job = MpiJob(cluster, block_placement(P, P), backend=backend,
                 tuning=tuning)

    def prog(ctx):
        for _ in range(2):
            a = args(op, ctx.rank)
            if pinned:
                yield from ALGORITHMS[op][algo](ctx, *a)
            else:
                yield from getattr(ctx, op)(*a)

    job.start(prog)
    try:
        job.run()
    except MpiError as exc:
        return type(exc), str(exc)
    spans = sorted((s.name, s.track, s.t0, s.t1, sorted(s.attrs.items()))
                   for s in rec.spans if s.category == "collective")
    return dict(spans=spans, stats=dict(job.comm.stats), now=sim.now,
                hits=sim.stats.fastpath_sched_cache_hits)


@pytest.mark.parametrize("backend", ["exact", "analytic"])
@pytest.mark.parametrize("op,algo", MENU)
def test_forced_entry_point_matches_forced_tuning(backend, op, algo):
    assert (_observe(backend, op, algo, pinned=True)
            == _observe(backend, op, algo, pinned=False))


@pytest.mark.parametrize("backend", ["exact", "analytic"])
def test_forced_ring_allreduce_counts_names_and_interns(backend):
    got = _observe(backend, "allreduce", "ring", pinned=True)
    assert {name for name, *_ in got["spans"]} == {"allreduce[ring]"}
    assert {dict(attrs)["nbytes"] for *_, attrs in got["spans"]} == {64}
    assert got["stats"] == {"allreduce": 2 * P, "allreduce[ring]": 2 * P}
    assert got["hits"] == (1 if backend == "analytic" else 0)


@pytest.mark.parametrize("backend", ["exact", "analytic"])
def test_forced_reduce_bcast_rejects_a_strided_recv_at_issue(backend):
    def strided(op, rank):
        return (np.ones(8), np.zeros((8, 2))[:, 0])

    for pinned in (True, False):
        err = _observe(backend, "allreduce", "reduce_bcast", pinned,
                       args=strided)
        assert err[0] is MpiError
        assert "recv buffer is not C-contiguous" in err[1]
