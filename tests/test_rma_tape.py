"""The analytic RMA tape against the walk it replaced.

An analytic one-sided op is logged at issue and priced at its sync
point, together with every other op its window logged, as one tape
(``Window._settle``).  Before the tape, each op was priced alone at
issue by a scalar walk over per-node cursors.  That walk is kept here
as the reference, :class:`OracleWalk`, with its arithmetic unchanged.
Seeded random epochs run on the analytic backend while every batch a
window prices is captured; the oracle reprices the batch's rows in
issue order on its own cursors, which carry over from batch to batch as
the window's do, and every finish must match it bit for bit.
"""

import random

import numpy as np
import pytest

from repro.apps.jacobi import JacobiConfig, run_mpi
from repro.hw import ClusterSpec, build_cluster, paper_cluster
from repro.mpi import HEADER_BYTES, MpiJob, Window
from repro.mpi import rma_wire
from repro.sim import Simulator, us


class OracleWalk:
    """The per-op analytic pricer: each leg folded through per-node
    cursors — the origin NIC's injection path, the target's staging
    channel — and the per-pair accumulate order point."""

    def __init__(self, win):
        topo = win.comm.cluster.topology
        prof = topo.profile()
        self._alpha_inj = float(prof.alpha_s) / 2.0
        self._beta = float(prof.beta_s_per_B)
        self._wt = topo.wire_time
        self.placement = win.comm.placement
        self._tx_free = {}
        self._shm_free = {}
        self._acc_free = {}

    def _leg(self, src_node, dst_node, nbytes, t):
        if src_node == dst_node:
            return self._bounce_leg(src_node, nbytes, t)
        free = self._tx_free.get(src_node, 0.0)
        s = t if t >= free else free
        self._tx_free[src_node] = s + self._alpha_inj + nbytes * self._beta
        return s + self._wt(src_node, dst_node, nbytes)

    def _bounce_leg(self, node, nbytes, t):
        free = self._shm_free.get(node, 0.0)
        s = t if t >= free else free
        fin = s + self._wt(node, node, nbytes)
        self._shm_free[node] = fin
        return fin

    def price(self, row, origin, target, nbytes, t):
        o_n = self.placement[origin]
        t_n = self.placement[target]
        pair = None
        for leg, carries in row.legs:
            n = nbytes if carries else 0
            if leg == "req":
                t = self._leg(o_n, t_n, HEADER_BYTES + n, t)
            elif leg == "rsp":
                t += self._wt(t_n, o_n, HEADER_BYTES + n)
            elif leg == "stage":
                t = self._bounce_leg(t_n, n, t)
            elif leg == "order":
                pair = (origin, target)
                prev = self._acc_free.get(pair, 0.0)
                if prev > t:
                    t = prev
            elif leg == "apply" and pair is not None:
                self._acc_free[pair] = t
        return t


class Capture:
    """What the windows priced: ``batches`` of (window, logged rows,
    priced finishes), and how many tapes they compiled."""

    def __init__(self):
        self.batches = []
        self.compiles = 0


@pytest.fixture
def cap(monkeypatch):
    got = Capture()
    settle = Window._settle
    compile_ = rma_wire.TapePricer._compile

    def capture(self):
        log = self._log
        rows = [tuple(log[i : i + 6]) for i in range(0, len(log), 6)]
        fins = settle(self)
        if rows:
            got.batches.append((self, rows, fins))
        return fins

    def count(self, *rows):
        got.compiles += 1
        return compile_(self, *rows)

    monkeypatch.setattr(Window, "_settle", capture)
    monkeypatch.setattr(rma_wire.TapePricer, "_compile", count)
    return got


def check_against_oracle(seen):
    """Reprice every captured row on the oracle; returns the rows."""
    oracles = {}
    rows_seen = []
    for win, rows, fins in seen:
        if id(win) not in oracles:
            oracles[id(win)] = OracleWalk(win)
        oracle = oracles[id(win)]
        assert len(fins) == len(rows)
        for (o, t, code, nbytes, t0, _extra), fin in zip(rows, fins):
            row = rma_wire.ROWS[code]
            want = oracle.price(row, o, t, nbytes, t0)
            assert fin == want, (row.span, o, t, nbytes, fin, want)
            rows_seen.append((win, o, t, code, nbytes))
    return rows_seen


#: Payload lengths in float64 elements: 8 B to 16 KB, on both sides of
#: the default 8 KB ``rma_eager_max_bytes``.
COUNTS = (1, 16, 64, 512, 1024, 2048)
WIN = 4096
OPS = ("put", "put", "acc", "get", "getacc", "rput", "rget", "flush",
       "flush_all", "wait")


def random_program(seed):
    """A seeded random epoch sequence: its placement and, per rank, one
    script of actions per epoch (every epoch ends in a fence)."""
    rng = random.Random(seed)
    n_nodes = rng.randint(1, 4)
    n_ranks = rng.randint(2, 8)
    placement = [rng.randrange(n_nodes) for _ in range(n_ranks)]
    coalesce = rng.random() < 0.5
    epochs = rng.randint(2, 4)
    # Half the programs repeat their first epoch, so that later batches
    # can rerun a tape compiled for an earlier one.
    repeat = rng.random() < 0.5
    scripts = {}
    for r in range(n_ranks):
        scripts[r] = [
            [(rng.choice(OPS), rng.randrange(n_ranks), rng.choice(COUNTS),
              rng.random()) for _ in range(rng.randint(0, 6))]
            for _ in range(epochs)
        ]
        if repeat:
            scripts[r] = scripts[r][:1] * epochs
    return n_nodes, placement, coalesce, scripts


def run_random(seed):
    n_nodes, placement, coalesce, scripts = random_program(seed)
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=n_nodes, gpus_per_node=0))
    job = MpiJob(cluster, placement, backend="analytic")

    def prog(ctx):
        w = yield from ctx.win_allocate(WIN, coalesce=coalesce)
        yield from w.fence()
        for script in scripts[ctx.rank]:
            for op, target, count, x in script:
                offset = int(x * (WIN - count))
                data = np.full(count, float(ctx.rank + 1))
                if op == "put":
                    yield from w.put(target, data, offset)
                elif op == "acc":
                    yield from w.accumulate(target, data, "sum", offset)
                elif op == "get":
                    yield from w.get(target, np.zeros(count), offset)
                elif op == "getacc":
                    yield from w.get_accumulate(
                        target, data, np.zeros(count), "sum", offset)
                elif op == "rput":
                    req = yield from w.rput(target, data, offset)
                    if x < 0.5:
                        yield from req.wait()
                elif op == "rget":
                    req = yield from w.rget(target, np.zeros(count), offset)
                    yield from req.wait()
                elif op == "flush":
                    yield from w.flush(target)
                elif op == "flush_all":
                    yield from w.flush_all()
                else:
                    yield sim.timeout(us(10.0 * x))
            yield from w.fence()
        yield from w.free()

    job.start(prog)
    job.run()
    return placement


@pytest.mark.parametrize("seed", range(40))
def test_random_epochs_match_the_walk_bit_for_bit(seed, cap):
    run_random(seed)
    check_against_oracle(cap.batches)


def test_random_epochs_cover_every_row_and_both_pair_kinds(cap):
    """The seeds above reach every analytic protocol row (eager and
    rendezvous, coalesced batches included), same-node and cross-node
    pairs, multi-row batches, several batches per window, and batches
    that rerun a tape compiled for an earlier one."""
    for seed in range(40):
        run_random(seed)
    rows = check_against_oracle(cap.batches)
    codes = {code for _, _, _, code, _ in rows}
    assert codes == set(range(len(rma_wire.ROWS)))
    same_node = {w.comm.placement[o] == w.comm.placement[t]
                 for w, o, t, _, _ in rows}
    assert same_node == {True, False}
    assert max(len(rows) for _, rows, _ in cap.batches) > 8
    per_win = {}
    for win, _, _ in cap.batches:
        per_win[id(win)] = per_win.get(id(win), 0) + 1
    assert max(per_win.values()) > 3
    assert 0 < cap.compiles < len(cap.batches)


def test_same_node_request_and_stage_keep_issue_order(cap):
    """A same-node put books the node's staging channel twice — its
    request leg (leg 0), then its stage leg (leg 1).  Across several
    puts the channel must serve those bookings in issue order, row by
    row, not leg-0s first."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=1, gpus_per_node=0))
    job = MpiJob(cluster, [0, 0, 0], backend="analytic")

    def prog(ctx):
        w = yield from ctx.win_allocate(WIN)
        yield from w.fence()
        for k in range(3):
            yield from w.put((ctx.rank + 1 + k) % 3, np.ones(512), 8 * k)
        yield from w.fence()
        yield from w.free()

    job.start(prog)
    job.run()
    (_, _, fins), = cap.batches
    assert len(fins) == 9
    check_against_oracle(cap.batches)
    # Every booking waited for the one before it: the finishes rise in
    # issue order.
    assert fins == sorted(fins)


def test_fence_folds_its_flush_wait_into_the_barrier():
    """An 8-rank RMA-fence Jacobi, 3 iterations, on analytic: each
    rank's fences used to wait out their epoch's priced finish with a
    timeout of their own before entering the barrier; the barrier now
    resolves that arrival itself.  113 events before, 24 fewer now —
    one per rank per halo fence — at the same times and checksum."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=8, gpus_per_node=0))
    res = run_mpi(cluster, JacobiConfig(p=8, iters=3), backend="rma_fence",
                  exec_backend="analytic")
    assert sim.stats.events_popped == 113 - 24
    assert res.elapsed == 4.88776837944664e-05
    assert res.extras["checksum"] == 4308.849628712871
