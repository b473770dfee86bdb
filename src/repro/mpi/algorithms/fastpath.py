"""Analytic fast-path execution backend for collective schedules.

The exact :class:`~repro.mpi.algorithms.schedule.ScheduleEngine` drives
one p2p generator per wire step and every packet through the
matching stores — faithful, but at 256–1024 ranks the per-packet Python
churn dominates wall-clock.  :class:`FastPathEngine` executes the *same*
data-free schedule IR (same builders, same selector decisions, same tag
claims, same ``comm.stats`` counters) without enqueueing a single
packet:

1. **Collect** — every rank's ``execute`` forms the call's plan key from
   its arguments and deposits its *binding* (the call's buffers, see
   :class:`~repro.mpi.algorithms.schedule.Binding`) into a shared
   per-collective *instance*, plus — only on a plan miss — the shape
   its ``build_*`` produced.  On a hit no builder runs: the plan's
   recorded tag claims and ``comm.stats`` counts are replayed at issue
   instead, and the binding is checked against the plan's.  The
   last-arriving rank triggers completion (collectives are
   synchronizing, so nothing can legally complete before the last rank
   shows up).  Each rank's issue time is recorded at deposit, so skewed
   arrivals propagate into the timing exactly as they do in the exact
   engine.
2. **Compile** (plan miss) — the per-rank shapes compile, once and
   from structure alone, to a buffer-free :class:`Plan`:

   * the *pricing tape*: the per-step critical path, compiled for all
     ranks at once over flat arrays (no per-step Python walk).  The
     ranks' step columns stack into one set of arrays — kind, rank,
     wire key, size and the dependencies as CSR — and one stable
     ``lexsort`` pairs the k-th send on each ``(comm, src, dst, tag)``
     key with the k-th receive (communicators numbered by first
     appearance).  Each pair folds the eager or rendezvous row of
     :mod:`repro.mpi.p2p` — the rows the exact wire walks — once per
     message size.  Every tape node is ``(max of its inputs + a) + b``
     with wire costs interned from the topology's ``wire_cost``
     (hits/misses surface as ``sim.stats.wire_cost_hits``/
     ``wire_cost_misses``), and the plan keeps the priced wire legs to
     book when fabric accounting is on.  A sweep then resolves the
     nodes one dependency level at a time; each sweep iteration is one
     level of the tape, whose nodes never feed each other, so a run is
     one ``np.maximum.reduceat`` and two adds per level;
   * the *replay order*, read off the tape: the steps sorted by their
     node's level, receives first within a level, then by slot.  Every
     step runs after the steps it depends on, and the k-th send on a
     wire key still meets the k-th receive (the matcher's
     non-overtaking order).  A pair whose receive comes first parks it
     and delivers straight into it (zero-copy); any other pair queues
     its message for the receive to take.

   Because the tape follows dependencies, not round labels, transfers in
   different rounds overlap exactly as the in-flight wire steps of the
   exact engine do — non-power-of-two binomial trees, whose straggler
   subtrees fire early, price tight instead of paying a per-round
   barrier.  What the model still ignores is channel *contention*
   (concurrent transfers sharing a NIC or spine link serialize in the
   exact engine, never here) — enforced within tolerance at P ≤ 16 by
   ``tests/test_fastpath.py``.
3. **Replay** — every call, first or repeat, replays the order against
   its own bindings: each step's buffer ref resolves against the call's
   slot table and each compute step runs its opcodes, with the same
   ``_deliver``/adopt/copy calls the matcher makes, so data results are
   *bit-identical* to the exact simulator.  It runs the tape on its own
   arrival times.  The tape uses only
   ``+`` with constants and ``max``, so it is exact for *any* arrival
   skew: a replayed plan yields the very floats a fresh compile does.
4. **Commit** — all per-rank completions go through one
   :class:`~repro.sim.batch.EventBatch`, so 1024 rank completions cost
   a handful of heap operations instead of thousands.

Plans are interned per communicator under the structural key the
dispatch layer forms from the call's arguments before anything is
built (``Call.key``: op, algorithm, root, size, dtype, reduction op and
the receive layout).  A plan is kept from its key's second sighting,
within :data:`PLAN_STEP_BUDGET`.  A hit is checked, not trusted: every
rank's binding signature (dtype, layout and slot sizes) must equal the
one the plan was compiled from.

What stays exact: point-to-point (``send``/``recv``/``isend``/...) and
``gather``/``scatter``; host-memory RMA epochs take their own analytic
path in :mod:`repro.mpi.rma` — only schedule-compiled collectives take
*this* one.  Gather and scatter are linear: the root's P-1 transfers
share its NIC, which the contention-free tape ignores, so priced here
they would come out short of exact (gather by 0.1-84%, scatter by
49-93% at 4-16 ranks and 128 B-1 MB).  Selection thresholds, being
driven by the same tuning, match the exact backend exactly.

**Pricing-only mode** (``backend="pricing"``): emits no replay order
and runs only the tape — same critical-path model, bit-identical
simulated times, but receive buffers are left untouched (compute steps
never run).  This is the sweep mode that makes the ``BENCH_scale.json``
sweeps interactive.  Never use it when the program consumes the data
it communicates.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from ...hw.memory import nbytes_of
from ...sim.batch import EventBatch
from ...sim.core import Event, us
from ..communicator import Communicator
from ..datatypes import AdoptBuf, payload_array
from ..errors import MpiError
from ..p2p import p2p_row
from .base import next_tag
from .schedule import (
    COMPUTE, DONATE, RECV, SEND, Call, Schedule, ScheduleEngine, land,
    materialize, payload, run_ops, short_recv, sub_ctx, view, _round_name,
)

__all__ = ["FastPathEngine", "Plan", "PLAN_STEP_BUDGET"]

# Replay ops are ``(code, rank, g, x, flags)``: ``g`` a global step id
# (the rank's offset plus the step index), ``x`` the step's buffer ref
# or compute opcodes.
_RUN = 0      # run a compute step
_PARK = 1     # post receive g's buffer for a later send
_TAKE = 2     # receive the message send g queued
_DIRECT = 3   # deliver straight into the posted receive g
_QUEUE = 4    # queue the message of send g for a later receive

_NO_MSG = (None, 0)
_NO_POST = (None, None, None)

#: Schedule steps the retained plans of one communicator may hold in
#: total; shapes past it compile on every call instead.
PLAN_STEP_BUDGET = 1 << 16


def _stalled(pending: Dict[int, int]) -> MpiError:
    """The error of a shape whose steps cannot all run."""
    stuck = {r: n for r, n in pending.items() if n}
    return MpiError(
        "fast-path schedule stalled (cyclic or unmatched "
        f"wire steps); pending steps per rank: {stuck}"
    )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``[s, s + c)`` (CSR row gather)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _column(scheds: List[Schedule], name: str, n: int) -> np.ndarray:
    """One schedule column stacked over all ranks."""
    return np.fromiter(chain.from_iterable(getattr(s, name) for s in scheds),
                       np.intp, n)


def _pair(wire: np.ndarray, side: np.ndarray,
          key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The global ids of every pair's send and receive, by send: the
    k-th send on each wire key (``key`` rows: communicator, source,
    destination, tag) pairs with the k-th receive.  The matcher's
    per-key FIFO guarantees non-overtaking, and every builder issues
    same-key wire steps in dependency order."""
    o = np.lexsort((wire, side, *key[::-1]))
    key = key[:, o]
    first = np.ones(len(o), dtype=bool)
    first[1:] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first)
    grp = np.cumsum(first) - 1
    sends = (side[o] == SEND).astype(np.intp)
    n_send = np.add.reduceat(sends, starts) if len(o) else sends
    n_recv = np.diff(np.append(starts, len(o))) - n_send
    pos = np.arange(len(o)) - starts[grp]
    at = np.flatnonzero(sends & (pos < n_recv[grp]))
    ps = wire[o[at]]
    pr = wire[o[starts[grp[at]] + n_send[grp[at]] + pos[at]]]
    by_send = np.argsort(ps)
    return ps[by_send], pr[by_send]


def _sweep(ins: np.ndarray, cnt: np.ndarray, P: int,
           never: int) -> List[np.ndarray]:
    """The tape's nodes by dependency level: node ``k`` (slot ``P + k``)
    has inputs ``ins`` (CSR, ``cnt`` per node) and resolves once they
    all have; slots below ``P`` are resolved, ``never`` never is."""
    node = np.repeat(np.arange(len(cnt)), cnt)
    inner = ins >= P
    missing = np.bincount(node[inner], minlength=len(cnt))
    edge = inner & (ins < never)
    out_to = node[edge][np.argsort(ins[edge], kind="stable")]
    out_n = np.bincount(ins[edge] - P, minlength=len(cnt))
    out_lo = np.cumsum(out_n) - out_n
    levels = []
    front = np.flatnonzero(missing == 0)
    while front.size:
        levels.append(front)
        hit, k = np.unique(out_to[_ranges(out_lo[front], out_n[front])],
                           return_counts=True)
        missing[hit] -= k
        front = hit[missing[hit] == 0]
    return levels


class _Instance:
    """One collective call site: per-rank deposits awaiting the last
    arrival."""

    __slots__ = ("ctxs", "items", "dones", "arrivals", "arrived", "key")

    def __init__(self, size: int) -> None:
        self.ctxs: List[Any] = [None] * size
        #: Per rank: ``(call, shape or None, slot table, claimed tags)``.
        self.items: List[Any] = [None] * size
        self.dones: List[Optional[Event]] = [None] * size
        self.arrivals: List[float] = [0.0] * size
        self.arrived = 0
        #: The plan key every rank formed alike (``None``: not interned).
        self.key: Optional[Tuple] = None

    def deposit(self, rank: int, ctx, item, done: Event) -> None:
        if self.dones[rank] is not None or self.items[rank] is not None:
            raise MpiError(
                f"rank {rank} deposited twice into one collective "
                "instance — collectives issued out of order?"
            )
        self.ctxs[rank] = ctx
        self.items[rank] = item
        self.dones[rank] = done
        if ctx is not None:
            self.arrivals[rank] = ctx.sim.now
        self.arrived += 1


class Plan:
    """One compiled collective shape (see the module doc).

    Holds ints, floats, tuples and numpy index arrays only — never a
    payload, a closure or a context — so a retained plan keeps nothing
    of the calls it served alive.  Tape slots ``0..P-1`` hold the ranks'
    arrival times; tape node ``k`` writes slot ``P + k``, and nodes are
    numbered level by level.  The replay order is read off the tape
    (empty on the pricing backend and for shapes that move no data).
    """

    __slots__ = (
        "key", "lo", "rank_rounds", "n_rounds", "meta", "order", "sigs",
        "scratch", "claims", "tallies", "ins", "rel", "a", "b", "levels",
        "legs", "step_node", "step_fin", "step_round", "rank_fin",
        "__weakref__",
    )

    def __init__(self, key: Optional[Tuple], scheds: List[Schedule]) -> None:
        self.key = key
        #: Step ``i`` of rank ``r`` has global id ``lo[r] + i``.
        lo = [0]
        for s in scheds:
            lo.append(lo[-1] + len(s))
        self.lo = lo
        self.rank_rounds = [s.n_rounds for s in scheds]
        self.n_rounds = max(self.rank_rounds, default=0)
        self.meta = next((s.meta for s in scheds if s.meta), None)
        #: Replay ops: ``(code, rank, g, ref or opcodes, flags)``, by
        #: tape level.
        self.order: List[Tuple] = []
        #: Per rank, what a hit needs instead of a build: the binding
        #: signature to check, the scratch slots to bind, and the tag
        #: claims and stats counts to replay.
        self.sigs = [s.sig for s in scheds]
        self.scratch = [tuple(s.scratch) for s in scheds]
        self.claims = [tuple(s.claims) for s in scheds]
        self.tallies = [tuple(s.tallies) for s in scheds]
        #: The tape, node ``k`` in slot order: its input slots
        #: ``ins[p0 + rel[k] : ...]`` (CSR within its level) and the
        #: constants ``a[k]``, ``b[k]`` (kept apart: ``(t + a) + b``
        #: rounds differently from ``t + (a + b)``); ``levels`` holds
        #: ``(lo, hi, p0, p1)`` per level: its nodes and input entries.
        self.ins = self.rel = np.zeros(0, dtype=np.intp)
        self.a = self.b = np.zeros(0)
        self.levels: List[Tuple[int, int, int, int]] = []
        #: ``(src node, dst node, nbytes)`` rows, one per priced leg.
        self.legs = np.zeros((0, 3), dtype=np.intp)
        #: Per global step: its tape node (whose inputs are its ready
        #: time), its finish slot and its round.
        self.step_node = self.step_fin = np.zeros(0, dtype=np.intp)
        self.step_round = _column(scheds, "round", lo[-1])
        #: Per rank: the slot of its completion time.
        self.rank_fin = np.zeros(0, dtype=np.intp)

    @property
    def n_steps(self) -> int:
        return self.lo[-1]

    def run_tape(
        self, arrivals: List[float], every_slot: bool
    ) -> Tuple[List[float], Optional[np.ndarray]]:
        """The ranks' completion times for these arrival times, plus
        every slot's value when ``every_slot`` (span recording)."""
        P = len(arrivals)
        ins, rel, a, b = self.ins, self.rel, self.a, self.b
        # Arrivals fill the head; every other slot is one node's output,
        # written by its level before any later level reads it.
        v = np.empty(P + len(a))  # det: ok - written before read (above)
        v[:P] = arrivals
        for lo, hi, p0, p1 in self.levels:
            t = v[ins[p0:p1]]
            if p1 - p0 > hi - lo:
                t = np.maximum.reduceat(t, rel[lo:hi])
            t += a[lo:hi]
            t += b[lo:hi]
            v[P + lo : P + hi] = t
        return v[self.rank_fin].tolist(), (v if every_slot else None)


class FastPathEngine(ScheduleEngine):
    """Prices whole collective schedules analytically (see module doc).

    Drop-in replacement for :class:`ScheduleEngine`: ``execute`` is
    consumed via ``yield from`` by the blocking collectives and the
    inherited :meth:`ScheduleEngine.start` spawns it for the
    nonblocking ones.  The collective-instance sequence number is
    claimed synchronously at issue time (``execute`` is a plain
    function returning the generator), so mixed blocking/nonblocking
    sequences stay aligned exactly like the tag-block claims.
    """

    def __init__(self, comm, price_only: bool = False) -> None:
        super().__init__(comm)
        self._claims = [0] * comm.size
        self._instances: Dict[int, _Instance] = {}
        #: Retained plans by key, the keys sighted once so far, and the
        #: schedule steps the retained plans hold.
        self._plans: Dict[Tuple, Plan] = {}
        self._seen: Set[Tuple] = set()
        self._plan_steps = 0
        #: Skip the replay: price timings only, leave receive buffers
        #: untouched (see module doc).
        self.price_only = price_only

    # -- entry points -------------------------------------------------------
    def execute(self, ctx, call: Call) -> Generator[Event, Any, None]:
        """Claim the instance slot, and either replay a retained plan's
        claims (no build) or build the call's shape — synchronously, at
        issue, so tag claims keep issue order."""
        self.comm._ensure_alive()
        seq = self._claims[ctx.rank]
        self._claims[ctx.rank] += 1
        key = call.key
        plan = self._plans.get(key) if key is not None else None
        if plan is None:
            sched, tags = call.build(ctx), None
            scratch = sched.scratch
        else:
            if call.binding.sig != plan.sigs[ctx.rank]:
                raise self._mismatch(plan, ctx.rank)
            sched, tags = None, self._replay_claims(plan, ctx)
            scratch = plan.scratch[ctx.rank]
        bufs = None if self.price_only else materialize(call.binding,
                                                        scratch)
        return self._run(ctx, (call, sched, bufs, tags), seq, key)

    @staticmethod
    def _replay_claims(plan: Plan, ctx) -> List[int]:
        """What this rank's build would have done to communicator state:
        its tag claims (by sub-communicator name) and stats counts."""
        tags = [next_tag(sub_ctx(ctx, name))
                for name in plan.claims[ctx.rank]]
        for name in plan.tallies[ctx.rank]:
            ctx.comm._count(name)
        return tags

    def _run(
        self, ctx, item, seq: int, key: Optional[Tuple]
    ) -> Generator[Event, Any, None]:
        self.active += 1
        try:
            inst = self._instances.get(seq)
            if inst is None:
                inst = _Instance(self.comm.size)
                self._instances[seq] = inst
            done = ctx.sim.event(name=f"fastpath(r{ctx.rank}#{seq})")
            inst.deposit(ctx.rank, ctx, item, done)
            if inst.arrived == 1:
                inst.key = key
            elif inst.key != key:
                inst.key = None
            if inst.arrived == self.comm.size:
                del self._instances[seq]
                self._complete(inst)
            yield done
        finally:
            self.active -= 1

    # -- completion ---------------------------------------------------------
    def _complete(self, inst: _Instance) -> None:
        """Look up or compile the instance's plan, replay its order on
        this call's bindings, run its tape on this call's arrivals, and
        batch-commit the per-rank completions."""
        comm = self.comm
        sim = comm.sim
        stats = sim.stats
        size = comm.size
        topo = comm.cluster.topology
        spans = sim.spans
        if spans is not None and not spans.enabled:
            spans = None
        items = inst.items
        key = inst.key
        plan = self._plans.get(key) if key is not None else None
        fresh = plan is None
        if fresh:
            scheds = []
            for r, (call, sched, _bufs, tags) in enumerate(items):
                if sched is None:
                    # This rank hit a plan the other ranks' keys did not
                    # share: build its shape on the tags it claimed.
                    call.binding.tags = tags
                    sched = call.build(inst.ctxs[r])
                scheds.append(sched)
            plan = Plan(key, scheds)
            pairs = self._compile_tape(plan, scheds, inst.ctxs)
            if not self.price_only:
                self._read_order(plan, scheds, *pairs)
        else:
            for r, (call, sched, _bufs, _tags) in enumerate(items):
                if sched is not None and call.binding.sig != plan.sigs[r]:
                    raise self._mismatch(plan, r)
            stats.fastpath_sched_cache_hits += 1
            if topo.accounting:
                for leg in plan.legs.tolist():
                    topo.account(*leg)
        if plan.order:
            self._replay(plan, [item[2] for item in items])
        fins, V = plan.run_tape(inst.arrivals, spans is not None)
        stats.fastpath_collectives += 1
        stats.fastpath_rounds += plan.n_rounds
        if spans is not None:
            self._record_spans(inst, plan, V, fins, spans)
        if fresh and key is not None:
            self._retain(plan)

        batch = EventBatch(sim, name="fastpath")
        now = sim.now
        for r in range(size):
            # A rank whose steps all finish before the last arrival
            # (e.g. an eager-only bcast root) resumes immediately: the
            # instance only resolves once every rank has shown up.
            batch.add(max(fins[r], now), inst.dones[r], None)
        batch.commit()

    def _retain(self, plan: Plan) -> None:
        """Keep ``plan`` from its key's second sighting on, while the
        communicator's step budget allows (one-shot shapes — a 1024-rank
        ``win_create`` allgather — never grow memory)."""
        key = plan.key
        if key not in self._seen:
            self._seen.add(key)
            return
        if self._plan_steps + plan.n_steps > PLAN_STEP_BUDGET:
            return
        self._plan_steps += plan.n_steps
        self._plans[key] = plan

    @staticmethod
    def _mismatch(plan: Plan, rank: int) -> MpiError:
        return MpiError(
            f"collective plan {plan.key!r} does not match rank {rank}'s "
            "buffers (dtype, layout or sizes differ): its builder "
            "depends on something the plan key omits"
        )

    # -- compile ------------------------------------------------------------
    def _compile_tape(
        self, plan: Plan, scheds: List[Schedule], ctxs: List[Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compile the pricing tape for all ranks at once; return its
        pairs' send and receive ids, by send.

        Mirrors the exact engine's concurrency structure: every step
        starts the moment its dependencies finish (wire steps are
        spawned processes there, so independent steps overlap freely).
        A compute step finishes at its ready time, an overhead step at
        ready + ``sw``.  A receive's node is ready + ``sw``, a send's
        ready + ``sw`` + its row's envelope leg, and the pair's node
        ``max`` of the two plus the legs after the match (see
        :mod:`repro.mpi.p2p`: the first in ``a``, the rest in ``b``).
        An eager send finishes at its own node, everything else paired
        at the pair's.

        A pair is priced with the send's structural size; a receive
        larger than its send raises here (the ranks disagree on the
        count, and the receive's tail would be stale).  Every wire leg is
        priced by :meth:`Topology.wire_cost`, which also books it onto
        the routed channel path when the topology's ``accounting`` flag
        is on; ``plan.legs`` keeps them for replays.  A shape whose
        steps cannot all finish (cyclic or unmatched wire steps) raises.
        """
        ib = self.comm._ib
        sw = us(ib.sw_overhead_us)
        P = self.comm.size
        N = plan.n_steps
        lens = np.diff(plan.lo)
        rank = np.repeat(np.arange(P), lens)
        kind = _column(scheds, "kind", N)
        n_deps = np.fromiter(
            map(len, chain.from_iterable(s.deps for s in scheds)), np.intp, N)
        deps = np.fromiter(chain.from_iterable(
            chain.from_iterable(s.deps for s in scheds)), np.intp,
            int(n_deps.sum())) + np.repeat(np.repeat(plan.lo[:-1], lens),
                                           n_deps)

        # Wire steps: the context each runs under (communicator, own
        # rank in it, that communicator's placement) and its size.
        numbers: Dict[Any, int] = {}
        places: List[int] = []
        place_lo: List[int] = []
        c_lo, c_comm, c_rank = [], [], []
        for r, s in enumerate(scheds):
            c_lo.append(len(c_comm))
            for v, tctx in enumerate(s.ctxs):
                tcomm = (tctx if v else ctxs[r]).comm
                if tcomm not in numbers:
                    numbers[tcomm] = len(numbers)
                    place_lo.append(len(places))
                    places.extend(tcomm.placement)
                c_comm.append(numbers[tcomm])
                c_rank.append((tctx if v else ctxs[r]).rank)
        wire = np.flatnonzero(kind <= RECV)
        ctx = np.array(c_lo)[rank[wire]] + _column(scheds, "via", N)[wire]
        cno = np.array(c_comm)[ctx]
        me = np.array(c_rank)[ctx]
        peer = _column(scheds, "peer", N)[wire]
        side = kind[wire]  # SEND (0) sorts before RECV (1)
        wsize = np.zeros(N, dtype=np.intp)
        wsize[wire] = list(chain.from_iterable(
            [s.nbytes(i) for i, k in enumerate(s.kind) if k <= RECV]
            for s in scheds))
        ps, pr = _pair(wire, side, np.stack((
            cno, np.where(side == SEND, me, peer),
            np.where(side == SEND, peer, me), _column(scheds, "tag", N)[wire])))
        nbytes = wsize[ps]
        short = np.flatnonzero(nbytes < wsize[pr])
        if short.size:
            j = short[0]
            raise short_recv(scheds[rank[pr[j]]], int(nbytes[j]),
                             int(wsize[pr[j]]))

        # Fold each message size's row once, lay out every pair's legs
        # (envelope first, then the legs after the match) and price
        # them all through ``wire_cost``, in pair order.
        sizes, fold = np.unique(nbytes, return_inverse=True)
        rows = []
        for n in sizes.tolist():
            row = p2p_row(n, ib)
            rows.append([(leg.by_sender, leg.header + leg.payload * n)
                         for leg in (row.envelope, *row.after)])
        n_legs = np.array([len(r) for r in rows], dtype=np.intp)[fold]
        leg_lo = np.cumsum(n_legs) - n_legs
        sent = np.searchsorted(wire, ps)
        base = np.array(place_lo)[cno[sent]]
        sn = np.array(places)[base + me[sent]]
        dn = np.array(places)[base + peer[sent]]
        legs = np.zeros((int(n_legs.sum()), 3), dtype=np.intp)
        for f, row in enumerate(rows):
            mine = np.flatnonzero(fold == f)
            for j, (by_sender, n) in enumerate(row):
                fwd = by_sender or not j
                legs[leg_lo[mine] + j] = np.stack((
                    sn[mine] if fwd else dn[mine],
                    dn[mine] if fwd else sn[mine],
                    np.full(len(mine), n)), axis=1)
        plan.legs = legs
        cost = np.array(list(map(self.comm.cluster.topology.wire_cost,
                                 *legs.T.tolist())))
        K = len(ps)
        pair_a = np.zeros(K)
        pair_b = np.zeros(K)
        for j in range(1, int(n_legs.max(initial=1))):
            has = np.flatnonzero(n_legs > j)
            if j == 1:
                pair_a[has] = cost[leg_lo[has] + j]
            else:
                pair_b[has] += cost[leg_lo[has] + j]

        # The tape's nodes: arrivals 0..P-1, then one per step, one per
        # pair and one per rank with steps (its completion).  An
        # unpaired wire step finishes at ``never``.
        ranked = np.flatnonzero(lens)
        step0, pair0, fin0 = P, P + N, P + N + K
        never = fin0 + len(ranked)
        fin = step0 + np.arange(N)
        fin[wire] = never
        eager = n_legs == 1
        fin[ps[eager]] = step0 + ps[eager]
        fin[ps[~eager]] = pair0 + np.flatnonzero(~eager)
        fin[pr] = pair0 + np.arange(K)
        cnt = np.concatenate((1 + n_deps, np.full(K, 2, np.intp),
                              lens[ranked]))
        ptr = np.cumsum(cnt) - cnt
        ins = np.zeros(int(cnt.sum()), dtype=np.intp)
        ins[ptr[:N]] = rank
        ins[_ranges(ptr[:N] + 1, n_deps)] = fin[deps]
        ins[ptr[N : N + K]] = step0 + pr
        ins[ptr[N : N + K] + 1] = step0 + ps
        ins[len(ins) - N:] = fin
        a = np.where(kind == COMPUTE, 0.0, sw)
        b = np.zeros(N)
        b[ps] = cost[leg_lo]
        a = np.concatenate((a, pair_a, np.zeros(len(ranked))))
        b = np.concatenate((b, pair_b, np.zeros(len(ranked))))

        levels = _sweep(ins, cnt, P, never)
        order = np.concatenate(levels) if levels else np.zeros(0, np.intp)
        slot = np.full(never + 1, never, dtype=np.intp)
        slot[:P] = np.arange(P)
        slot[P + order] = P + np.arange(len(order))
        plan.step_fin = slot[fin]
        pending = plan.step_fin == never
        if pending.any():
            raise _stalled(dict(enumerate(
                np.bincount(rank[pending], minlength=P).tolist())))

        # Lay the tape out level by level.
        width = cnt[order]
        plan.ins = slot[ins[_ranges(ptr[order], width)]]
        lo = np.cumsum(width) - width
        n_level = [len(lv) for lv in levels]
        bounds = np.cumsum([0] + n_level)
        plan.rel = lo - np.repeat(lo[bounds[:-1]], n_level)
        p = np.append(lo, len(plan.ins)).tolist()
        bounds = bounds.tolist()
        plan.levels = [(h, t, p[h], p[t])
                       for h, t in zip(bounds[:-1], bounds[1:])]
        plan.a = a[order]
        plan.b = b[order]
        plan.step_node = slot[step0 + np.arange(N)]
        plan.rank_fin = np.arange(P)
        plan.rank_fin[ranked] = slot[fin0 + np.arange(len(ranked))]
        return ps, pr

    @staticmethod
    def _read_order(plan: Plan, scheds: List[Schedule], ps: np.ndarray,
                    pr: np.ndarray) -> None:
        """Read the replay order off the compiled tape, given its
        pairs' send and receive ids: the steps by their node's level,
        receives first within a level, then by slot.  A pair whose
        receive comes first parks it and delivers straight into it (the
        zero-copy path); any other pair queues its message for the
        receive to take.  Steps without a ref, and overhead steps, move
        nothing, so a data-free shape (a barrier) has an empty order."""
        ref = list(chain.from_iterable(s.ref for s in scheds))
        if all(x is None for x in ref):
            return
        N = plan.n_steps
        kind = _column(scheds, "kind", N)
        node = plan.step_node - len(scheds)
        level = np.searchsorted([lo for lo, _, _, _ in plan.levels], node,
                                side="right")
        o = np.lexsort((node, kind != RECV, level))
        pos = np.argsort(o)
        direct = pos[pr] < pos[ps]
        code = np.where(kind == COMPUTE, _RUN, -1)
        code[ps] = np.where(direct, _DIRECT, _QUEUE)
        code[pr] = np.where(direct, _PARK, _TAKE)
        g = np.arange(N)
        g[ps[direct]] = pr[direct]
        g[pr[~direct]] = ps[~direct]
        rank = np.repeat(np.arange(len(scheds)), np.diff(plan.lo))
        flags = list(chain.from_iterable(s.flags for s in scheds))
        plan.order = [
            (c, r, gi, ref[i], flags[i])
            for i, c, r, gi in zip(o.tolist(), code[o].tolist(),
                                   rank[o].tolist(), g[o].tolist())
            if c >= 0 and ref[i] is not None
        ]

    # -- replay -------------------------------------------------------------
    def _replay(self, plan: Plan, bufs_of: List[List[Any]]) -> None:
        """Run the plan's order against this call's slot tables — the
        same deliveries, adoptions and snapshots the exact engine's
        matcher makes."""
        stats = self.comm.sim.stats
        deliver = Communicator._deliver
        posted: Dict[int, Tuple] = {}
        queued: Dict[int, Tuple] = {}
        for code, r, g, x, flags in plan.order:
            bufs = bufs_of[r]
            if code == _RUN:
                run_ops(bufs, x)
            elif code == _PARK:
                posted[g] = (bufs, x, view(bufs, x))
            elif code == _TAKE:
                # Queued payloads are private (donated, or snapshotted
                # at send time), so an adopt slot may take one over
                # outright — the matcher's adoption path.
                buf = view(bufs, x)
                data, nbytes = queued.pop(g, _NO_MSG)
                if (
                    data is not None
                    and isinstance(buf, AdoptBuf)
                    and buf.adopt(data)
                ):
                    stats.payload_adopted += 1
                else:
                    deliver(buf, data, nbytes)
                land(bufs, x, buf)
            else:
                buf = payload(bufs, x, flags)
                nbytes = nbytes_of(buf) if buf is not None else 0
                arr = payload_array(buf)
                if code == _DIRECT:
                    # Source → posted receive, no snapshot.  Only a
                    # donated payload is private here (the live array
                    # is otherwise still the sender's).
                    rbufs, rref, rbuf = posted.pop(g, _NO_POST)
                    if arr is not None:
                        stats.payload_views += 1
                    if (
                        flags & DONATE
                        and arr is not None
                        and isinstance(rbuf, AdoptBuf)
                        and rbuf.adopt(arr)
                    ):
                        stats.payload_adopted += 1
                    else:
                        deliver(rbuf, arr, nbytes)
                    if rbufs is not None:
                        land(rbufs, rref, rbuf)
                else:  # _QUEUE
                    if arr is not None:
                        if flags & DONATE:
                            # Donated: nothing writes the array again,
                            # so it can sit in the queue un-snapshotted.
                            stats.payload_views += 1
                        else:
                            arr = arr.copy()
                            stats.payload_copies += 1
                    queued[g] = (arr, nbytes)

    # -- observability ------------------------------------------------------
    def _record_spans(
        self,
        inst: _Instance,
        plan: Plan,
        V: np.ndarray,
        fins: List[float],
        spans,
    ) -> None:
        """Emit the same span skeleton the exact engine records — one
        collective span per rank with per-round children — plus the
        pricer's own stage markers.  Every timestamp comes from this
        call's tape values, so the tree carries priced durations."""
        comm = self.comm
        sim = comm.sim
        size = comm.size
        meta = plan.meta or {}
        name = meta.get("op", "collective")
        if meta.get("algo"):
            name = f"{name}[{meta['algo']}]"
        arrivals = inst.arrivals
        now = sim.now
        ftrack = f"{comm.root_comm.name}.fastpath"
        spans.complete(
            min(arrivals), max(arrivals), name, "fastpath.collect", ftrack,
            attrs={"n_ranks": size},
        )
        spans.instant(now, name, "fastpath.interpret", ftrack,
                      attrs={"priced": self.price_only or not plan.order})
        backend = comm.backend
        nbytes_meta = meta.get("nbytes", 0)
        # Per (rank, round): the earliest ready time of its steps (the
        # max of a step node's inputs) and the latest finish.
        R = max(plan.n_rounds, 1)
        key = np.repeat(np.arange(size), np.diff(plan.lo)) * R
        key += plan.step_round
        o = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[o], prepend=-1))
        keys = key[o][first].tolist()
        if keys:
            width = [hi - lo for lo, hi, _, _ in plan.levels]
            start = plan.rel + np.repeat([p for _, _, p, _ in plan.levels],
                                         width)
            end = np.append(start[1:], len(plan.ins))
            k = plan.step_node - size
            n = end[k] - start[k]
            ready = np.maximum.reduceat(
                V[plan.ins[_ranges(start[k], n)]], np.cumsum(n) - n)
            t0 = np.minimum.reduceat(ready[o], first).tolist()
            t1 = np.maximum.reduceat(V[plan.step_fin][o], first).tolist()
        j = 0
        for r in range(size):
            rtrack = comm.span_track(r)
            psid = spans.complete(
                arrivals[r], fins[r], name, "collective", rtrack,
                None, None,
                {"backend": backend, "nbytes": nbytes_meta,
                 "n_rounds": plan.rank_rounds[r],
                 "n_steps": plan.lo[r + 1] - plan.lo[r]},
            )
            # psid is None while the recorder is paused mid-collective.
            while j < len(keys) and keys[j] < (r + 1) * R:
                if psid is not None:
                    spans.complete(t0[j], t1[j], _round_name(keys[j] - r * R),
                                   "round", rtrack, psid)
                j += 1
        spans.instant(now, name, "fastpath.commit", ftrack,
                      attrs={"n_ranks": size})
