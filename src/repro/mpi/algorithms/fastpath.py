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
2. **Compile** (plan miss) — the per-rank shapes compile to a
   buffer-free :class:`Plan`, worked out from structure alone:

   * the *replay order*: the dataflow interpreter's step sequence
     (rank-0-first round-robin: every ready receive is posted before
     each rank runs one other ready step per cycle; per-key FIFO
     message queues mirror the matcher's non-overtaking order), with
     each send's decision to deliver straight into a posted receive or
     to queue;
   * the *pricing tape*: the per-step critical path in topological
     order.  The k-th send on a ``(comm, src, dst, tag)`` key pairs with
     the k-th receive, and each pair folds the eager or rendezvous row
     of :mod:`repro.mpi.p2p` — the rows the exact wire walks.
     Every tape node is ``(max of earlier nodes + a) + b`` with wire
     costs interned from the topology's ``wire_cost`` (hits/misses
     surface as ``sim.stats.wire_cost_hits``/``wire_cost_misses``),
     and the plan keeps the priced wire legs to book when fabric
     accounting is on.

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
   A large retained tape runs as numpy levels (:meth:`Plan.levelize`),
   the same operations in a dependency-respecting order.
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

**Pricing-only mode** (``backend="pricing"``): skips the replay and
runs only the tape — same critical-path model, bit-identical simulated
times, but receive buffers are left untouched (compute steps never
run).  This is the sweep mode that makes the ``BENCH_scale.json``
sweeps interactive.  Never use it when the program consumes the data
it communicates.
"""

from __future__ import annotations

import heapq
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
    COMPUTE, DONATE, OVERHEAD, RECV, SEND, Call, Schedule, ScheduleEngine, land,
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

#: Retained tapes of at least this many nodes run as numpy levels (all
#: nodes of one dependency depth and fan-in at once).  Replaying a
#: 1024-rank barrier (31,744 nodes) takes 0.33 ms as levels and 11 ms
#: as the Python loop; a 128-rank one (2,816 nodes) 0.07 ms and 0.9 ms.
#: Below this size the loop takes under ~1.5 ms, and the levels' index
#: arrays cost more memory than their speed saves: levelizing the
#: ~250-node plans of 16-rank services raised the peak RSS of a
#: 256-node serving run by ~4 MB without raising its throughput.
_LEVELS_MIN_NODES = 4096


def _stalled(pending: Dict[int, int]) -> MpiError:
    """The error of a shape whose steps cannot all run."""
    stuck = {r: n for r, n in pending.items() if n}
    return MpiError(
        "fast-path schedule stalled (cyclic or unmatched "
        f"wire steps); pending steps per rank: {stuck}"
    )


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


def _dag(sched: Schedule) -> Tuple[List[int], List[List[int]]]:
    """Per step: how many dependencies it waits for, and its dependents."""
    dependents: List[List[int]] = [[] for _ in range(len(sched))]
    for i, deps in enumerate(sched.deps):
        for d in deps:
            dependents[d].append(i)
    return [len(d) for d in sched.deps], dependents


class _RankState:
    """Dataflow bookkeeping for one rank's DAG (mirrors ``_execute``)."""

    __slots__ = ("kind", "missing", "dependents", "ready", "ready_recv",
                 "done")

    def __init__(self, sched: Schedule) -> None:
        n = len(sched)
        self.kind = sched.kind
        self.missing, self.dependents = _dag(sched)
        # Receives ready to post are kept apart from other ready steps:
        # the interpreter parks every ready receive before running any
        # send, so deliveries hit a waiting buffer (zero-copy) instead
        # of forcing a queue snapshot.
        self.ready: List[int] = []
        self.ready_recv: List[int] = []
        for i in range(n):
            if self.missing[i] == 0:
                self._push(i)
        self.done = 0

    def _push(self, idx: int) -> None:
        if self.kind[idx] == RECV:
            heapq.heappush(self.ready_recv, idx)
        else:
            heapq.heappush(self.ready, idx)

    def finish(self, idx: int) -> None:
        self.done += 1
        for j in self.dependents[idx]:
            self.missing[j] -= 1
            if self.missing[j] == 0:
                self._push(j)


class Plan:
    """One compiled collective shape (see the module doc).

    Holds ints, floats, tuples and numpy index arrays only — never a
    payload, a closure or a context — so a retained plan keeps nothing
    of the calls it served alive.  Tape slots ``0..P-1`` hold the ranks'
    arrival times; tape node ``k`` writes slot ``P + k``.
    """

    __slots__ = (
        "key", "lo", "rank_rounds", "n_rounds", "meta", "order", "sigs",
        "scratch", "claims", "tallies", "tape_ins", "tape_a", "tape_b",
        "levels", "legs", "step_ins", "step_fin", "step_round", "rank_fin",
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
        #: Replay ops: ``(code, rank, g, ref or opcodes, flags)``.
        self.order: List[Tuple] = []
        #: Per rank, what a hit needs instead of a build: the binding
        #: signature to check, the scratch slots to bind, and the tag
        #: claims and stats counts to replay.
        self.sigs = [s.sig for s in scheds]
        self.scratch = [tuple(s.scratch) for s in scheds]
        self.claims = [tuple(s.claims) for s in scheds]
        self.tallies = [tuple(s.tallies) for s in scheds]
        #: Per node, in topological order: its input slots and the
        #: constants ``a``, ``b`` (kept apart: ``(t + a) + b`` rounds
        #: differently from ``t + (a + b)``).
        self.tape_ins: List[Tuple[int, ...]] = []
        self.tape_a: List[float] = []
        self.tape_b: List[float] = []
        #: ``(n slots, groups)``: the tape by dependency depth (large
        #: retained plans; the node lists are dropped then).
        self.levels: Optional[Tuple[int, List[Tuple]]] = None
        #: ``(src node, dst node, nbytes)`` per priced wire leg.
        self.legs: List[Tuple[int, int, int]] = []
        #: Per global step: ready-time input slots, finish slot, round.
        self.step_ins: List[Optional[Tuple[int, ...]]] = []
        self.step_fin: List[int] = []
        self.step_round = [rd for s in scheds for rd in s.round]
        #: Per rank: the slot of its completion time.
        self.rank_fin: List[int] = []

    @property
    def n_steps(self) -> int:
        return self.lo[-1]

    def run_tape(
        self, arrivals: List[float], every_slot: bool
    ) -> Tuple[List[float], Optional[List[float]]]:
        """The ranks' completion times for these arrival times, plus
        every slot's value when ``every_slot`` (span recording)."""
        if self.levels is None:
            V = list(arrivals)
            push = V.append
            get = V.__getitem__
            for ins, a, b in zip(self.tape_ins, self.tape_a, self.tape_b):
                if len(ins) == 1:
                    push((V[ins[0]] + a) + b)
                else:
                    push((max(map(get, ins)) + a) + b)
            return [V[s] for s in self.rank_fin], V
        n_slots, groups = self.levels
        # Arrivals fill the head; every other slot is one node's output,
        # written by its level before any later level reads it.
        v = np.empty(n_slots)  # det: ok - written before read (above)
        v[: len(arrivals)] = arrivals
        for outs, cols, a, b in groups:
            t = v[cols[0]]
            for col in cols[1:]:
                np.maximum(t, v[col], out=t)
            t += a
            t += b
            v[outs] = t
        fins = v[self.rank_fin].tolist()
        return fins, (v.tolist() if every_slot else None)

    def levelize(self) -> None:
        """Group the tape by (dependency depth, fan-in) so a replay
        costs a few numpy calls per group instead of one Python step
        per node; nodes of one depth never feed each other."""
        P = len(self.lo) - 1
        depth = [0] * P
        at = depth.__getitem__
        groups: Dict[Tuple[int, int], Tuple[List, List, List, List]] = {}
        nodes = zip(self.tape_ins, self.tape_a, self.tape_b)
        for k, (ins, a, b) in enumerate(nodes):
            d = 1 + max(map(at, ins))
            depth.append(d)
            grp = groups.get((d, len(ins)))
            if grp is None:
                grp = groups[d, len(ins)] = ([], [], [], [])
            grp[0].append(P + k)
            grp[1].append(ins)
            grp[2].append(a)
            grp[3].append(b)
        levels = []
        for dw in sorted(groups):
            outs, ins, a, b = groups[dw]
            # One contiguous index row per input position.
            cols = np.array(ins, dtype=np.intp).T.copy()
            levels.append((np.array(outs, dtype=np.intp), cols,
                           np.array(a), np.array(b)))
        self.levels = (len(depth), levels)
        self.rank_fin = np.array(self.rank_fin, dtype=np.intp)
        self.tape_ins = self.tape_a = self.tape_b = []


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
            if not self.price_only:
                self._compile_order(plan, scheds, inst.ctxs)
        else:
            for r, (call, sched, _bufs, _tags) in enumerate(items):
                if sched is not None and call.binding.sig != plan.sigs[r]:
                    raise self._mismatch(plan, r)
        if not self.price_only and plan.order:
            self._replay(plan, [item[2] for item in items])

        if fresh:
            self._compile_tape(plan, scheds, inst.ctxs)
        else:
            stats.fastpath_sched_cache_hits += 1
            if topo.accounting:
                for leg in plan.legs:
                    topo.account(*leg)
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
        if len(plan.tape_ins) >= _LEVELS_MIN_NODES:
            plan.levelize()
        self._plans[key] = plan

    @staticmethod
    def _mismatch(plan: Plan, rank: int) -> MpiError:
        return MpiError(
            f"collective plan {plan.key!r} does not match rank {rank}'s "
            "buffers (dtype, layout or sizes differ): its builder "
            "depends on something the plan key omits"
        )

    # -- compile ------------------------------------------------------------
    def _compile_order(self, plan: Plan, scheds: List[Schedule],
                       ctxs: List[Any]) -> None:
        """Record the dataflow interpreter's step sequence from
        structure alone.  Wire steps whose buffer ref is ``None`` move
        nothing and are left out, so a data-free shape (a barrier) has
        an empty order."""
        if not any(ref is not None for s in scheds for ref in s.ref):
            return
        size = self.comm.size
        lo = plan.lo
        emit = plan.order.append
        states = [_RankState(scheds[r]) for r in range(size)]
        #: (comm id, src, dst, tag) → FIFO of queued send ids.
        queues: Dict[Tuple, List[int]] = {}
        #: same key → FIFO of (rank, step idx, id) receives posted.
        parked: Dict[Tuple, List[Tuple[int, int, int]]] = {}

        def run_step(r: int, i: int) -> None:
            sched = scheds[r]
            g = lo[r] + i
            kind = sched.kind[i]
            ref = sched.ref[i]
            if kind == COMPUTE:
                emit((_RUN, r, g, ref, 0))
            elif kind == SEND:
                via = sched.via[i]
                tctx = sched.ctxs[via] if via else ctxs[r]
                key = (id(tctx.comm), tctx.rank, sched.peer[i], sched.tag[i])
                waiters = parked.get(key)
                if waiters:
                    rank2, ridx, g2 = waiters.pop(0)
                    if ref is not None:
                        emit((_DIRECT, r, g2, ref, sched.flags[i]))
                    states[rank2].finish(ridx)
                else:
                    queues.setdefault(key, []).append(g)
                    if ref is not None:
                        emit((_QUEUE, r, g, ref, sched.flags[i]))
            elif kind == RECV:
                via = sched.via[i]
                tctx = sched.ctxs[via] if via else ctxs[r]
                key = (id(tctx.comm), sched.peer[i], tctx.rank, sched.tag[i])
                queue = queues.get(key)
                if queue:
                    gs = queue.pop(0)
                    if ref is not None:
                        emit((_TAKE, r, gs, ref, 0))
                else:
                    parked.setdefault(key, []).append((r, i, g))
                    if ref is not None:
                        emit((_PARK, r, g, ref, 0))
                    return  # finished later, at delivery
            states[r].finish(i)

        # Round-robin cycles, fully deterministic: first every rank
        # posts (or drains) all its ready receives, then each rank runs
        # one other ready step.  Posting receives first means a send
        # almost always finds its peer's buffer posted and delivers
        # directly — the zero-copy path — instead of snapshotting into
        # a queue; one non-receive step per rank per cycle bounds
        # run-ahead so the lockstep holds.
        total = plan.n_steps
        done_total = 0
        while done_total < total:
            progressed = False
            for r in range(size):
                state = states[r]
                while state.ready_recv:
                    run_step(r, heapq.heappop(state.ready_recv))
                    progressed = True
            for r in range(size):
                state = states[r]
                if state.ready:
                    run_step(r, heapq.heappop(state.ready))
                    progressed = True
                while state.ready_recv:
                    run_step(r, heapq.heappop(state.ready_recv))
            done_total = sum(s.done for s in states)
            if not progressed and done_total < total:
                raise _stalled({r: len(s.kind) - s.done
                                for r, s in enumerate(states)})

    def _compile_tape(self, plan: Plan, scheds: List[Schedule],
                      ctxs: List[Any]) -> None:
        """Compile the pricing tape.

        Mirrors the exact engine's concurrency structure: every step
        starts the moment its dependencies finish (wire steps are
        spawned processes there, so independent steps overlap freely).
        A compute step finishes at its ready time, an overhead step at
        ready + ``sw``; each wire pair folds its protocol row (see
        :mod:`repro.mpi.p2p`).

        A pair is priced with the send's structural size; a receive
        larger than its send raises here (the ranks disagree on the
        count, and the receive's tail would be stale).  Every wire leg is
        priced by :meth:`Topology.wire_cost`, which also books it onto
        the routed channel path when the topology's ``accounting`` flag
        is on; ``plan.legs`` keeps them for replays.
        """
        comm = self.comm
        ib = comm._ib
        sw = us(ib.sw_overhead_us)
        size = comm.size
        wire_cost = comm.cluster.topology.wire_cost
        legs = plan.legs

        def wt(src: int, dst: int, n: int) -> float:
            legs.append((src, dst, n))
            return wire_cost(src, dst, n)

        lo = plan.lo
        n_steps = plan.n_steps

        wsize = [0] * n_steps
        #: Per paired send id: its protocol row's envelope bytes and
        #: ``(by sender?, bytes)`` per leg after the match point — folded
        #: once per message size.
        folds: List[Optional[Tuple]] = [None] * n_steps
        by_size: Dict[int, Tuple] = {}
        # LIGHT pairing: k-th send on a (comm, src, dst, tag) key pairs
        # with the k-th receive, both in step-index order — the
        # matcher's per-key FIFO guarantees non-overtaking, and every
        # schedule builder issues same-key wire steps dep-ordered.
        sends: Dict[Tuple, List[Tuple[int, int, int]]] = {}
        recvs: Dict[Tuple, List[Tuple[int, int, int]]] = {}
        for r in range(size):
            sched = scheds[r]
            base = lo[r]
            for i, kind in enumerate(sched.kind):
                if kind == SEND or kind == RECV:
                    via = sched.via[i]
                    tctx = sched.ctxs[via] if via else ctxs[r]
                    wsize[base + i] = sched.nbytes(i)
                    if kind == SEND:
                        sends.setdefault(
                            (id(tctx.comm), tctx.rank, sched.peer[i],
                             sched.tag[i]), []
                        ).append((r, i, base + i))
                    else:
                        recvs.setdefault(
                            (id(tctx.comm), sched.peer[i], tctx.rank,
                             sched.tag[i]), []
                        ).append((r, i, base + i))
        #: Global step id → its partner's ``(rank, step idx, id)``.
        pair: Dict[int, Tuple[int, int, int]] = {}
        for key, ss in sends.items():
            for s_ref, r_ref in zip(ss, recvs.get(key, ())):
                pair[s_ref[2]] = r_ref
                pair[r_ref[2]] = s_ref
                n = wsize[s_ref[2]]
                if n < wsize[r_ref[2]]:
                    raise short_recv(scheds[r_ref[0]], n, wsize[r_ref[2]])
                fold = by_size.get(n)
                if fold is None:
                    row = p2p_row(n, ib)
                    wire = [(leg.by_sender, leg.header + leg.payload * n)
                            for leg in (row.envelope, *row.after)]
                    fold = by_size[n] = (wire[0][1], tuple(wire[1:]))
                folds[s_ref[2]] = fold

        tape_ins = plan.tape_ins
        add_ins = tape_ins.append
        add_a = plan.tape_a.append
        add_b = plan.tape_b.append

        def emit(ins: Tuple[int, ...], a: float, b: float) -> int:
            add_ins(ins)
            add_a(a)
            add_b(b)
            return size + len(tape_ins) - 1

        step_ins: List[Optional[Tuple[int, ...]]] = [None] * n_steps
        step_fin = [-1] * n_steps
        #: Receive id → slot of its ``ready + sw``; send id → slot of
        #: its ``ready + sw`` + envelope leg.
        xslot: Dict[int, int] = {}
        dags = [_dag(sched) for sched in scheds]
        missing = [m for m, _ in dags]
        dependents = [d for _, d in dags]
        work: List[Tuple[int, int]] = []
        for r in range(size):
            for i, m in enumerate(missing[r]):
                if m == 0:
                    work.append((r, i))

        resolved = 0

        def finish(r: int, idx: int, slot: int) -> None:
            nonlocal resolved
            step_fin[lo[r] + idx] = slot
            resolved += 1
            for j in dependents[r][idx]:
                missing[r][j] -= 1
                if missing[r][j] == 0:
                    work.append((r, j))

        def wire_nodes(r: int, i: int) -> Tuple[int, int]:
            sched = scheds[r]
            via = sched.via[i]
            tctx = sched.ctxs[via] if via else ctxs[r]
            placement = tctx.comm.placement
            return placement[tctx.rank], placement[sched.peer[i]]

        def match(s_ref: Tuple[int, int, int],
                  r_ref: Tuple[int, int, int]) -> None:
            """Both sides are ready: emit the send's node (unless done
            already) and the pair node."""
            rs, sidx, gs = s_ref
            envelope, after = folds[gs]
            src, dst = wire_nodes(rs, sidx)
            y = xslot.get(gs)
            if y is None:
                y = emit(step_ins[gs], sw, wt(src, dst, envelope))
            # The first leg after the match goes in ``a``, the rest in ``b``.
            a = b = 0.0
            first = True
            for by_sender, n in after:
                w = wt(src, dst, n) if by_sender else wt(dst, src, n)
                if first:
                    a, first = w, False
                else:
                    b += w
            m = emit((xslot[r_ref[2]], y), a, b)
            if after:
                finish(rs, sidx, m)
            finish(r_ref[0], r_ref[1], m)

        while work:
            r, idx = work.pop()
            sched = scheds[r]
            kind = sched.kind[idx]
            base = lo[r]
            g = base + idx
            ins = (r, *[step_fin[base + d] for d in sched.deps[idx]])
            step_ins[g] = ins
            if kind == COMPUTE:
                finish(r, idx, emit(ins, 0.0, 0.0))
                continue
            if kind == OVERHEAD:
                finish(r, idx, emit(ins, sw, 0.0))
                continue
            other = pair.get(g)
            if other is None:
                continue  # unmatched — reported as a stall below
            # A pair resolves when the second of its two steps is ready.
            if kind == SEND:
                envelope, after = folds[g]
                if not after:
                    # The row ends at the match: the send is done once
                    # its envelope lands.
                    src, dst = wire_nodes(r, idx)
                    xslot[g] = emit(ins, sw, wt(src, dst, envelope))
                    finish(r, idx, xslot[g])
                if step_ins[other[2]] is not None:
                    match((r, idx, g), other)
            else:  # _RECV
                xslot[g] = emit(ins, sw, 0.0)
                if step_ins[other[2]] is not None:
                    match(other, (r, idx, g))

        if resolved < n_steps:
            raise _stalled({r: step_fin[lo[r] : lo[r + 1]].count(-1)
                            for r in range(size)})
        for r in range(size):
            fs = tuple(step_fin[lo[r] : lo[r + 1]])
            plan.rank_fin.append(emit(fs, 0.0, 0.0) if fs else r)
        plan.step_ins = step_ins
        plan.step_fin = step_fin

    # -- replay -------------------------------------------------------------
    def _replay(self, plan: Plan, bufs_of: List[List[Any]]) -> None:
        """Run the plan's order against this call's slot tables — the
        same deliveries, adoptions and snapshots the dataflow
        interpreter makes."""
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
        V: List[float],
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
        get = V.__getitem__
        step_ins = plan.step_ins
        step_fin = plan.step_fin
        step_round = plan.step_round
        for r in range(size):
            lo, hi = plan.lo[r], plan.lo[r + 1]
            n_rounds = plan.rank_rounds[r]
            rtrack = comm.span_track(r)
            psid = spans.complete(
                arrivals[r], fins[r], name, "collective", rtrack,
                None, None,
                {"backend": backend, "nbytes": nbytes_meta,
                 "n_rounds": n_rounds, "n_steps": hi - lo},
            )
            if psid is None:
                continue  # recorder paused mid-collective
            # Round ids live in [0, n_rounds), so flat lists beat
            # dicts here; None marks rounds this rank never runs.
            rstart: List[Optional[float]] = [None] * n_rounds
            rend: List[Optional[float]] = [None] * n_rounds
            for g in range(lo, hi):
                t0 = max(map(get, step_ins[g]))
                t1 = V[step_fin[g]]
                rd = step_round[g]
                s = rstart[rd]
                if s is None or t0 < s:
                    rstart[rd] = t0
                e = rend[rd]
                if e is None or t1 > e:
                    rend[rd] = t1
            for rd in range(n_rounds):
                t0 = rstart[rd]
                if t0 is not None:
                    spans.complete(t0, rend[rd], _round_name(rd), "round",
                                   rtrack, psid)
        spans.instant(now, name, "fastpath.commit", ftrack,
                      attrs={"n_ranks": size})
