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
   per-collective *instance*.  On a hit no builder runs, and the
   binding is checked against the plan's.  On a miss a wide builder
   (barrier, recursive-doubling allgather, ring and hierarchical
   allreduce) runs once per instance, for all ranks: the first rank to
   miss builds the instance's
   :class:`~repro.mpi.algorithms.schedule.Shape`, and every rank whose
   call it serves takes its part.  Any other builder runs per rank and
   deposits its own schedule.  Builds are pure, so every rank then
   issues alike, as the exact engine does: it claims the tag blocks its
   plan, shape or schedule recorded
   (:func:`~repro.mpi.algorithms.schedule.issue_claims`; the call
   builder already counted the call).  The last-arriving rank triggers
   completion (collectives are synchronizing, so nothing can legally
   complete before the last rank shows up).  Each rank's issue time is
   recorded at deposit, so skewed arrivals propagate into the timing
   exactly as they do in the exact engine.  A rank may deposit with a
   *deferred* arrival (:meth:`FastPathEngine.defer_arrival`): an RMA
   fence enters its barrier at once, and the completing instance first
   prices the window's epoch and resolves the arrival to the instant
   the rank's own flush would have waited until.
2. **Compile** (plan miss) — the instance's shape compiles, once and
   from structure alone, to a buffer-free :class:`Plan`:

   * the *pricing tape*: the per-step critical path, compiled for all
     ranks at once over flat arrays (no per-step Python walk).  It
     reads the shape's columns directly — kind, rank, wire key, ref
     rows and the dependencies as CSR; the per-rank schedules of the
     other builders, and of a rank that hit a plan its peers missed
     (built now), are stacked into those columns first — with each
     rank's claimed tags in place of the symbolic ones, and one stable
     ``lexsort`` pairs the k-th send on each ``(comm, src, dst, tag)``
     key with the k-th receive (communicators numbered by first
     appearance).  Each pair folds the eager or rendezvous row of
     :mod:`repro.mpi.p2p` — the rows the exact wire walks — once per
     message size.  Every tape node is ``(max of its inputs + a) + b``
     with wire costs interned from the topology's ``wire_costs``
     (hits/misses surface as ``sim.stats.wire_cost_hits``/
     ``wire_cost_misses``), and the plan keeps the priced wire legs to
     book when fabric accounting is on.  A sweep then resolves the
     nodes one dependency level at a time; each sweep iteration is one
     level of the tape, whose nodes never feed each other, so a run is
     one ``np.maximum.reduceat`` and two adds per level.  The layout
     and the sweep are :mod:`repro.mpi.algorithms.tape`'s, which the
     analytic RMA epochs of :mod:`repro.mpi.rma` run too;
   * the *replay program*, lowered from the tape's order — the steps
     sorted by their node's level, receives first within a level, then
     by slot, so every step runs after the steps it depends on and the
     k-th send on a wire key still meets the k-th receive (the
     matcher's non-overtaking order).  Every buffer ref resolves, for
     all ranks at once, to a byte range of a slot; the tape sizes its
     wire steps from the same resolution.  A pair whose receive comes
     first delivers at its send, and a ``COPY``/``BYTES`` opcode that
     moves the very bytes copies them: each becomes one *move* between
     two slots' byte ranges.  Adopting receives, packed sends, queued
     messages (snapshotted at the send), combines, typed copies into
     strided buffers and timing-only payloads stay *coded entries*
     with the matcher's typed semantics (see ``_lower``).

   Because the tape follows dependencies, not round labels, transfers in
   different rounds overlap exactly as the in-flight wire steps of the
   exact engine do — non-power-of-two binomial trees, whose straggler
   subtrees fire early, price tight instead of paying a per-round
   barrier.  What the model still ignores is channel *contention*
   (concurrent transfers sharing a NIC or spine link serialize in the
   exact engine, never here) — enforced within tolerance at P ≤ 16 by
   ``tests/test_fastpath.py``.
3. **Replay** — every call, first or repeat, runs the program on its
   own buffers: the slots the moves name become flat byte memoryviews,
   the moves run as a tight loop of
   ``dst[a:b] = src[c:d]``, and the coded entries between them make the
   ``_deliver``/adopt/snapshot/combine calls the matcher makes, so data
   results are *bit-identical* to the exact simulator and the payload
   counters read what the matcher's would.  No ref is resolved and no
   message parked or queued per move.  A call whose buffers are laid
   out unlike the compiling call's (a dtype, strides, a timing-only
   payload) compiles afresh instead.  It runs the tape on its own
   arrival times.  The tape uses only
   ``+`` with constants and ``max``, so it is exact for *any* arrival
   skew: a replayed plan yields the very floats a fresh compile does.
4. **Commit** — all per-rank completions go through one
   :class:`~repro.sim.batch.EventBatch`, so 1024 rank completions cost
   a handful of heap operations instead of thousands.

Plans live in one store per fabric (``Topology.plans``), keyed by the
backend (pricing or not), the tuning, ``Topology.signature`` of the
placement and the structural key dispatch forms from the call's
arguments before anything is built (``Call.key``: op, algorithm, root,
size, dtype, reduction op and receive layout), so communicators the
fabric prices and orders alike — two packed jobs on different pods —
compile a shape once.  A plan's legs are kept in the signature's node
labels and booked on the running communicator's own nodes.  A plan is
kept from its first sighting: the store holds it weakly, and each
engine keeps alive the plans it uses, within :data:`PLAN_STEP_BUDGET`
steps, so it dies with the last communicator using it.  A hit is
checked, not trusted: every rank's binding signature (dtype, layout
and slot sizes) must equal the one the plan was compiled from.

What stays exact: point-to-point (``send``/``recv``/``isend``/...) and
the linear ``gather``/``scatter``; host-memory RMA epochs take their own
analytic path in :mod:`repro.mpi.rma`.  Gather and scatter are
schedules like every collective, but ``execute`` hands them to the
inherited exact engine, on every fast-path backend (``pricing``
included, so their data still moves): the root's P-1 transfers share
its NIC, which the contention-free tape ignores, so priced here they
would come out short of exact (gather by 0.1-84%, scatter by 49-93% at
4-16 ranks and 128 B-1 MB).  That one rule goes once the tape prices
the root's NIC.  Selection thresholds, being driven by the same
tuning, match the exact backend exactly.

**Pricing-only mode** (``backend="pricing"``): builds no replay program
and runs only the tape — same critical-path model, bit-identical
simulated times, but receive buffers are left untouched (compute steps
never run).  This is the sweep mode that makes the ``BENCH_scale.json``
sweeps interactive.  Never use it when the program consumes the data
it communicates.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import (
    Any, Callable, Dict, Generator, List, NamedTuple, Optional, Set, Tuple,
)

import numpy as np

from ...hw.memory import nbytes_of
from ...sim.batch import EventBatch
from ...sim.core import Event, us
from ..communicator import Communicator
from ..datatypes import AdoptBuf, payload_array
from ..errors import MpiError
from ..p2p import p2p_row
from .schedule import (
    BYTES, COMPUTE, DONATE, PACK, REBIND, RECV, SEND, Call, Shape,
    ScheduleEngine, issue_claims, materialize, payload, run_ops,
    short_recv, sub_ctx, view, _round_name,
)
from .tape import lay_out, ranges, run_levels

__all__ = ["FastPathEngine", "Plan", "PLAN_STEP_BUDGET"]

# A replay program is a list of runs ``(moves, coded)``: ``moves`` are
# byte moves ``[d, a, b, s, c, e]``, each ``U[d][a:b] = U[s][c:e]`` over
# the call's flat byte views ``U``; ``coded`` is ``None`` or one entry
# the moves cannot express, run on the call's typed slot tables (``u``:
# the byte view it refreshes, or -1):
_RUN = 0      # (_RUN, rank, opcodes, ((slot, u), ...)): compute opcodes
_SEND = 1     # (_SEND, rank, ref, flags, rrank, rref, u): deliver a send
_QUEUE = 2    # (_QUEUE, rank, ref, flags, k): queue a send's message
_TAKE = 3     # (_TAKE, rank, ref, k, u): receive queued message k

_NO_MSG = (None, 0)
#: A rank's item schedule when it took its instance's shared shape.
_SHARED = "shared"

#: Schedule steps the plans one communicator keeps alive may hold in
#: total; shapes past it compile on every call instead, unless another
#: communicator keeps their plan.
PLAN_STEP_BUDGET = 1 << 16


def _stalled(pending: Dict[int, int]) -> MpiError:
    """The error of a shape whose steps cannot all run."""
    stuck = {r: n for r, n in pending.items() if n}
    return MpiError(
        "fast-path schedule stalled (cyclic or unmatched "
        f"wire steps); pending steps per rank: {stuck}"
    )


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
    starts = first.nonzero()[0]
    grp = first.cumsum() - 1
    sends = (side[o] == SEND).astype(np.intp)
    n_send = np.add.reduceat(sends, starts) if len(o) else sends
    n_recv = np.concatenate((starts[1:], [len(o)])) - starts - n_send
    pos = np.arange(len(o)) - starts[grp]
    at = (sends & (pos < n_recv[grp])).nonzero()[0]
    ps = wire[o[at]]
    pr = wire[o[starts[grp[at]] + n_send[grp[at]] + pos[at]]]
    by_send = ps.argsort()
    return ps[by_send], pr[by_send]


@lru_cache(maxsize=None)
def _byte_view_ok(dtype: np.dtype) -> bool:
    """Whether a C-contiguous array of ``dtype`` has a flat byte
    ``memoryview`` (numeric, native byte order, no objects)."""
    try:
        memoryview(np.zeros(1, dtype)).cast("B")
    except (TypeError, ValueError, NotImplementedError):
        return False
    return not dtype.hasobject


def _layout(bound: List[Tuple[int, int]], bufs_of: List[List[Any]]) -> List:
    """What a program lowered for these buffers assumed of its bound
    slots ``(rank, slot)``: the dtype of a writable C-contiguous array,
    ``True`` for any other array, ``False`` for a timing-only payload."""
    return [(x.dtype if (f := x.flags).c_contiguous and f.writeable
             else True) if x.__class__ is np.ndarray else False
            for x in (bufs_of[r][s] for r, s in bound)]


class _Program(NamedTuple):
    """A plan's replay lowered to byte moves (see the module doc).

    Per call, ``U`` starts as the flat byte views of the ``init`` slots
    ``(rank, slot)`` followed by ``late`` empty entries, which coded
    entries fill as adopt slots land; ``queues`` sizes the table of
    queued messages (by pair).  The moves' payload counts are static:
    ``views`` deliveries per call.  The lowering read the layout of the
    ``bound`` slots (``_layout``) as ``layout``.
    """

    runs: List[Tuple]
    init: List[Tuple[int, int]]
    late: int
    queues: int
    views: int
    bound: List[Tuple[int, int]]
    layout: List


def _order(plan: "Plan", kind: np.ndarray) -> np.ndarray:
    """Each step's position in the replay order read off the tape: the
    steps by their node's level, receives first within a level, then by
    slot."""
    P = len(plan.rank_rounds)
    node = plan.step_node
    level = np.array([lv[0] + P for lv in plan.levels]).searchsorted(
        node, side="right")
    return ((2 * level + (kind != RECV)) * (len(plan.a) + P)
            + node).argsort().argsort()


class _Instance:
    """One collective call site: per-rank deposits awaiting the last
    arrival."""

    __slots__ = ("ctxs", "items", "dones", "arrivals", "arrived", "key",
                 "deferred", "shape", "built")

    def __init__(self, size: int) -> None:
        self.ctxs: List[Any] = [None] * size
        #: Per rank: ``(call, schedule, slot table, claimed tags)``,
        #: the schedule symbolic, ``None`` on a plan hit and
        #: :data:`_SHARED` for the instance's :attr:`shape`.
        self.items: List[Any] = [None] * size
        #: A wide builder's shape for all ranks, built by the first rank
        #: that missed, and the ``(builder, args)`` it was built from.
        self.shape: Optional[Shape] = None
        self.built: Optional[Tuple] = None
        self.dones: List[Optional[Event]] = [None] * size
        self.arrivals: List[float] = [0.0] * size
        self.arrived = 0
        #: The plan key every rank formed alike (``None``: not interned).
        self.key: Optional[Tuple] = None
        #: rank → how its deferred arrival resolves (see
        #: :meth:`FastPathEngine.defer_arrival`), or ``None``.
        self.deferred: Optional[Dict[int, Callable]] = None

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
    numbered level by level.  The replay program is lowered from the
    order of the tape (``None`` on the pricing backend and for shapes
    that move no data).
    """

    __slots__ = (
        "key", "lo", "rank_rounds", "n_rounds", "meta", "program", "sigs",
        "scratch", "claims", "ins", "rel", "a", "b", "levels",
        "legs", "step_node", "step_fin", "step_round", "rank_fin",
        "__weakref__",
    )

    def __init__(self, key: Optional[Tuple], shape: Shape,
                 data: bool = True) -> None:
        self.key = key
        #: Step ``i`` of rank ``r`` has global id ``lo[r] + i``.
        self.lo = shape.lo.tolist()
        self.rank_rounds = shape.rank_rounds
        self.n_rounds = max(self.rank_rounds, default=0)
        self.meta = shape.meta
        #: The replay, lowered to byte moves (:class:`_Program`).
        self.program: Optional[_Program] = None
        #: Per rank, what a hit needs instead of a build: the binding
        #: signature to check, the scratch slots to bind (when ``data``
        #: moves), and the tag claims to issue.
        self.sigs = shape.sigs
        self.scratch = ([tuple(x) for x in shape.scratch] if data
                        else None)
        self.claims = shape.claims
        #: The tape, node ``k`` in slot order: its input slots
        #: ``ins[p0 + rel[k] : ...]`` (CSR within its level) and the
        #: constants ``a[k]``, ``b[k]`` (kept apart: ``(t + a) + b``
        #: rounds differently from ``t + (a + b)``); ``levels`` holds
        #: ``(lo, hi, p0, p1)`` per level: its nodes and input entries.
        self.ins = self.rel = np.zeros(0, dtype=np.intp)
        self.a = self.b = np.zeros(0)
        self.levels: List[Tuple[int, int, int, int]] = []
        #: ``(src, dst, nbytes)`` rows, one per priced leg; a node is
        #: labelled by its index among the placement's sorted nodes
        #: (``Topology.signature``'s labels).
        self.legs = np.zeros((0, 3), dtype=np.intp)
        #: Per global step: its tape node (whose inputs are its ready
        #: time), its finish slot and its round.
        self.step_node = self.step_fin = np.zeros(0, dtype=np.intp)
        self.step_round = shape.round
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
        # Arrivals fill the head; every other slot is one node's output,
        # written by its level before any later level reads it.
        v = np.empty(P + len(self.a))  # det: ok - arrivals, then run_levels
        v[:P] = arrivals
        run_levels(v, P, self.ins, self.rel, self.a, self.b, self.levels)
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
        #: rank → how its next deposit's arrival resolves.
        self._deferred: Dict[int, Callable[[int, float], float]] = {}
        topo = comm.cluster.topology
        #: The fabric's plan store, and this engine's part of every key
        #: it looks up there (see the module doc), as one string: a
        #: string keeps its hash, so a lookup does not rehash the
        #: tuning and the signature.
        self._store = topo.plans
        self._space = repr((price_only, comm.tuning,
                            topo.signature(comm.placement)))
        #: The placement's nodes, sorted: a plan's leg labels index it.
        self._nodes = np.unique(comm.placement)
        #: The plans this engine keeps alive, and their schedule steps.
        self._held: Set[Plan] = set()
        self._plan_steps = 0
        #: Skip the replay: price timings only, leave receive buffers
        #: untouched (see module doc).
        self.price_only = price_only

    # -- entry points -------------------------------------------------------
    def execute(self, ctx, call: Call) -> Generator[Event, Any, None]:
        """Claim the instance slot, take a retained plan's recorded
        claims (no build) or build the call's shape, and claim its tags
        — synchronously, at issue, so tag claims keep issue order.
        Gather and scatter run on the exact engine (see the module
        doc)."""
        if call.meta["op"] in ("gather", "scatter"):
            return ScheduleEngine.execute(self, ctx, call)
        self.comm._ensure_alive()
        seq = self._claims[ctx.rank]
        self._claims[ctx.rank] += 1
        key = call.key
        plan = self._lookup(key)
        if plan is None:
            sched, claims, scratch = self._build(ctx, call, seq)
        else:
            if call.binding.sig != plan.sigs[ctx.rank]:
                raise self._mismatch(plan, ctx.rank)
            sched, claims = None, plan.claims[ctx.rank]
            scratch = None if self.price_only else plan.scratch[ctx.rank]
        tags = issue_claims(ctx, claims)
        bufs = None if self.price_only else materialize(call.binding,
                                                        scratch)
        return self._collect(ctx, (call, sched, bufs, tags), seq, key)

    def _build(self, ctx, call: Call, seq: int) -> Tuple:
        """A plan miss at issue: ``(schedule, tag claims, scratch
        slots)``.  A wide builder's shape is built once per instance,
        for all ranks, by its first rank to miss; every rank whose call
        it serves takes its part (:data:`_SHARED`).  A per-rank builder
        — or a wide one on a rank the ranks disagree with — builds the
        rank's own."""
        if call.wide:
            inst = self._instance(seq)
            if inst.shape is None:
                inst.shape = call.shape(self.comm, range(self.comm.size))
                inst.built = (call.builder, call.args)
            shape = inst.shape
            if (inst.built == (call.builder, call.args)
                    and shape.sigs[ctx.rank] == call.binding.sig):
                return _SHARED, shape.claims[ctx.rank], (
                    None if self.price_only else shape.scratch[ctx.rank])
        sched = call.build(ctx)
        return sched, sched.claims, sched.scratch

    def defer_arrival(
        self, rank: int, resolve: Callable[[int, float], float]
    ) -> None:
        """Let ``rank``'s next deposit arrive at ``resolve(rank, deposit
        time)``, evaluated when its instance completes, before the tape
        runs.  A fence deposits into its barrier this way instead of
        first waiting out its epoch's priced finish: that finish is
        only known once every rank's operations are logged, which the
        barrier's last deposit guarantees."""
        self._deferred[rank] = resolve

    def _lookup(self, key: Optional[Tuple]) -> Optional[Plan]:
        return None if key is None else self._store.get((self._space, key))

    def _instance(self, seq: int) -> _Instance:
        inst = self._instances.get(seq)
        if inst is None:
            inst = self._instances[seq] = _Instance(self.comm.size)
        return inst

    def _collect(
        self, ctx, item, seq: int, key: Optional[Tuple]
    ) -> Generator[Event, Any, None]:
        self.active += 1
        try:
            inst = self._instance(seq)
            done = ctx.sim.event(name=f"fastpath(r{ctx.rank}#{seq})")
            inst.deposit(ctx.rank, ctx, item, done)
            if self._deferred:
                resolve = self._deferred.pop(ctx.rank, None)
                if resolve is not None:
                    if inst.deferred is None:
                        inst.deferred = {}
                    inst.deferred[ctx.rank] = resolve
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
        """Resolve the deferred arrivals, look up or compile the
        instance's plan, run its replay program on this call's buffers,
        run its tape on this call's arrivals, and batch-commit the
        per-rank completions."""
        if inst.deferred is not None:
            arrivals = inst.arrivals
            for r, resolve in inst.deferred.items():
                arrivals[r] = resolve(r, arrivals[r])
        comm = self.comm
        sim = comm.sim
        stats = sim.stats
        size = comm.size
        topo = comm.cluster.topology
        spans = sim.spans
        if spans is not None and not spans.enabled:
            spans = None
        items = inst.items
        bufs_of = [item[2] for item in items]
        key = inst.key
        retain = key is not None
        plan = self._lookup(key)
        prog = plan.program if plan is not None else None
        if prog is not None and _layout(prog.bound, bufs_of) != prog.layout:
            # The buffers are laid out unlike the call the program was
            # lowered for (dtype, strides, timing-only payloads):
            # compile this call afresh and keep the retained plan.
            plan, retain = None, False
        fresh = plan is None
        if fresh:
            shape = self._shape(inst)
            plan = Plan(key, shape, not self.price_only)
            ps, pr = self._compile_tape(plan, shape, inst.ctxs)
            if not self.price_only:
                self._lower(plan, shape, ps, pr, bufs_of)
        else:
            for r, (call, sched, _bufs, _tags) in enumerate(items):
                if sched is not None and call.binding.sig != plan.sigs[r]:
                    raise self._mismatch(plan, r)
            stats.fastpath_sched_cache_hits += 1
            if topo.accounting:
                for leg in zip(*self._on_nodes(plan.legs)):
                    topo.account(*leg)
        if plan.program is not None:
            self._replay(plan.program, bufs_of)
        fins, V = plan.run_tape(inst.arrivals, spans is not None)
        stats.fastpath_collectives += 1
        stats.fastpath_rounds += plan.n_rounds
        if spans is not None:
            self._record_spans(inst, plan, V, fins, spans)
        if retain:
            self._keep(plan, fresh)

        batch = EventBatch(sim, name="fastpath")
        now = sim.now
        for r in range(size):
            # A rank whose steps all finish before the last arrival
            # (e.g. an eager-only bcast root) resumes immediately: the
            # instance only resolves once every rank has shown up.
            batch.add(max(fins[r], now), inst.dones[r], None)
        batch.commit()

    def _shape(self, inst: _Instance) -> Shape:
        """The instance's steps for every rank, to compile, with the
        tags each rank claimed: its shared shape, if every rank took
        it; else the ranks' own schedules, stacked (a rank that hit a
        plan its peers missed builds its own now)."""
        items = inst.items
        shape = inst.shape
        if not all(item[1] is _SHARED for item in items):
            shape = Shape.stack(self.comm, [
                shape.slice(r, inst.ctxs[r]) if sched is _SHARED
                else call.build(inst.ctxs[r]) if sched is None else sched
                for r, (call, sched, _bufs, _tags) in enumerate(items)])
        return shape.resolve([item[3] for item in items])

    def _keep(self, plan: Plan, fresh: bool) -> None:
        """Keep ``plan`` alive while this communicator lives, if its
        step budget allows, and publish a ``fresh`` one to the store."""
        if (plan in self._held
                or self._plan_steps + plan.n_steps > PLAN_STEP_BUDGET):
            return
        self._held.add(plan)
        self._plan_steps += plan.n_steps
        if fresh:
            self._store[self._space, plan.key] = plan

    def _on_nodes(self, legs: np.ndarray) -> Tuple[List[int], ...]:
        """The columns of a plan's ``legs`` with its labels replaced by
        this placement's nodes."""
        return (self._nodes[legs[:, 0]].tolist(),
                self._nodes[legs[:, 1]].tolist(), legs[:, 2].tolist())

    @staticmethod
    def _mismatch(plan: Plan, rank: int) -> MpiError:
        return MpiError(
            f"collective plan {plan.key!r} does not match rank {rank}'s "
            "buffers (dtype, layout or sizes differ): its builder "
            "depends on something the plan key omits"
        )

    # -- compile ------------------------------------------------------------
    def _compile_tape(
        self, plan: Plan, shape: Shape, ctxs: List[Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compile the pricing tape for all ranks at once; return what
        the lowering reuses: the pairs' send and receive ids, by send.

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
        priced by :meth:`Topology.wire_costs`, which also books it onto
        the routed channel path when the topology's ``accounting`` flag
        is on; ``plan.legs`` keeps them, relabelled, for replays.  A
        shape whose steps cannot all finish (cyclic or unmatched wire
        steps) raises.
        """
        ib = self.comm._ib
        sw = us(ib.sw_overhead_us)
        P = self.comm.size
        N = plan.n_steps
        lens = shape.lo[1:] - shape.lo[:-1]
        rank = shape.rank
        kind = shape.kind
        n_deps = shape.dep_n
        deps = shape.dep

        # Wire steps: the context each runs under (communicator, own
        # rank in it, that communicator's placement) and its size.
        numbers: Dict[Any, int] = {}
        places: List[int] = []
        place_lo: List[int] = []
        c_lo, c_comm, c_rank = [], [], []
        for r, names in enumerate(shape.via_names):
            c_lo.append(len(c_comm))
            for name in names:
                tctx = sub_ctx(ctxs[r], name)
                tcomm = tctx.comm
                if tcomm not in numbers:
                    numbers[tcomm] = len(numbers)
                    place_lo.append(len(places))
                    places.extend(tcomm.placement)
                c_comm.append(numbers[tcomm])
                c_rank.append(tctx.rank)
        wire = (kind <= RECV).nonzero()[0]
        ctx = np.array(c_lo)[rank[wire]] + shape.via[wire]
        cno = np.array(c_comm)[ctx]
        me = np.array(c_rank)[ctx]
        peer = shape.peer[wire]
        side = kind[wire]  # SEND (0) sorts before RECV (1)
        wsize = shape.at[2] - shape.at[1]
        ps, pr = _pair(wire, side, np.array((
            cno, np.where(side == SEND, me, peer),
            np.where(side == SEND, peer, me), shape.tag[wire])))
        nbytes = wsize[ps]
        short = (nbytes < wsize[pr]).nonzero()[0]
        if short.size:
            j = short[0]
            raise short_recv(shape, int(nbytes[j]), int(wsize[pr[j]]))

        # Fold each message size's row once, lay out every pair's legs
        # (envelope first, then the legs after the match) and price
        # them all through ``wire_costs``, in pair order.
        sizes = np.unique(nbytes)
        fold = sizes.searchsorted(nbytes)
        rows = []
        for n in sizes.tolist():
            row = p2p_row(n, ib)
            rows.append([(leg.by_sender, leg.header + leg.payload * n)
                         for leg in (row.envelope, *row.after)])
        row_lo = np.array([0] + [len(r) for r in rows]).cumsum()
        n_legs = (row_lo[1:] - row_lo[:-1])[fold]
        leg_lo = n_legs.cumsum() - n_legs
        sent = wire.searchsorted(ps)
        base = np.array(place_lo)[cno[sent]]
        # Every communicator's nodes are this placement's (hierarchical
        # parts are sub-communicators); label them as ``plan.legs`` does.
        label = self._nodes.searchsorted(places)
        sn = label[base + me[sent]].repeat(n_legs)
        dn = label[base + peer[sent]].repeat(n_legs)
        j = ranges(np.zeros_like(n_legs), n_legs)
        by_sender, leg_n = np.array(list(chain.from_iterable(rows)),
                                    dtype=np.intp).reshape(-1, 2)[
            row_lo[:-1][fold].repeat(n_legs) + j].T
        fwd = (by_sender != 0) | (j == 0)
        legs = np.array((np.where(fwd, sn, dn), np.where(fwd, dn, sn),
                         leg_n)).T
        plan.legs = legs
        cost = np.array(self.comm.cluster.topology.wire_costs(
            *self._on_nodes(legs)))
        K = len(ps)
        pair_a = np.zeros(K)
        pair_b = np.zeros(K)
        for j in range(1, int(n_legs.max(initial=1))):
            has = (n_legs > j).nonzero()[0]
            if j == 1:
                pair_a[has] = cost[leg_lo[has] + j]
            else:
                pair_b[has] += cost[leg_lo[has] + j]

        # The tape's nodes: arrivals 0..P-1, then one per step, one per
        # pair and one per rank with steps (its completion).  An
        # unpaired wire step finishes at ``never``.
        ranked = lens.nonzero()[0]
        step0, pair0, fin0 = P, P + N, P + N + K
        never = fin0 + len(ranked)
        fin = step0 + np.arange(N)
        fin[wire] = never
        eager = n_legs == 1
        fin[ps[eager]] = step0 + ps[eager]
        fin[ps[~eager]] = pair0 + (~eager).nonzero()[0]
        fin[pr] = pair0 + np.arange(K)
        cnt = np.concatenate((1 + n_deps, np.full(K, 2, np.intp),
                              lens[ranked]))
        ptr = cnt.cumsum() - cnt
        ins = np.zeros(int(cnt.sum()), dtype=np.intp)
        ins[ptr[:N]] = rank
        ins[ranges(ptr[:N] + 1, n_deps)] = fin[deps]
        ins[ptr[N : N + K]] = step0 + pr
        ins[ptr[N : N + K] + 1] = step0 + ps
        ins[len(ins) - N:] = fin
        a = np.where(kind == COMPUTE, 0.0, sw)
        b = np.zeros(N)
        b[ps] = cost[leg_lo]
        a = np.concatenate((a, pair_a, np.zeros(len(ranked))))
        b = np.concatenate((b, pair_b, np.zeros(len(ranked))))

        tape = lay_out(ins, cnt, a, b, P, never)
        slot = tape.slot
        plan.step_fin = slot[fin]
        pending = plan.step_fin == never
        if pending.any():
            raise _stalled(dict(enumerate(
                np.bincount(rank[pending], minlength=P).tolist())))
        plan.ins, plan.rel = tape.ins, tape.rel
        plan.a, plan.b, plan.levels = tape.a, tape.b, tape.levels
        plan.step_node = slot[step0 + np.arange(N)]
        plan.rank_fin = np.arange(P)
        plan.rank_fin[ranked] = slot[fin0 + np.arange(len(ranked))]
        return ps, pr

    @staticmethod
    def _lower(plan: Plan, shape: Shape, ps: np.ndarray, pr: np.ndarray,
               bufs_of: List[List[Any]]) -> None:
        """Lower the replay to a byte-move program (:class:`_Program`),
        from the tape's order (:func:`_order`) and the layout of the
        compiling call's buffers.

        In that order every step comes after the steps it depends on,
        and the k-th send on a wire key meets the k-th receive.  A pair
        whose receive comes first delivers at its send; any other pair
        queues its message at the send (a private snapshot, or the
        donated array) for the receive to take.

        Every ref resolves to a byte range of a slot (:func:`_resolve`).
        A delivery, or a ``COPY``/``BYTES`` opcode, becomes one move if
        its slots hold byte-viewable arrays when it runs, its ranges
        are equal in length (a delivery's receive may be longer), and a
        ``COPY``'s two slots share a dtype its ranges are aligned to, so
        the typed copy moves the very bytes.  A slot is byte-viewable if
        it is scratch, bound to a writable C-contiguous array (read off
        the compiling call, see :func:`_layout`), or an adopt slot after
        the delivery or ``REBIND`` that lands it.  Everything else —
        adopting receives, packed sends, queued messages, combines,
        typed copies into strided buffers, timing-only payloads — stays
        a coded entry with the typed semantics of the exact engine's
        matcher; a coded entry that rebinds a slot refreshes its byte
        view.  A data-free shape (a barrier) gets no program.
        """
        if shape.data_free:
            return
        kind, rank, flags, base, at = (shape.kind, shape.rank, shape.flags,
                                       shape.base, shape.at)
        G = int(base[-1])
        pos = _order(plan, kind)

        # Compute opcodes, flattened, with the refs of ``COPY``/``BYTES``
        # resolved.  An entry's key is its step's position in the
        # order, then its opcode's within the step.
        comp = (kind == COMPUTE).nonzero()[0]
        objs = shape.objs
        ops_of = [objs[i] for i in comp.tolist()]
        ops = list(chain.from_iterable(ops_of))
        n_ops = np.fromiter(map(len, ops_of), np.intp, len(comp))
        op_step = comp.repeat(n_ops)
        M = int(n_ops.max(initial=0)) + 1
        op_code = np.fromiter((op[0] for op in ops), np.intp, len(ops))
        cb = (op_code <= BYTES).nonzero()[0]
        nc = len(cb)
        if ops:
            op_key = pos[op_step] * M + np.arange(len(ops)) - (
                n_ops.cumsum() - n_ops).repeat(n_ops)
            cbl = cb.tolist()
            opnd = shape.resolve_refs(
                [ops[i][2] for i in cbl] + [ops[i][1] for i in cbl],
                rank[np.concatenate((op_step[cb], op_step[cb]))])
        else:
            op_key = np.zeros(0, dtype=np.intp)

        # Candidate moves, one column each — the deliveries whose
        # receive comes first, then the ``COPY``/``BYTES`` opcodes — as
        # destination rows (slot, lo, hi, whole), then source rows.
        direct = pos[pr] < pos[ps]
        xs = (at[0, ps] >= 0) | ((flags[ps] & PACK) != 0)
        dk = (direct & xs).nonzero()[0]
        D = len(dk)
        C = np.concatenate((at[:, pr[dk]], at[:, ps[dk]]))
        key = pos[ps[dk]] * M
        if nc:
            C = np.concatenate((C, np.concatenate((opnd[:, :nc],
                                                   opnd[:, nc:]))), axis=1)
            key = np.concatenate((key, op_key[cb]))
        g2 = C[[0, 4]]

        # The slot table, dense over global slots plus a sentinel for
        # slot -1 (no ref): each slot's dtype code (-1: no byte view)
        # and adopt flag, the scratch slots' read off the schedules, the
        # bound ones' off the compiling call's buffers.
        dtypes: Dict[Any, int] = {np.dtype(np.uint8): 0}
        code = np.full(G + 1, -1, dtype=np.intp)
        adopt = np.zeros(G + 1, dtype=bool)
        bound = np.zeros(G + 1, dtype=bool)
        bound[g2] = True
        sc_g = shape.sc_g
        if len(sc_g):
            code[sc_g] = [dtypes.setdefault(dt, len(dtypes))
                          if n % dt.itemsize == 0 else -1
                          for n, dt in zip(shape.sc_n.tolist(), shape.sc_dt)]
            adopt[sc_g] = shape.sc_adopt
            bound[sc_g] = False
        bound[G] = False
        bg = bound.nonzero()[0]
        br = base.searchsorted(bg, side="right") - 1
        at_bound = list(zip(br.tolist(), (bg - base[br]).tolist()))
        layout = _layout(at_bound, bufs_of)
        code[bg] = [-1 if t is True or t is False
                    else dtypes.setdefault(t, len(dtypes)) for t in layout]
        c2 = code[g2]
        ready = np.array([_byte_view_ok(dt) for dt in dtypes] + [False])[c2]
        queued = ~direct
        tk = qk = np.zeros(0, dtype=np.intp)
        if queued.any():
            tk = (queued & (at[0, pr] >= 0)).nonzero()[0]
            qk = (queued & xs).nonzero()[0]
        if adopt.any():
            # An adopt slot holds no array until its first whole-slot
            # delivery or ``REBIND``.
            rb = (op_code == REBIND).nonzero()[0]
            w = C[3, :D] != 0
            t = pr[tk][at[3, pr[tk]] != 0]
            landed = np.full(G + 1, (len(kind) + 1) * M, dtype=np.intp)
            np.minimum.at(landed, np.concatenate((
                C[0, :D][w], at[0, t], base[rank[op_step[rb]]] + np.fromiter(
                    (ops[i][4] for i in rb.tolist()), np.intp, len(rb)))),
                np.concatenate((key[:D][w], pos[t] * M, op_key[rb])))
            ready &= ~adopt[g2] | (landed[g2] < key)
        n, room = C[6] - C[5], C[2] - C[1]
        move = ready[0] & ready[1]
        move[:D] &= n[:D] <= room[:D]
        if nc:
            move[D:] &= n[D:] == room[D:]
            # A ``COPY`` moves values: their bytes if both views share
            # the slots' dtype (an unaligned range views as bytes, see
            # ``view``).
            isz = np.array([dt.itemsize for dt in dtypes] + [1])[c2[0, D:]]
            move[D:] &= ((op_code[cb] == BYTES)
                         | ((c2[0, D:] == c2[1, D:])
                            & (C[[1, 2, 5, 6], D:] % isz == 0).all(axis=0)))

        # Byte views: the slots moves name that hold arrays from the
        # start, then the adopt slots, set as they land.
        u_of = np.full(G + 1, -1, dtype=np.intp)
        u_of[g2[:, move]] = 0
        need = (u_of[:G] == 0).nonzero()[0]
        late = adopt[need]
        n_init = len(need) - int(late.sum())
        u_of[need[~late]] = np.arange(n_init)
        u_of[need[late]] = np.arange(n_init, len(need))

        # Every entry in order: moves (kind -1), then coded entries.
        other = (op_code > BYTES).nonzero()[0]
        ekind = np.where(move, -1, _RUN)
        ekind[:D][~move[:D]] = _SEND
        if len(qk) or len(tk) or len(other):
            ekind = np.concatenate((ekind, np.full(len(qk), _QUEUE),
                                    np.full(len(tk), _TAKE),
                                    np.full(len(other), _RUN)))
            key = np.concatenate((key, pos[ps[qk]] * M, pos[pr[tk]] * M,
                                  op_key[other]))
        o = key.argsort()
        ekind = ekind[o]
        m = C[:, o[ekind == -1]]
        rows = np.array((u_of[m[0]], m[1], m[1] + m[6] - m[5], u_of[m[4]],
                         m[5], m[6])).T.tolist()

        runs: List[Tuple] = []
        coded = (ekind != -1).nonzero()[0]
        if coded.size:
            eidx = np.concatenate((dk, cb, qk, tk, other))[o[coded]].tolist()
            runs = FastPathEngine._coded(shape, ps, pr, ops, op_step,
                                         op_code, u_of, adopt,
                                         coded.tolist(),
                                         ekind[coded].tolist(), eidx, rows)
        elif rows:
            runs = [(rows, None)]
        init = need[~late]
        ir = base.searchsorted(init, side="right") - 1
        plan.program = _Program(
            runs, list(zip(ir.tolist(), (init - base[ir]).tolist())),
            len(need) - n_init, len(ps) if len(qk) else 0,
            int(move[:D].sum()), at_bound, layout)

    @staticmethod
    def _coded(shape: Shape, ps: np.ndarray, pr: np.ndarray,
               ops: List[Tuple], op_step: np.ndarray, op_code: np.ndarray,
               u_of: np.ndarray, adopt: np.ndarray, coded: List[int],
               kinds: List[int], idx: List[int],
               rows: List[List[int]]) -> List[Tuple]:
        """The program's runs: the moves between coded entries, each
        coded entry built from its kind and index (a pair for
        ``_SEND``/``_QUEUE``/``_TAKE``, an opcode for ``_RUN``, whose
        consecutive opcodes of one step merge into one entry)."""
        rank, flags, base, at = shape.rank, shape.flags, shape.base, shape.at
        ref = shape.ref_of

        def lands(k):
            """The view a coded delivery refreshes: its receive's adopt
            slot, taken whole."""
            g = at[0, pr[k]]
            return int(u_of[g]) if at[3, pr[k]] and adopt[g] else -1

        runs = []
        done = j = 0
        while j < len(coded):
            e, kd, i = coded[j], kinds[j], idx[j]
            upto = e - j
            if kd == _RUN:
                group = [i]
                while (j + 1 < len(coded) and coded[j + 1] == e + 1
                       and kinds[j + 1] == _RUN
                       and op_step[idx[j + 1]] == op_step[i]):
                    j, e = j + 1, e + 1
                    group.append(idx[j])
                r = int(rank[op_step[i]])
                rebinds = []
                for k in group:
                    if op_code[k] == REBIND:
                        u = int(u_of[base[r] + ops[k][4]])
                        if u >= 0:
                            rebinds.append((ops[k][4], u))
                entry = (_RUN, r, tuple(ops[k] for k in group),
                         tuple(rebinds))
            else:
                s, rv = int(ps[i]), int(pr[i])
                if kd == _SEND:
                    entry = (_SEND, int(rank[s]), ref(s), int(flags[s]),
                             int(rank[rv]), ref(rv), lands(i))
                elif kd == _QUEUE:
                    entry = (_QUEUE, int(rank[s]), ref(s), int(flags[s]), i)
                else:
                    entry = (_TAKE, int(rank[rv]), ref(rv), i, lands(i))
            runs.append((rows[done:upto], entry))
            done = upto
            j += 1
        if done < len(rows):
            runs.append((rows[done:], None))
        return runs

    # -- replay -------------------------------------------------------------
    def _replay(self, prog: _Program, bufs_of: List[List[Any]]) -> None:
        """Run a program on this call's slot tables: its moves over the
        slots' flat byte views, its coded entries with the deliveries,
        adoptions and snapshots of the exact engine's matcher."""
        stats = self.comm.sim.stats
        deliver = Communicator._deliver
        U: List[Any] = [memoryview(bufs_of[r][s]).cast("B")
                        for r, s in prog.init]
        U += [None] * prog.late
        queued = [_NO_MSG] * prog.queues
        for moves, coded in prog.runs:
            for d, a, b, s, c, e in moves:
                U[d][a:b] = U[s][c:e]
            if coded is None:
                continue
            code, r = coded[0], coded[1]
            bufs = bufs_of[r]
            if code == _RUN:
                run_ops(bufs, coded[2])
                for slot, u in coded[3]:
                    U[u] = memoryview(bufs[slot]).cast("B")
                continue
            if code == _TAKE:
                # Queued payloads are private (donated, or snapshotted
                # at send time), so an adopt slot may take one over
                # outright — the matcher's adoption path.
                _, _, x, k, u = coded
                buf = view(bufs, x)
                data, nbytes = queued[k]
                if (
                    data is not None
                    and buf.__class__ is AdoptBuf
                    and buf.adopt(data)
                ):
                    stats.payload_adopted += 1
                else:
                    deliver(buf, data, nbytes)
            else:
                _, _, x, flags, *rest = coded
                buf = payload(bufs, x, flags)
                nbytes = nbytes_of(buf) if buf is not None else 0
                arr = payload_array(buf)
                if code == _QUEUE:
                    if arr is not None:
                        if flags & DONATE:
                            # Donated: nothing writes the array again,
                            # so it can sit in the queue un-snapshotted.
                            stats.payload_views += 1
                        else:
                            arr = arr.copy()
                            stats.payload_copies += 1
                    queued[rest[0]] = (arr, nbytes)
                    continue
                # _SEND: source → receive, no snapshot.  Only a donated
                # payload is private here (the live array is otherwise
                # still the sender's).
                rr, x, u = rest
                bufs = bufs_of[rr]
                buf = None if x is None else view(bufs, x)
                if arr is not None:
                    stats.payload_views += 1
                if (
                    flags & DONATE
                    and arr is not None
                    and buf.__class__ is AdoptBuf
                    and buf.adopt(arr)
                ):
                    stats.payload_adopted += 1
                else:
                    deliver(buf, arr, nbytes)
            if buf.__class__ is AdoptBuf:
                # The adopt slot lands: it now holds the received
                # (adopted or copied-into) array.
                arr = bufs[x] = buf.array()
                if u >= 0:
                    U[u] = memoryview(arr).cast("B")
        stats.payload_views += prog.views

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
        size = comm.size
        meta = plan.meta or {}
        name = meta.get("op", "collective")
        if meta.get("algo"):
            name = f"{name}[{meta['algo']}]"
        arrivals = inst.arrivals
        # The last arrival, deferred ones included: the instant the
        # instance resolves in simulated time.
        now = max(arrivals)
        ftrack = f"{comm.root_comm.name}.fastpath"
        spans.complete(
            min(arrivals), now, name, "fastpath.collect", ftrack,
            attrs={"n_ranks": size},
        )
        spans.instant(now, name, "fastpath.interpret", ftrack,
                      attrs={"priced": plan.program is None})
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
                V[plan.ins[ranges(start[k], n)]], np.cumsum(n) - n)
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
