"""The data-free collective schedule IR and the nonblocking progress engine.

Every collective algorithm in this package compiles a call into a
:class:`Schedule`: a per-rank DAG of **steps** (send / recv / compute /
overhead) with explicit dependencies, stored as columns.  A schedule is
a *shape* — it never holds a payload.  Wire steps name a buffer ref and
compute steps an opcode; the call's buffers arrive separately as a
:class:`Binding`, resolved step by step when each step starts.  That
split (Eijkhout's distribution signature plus local operator, applied
to whatever data the call brings) is what lets the fast-path engine
replay a retained plan without running any builder.

**Buffer refs.**  Slot ``i`` of a schedule is the binding's ``i``-th
buffer, then the schedule's own scratch slots (:meth:`Schedule.buffer`:
an accumulator copied from the send buffer, a staging vector, or an
*adopt* slot a receive may rebind to the in-flight array).  A ref is a
whole slot (an ``int``) or a byte range ``(slot, lo, hi)``; a ``pack``
send concatenates a tuple of refs into a fresh array.

**Compute opcodes** (a compute step runs a tuple of them, in zero
simulated time):

* ``(COPY, src, dst)`` — ``dst[...] = src`` by value;
* ``(BYTES, src, dst)`` — the raw bytes of ``src`` into ``dst``;
* ``(COMBINE, op, a, b, dst)`` — ``dst[...] = op(a, b)`` in place;
* ``(REBIND, op, a, b, slot)`` — slot ``slot`` becomes ``op(a, b)``, a
  fresh array, so an earlier donated send of the old one stays intact.

Operand order is the algorithm's, so results are bit-identical whatever
engine runs the shape.  A schedule also records every tag claim (on the
call's own communicator or a hierarchical sub-communicator, by name)
and every ``comm._count`` its builder made; a plan hit replays both.

The :class:`ScheduleEngine` executes a schedule by starting every step
whose dependencies are satisfied and waiting for the *first* completion
— never for the whole round — so independent wire transfers overlap
exactly the way hand-written ``isend``/``recv`` loops do.  Blocking
calls ``yield from engine.execute(ctx, call)``; nonblocking ones
``engine.start(ctx, call)`` and get a
:class:`~repro.mpi.communicator.Request`.  The engine is pure
bookkeeping and charges nothing itself.

Steps carry a ``round`` label.  Rounds have no execution semantics
(dependencies alone order the DAG) but they are the unit the autotuner
costs and the unit span trees and ``describe()`` report.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ...sim.core import PENDING, Event
from ..communicator import MpiContext, Request
from ..datatypes import AdoptBuf, Payload, payload_array
from ..errors import MpiError
from .base import next_tag

__all__ = [
    "Binding", "Call", "Schedule", "ScheduleEngine", "SubSchedule",
    "blocking", "COPY", "BYTES", "COMBINE", "REBIND",
]

SEND, RECV, COMPUTE, OVERHEAD = 0, 1, 2, 3
KIND_NAMES = ("send", "recv", "compute", "overhead")

#: Send flags: the payload may be sent without a defensive copy
#: (``ALIAS``), may be adopted by the receiver (``DONATE``, implies
#: ``ALIAS``), or is a tuple of refs concatenated at step start
#: (``PACK``).
ALIAS, DONATE, PACK = 1, 2, 4

COPY, BYTES, COMBINE, REBIND = 0, 1, 2, 3

#: Interned per-round span names ("round0", "round1", ...) — every
#: traced collective emits one span per round, so the f-string is paid
#: once per distinct round index, not once per span.
_ROUND_NAMES: List[str] = []


def _round_name(rd: int) -> str:
    names = _ROUND_NAMES
    while len(names) <= rd:
        names.append(f"round{len(names)}")
    return names[rd]


# ---------------------------------------------------------------------------
# Bindings: one call's buffers
# ---------------------------------------------------------------------------

class Binding:
    """A call's buffer table: slot ``i`` is its ``i``-th payload (an
    ndarray, or ``None``/a byte count for timing-only payloads).

    Builders read only :attr:`sizes`, :attr:`dtype` and :attr:`flat`,
    never the buffers; :attr:`sig` is what a plan hit must repeat.
    """

    __slots__ = ("bufs", "sizes", "dtype", "flat", "sig", "tags")

    def __init__(self, payloads: Sequence[Payload], flat: bool = False):
        bufs: List[Any] = []
        sizes: List[int] = []
        for p in payloads:
            if p.__class__ is np.ndarray:
                bufs.append(p)
                sizes.append(p.nbytes)
            elif p is None:
                bufs.append(None)
                sizes.append(0)
            else:
                arr = payload_array(p)
                if arr is None:
                    bufs.append(int(p))
                    sizes.append(int(p))
                else:
                    bufs.append(arr)
                    sizes.append(arr.nbytes)
        self.bufs = bufs
        self.sizes = tuple(sizes)
        first = bufs[0] if bufs else None
        #: dtype of the first payload (the send buffer), if an array.
        self.dtype: Optional[np.dtype] = (
            first.dtype if isinstance(first, np.ndarray) else None
        )
        #: One contiguous receive array rather than per-block buffers.
        self.flat = flat
        self.sig = (self.dtype, flat, self.sizes)
        #: Tag bases claimed when a plan hit was replayed at issue; a
        #: later build of this call reuses them instead of claiming.
        self.tags: Optional[List[int]] = None

    def key_dtype(self) -> Optional[str]:
        return None if self.dtype is None else self.dtype.str


def _u8(arr: np.ndarray) -> np.ndarray:
    return arr.reshape(-1).view(np.uint8)


def view(bufs: List[Any], ref) -> Any:
    """Resolve a buffer ref against a bound slot table."""
    if ref.__class__ is int:
        return bufs[ref]
    slot, lo, hi = ref
    arr = bufs[slot]
    if not isinstance(arr, np.ndarray):
        return arr if arr is None else hi - lo
    flat = arr.reshape(-1)
    isz = flat.itemsize
    if lo % isz or hi % isz:
        return flat.view(np.uint8)[lo:hi]
    return flat[lo // isz : hi // isz]


def payload(bufs: List[Any], ref, flags: int) -> Payload:
    """A send step's payload, resolved at step start."""
    if flags & PACK:
        parts = [_u8(view(bufs, r)) for r in ref]
        return np.concatenate(parts) if parts else np.zeros(0, np.uint8)
    return None if ref is None else view(bufs, ref)


def run_ops(bufs: List[Any], ops) -> None:
    """Run one compute step's opcodes against a bound slot table."""
    for op in ops:
        code = op[0]
        if code == COPY or code == BYTES:
            src = view(bufs, op[1])
            dst = view(bufs, op[2])
            if not isinstance(src, np.ndarray) or not isinstance(
                dst, np.ndarray
            ):
                continue
            if code == COPY:
                dst[...] = src.reshape(dst.shape)
            else:
                dst.reshape(-1).view(np.uint8)[...] = _u8(src)
            continue
        res = op[1].combine(view(bufs, op[2]), view(bufs, op[3]))
        if code == REBIND:
            bufs[op[4]] = res
        else:
            view(bufs, op[4])[...] = res


def short_recv(sched: "Schedule", got: int, want: int) -> MpiError:
    """A collective receive that lands fewer bytes than its buffer:
    the ranks disagree on the count, and the tail would be garbage."""
    op = (sched.meta or {}).get("op", "collective")
    return MpiError(
        f"{op}: a rank received {got} B into a {want} B buffer "
        "(ranks disagree on the count)"
    )


def materialize(binding: Binding, scratch) -> List[Any]:
    """The slot table of one execution: the bound buffers, then fresh
    scratch slots (copies taken now, adopt slots unallocated)."""
    bufs = list(binding.bufs)
    for nbytes, dtype, init, adopt in scratch:
        if adopt:
            bufs.append(AdoptBuf(nbytes, dtype))
            continue
        arr = np.zeros(nbytes // dtype.itemsize, dtype=dtype)
        if init:
            raw = arr.view(np.uint8)
            for src, off in init:
                data = _u8(view(bufs, src))
                raw[off : off + data.size] = data
        bufs.append(arr)
    return bufs


def land(bufs: List[Any], ref, buf) -> None:
    """After a receive into an adopt slot: the slot now holds the
    received (adopted or copied-into) array."""
    if isinstance(buf, AdoptBuf):
        bufs[ref] = buf.array()


# ---------------------------------------------------------------------------
# The shape
# ---------------------------------------------------------------------------

class Schedule:
    """A per-rank DAG of communication/compute steps, as columns."""

    def __init__(self, ctx: Optional[MpiContext] = None,
                 binding: Optional[Binding] = None) -> None:
        self.kind: List[int] = []
        self.deps: List[Tuple[int, ...]] = []
        self.round: List[int] = []
        self.peer: List[int] = []
        self.tag: List[int] = []
        #: Index into :attr:`ctxs`: 0 = the rank's own context.
        self.via: List[int] = []
        #: Wire steps: buffer ref (or ``None``: moves nothing);
        #: compute steps: the opcode tuple.
        self.ref: List[Any] = []
        self.flags: List[int] = []
        #: Contexts wire steps run under, and the hierarchical bundle
        #: name each was looked up by (``""`` = own).
        self.ctxs: List[Optional[MpiContext]] = [ctx]
        self.via_names: List[str] = [""]
        #: Bundle name per tag claim, and every stats counter bumped.
        self.claims: List[str] = []
        self.tallies: List[str] = []
        self.sizes: List[int] = list(binding.sizes) if binding else []
        #: ``(nbytes, dtype, init, adopt)`` per scratch slot.
        self.scratch: List[Tuple] = []
        self.sig = binding.sig if binding is not None else None
        self._tags = binding.tags if binding is not None else None
        #: Collective identity for observability — ``{"op", "algo",
        #: "nbytes"}`` — labelling the spans the engines emit.
        self.meta: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def last(self) -> int:
        """Index of the most recently added step."""
        if not self.kind:
            raise MpiError("empty schedule has no last step")
        return len(self.kind) - 1

    @property
    def n_rounds(self) -> int:
        return 1 + max(self.round, default=-1)

    def _add(self, kind: int, after: Sequence[int], round: int, peer=-1,
             tag=-1, via=0, ref=None, flags=0) -> int:
        idx = len(self.kind)
        deps = tuple(after)
        for d in deps:
            if not (0 <= d < idx):
                raise MpiError(f"step {idx} depends on unknown step {d}")
        self.kind.append(kind)
        self.deps.append(deps)
        self.round.append(round)
        self.peer.append(peer)
        self.tag.append(tag)
        self.via.append(via)
        self.ref.append(ref)
        self.flags.append(flags)
        return idx

    def send(self, ref, peer: int, tag: int, after: Sequence[int] = (),
             round: int = 0, via: int = 0, alias_ok: bool = False,
             donate: bool = False, pack: bool = False) -> int:
        """Send ``ref`` to ``peer`` once ``after`` completed.

        ``via`` runs the step in a sub-communicator's rank and tag
        space (see :meth:`sub`).  ``alias_ok`` marks a collective-private
        payload whose send-time defensive copy may be elided;
        ``donate`` also lets the receiver adopt it (the sender never
        writes it again).  ``pack`` sends the concatenation of the refs
        in ``ref``.
        """
        flags = (ALIAS if alias_ok or donate else 0) | (
            DONATE if donate else 0) | (PACK if pack else 0)
        return self._add(SEND, after, round, peer, tag, via, ref, flags)

    def recv(self, ref, peer: int, tag: int, after: Sequence[int] = (),
             round: int = 0, via: int = 0) -> int:
        """Receive into ``ref`` from ``peer`` (an adopt slot may rebind
        to the in-flight array)."""
        return self._add(RECV, after, round, peer, tag, via, ref)

    def compute(self, ops, after: Sequence[int] = (), round: int = 0) -> int:
        """Run local opcodes (copy/combine) — zero simulated time."""
        return self._add(COMPUTE, after, round, ref=ops)

    def overhead(self, after: Sequence[int] = (), round: int = 0) -> int:
        """Charge one software-overhead quantum (the degenerate-size
        path every algorithm keeps for P == 1)."""
        return self._add(OVERHEAD, after, round)

    def buffer(self, nbytes: int, dtype=np.uint8, init=(),
               adopt: bool = False) -> int:
        """A scratch slot of ``nbytes``: filled with the bytes of
        ``init``'s ``(ref, byte offset)`` pairs when the call starts, or
        (``adopt``) left for a receive to adopt into."""
        self.scratch.append((int(nbytes), np.dtype(dtype), tuple(init),
                             adopt))
        self.sizes.append(int(nbytes))
        return len(self.sizes) - 1

    def size_of(self, ref) -> int:
        """Structural byte size of a (non-pack) ref."""
        if ref is None:
            return 0
        if ref.__class__ is int:
            return self.sizes[ref]
        return ref[2] - ref[1]

    def nbytes(self, i: int) -> int:
        """Structural byte size of wire step ``i``'s buffer."""
        ref = self.ref[i]
        if ref is not None and self.flags[i] & PACK:
            return sum(map(self.size_of, ref))
        return self.size_of(ref)

    def claim(self, via: int = 0) -> int:
        """Claim the next collective tag block on context ``via``."""
        self.claims.append(self.via_names[via])
        if self._tags is not None:
            return self._tags.pop(0)
        return next_tag(self.ctxs[via])

    def count(self, name: str) -> None:
        """Bump a ``comm.stats`` counter (replayed on plan hits)."""
        self.tallies.append(name)
        if self._tags is None:
            self.ctxs[0].comm._count(name)

    def sub(self, name: str) -> Optional["SubSchedule"]:
        """A view of this schedule on one of the communicator's
        hierarchical sub-communicators (``"intra"``, ``"leader"``,
        ``"peer"``, ``"reordered"``), or ``None`` if this rank has
        none."""
        ctx = sub_ctx(self.ctxs[0], name)
        if ctx is None:
            return None
        self.ctxs.append(ctx)
        self.via_names.append(name)
        return SubSchedule(self, len(self.ctxs) - 1)

    def describe(self) -> str:
        """Human-readable round-by-round summary (tests/diagnostics)."""
        by_round: dict = {}
        for i, rd in enumerate(self.round):
            by_round.setdefault(rd, []).append(i)
        lines = []
        for r in sorted(by_round):
            ops = ", ".join(
                KIND_NAMES[self.kind[i]]
                + (f"->{self.peer[i]}" if self.kind[i] == SEND else "")
                + (f"<-{self.peer[i]}" if self.kind[i] == RECV else "")
                for i in by_round[r]
            )
            lines.append(f"round {r}: {ops}")
        return "\n".join(lines)


def sub_ctx(ctx: MpiContext, name: str) -> Optional[MpiContext]:
    """``ctx``'s context on a named hierarchical sub-communicator."""
    if not name:
        return ctx
    return getattr(ctx.comm.hier_comms(), f"{name}_ctx")(ctx.rank)


class SubSchedule:
    """A :class:`Schedule` view bound to a derived communicator.

    Hands an unmodified schedule appender (ring reduce-scatter,
    binomial broadcast …) a sub-communicator to build against: every
    wire step it adds runs ``via`` the bound context, so its peers and
    tags live in the sub-communicator while the steps land in the
    composite parent schedule.
    """

    def __init__(self, sched: Schedule, via: int) -> None:
        self._sched = sched
        self.via = via
        self.ctx = sched.ctxs[via]

    def send(self, ref, peer, tag, after=(), round=0, alias_ok=False,
             donate=False, pack=False) -> int:
        return self._sched.send(ref, peer, tag, after=after, round=round,
                                via=self.via, alias_ok=alias_ok,
                                donate=donate, pack=pack)

    def recv(self, ref, peer, tag, after=(), round=0) -> int:
        return self._sched.recv(ref, peer, tag, after=after, round=round,
                                via=self.via)

    def claim(self) -> int:
        return self._sched.claim(self.via)

    def __getattr__(self, name):
        # compute/overhead/buffer/size_of/n_rounds/last: the parent's.
        return getattr(self._sched, name)


# ---------------------------------------------------------------------------
# A call, as dispatch sees it
# ---------------------------------------------------------------------------

class Call:
    """One collective invocation before any build: its identity, its
    plan key (``None``: never interned), its binding, and the builder
    that makes its shape on a plan miss."""

    __slots__ = ("meta", "key", "binding", "builder", "args")

    def __init__(self, op: str, algo: str, nbytes: int,
                 key: Optional[Tuple], binding: Binding,
                 builder: Callable, args: Tuple = ()) -> None:
        self.meta = {"op": op, "algo": algo, "nbytes": nbytes}
        self.key = key
        self.binding = binding
        self.builder = builder
        self.args = args

    def build(self, ctx: MpiContext) -> Schedule:
        sched = self.builder(ctx, self.binding, *self.args)
        sched.meta = self.meta
        return sched


def blocking(bind: Callable, builder: Callable) -> Callable:
    """Blocking entry point for a schedule builder: ``bind`` turns the
    MPI arguments into ``(binding, builder args)``, then the shape runs
    to completion in the calling process — the single adapter behind
    every name in :data:`~repro.mpi.algorithms.selector.ALGORITHMS`."""

    def run(ctx, *args, **kwargs):
        b, extra = bind(ctx, *args, **kwargs)
        name = builder.__name__[len("build_"):]
        call = Call(name, name, 0, None, b, builder, extra)
        yield from ctx.comm.engine.execute(ctx, call)

    run.__name__ = builder.__name__.replace("build_", "")
    run.__qualname__ = run.__name__
    run.__doc__ = (
        f"Blocking execution of :func:`{builder.__name__}`'s schedule."
    )
    return run


# ---------------------------------------------------------------------------
# The exact engine
# ---------------------------------------------------------------------------

class ScheduleEngine:
    """Executes schedules against a communicator's wire primitives.

    The engine keeps a set of in-flight wire operations (each a spawned
    simulated process driving ``_send_impl``/``_recv_impl``) and reacts
    to the *first* completion, releasing dependent steps immediately:
    each wave sleeps on one plain wake event, which a per-step
    completion callback succeeds.  A failed step raises its own
    exception from the engine.
    Compute steps run inline the moment they unblock.  Every call builds
    its shape at issue (claiming its tags in issue order) and binds its
    scratch slots then.
    """

    def __init__(self, comm) -> None:
        self.comm = comm
        #: Schedules currently executing (inline or background); the
        #: collective ``Comm_free`` drains this before releasing state.
        self.active = 0

    # -- public entry points ------------------------------------------------
    def start(self, ctx: MpiContext, call: Call, name: str = "") -> Request:
        """Run ``call`` in its own process; return a :class:`Request`."""
        proc = ctx.sim.process(
            self.execute(ctx, call),
            name=name or f"sched(r{ctx.rank})",
        )
        return Request(proc)

    def execute(
        self, ctx: MpiContext, call: Call
    ) -> Generator[Event, Any, None]:
        """Build ``call``'s shape now; the returned generator drives it
        to completion."""
        sched = call.build(ctx)
        return self._run(ctx, sched, materialize(call.binding,
                                                 sched.scratch))

    def _run(self, ctx, sched: Schedule, bufs) -> Generator[Event, Any, None]:
        self.active += 1
        try:
            yield from self._execute(ctx, sched, bufs)
        finally:
            self.active -= 1

    def _execute(
        self, ctx: MpiContext, sched: Schedule, bufs: List[Any]
    ) -> Generator[Event, Any, None]:
        import heapq

        kinds = sched.kind
        rounds = sched.round
        n = len(kinds)
        if n == 0:
            return
        # Span bookkeeping is timing-passive: it only reads sim.now at
        # points the engine already visits, never yields or schedules.
        spans = ctx.sim.spans
        if spans is not None and not spans.enabled:
            spans = None
        sp_coll = None
        rstart: dict = {}
        rend: dict = {}
        if spans is not None:
            meta = sched.meta or {}
            track = ctx.comm.span_track(ctx.rank)
            name = meta.get("op", "collective")
            if meta.get("algo"):
                name = f"{name}[{meta['algo']}]"
            sp_coll = spans.begin(
                ctx.sim.now, name, "collective", track,
                attrs={
                    "backend": ctx.comm.backend,
                    "nbytes": meta.get("nbytes", 0),
                    "n_rounds": sched.n_rounds, "n_steps": n,
                },
            )
        missing = [len(d) for d in sched.deps]
        dependents: List[List[int]] = [[] for _ in range(n)]
        for i, deps in enumerate(sched.deps):
            for d in deps:
                dependents[d].append(i)
        #: Min-heap of startable step indices — lowest index first so
        #: wire ops post in the order the algorithm listed them (send
        #: before recv inside a round).
        ready = [i for i in range(n) if missing[i] == 0]
        heapq.heapify(ready)
        sim = ctx.sim
        #: In-flight wire steps not yet accounted: process -> step index.
        running: dict = {}
        done = 0
        #: The event the engine sleeps on during one wave (None while it
        #: runs), succeeded by the first unaccounted step to finish.
        wake: Optional[Event] = None

        def on_done(proc: Event) -> None:
            if (wake is not None and wake._value is PENDING
                    and proc in running):
                wake.succeed()

        def finish(idx: int) -> None:
            for j in dependents[idx]:
                missing[j] -= 1
                if missing[j] == 0:
                    heapq.heappush(ready, j)

        while done < n:
            while ready:
                idx = heapq.heappop(ready)
                rd = rounds[idx]
                if spans is not None and rd not in rstart:
                    rstart[rd] = ctx.sim._now
                if kinds[idx] == COMPUTE:
                    run_ops(bufs, sched.ref[idx])
                    done += 1
                    if spans is not None:
                        rend[rd] = ctx.sim._now
                    finish(idx)
                    continue
                proc = sim.process(
                    self._wire_op(ctx, sched, idx, bufs),
                    name=f"sched.{KIND_NAMES[kinds[idx]]}(r{ctx.rank}:{idx})",
                )
                proc.callbacks.append(on_done)
                running[proc] = idx
            if done >= n:
                break
            if not running:
                raise MpiError(
                    "schedule stalled: cyclic or dangling dependencies"
                )
            wake = Event(sim, "sched.wake")
            yield wake
            wake = None
            # Every step that has finished by now, in step order (a
            # finished process may still be queued to fire).
            finished = sorted(
                (idx, p) for p, idx in running.items()
                if p._value is not PENDING
            )
            for idx, p in finished:
                if p._ok is False:
                    raise p._value
                del running[p]
            if spans is not None:
                # sim.now is monotonic, so every wave overwrites its
                # rounds' end stamps with the latest completion time.
                now = sim._now
                for idx, _p in finished:
                    rend[rounds[idx]] = now
            for idx, _p in finished:
                done += 1
                finish(idx)
        if sp_coll is not None:
            now = ctx.sim.now
            for r in sorted(rstart):
                spans.complete(
                    rstart[r], rend.get(r, now), _round_name(r), "round",
                    sp_coll.track, sp_coll.sid,
                )
            spans.end(now, sp_coll)

    # -- step drivers -------------------------------------------------------
    def _wire_op(
        self, ctx: MpiContext, sched: Schedule, i: int, bufs: List[Any]
    ) -> Generator[Event, Any, Any]:
        # A `via` step runs in a derived communicator's rank/tag space
        # (its own matching stores — tag isolation for free); the wire
        # underneath is the same cluster interconnect either way.
        via = sched.via[i]
        tctx = sched.ctxs[via] if via else ctx
        comm = tctx.comm
        kind = sched.kind[i]
        if kind == SEND:
            flags = sched.flags[i]
            yield from comm._send_impl(
                tctx.rank, sched.peer[i], payload(bufs, sched.ref[i], flags),
                sched.tag[i], copy=not flags & ALIAS,
                donate=bool(flags & DONATE),
            )
        elif kind == RECV:
            ref = sched.ref[i]
            buf = None if ref is None else view(bufs, ref)
            status = yield from comm._recv_impl(
                tctx.rank, sched.peer[i], buf, sched.tag[i]
            )
            if status.nbytes < sched.nbytes(i):
                raise short_recv(sched, status.nbytes, sched.nbytes(i))
            land(bufs, ref, buf)
            return status
        else:
            yield comm._sw()
