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

The :class:`ScheduleEngine` executes a schedule by starting each step
the moment its dependencies are done — never waiting for the whole
round — so independent wire transfers overlap exactly the way
hand-written ``isend``/``recv`` loops do.  Blocking
calls ``yield from engine.execute(ctx, call)``; nonblocking ones
``engine.start(ctx, call)`` and get a
:class:`~repro.mpi.communicator.Request`.  The engine is pure
bookkeeping and charges nothing itself.

Steps carry a ``round`` label.  Rounds have no execution semantics
(dependencies alone order the DAG) but they are the unit the autotuner
costs and the unit span trees and ``describe()`` report.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ...sim.core import GO, NORMAL, PENDING, URGENT, Event, resume
from ...sim.errors import SimulationError
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

#: Interned per-round span names ("round0", "round1", ...): every
#: traced collective emits one span per round.
_round_name = lru_cache(maxsize=None)("round{}".format)


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
    """A per-rank DAG of communication/compute steps, as columns.

    :meth:`_add`, the only writer of :attr:`deps`, accepts a dependency
    only on an earlier step: every schedule is a DAG in index order,
    with no cycle or dangling dependency that could stall an engine.
    """

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
        return "\n".join(f"round {r}: " + ", ".join(
            self.label(i) for i, rd in enumerate(self.round) if rd == r
        ) for r in sorted(set(self.round)))

    def label(self, i: int) -> str:
        """Step ``i`` as :meth:`describe` and deadlock chains name it:
        ``send->3 tag 12``, ``recv<-1 tag 12``, ``compute``, ..."""
        kind = self.kind[i]
        if kind > RECV:
            return KIND_NAMES[kind]
        arrow = "->" if kind == SEND else "<-"
        return f"{KIND_NAMES[kind]}{arrow}{self.peer[i]} tag {self.tag[i]}"


def sub_ctx(ctx: MpiContext, name: str) -> Optional[MpiContext]:
    """``ctx``'s context on a named hierarchical sub-communicator."""
    if not name:
        return ctx
    return ctx.comm.hier_comms().ctx(name, ctx.rank)


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

    One execution is a :class:`_Run`, the one event its caller sleeps
    on.  Compute steps run inline; a wire step is no process but its
    ``_send_impl``/``_recv_impl`` generator, driven by the kernel's
    :func:`~repro.sim.core.resume`.  Steps exit into waves that release
    their dependents in the event order a process per step gave.  A
    failed step raises its own exception from the engine.  Every call
    builds its shape at issue (claiming its tags in issue order) and
    binds its scratch slots then.
    """

    def __init__(self, comm) -> None:
        self.comm = comm
        #: Schedules currently executing (inline or background); the
        #: collective ``Comm_free`` drains this before releasing state.
        self.active = 0

    # -- public entry points ------------------------------------------------
    def start(self, ctx: MpiContext, call: Call, name: str = "") -> Request:
        """Run ``call`` in its own process; return a :class:`Request`."""
        return Request(ctx.sim.process(self.execute(ctx, call),
                                       name=name or f"sched(r{ctx.rank})"))

    def execute(
        self, ctx: MpiContext, call: Call
    ) -> Generator[Event, Any, None]:
        """Build ``call``'s shape now; the returned generator drives it
        to completion."""
        sched = call.build(ctx)
        return self._run(ctx, sched, materialize(call.binding,
                                                 sched.scratch))

    def _run(self, ctx, sched: Schedule, bufs) -> Generator[Event, Any, None]:
        if not sched.kind:
            return
        # Span bookkeeping is timing-passive: it only reads sim.now at
        # points the engine already visits, never yields or schedules.
        spans = ctx.sim.spans
        sp_coll = None
        if spans is not None and spans.enabled:
            meta = sched.meta or {}
            name = meta.get("op", "collective")
            if meta.get("algo"):
                name = f"{name}[{meta['algo']}]"
            sp_coll = spans.begin(
                ctx.sim.now, name, "collective",
                ctx.comm.span_track(ctx.rank), attrs={
                    "backend": ctx.comm.backend,
                    "nbytes": meta.get("nbytes", 0),
                    "n_rounds": sched.n_rounds, "n_steps": len(sched),
                },
            )
        run = _Run(ctx, sched, bufs, sp_coll is not None)
        self.active += 1
        try:
            run.pump(issue=True)
            if run.left:
                yield run
        finally:
            self.active -= 1
        if sp_coll is not None:
            for r, (t0, t1) in sorted(run.rounds.items()):
                spans.complete(t0, t1, _round_name(r), "round",
                               sp_coll.track, sp_coll.sid)
            spans.end(ctx.sim.now, sp_coll)


class _Run(Event):
    """One execution of a schedule: the event its caller sleeps on.

    Wire steps exit into *waves*, run where the caller used to wake: a
    wave's first exit schedules ``sched.exit``, which schedules the
    ``sched.wake`` that runs the wave — the two NORMAL hops of a
    finished step process and its caller's wake, so every released
    step starts at the same place in the event order.  A wave accounts
    its exits in step order (the first failure fails the run) and
    starts what they released; the last one delivers the run inline,
    resuming the caller inside the wave.  The name, built only when
    read (a deadlock chain ends here), lists the steps in flight, e.g.
    ``allreduce(r0): recv<-1 tag 12``.
    """

    __slots__ = ("ctx", "sched", "bufs", "missing", "dependents", "ready",
                 "left", "rounds", "exited")

    def __init__(self, ctx: MpiContext, sched: Schedule, bufs: List[Any],
                 stamped: bool) -> None:
        Event.__init__(self, ctx.sim)
        self.ctx, self.sched, self.bufs = ctx, sched, bufs
        #: Unmet dependencies per step, -1 once accounted: a step starts
        #: once ready, so 0 marks it in flight.
        self.missing = missing = [len(d) for d in sched.deps]
        self.dependents = dependents = [[] for _ in missing]
        for i, deps in enumerate(sched.deps):
            for d in deps:
                dependents[d].append(i)
        #: Startable steps, a min-heap: wire ops post in the order the
        #: algorithm listed them (send before recv inside a round).
        self.ready = [i for i, m in enumerate(missing) if not m]
        self.left = len(missing)
        #: Round -> [first step start, last step exit], when traced.
        self.rounds: Optional[dict] = {} if stamped else None
        #: ``(step, ok, value)`` per exit of the coming wave (``None``:
        #: no wave scheduled).
        self.exited: Optional[List[Tuple[int, bool, Any]]] = None

    @property
    def name(self) -> str:
        sched = self.sched
        live = ", ".join(sched.label(i)
                         for i, m in enumerate(self.missing) if m == 0)
        op = (sched.meta or {}).get("op", "collective")
        return f"{op}(r{self.ctx.rank})" + (live and f": {live}")

    def pump(self, issue: bool = False) -> None:
        """Run every ready compute step, then start the ready wire
        steps, lowest index first.  At issue they start back to back
        from one URGENT kick, where their process starts ran; in a wave
        they start inline, as those kicks would have fired next."""
        sched, ready, rounds = self.sched, self.ready, self.rounds
        wire = []
        while ready:
            idx = heappop(ready)
            if rounds is not None and sched.round[idx] not in rounds:
                rounds[sched.round[idx]] = [self.sim._now] * 2
            if sched.kind[idx] == COMPUTE:
                run_ops(self.bufs, sched.ref[idx])
                self.account(idx)
            else:
                wire.append(idx)
        if wire and issue:
            _soon(self.sim, lambda _e: self.start(wire), "sched.start",
                  URGENT)
        elif wire:
            self.start(wire)

    def start(self, wire: List[int]) -> None:
        for idx in wire:
            resume(_Step(self, idx), GO)

    def account(self, idx: int) -> None:
        """Step ``idx`` is done: release its dependents."""
        missing = self.missing
        for j in self.dependents[idx]:
            missing[j] -= 1
            if not missing[j]:
                heappush(self.ready, j)
        missing[idx] = -1
        self.left -= 1
        if self.rounds is not None:
            self.rounds[self.sched.round[idx]][1] = self.sim._now

    def exit(self, idx: int, ok: bool, value: Any) -> None:
        """Wire step ``idx`` ended (``ok``) with ``value``."""
        if self._value is not PENDING:
            return  # the run already failed; a straggler changes nothing
        if self.exited is None:
            self.exited = []
            _soon(self.sim, self._wake, "sched.exit")
        self.exited.append((idx, ok, value))

    def _wake(self, _event: Event) -> None:
        _soon(self.sim, self._wave, "sched.wake")

    def _wave(self, _event: Event) -> None:
        exited = sorted(self.exited, key=itemgetter(0))
        self.exited = None
        for _idx, ok, value in exited:
            if not ok:
                return self.deliver(value, ok=False)
        for idx, _ok, _value in exited:
            self.account(idx)
        try:
            self.pump()
        except SimulationError:
            raise
        except Exception as exc:  # a compute step's: the caller's error
            return self.deliver(exc, ok=False)
        if not self.left:
            self.deliver(None)


def _soon(sim, fn: Callable[[Event], None], name: str,
          priority: int = NORMAL) -> None:
    """Run ``fn`` from a zero-delay event."""
    event = Event(sim, name)
    event.callbacks.append(fn)
    event.succeed(priority=priority)


class _Step:
    """A wire step in flight: its p2p generator, driven by
    :func:`~repro.sim.core.resume`.  Only the callback of the event it
    waits on refers to it, so a finished step (and the frames and
    payloads it holds) is freed by reference counting alone."""

    __slots__ = ("sim", "gen", "run", "idx", "buf", "_target")
    _interrupts = ()
    _resume = resume

    def __init__(self, run: _Run, idx: int) -> None:
        sched = run.sched
        self.sim, self.run, self.idx, self.buf = run.sim, run, idx, None
        # A `via` step runs in a derived communicator's rank/tag space
        # (its own matching stores); the wire is the same either way.
        via = sched.via[idx]
        tctx = sched.ctxs[via] if via else run.ctx
        comm = tctx.comm
        kind = sched.kind[idx]
        if kind == SEND:
            flags = sched.flags[idx]
            self.gen = comm._send_impl(
                tctx.rank, sched.peer[idx],
                payload(run.bufs, sched.ref[idx], flags), sched.tag[idx],
                copy=not flags & ALIAS, donate=bool(flags & DONATE),
            )
        elif kind == RECV:
            ref = sched.ref[idx]
            self.buf = None if ref is None else view(run.bufs, ref)
            self.gen = comm._recv_impl(
                tctx.rank, sched.peer[idx], self.buf, sched.tag[idx]
            )
        else:  # one software-overhead quantum
            self.gen = (ev for ev in (comm._sw(),))

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator ended; a receive that lands short fails."""
        sched = self.run.sched
        if ok and sched.kind[self.idx] == RECV:
            want = sched.nbytes(self.idx)
            if value.nbytes < want:
                ok, value = False, short_recv(sched, value.nbytes, want)
            else:
                land(self.run.bufs, sched.ref[self.idx], self.buf)
        self.run.exit(self.idx, ok, value)
