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
engine runs the shape.

**Builds are pure.**  A builder reads the call's context and binding
and writes only its schedule: it claims no tag and bumps no
``comm.stats`` counter (the op table's call builders count each call
before any build).  A tag claim records the communicator it is made on
(the call's own, or a hierarchical sub-communicator, by name) and
returns a symbolic block base, ``c * TAG_STRIDE`` for the rank's
``c``-th claim.  Every engine issues a call the same way: the rank
claims the recorded tags in order (:func:`issue_claims`) and the
schedule's tags are resolved before it runs, whether the claims come
from the rank's own build, a shape built for every rank or a retained
plan.  A schedule that claims no tag keeps its tags as written.

**Arrays over ranks.**  The rank-uniform algorithms — the dissemination
barrier, the recursive-doubling allgather and the ring reduce-scatter
and allgather appenders (ring allreduce, the hierarchical allreduce) —
have *wide* builders (:func:`wide`): in round k rank r talks to a fixed
function of (r, k), so a builder emits each step for many ranks at once
into a :class:`Shape`, its peers, tags, byte ranges, rounds and
dependency pattern as arrays over the ranks (Eijkhout's signature
function over a whole distribution).  A :class:`SubShape` runs the same
appenders on every member of one kind of hierarchical sub-communicator.
A shape lays its steps out as the columns the fast path compiles,
rank-major; the other builders' per-rank schedules stack into the same
columns (:meth:`Shape.stack`), one rank wide per step, so there is one
IR.  Its tags are symbolic (a rank's ``c``-th claim is block ``c``)
until :meth:`Shape.resolve` replaces them by the tags each rank claimed
at issue, and :meth:`Shape.slice` turns one rank's part back into its
:class:`Schedule`.

Who builds: the exact engine runs a wide builder on each rank's own
context, where the rank is an int and the same calls build that rank's
:class:`Schedule` (:func:`open_schedule`); the fast path's first rank
to miss builds the call's shape for every rank of its instance, and the
compile reads its columns directly.  A rank whose call differs from the
shape's (the ranks disagree) builds its own schedule instead.

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

import weakref
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import (
    Any, Callable, Generator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ...hw.memory import as_bytes_view, land_bytes
from ...sim.core import GO, NORMAL, PENDING, URGENT, Event, resume
from ...sim.errors import SimulationError
from ..communicator import MpiContext, Request
from ..datatypes import AdoptBuf, Payload, payload_array
from ..errors import MpiError
from .base import TAG_STRIDE, next_tag
from .tape import ranges

__all__ = [
    "Binding", "Call", "Ranks", "Schedule", "ScheduleEngine", "Shape",
    "SubSchedule", "SubShape", "at", "issue_claims",
    "open_schedule", "wide",
    "COPY", "BYTES", "COMBINE", "REBIND",
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

    __slots__ = ("bufs", "sizes", "dtype", "flat", "sig")

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

    def key_dtype(self) -> Optional[str]:
        return None if self.dtype is None else self.dtype.str


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
        return as_bytes_view(arr)[lo:hi]
    return flat[lo // isz : hi // isz]


def payload(bufs: List[Any], ref, flags: int) -> Payload:
    """A send step's payload, resolved at step start."""
    if flags & PACK:
        parts = [as_bytes_view(view(bufs, r)) for r in ref]
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
                land_bytes(dst, src)
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
            raw = as_bytes_view(arr)
            for src, off in init:
                # Read by value: a strided send buffer is copied first.
                land_bytes(raw[off:], np.ascontiguousarray(view(bufs, src)))
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
        #: Bundle name per tag claim, in claim order.
        self.claims: List[str] = []
        self.sizes: List[int] = list(binding.sizes) if binding else []
        #: ``(nbytes, dtype, init, adopt)`` per scratch slot.
        self.scratch: List[Tuple] = []
        self.sig = binding.sig if binding is not None else None
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
        """Claim the next collective tag block on context ``via``: its
        symbolic base (see the module doc)."""
        self.claims.append(self.via_names[via])
        return (len(self.claims) - 1) * TAG_STRIDE

    def resolve(self, tags: Sequence[int]) -> "Schedule":
        """Replace the symbolic tags by the tags this rank claimed
        (``tags``, in claim order)."""
        if tags:
            self.tag = [t if t < 0
                        else tags[t // TAG_STRIDE] + t % TAG_STRIDE
                        for t in self.tag]
        return self

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
# Shapes: a call's steps for many ranks at once
# ---------------------------------------------------------------------------

class Ranks(NamedTuple):
    """Whom a wide builder builds for: ``rank[i]`` is the rank, in a
    communicator of ``size`` ranks, of the shape's ``i``-th rank (-1
    where a sub-communicator view does not cover it)."""

    comm: Any
    rank: np.ndarray
    size: int


def wide(builder: Callable) -> Callable:
    """Mark ``builder`` as wide: given a :class:`Ranks` in place of a
    context, it builds a :class:`Shape` for all of them at once (see
    :func:`open_schedule`)."""
    builder.wide = True
    return builder


def open_schedule(ctx, binding: Optional[Binding] = None):
    """What a wide builder builds into: a :class:`Shape` for the ranks
    of a :class:`Ranks`, or the one rank's own :class:`Schedule` for a
    context — the same builder calls build either, with the rank an
    array or an int."""
    if isinstance(ctx, Ranks):
        return Shape(ctx, binding)
    return Schedule(ctx, binding)


def at(seq, i):
    """``seq[i]`` for an int ``i``, or each ``seq[i]`` of an array of
    them (a wide builder's per-rank index)."""
    return np.asarray(seq)[i] if i.__class__ is np.ndarray else seq[i]


def _sel(x, who):
    """Per-rank value ``x`` (a scalar, or an array over the shape's
    ranks) at the ranks ``who`` (``None``: all)."""
    if x.__class__ is np.ndarray and who is not None:
        return x[who]
    return x


def _lanes(t, who, m: int) -> List[Any]:
    """Template ``t`` — nested tuples whose leaves may be arrays over
    the shape's ranks — as ``m`` plain objects, one per rank of
    ``who``."""
    if t.__class__ is np.ndarray:
        return _sel(t, who).tolist()
    if t.__class__ is tuple:
        if not t:
            return [()] * m
        return list(zip(*(_lanes(x, who, m) for x in t)))
    if isinstance(t, np.generic):
        t = t.item()
    return [t] * m


def _raw(ref, who) -> Tuple:
    """A wire step's ref as its ``(slot, lo, hi)`` row (``hi`` -1: the
    whole slot, ``slot`` -1: no ref)."""
    if ref is None:
        return (-1, 0, 0)
    if ref.__class__ is tuple:
        return tuple(_sel(x, who) for x in ref)
    return (_sel(ref, who), 0, -1)


def _append(rows: List[Tuple], who, name: str) -> List[Tuple]:
    """Per-rank name tuples with ``name`` appended at the ranks ``who``."""
    if who is None and rows.count(rows[0]) == len(rows):
        return [rows[0] + (name,)] * len(rows)
    rows = list(rows)
    for i in range(len(rows)) if who is None else who.tolist():
        rows[i] += (name,)
    return rows


class _View:
    """The builder-facing calls of a :class:`Shape`, on the ranks
    ``_who`` (``None``: all) and the context index ``_via``."""

    shape: "Shape"
    ctx: Ranks
    _who: Optional[np.ndarray]
    _via: Any
    _name: str

    def send(self, ref, peer, tag, after=(), round=0, alias_ok=False,
             donate=False, pack=False) -> np.ndarray:
        flags = (ALIAS if alias_ok or donate else 0) | (
            DONATE if donate else 0) | (PACK if pack else 0)
        return self.shape._add(self._who, SEND, after, round, peer, tag,
                               self._via, ref, flags)

    def recv(self, ref, peer, tag, after=(), round=0) -> np.ndarray:
        return self.shape._add(self._who, RECV, after, round, peer, tag,
                               self._via, ref)

    def compute(self, ops, after=(), round=0) -> np.ndarray:
        return self.shape._add(self._who, COMPUTE, after, round, ref=ops)

    def overhead(self, after=(), round=0) -> np.ndarray:
        return self.shape._add(self._who, OVERHEAD, after, round)

    def buffer(self, nbytes, dtype=np.uint8, init=(), adopt=False):
        return self.shape._buffer(self._who, nbytes, np.dtype(dtype), init,
                                  adopt)

    def claim(self):
        return self.shape._claim(self._who, self._name)

    @property
    def n_rounds(self) -> np.ndarray:
        """Each rank's round count so far (over all the shape's ranks)."""
        return self.shape._rounds.copy()


class SubShape(_View):
    """A :class:`Shape` view on the ranks that are members of one of the
    communicator's hierarchical sub-communicators (all of one size):
    what :class:`SubSchedule` is to a :class:`Schedule`."""

    def __init__(self, shape: "Shape", who: np.ndarray, via: np.ndarray,
                 ctx: Ranks, name: str) -> None:
        self.shape, self.ctx = shape, ctx
        self._who, self._via, self._name = who, via, name


class Shape(_View):
    """A call's steps for ranks ``ranks`` of a communicator, as columns.

    A wide builder (:func:`wide`) appends each step to many ranks in one
    call, through the :class:`Schedule` calls: its arguments are scalars
    or arrays over the shape's ranks, and the handle it gets back is
    such an array (the step's index in each rank's own order, -1 where a
    rank has no such step).  A tag claim returns a symbolic block base,
    ``c * TAG_STRIDE`` for a rank's ``c``-th claim, which :meth:`resolve`
    replaces by the tags each rank claimed.

    Read (after :meth:`done`) as columns over all steps, rank-major —
    rank ``ranks[i]``'s steps are ``lo[i]:lo[i+1]``, in the order a
    per-rank :class:`Schedule` lists them — with the dependencies as
    CSR (``dep_n`` per step, ``dep`` global step ids), each wire step's
    ref as a ``rs`` row (see :func:`_raw`; packs and compute opcodes in
    :attr:`objs`), and the slot table (``base`` per rank, ``size`` per
    slot, the scratch slots as ``sc_*`` columns).  :meth:`stack` makes
    the same columns from per-rank schedules, and :meth:`slice` one
    rank's :class:`Schedule` back.
    """

    def __init__(self, ctx: Ranks, binding: Optional[Binding] = None) -> None:
        self.ctx = ctx
        self._who, self._via, self._name = None, 0, ""
        self.comm = ctx.comm
        self.ranks = np.asarray(ctx.rank, dtype=np.intp)
        n = self.n = len(self.ranks)
        self._bsizes = list(binding.sizes) if binding is not None else []
        self.sigs = [binding.sig if binding is not None else None] * n
        self.claims: List[Tuple[str, ...]] = [()] * n
        self.via_names: List[Tuple[str, ...]] = [("",)] * n
        self.meta: Optional[dict] = None
        self._count = np.zeros(n, dtype=np.intp)
        self._slots = np.full(n, len(self._bsizes), dtype=np.intp)
        self._rounds = np.zeros(n, dtype=np.intp)
        self._steps: List[Tuple] = []
        self._scratch: List[Tuple] = []
        self._objs: List[Tuple] = []

    @property
    def shape(self) -> "Shape":
        """The shape its own builder calls write to (no reference
        cycle: a shape is freed as soon as its last user drops it)."""
        return self

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Schedule:
        return self.slice(i)

    def __iter__(self):
        return map(self.slice, range(self.n))

    @property
    def n_steps(self) -> int:
        return int(self.lo[-1])

    @property
    def rank_rounds(self) -> List[int]:
        return self._rounds.tolist()

    # -- building -----------------------------------------------------------
    def _add(self, who, kind: int, after, round, peer=-1, tag=-1, via=0,
             ref=None, flags=0) -> np.ndarray:
        cnt = self._count
        if who is None:
            loc = handle = cnt.copy()
            cnt += 1
        else:
            loc = cnt[who]
            cnt[who] += 1
            handle = np.full(self.n, -1, dtype=np.intp)
            handle[who] = loc
        rnd = _sel(round, who)
        if who is None:
            np.maximum(self._rounds, rnd + 1, out=self._rounds)
        else:
            self._rounds[who] = np.maximum(self._rounds[who], rnd + 1)
        if kind <= RECV and not flags & PACK:
            ref = _raw(ref, who)
        elif ref is not None:
            self._objs.append((len(self._steps), who, ref))
            ref = None
        self._steps.append((who, loc, kind, rnd, _sel(peer, who),
                            _sel(tag, who), _sel(via, who), flags, ref,
                            [_sel(h, who) for h in after]))
        return handle

    def _buffer(self, who, nbytes, dtype: np.dtype, init, adopt: bool):
        sl = self._slots
        slot = _sel(sl, who).copy()
        if who is None:
            sl += 1
        else:
            sl[who] += 1
        self._scratch.append((who, slot, _sel(nbytes, who), dtype, init,
                              adopt))
        if slot.min() == slot.max():
            return int(slot[0])
        full = np.full(self.n, -1, dtype=np.intp)
        full[slice(None) if who is None else who] = slot
        return full

    def _claim(self, who, name: str):
        n = np.fromiter(map(len, self.claims), np.intp, self.n)
        self.claims = _append(self.claims, who, name)
        n *= TAG_STRIDE
        return int(n[0]) if n.min() == n.max() else n

    def sub(self, name: str) -> Optional[SubShape]:
        """A view on the shape's ranks that are members of the
        hierarchical sub-communicator ``name`` (see
        :meth:`Schedule.sub`), or ``None`` if none is."""
        hier = self.comm.hier_comms()
        rank = np.full(self.n, -1, dtype=np.intp)
        via = np.zeros(self.n, dtype=np.intp)
        sizes = set()
        for i, r in enumerate(self.ranks.tolist()):
            sub = hier.ctx(name, r)
            if sub is not None:
                rank[i], via[i] = sub.rank, len(self.via_names[i])
                sizes.add(sub.size)
        if not sizes:
            return None
        if len(sizes) > 1:
            raise MpiError(f"sub-communicators {name!r} differ in size")
        who = (rank >= 0).nonzero()[0]
        self.via_names = _append(self.via_names, who, name)
        return SubShape(self, who, via, Ranks(None, rank, sizes.pop()), name)

    # -- the columns ----------------------------------------------------------
    def done(self) -> "Shape":
        """Lay the appended steps out as columns (see the class doc)."""
        n = self.n
        lo = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(self._count, out=lo[1:])
        N = int(lo[-1])
        self.lo = lo
        kind = self.kind = np.zeros(N, dtype=np.intp)
        rnd = self.round = np.zeros(N, dtype=np.intp)
        peer = self.peer = np.full(N, -1, dtype=np.intp)
        tag = self.tag = np.full(N, -1, dtype=np.intp)
        via = self.via = np.zeros(N, dtype=np.intp)
        flags = self.flags = np.zeros(N, dtype=np.intp)
        rs = self.rs = np.zeros((3, N), dtype=np.intp)
        rs[0] = -1
        dep_n = self.dep_n = np.zeros(N, dtype=np.intp)
        gids = []
        for who, loc, k, r, p, t, v, f, ref, deps in self._steps:
            g = (lo[:-1] if who is None else lo[who]) + loc
            gids.append(g)
            kind[g], rnd[g], peer[g], tag[g], via[g], flags[g] = (
                k, r, p, t, v, f)
            if ref is not None:
                rs[0, g], rs[1, g], rs[2, g] = ref
            for d in deps:
                dep_n[g] += d >= 0
        ptr = dep_n.cumsum() - dep_n
        dep = self.dep = np.zeros(int(dep_n.sum()), dtype=np.intp)
        for (who, *_, deps), g in zip(self._steps, gids):
            at = ptr[g]
            off = lo[:-1] if who is None else lo[who]
            for d in deps:
                ok = d >= 0
                dep[at[ok]] = off[ok] + d[ok]
                at = at + ok
        self._gids = gids

        # The slot table: every rank's bound slots, then its scratch.
        base = self.base = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(self._slots, out=base[1:])
        size = self.size = np.zeros(int(base[-1]), dtype=np.intp)
        nb = len(self._bsizes)
        if nb:
            size[(base[:-1, None] + np.arange(nb)).reshape(-1)] = np.tile(
                self._bsizes, n)
        sc_g, sc_n, sc_dt, sc_adopt = [], [], [], []
        for who, slot, nbytes, dt, _init, adopt in self._scratch:
            g = (base[:-1] if who is None else base[who]) + slot
            size[g] = nbytes
            sc_g.append(g)
            sc_n.append(size[g])
            sc_dt += [dt] * len(g)
            sc_adopt.append(np.full(len(g), adopt))
        if sc_g:
            g = np.concatenate(sc_g)
            o = g.argsort(kind="stable")
            self.sc_g, self.sc_n = g[o], np.concatenate(sc_n)[o]
            self.sc_dt = [sc_dt[i] for i in o.tolist()]
            self.sc_adopt = np.concatenate(sc_adopt)[o]
        else:
            self.sc_g = self.sc_n = np.zeros(0, dtype=np.intp)
            self.sc_dt, self.sc_adopt = [], np.zeros(0, dtype=bool)
        return self

    @cached_property
    def objs(self) -> List[Any]:
        """Per global step: its compute opcodes or pack refs (``None``
        for every other step)."""
        objs: List[Any] = [None] * self.n_steps
        for j, who, t in self._objs:
            g = self._gids[j].tolist()
            for i, x in zip(g, _lanes(t, who, len(g))):
                objs[i] = x
        return objs

    @cached_property
    def scratch(self) -> List[List[Tuple]]:
        """Per rank: its scratch slots, as :meth:`Schedule.buffer` lists
        them."""
        out: List[List[Tuple]] = [[] for _ in range(self.n)]
        for who, slot, nbytes, dt, init, adopt in self._scratch:
            rows = range(self.n) if who is None else who.tolist()
            m = len(rows)
            for i, x in zip(rows, _lanes((nbytes, dt, init, adopt), who, m)):
                out[i].append(x)
        return out

    @cached_property
    def dep_ptr(self) -> np.ndarray:
        """Where each step's dependencies start in :attr:`dep` (and,
        last, their total)."""
        ptr = np.zeros(len(self.dep_n) + 1, dtype=np.intp)
        np.cumsum(self.dep_n, out=ptr[1:])
        return ptr

    @cached_property
    def rank(self) -> np.ndarray:
        """Per global step: the index of its rank among the shape's."""
        return np.arange(self.n).repeat(np.diff(self.lo))

    def resolve_refs(self, refs: Sequence[Any],
                     owner: np.ndarray) -> np.ndarray:
        """Resolve the refs ``refs`` (a whole slot ``int``, ``(slot, lo,
        hi)`` or ``None``) of ranks ``owner`` to byte ranges, as ``(4,
        n)`` rows: global slot, lo, hi and whole (1 for a whole slot).
        Rank ``i``'s slot ``j`` is global slot ``base[i] + j``; no ref
        is slot ``-1``, zero bytes."""
        return self._resolve(np.fromiter(chain.from_iterable(
            [(x, 0, -1) if x.__class__ is int else _NO_REF if x is None
             else x for x in refs]), np.intp, 3 * len(refs)).reshape(
                 len(refs), 3).T, owner)

    def _resolve(self, rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
        slot, lo, hi = rows
        g = np.where(slot >= 0, self.base[owner] + slot, -1)
        whole = hi < 0
        hi = hi.copy()
        hi[whole] = self.size[g[whole]]
        return np.array((g, lo, hi, whole))

    @cached_property
    def at(self) -> np.ndarray:
        """Every wire step's ref resolved (:meth:`resolve_refs`); a
        packed send is slot -1, its ``hi`` the sum of its parts'
        sizes."""
        kind, rank = self.kind, self.rank
        at = np.zeros((4, len(kind)), dtype=np.intp)
        at[0] = -1
        packed = (kind <= RECV) & ((self.flags & PACK) != 0)
        one = ((kind <= RECV) & ~packed).nonzero()[0]
        at[:, one] = self._resolve(self.rs[:, one], rank[one])
        if packed.any():
            pk = packed.nonzero()[0]
            parts = [self.objs[i] for i in pk.tolist()]
            n_parts = np.fromiter(map(len, parts), np.intp, len(parts))
            part = self.resolve_refs(list(chain.from_iterable(parts)),
                                     rank[pk].repeat(n_parts))
            at[2, pk] = np.bincount(np.arange(len(pk)).repeat(n_parts),
                                    part[2] - part[1], len(pk))
        return at

    def ref_of(self, g: int) -> Any:
        """Global step ``g``'s ref, as a per-rank schedule holds it."""
        if self.kind[g] > RECV or self.flags[g] & PACK:
            return self.objs[g]
        slot, lo, hi = self.rs[:, g].tolist()
        return None if slot < 0 else slot if hi < 0 else (slot, lo, hi)

    @property
    def data_free(self) -> bool:
        """Whether no step moves or touches a byte (a barrier)."""
        wire = self.kind <= RECV
        return not ((self.kind == COMPUTE).any()
                    or (self.rs[0, wire] >= 0).any()
                    or (self.flags & PACK).any())

    def resolve(self, tags: List[List[int]]) -> "Shape":
        """Replace the symbolic tags by the tags each rank claimed
        (``tags[i]``, in claim order), as :meth:`Schedule.resolve`
        does for one rank."""
        n_claims = np.fromiter(map(len, tags), np.intp, len(tags))
        flat = np.fromiter(chain.from_iterable(tags), np.intp,
                           int(n_claims.sum()))
        off = n_claims.cumsum() - n_claims
        sym, rank = self.tag, self.rank
        has = ((sym >= 0) & (n_claims[rank] > 0)).nonzero()[0]
        sym[has] = (flat[off[rank[has]] + sym[has] // TAG_STRIDE]
                    + sym[has] % TAG_STRIDE)
        return self

    def _objs_of(self, i: int) -> Any:
        """Global step → its compute opcodes or pack refs, for the
        shape's ``i``-th rank alone."""
        if "objs" in self.__dict__:
            a, z = int(self.lo[i]), int(self.lo[i + 1])
            return dict(zip(range(a, z), self.objs[a:z]))
        out = {}
        one = np.array([i])
        for j, who, t in self._objs:
            k = i if who is None else int(who.searchsorted(i))
            if who is None or (k < len(who) and who[k] == i):
                out[int(self._gids[j][k])] = _lanes(t, one, 1)[0]
        return out

    def slice(self, i: int, ctx: Optional[MpiContext] = None) -> Schedule:
        """The shape's ``i``-th rank as its own :class:`Schedule`, on
        ``ctx`` (default: the rank's context on the shape's
        communicator)."""
        if ctx is None:
            ctx = self.comm.ctx(int(self.ranks[i]))
        a, z = int(self.lo[i]), int(self.lo[i + 1])
        sched = Schedule(ctx)
        sched.kind = self.kind[a:z].tolist()
        sched.round = self.round[a:z].tolist()
        sched.peer = self.peer[a:z].tolist()
        sched.tag = self.tag[a:z].tolist()
        sched.via = self.via[a:z].tolist()
        sched.flags = self.flags[a:z].tolist()
        ptr = self.dep_ptr
        deps = (self.dep[ptr[a]:ptr[z]] - a).tolist()
        ends = (ptr[a + 1:z + 1] - ptr[a]).tolist()
        sched.deps = [tuple(deps[e - k:e]) for e, k in zip(
            ends, self.dep_n[a:z].tolist())]
        objs = self._objs_of(i)
        sched.ref = [
            objs.get(g) if k > RECV or f & PACK
            else None if s < 0 else s if h < 0 else (s, l, h)
            for g, k, f, (s, l, h) in zip(
                range(a, z), sched.kind, sched.flags,
                self.rs[:, a:z].T.tolist())
        ]
        sched.sizes = self.size[self.base[i]:self.base[i + 1]].tolist()
        sched.scratch = list(self.scratch[i])
        sched.claims = list(self.claims[i])
        sched.via_names = list(self.via_names[i])
        sched.ctxs = [ctx] + [sub_ctx(ctx, name)
                              for name in sched.via_names[1:]]
        sched.sig = self.sigs[i]
        sched.meta = self.meta
        return sched

    @classmethod
    def stack(cls, comm, scheds: Sequence[Schedule]) -> "Shape":
        """The columns of per-rank schedules, rank ``i``'s from
        ``scheds[i]``: each of their steps is one rank wide."""
        n = len(scheds)
        self = cls(Ranks(comm, np.arange(n), n))
        self.sigs = [s.sig for s in scheds]
        self.claims = [tuple(s.claims) for s in scheds]
        self.via_names = [tuple(s.via_names) for s in scheds]
        self.meta = next((s.meta for s in scheds if s.meta), None)
        self._rounds = np.array([s.n_rounds for s in scheds], dtype=np.intp)
        lens = [len(s) for s in scheds]
        lo = self.lo = np.array([0] + lens, dtype=np.intp).cumsum()
        N = int(lo[-1])

        def column(name):
            return np.fromiter(chain.from_iterable(
                getattr(s, name) for s in scheds), np.intp, N)

        self.kind, self.round, self.peer = (column("kind"), column("round"),
                                            column("peer"))
        self.tag, self.via, self.flags = (column("tag"), column("via"),
                                          column("flags"))
        dep_of = list(chain.from_iterable(s.deps for s in scheds))
        self.dep_n = np.fromiter(map(len, dep_of), np.intp, N)
        self.dep = np.fromiter(chain.from_iterable(dep_of), np.intp,
                               int(self.dep_n.sum()))
        self.dep += lo[:-1].repeat(lens).repeat(self.dep_n)
        objs = self.__dict__["objs"] = list(chain.from_iterable(
            s.ref for s in scheds))
        self.rs = np.zeros((3, N), dtype=np.intp)
        self.rs[0] = -1
        one = ((self.kind <= RECV) & ((self.flags & PACK) == 0)).nonzero()[0]
        self.rs[:, one] = np.fromiter(chain.from_iterable(
            [(x, 0, -1) if x.__class__ is int else _NO_REF if x is None
             else x for x in map(objs.__getitem__, one.tolist())]),
            np.intp, 3 * len(one)).reshape(-1, 3).T
        self.base = np.array([0] + [len(s.sizes) for s in scheds],
                             dtype=np.intp).cumsum()
        self.size = np.fromiter(chain.from_iterable(s.sizes for s in scheds),
                                np.intp, int(self.base[-1]))
        scratch = self.__dict__["scratch"] = [s.scratch for s in scheds]
        n_sc = np.array([len(s) for s in scratch], dtype=np.intp)
        flat = list(chain.from_iterable(scratch))
        self.sc_g = ranges(self.base[1:] - n_sc, n_sc)
        self.sc_n = np.array([x[0] for x in flat], dtype=np.intp)
        self.sc_dt = [x[1] for x in flat]
        self.sc_adopt = np.array([x[3] for x in flat], dtype=bool)
        return self


#: A ``None`` ref, as a ``(slot, lo, hi)`` row.
_NO_REF = (-1, 0, 0)


def issue_claims(ctx: MpiContext, claims: Sequence[str]) -> List[int]:
    """Claim a rank's recorded tag blocks at issue, in order, each on
    its named sub-communicator (``""``: the rank's own); returns their
    bases, what :meth:`Schedule.resolve` and :meth:`Shape.resolve`
    take."""
    return [next_tag(sub_ctx(ctx, name)) for name in claims]


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

    @property
    def wide(self) -> bool:
        """Whether the builder builds for many ranks at once."""
        return getattr(self.builder, "wide", False)

    def shape(self, comm, ranks: Sequence[int]) -> "Shape":
        """A wide builder's shape of this call for ``ranks`` of ``comm``,
        laid out as columns, its tags symbolic."""
        shape = self.builder(Ranks(comm, np.asarray(ranks, dtype=np.intp),
                                   comm.size), self.binding, *self.args)
        shape.meta = self.meta
        return shape.done()

    def build(self, ctx: MpiContext) -> Schedule:
        """This rank's own schedule of the call (a wide builder builds
        it for the one rank), its tags symbolic."""
        sched = self.builder(ctx, self.binding, *self.args)
        sched.meta = self.meta
        return sched


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
    builds its shape at issue, claims its tags (in issue order) and
    binds its scratch slots then; a wide builder builds for the rank
    alone, into a :class:`Schedule`, as every other builder does.
    """

    def __init__(self, comm) -> None:
        #: The communicator, which owns the engine: held by proxy, so
        #: the pair is freed without the cyclic collector.
        self.comm = weakref.proxy(comm)
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
        """Build ``call``'s shape and claim its tags now; the returned
        generator drives it to completion."""
        sched = call.build(ctx)
        sched.resolve(issue_claims(ctx, sched.claims))
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
