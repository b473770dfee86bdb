"""One-sided communication: MPI-3 windows over the simulated fabric.

The send/recv layer always needs the target's cooperation — a matching
receive, tag FIFO order, rendezvous handshakes.  A :class:`Window`
removes all of that from the data path: a rank exposes a region of its
memory, and any other rank moves bytes into or out of it with
``put``/``get``/``accumulate`` while the target's CPU does nothing at
all.  That is RDMA semantics, and it is the natural extension of the
paper's DCGN model (communication *sourced* by data-parallel code, no
CPU rendezvous) down into the wire protocol itself: a GPU kernel's halo
push needs no matching receive anywhere.

Wire model (all charges ride the existing
:class:`~repro.hw.topology.Topology` channels, so contention appears
wherever the fabric would contend):

* **eager** — payloads at or below the autotuned
  ``rma_eager_max_bytes`` travel as one wire transfer (header +
  inlined payload) and land through a bounce copy on the target host's
  staging path (the intra-node shared-memory channel).  One fabric
  latency, but the target memory system pays a copy.
* **rendezvous (true RDMA)** — larger payloads first pay an
  rkey/validation header round-trip, then the payload is written
  *directly* into the registered window memory: zero-copy, no target
  involvement beyond the NIC.  Window memory is registered at creation,
  which is why no per-operation registration appears.
* the origin charges :attr:`~repro.hw.params.IbParams.rma_setup_us`
  per operation (WQE build + doorbell) instead of the heavier
  two-sided ``sw_overhead_us`` — the one-sided path has no matching
  software stack.

Synchronization implements all three MPI-3 modes:

* **fence** — collective epochs (:meth:`WinContext.fence`);
* **PSCW** — post/start/complete/wait generalized active target
  (:meth:`WinContext.post` / :meth:`~WinContext.start` /
  :meth:`~WinContext.complete` / :meth:`~WinContext.wait_sync`);
* **passive target** — :meth:`WinContext.lock` /
  :meth:`~WinContext.lock_all` with shared/exclusive semantics and
  :meth:`~WinContext.flush` completion.

Completion semantics are *remote completion*: the simulated process
behind every operation finishes only once the bytes have landed in (or
been read from) the target window, so ``flush``/``fence``/``rput.wait``
all guarantee target visibility — the strongest of the completions MPI
allows, and the one that keeps the model simple to reason about.

Accumulates additionally honour MPI's per-(origin, target) ordering
guarantee: they apply in program order even when their wire transfers
would complete out of order, and each element applies atomically (one
simulated instant).

**One leg table, two walkers.**  Each operation's wire protocol is
data: a row of :data:`repro.mpi.rma_wire.PROTOCOLS` lists its legs in
order — request and response wire legs, the target staging copy, a
device window's PCIe read/write, the same-pair order point and the
apply point.  A coalesced-put batch is the eager put row under its own
counter, span and process name.  Every op enters through
:meth:`Window.start`, which checks everything before it touches
anything; the exact backend then walks the row in one process per op
(:meth:`Window._walk`, each leg a transfer on the contended channels).
On a ``backend="analytic"`` or
``"pricing"`` communicator, a host-window op's issue instead logs one
row (origin, target, protocol row, bytes, issue time) and prices
nothing.  A window's logged rows are priced together, in issue order,
at the first point that needs a finish time: the barrier of a fence or
a collective ``free``, a ``flush``/``unlock``/``complete``, or an op
that needs its own event (``get``/``rput``/``rget``/``get_accumulate``
and the DCGN comm threads' ops, which price up to and including
themselves).  :meth:`Window._settle` turns each row's legs into nodes
of the collective fast path's max-plus tape
(:mod:`repro.mpi.algorithms.tape`), chained through the two
serialization points of the exact model — the origin's NIC injection
path and the target's staging channel — each booked in issue order.
The tape needs no node for the same-pair order point: the staging
channel, booked in issue order, already holds each accumulate behind
the pair's previous one (see :class:`~repro.mpi.rma_wire.TapePricer`).
Each leg's end-to-end time comes from the topology's interned
``wire_costs`` — the cache the collective fast path shares
(``sim.stats.wire_cost_hits``/``wire_cost_misses``).  Response
legs add pure wire time and book no channel: a future booking there
would delay traffic the target issues *now*, a start-time inversion the
exact FIFO channels never exhibit.

An analytic epoch commits per-(origin, target) finish times at the
synchronization point: ``complete``/``unlock``/``flush`` wait for one
computed instant instead of joining a process per op, and a ``fence``
or collective ``free`` does not wait at all — its rank enters the
barrier at once, with an arrival the barrier resolves to that instant
(:meth:`~repro.mpi.algorithms.fastpath.FastPathEngine.defer_arrival`).
Payload bytes apply at issue (legal: epochs forbid conflicting access
until the sync point; ``"pricing"`` skips data application entirely),
and ``get``/``rput``/``rget``/``get_accumulate`` get a real event at
their computed finish.  The exact walk keeps the order point: it
releases the pair's next accumulate when the op ends.  Device-memory
windows keep the exact walk (the tape does not model the contended PCIe
hop), as does the lock machinery.  What the tape ignores: receive-side
occupancy queueing and spine contention — second-order on the modeled
fabrics.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..hw.memory import HostBuffer
from ..sim.batch import EventBatch
from ..sim.core import Event, Process, us
from .communicator import Communicator, Request
from .datatypes import ReduceOp
from .errors import RmaError
from .p2p import HEADER_BYTES
from .rma_wire import CODES, COALESCED, ROWS, Protocol, TapePricer

__all__ = ["Window", "WinContext", "RMA_TAG_BASE"]

#: Tag space of RMA control messages (PSCW post/complete notifications),
#: far above the collective tag blocks.
RMA_TAG_BASE = 1 << 28

#: Per-window control-tag stride (post, complete).
_TAG_STRIDE = 4
_TAG_POST = 0
_TAG_COMPLETE = 1

def _apply(
    view: np.ndarray,
    data: Optional[np.ndarray],
    op: Optional[ReduceOp],
    out: Optional[np.ndarray],
) -> None:
    """An op's effect at its apply point: ``out`` (a get's or a
    get_accumulate's result) receives the target elements as they
    were, then ``data`` is written or, under a reduction ``op``,
    combined in."""
    if out is not None:
        out[...] = view
    if op is not None:
        view[...] = op.combine(view, data)
    elif data is not None:
        view[...] = data


class _Batch(list):
    """Coalesced puts to one target not yet on the wire: each put's
    ``_apply`` arguments in issue order, and their byte total."""

    nbytes = 0


class _LockState:
    """Passive-target lock state of one window rank (NIC-side)."""

    __slots__ = ("holders", "waitq")

    def __init__(self) -> None:
        #: origin rank → holds exclusively?
        self.holders: Dict[int, bool] = {}
        #: FIFO of (grant event, origin, exclusive) waiters.
        self.waitq: List[Tuple[Event, int, bool]] = []

    def can_grant(self, exclusive: bool) -> bool:
        if exclusive:
            return not self.holders
        return not any(self.holders.values())


class Window:
    """A one-sided memory window over a communicator.

    ``bufs`` names each rank's exposed region: a NumPy array, a
    :class:`~repro.hw.memory.HostBuffer`, a
    :class:`~repro.gpusim.memory.DeviceBuffer` (GPU global memory —
    remote access then pays the target-side PCIe hop, G92-era hardware
    has no NIC-to-GPU path), or ``None`` for a zero-size window.
    Offsets in every operation are in *elements* of the target rank's
    window dtype (MPI displacement-unit semantics).

    Simulated ranks create windows collectively via
    :meth:`MpiContext.win_create` / :meth:`MpiContext.win_allocate`;
    the driver-level constructor here is what those land on (and what
    tests/benchmarks may call directly).

    ``passive_all=True`` puts the window in the permanently-exposed
    mode DCGN's comm threads use: no epoch discipline is enforced and
    every operation completes remotely on its own — the comm thread,
    as the sole MPI caller on its node, provides the consistency the
    epochs would.
    """

    def __init__(
        self,
        comm: Communicator,
        bufs: Sequence[Any],
        name: str = "",
        passive_all: bool = False,
        coalesce: bool = False,
    ) -> None:
        comm._ensure_alive()
        if len(bufs) != comm.size:
            raise RmaError("win_create needs one buffer entry per rank")
        self.comm = comm
        self.sim = comm.sim
        self.passive_all = passive_all
        self.wid = comm._win_count
        comm._win_count += 1
        self.name = name or f"{comm.name}.win{self.wid}"
        self._ib = comm._ib
        self._freed = False
        self._arrays: List[Optional[np.ndarray]] = []
        self._device: List[Optional[Any]] = []
        for rank, buf in enumerate(bufs):
            arr, dev = self._adopt(rank, buf)
            self._arrays.append(arr)
            self._device.append(dev)
        size = comm.size
        #: Per-origin access-epoch mode: None | "fence" | "pscw".
        self._mode: List[Optional[str]] = [None] * size
        #: Per-origin PSCW access group (targets ``start`` named).
        self._start_group: List[Optional[frozenset]] = [None] * size
        #: Per-target PSCW exposure group (origins ``post`` named).
        self._exposure: List[Optional[Tuple[int, ...]]] = [None] * size
        #: Per-origin passive locks held: target → exclusive?
        self._locks_held: List[Dict[int, bool]] = [dict() for _ in range(size)]
        self._lock_all: List[bool] = [False] * size
        #: Per-target NIC lock state.
        self._lock_state: List[_LockState] = [_LockState() for _ in range(size)]
        #: Per-origin in-flight operation processes, by target.
        self._outgoing: List[Dict[int, List[Process]]] = [
            dict() for _ in range(size)
        ]
        #: (origin, target) → completion event of the last accumulate
        #: (MPI ordering guarantee: same-pair accumulates apply in
        #: program order).
        self._acc_tail: Dict[Tuple[int, int], Event] = {}
        self._eager_max = int(comm.tuning.rma_eager_max_bytes)
        #: MVAPICH2-style put coalescing: consecutive small eager puts
        #: to one target inside an epoch are buffered and ride a single
        #: wire transfer (one header, one fabric latency) at the next
        #: completion point or conflicting operation.  Off by default —
        #: existing timings stay byte-stable.
        self.coalesce = coalesce
        #: origin → target → the batch of puts not yet on the wire.
        self._pending_puts: List[Dict[int, _Batch]] = [
            dict() for _ in range(size)
        ]
        #: Analytic fast path (see module doc): log host-window ops and
        #: price them as one tape at their sync point instead of
        #: spawning wire processes.
        self._an = comm.backend != "exact"
        self._price_only = comm.backend == "pricing"
        if self._an:
            self._pricer = TapePricer(comm)
            #: Unpriced ops in issue order, six entries each: origin,
            #: target, row number, nbytes, issue time, span extra.
            self._log: List[Any] = []
            #: origin → target → latest priced op finish time.
            self._an_fins: List[Dict[int, float]] = [
                dict() for _ in range(size)
            ]
        comm._windows[self.wid] = self
        comm._count("win_create")

    # -- construction helpers ----------------------------------------------
    def _adopt(
        self, rank: int, buf: Any
    ) -> Tuple[Optional[np.ndarray], Optional[Any]]:
        if buf is None:
            return None, None
        if isinstance(buf, np.ndarray):
            if not buf.flags["C_CONTIGUOUS"]:
                raise RmaError("window memory must be C-contiguous")
            return buf, None
        # DeviceBuffer duck-typed to avoid importing gpusim eagerly.
        device = hasattr(buf, "device_id") and hasattr(buf, "data")
        if not (device or isinstance(buf, HostBuffer)):
            raise RmaError(
                f"cannot expose {type(buf).__name__} as window memory"
            )
        node = self.comm.placement[rank]
        if buf.node_id != node:
            raise RmaError(
                f"rank {rank} (node {node}) cannot expose "
                f"{'device' if device else 'host'} memory living on "
                f"node {buf.node_id}"
            )
        return buf.data, (buf if device else None)

    @classmethod
    def allocate(
        cls,
        comm: Communicator,
        count: int,
        dtype=np.float64,
        name: str = "",
        passive_all: bool = False,
        coalesce: bool = False,
    ) -> "Window":
        """Driver-level ``MPI_Win_allocate``: every rank gets ``count``
        fresh elements of ``dtype`` on its own node."""
        bufs = [
            comm.cluster.nodes[comm.placement[r]].alloc(
                count, dtype=dtype, name=f"win.r{r}"
            )
            for r in range(comm.size)
        ]
        return cls(
            comm, bufs, name=name, passive_all=passive_all,
            coalesce=coalesce,
        )

    # -- introspection ------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm.size

    def region(self, rank: int) -> Optional[np.ndarray]:
        """Rank ``rank``'s exposed memory (driver/tests view)."""
        return self._arrays[rank]

    def nbytes_of(self, rank: int) -> int:
        arr = self._arrays[rank]
        return 0 if arr is None else int(arr.nbytes)

    def ctx(self, rank: int) -> "WinContext":
        """The window facade rank ``rank`` drives."""
        self.comm._check_rank(rank)
        return WinContext(self, rank)

    def free(self) -> None:
        """Driver-level release; any further operation raises.  Refuses
        while operations are still on the wire (a landing transfer
        would write through the released arrays) — complete them first
        (``flush`` / the collective :meth:`WinContext.free`)."""
        self._ensure_usable()
        if any(pend for pend in self._pending_puts):
            raise RmaError(
                f"cannot free window {self.name!r} with coalesced puts "
                "still buffered (flush first)"
            )
        for lists in self._outgoing:
            for procs in lists.values():
                if any(p.is_alive for p in procs):
                    raise RmaError(
                        f"cannot free window {self.name!r} with "
                        "operations in flight (flush first)"
                    )
        if self._an and (self._log or any(fins for fins in self._an_fins)):
            raise RmaError(
                f"cannot free window {self.name!r} with analytic "
                "operations unflushed (flush first)"
            )
        self._freed = True
        self._arrays = []
        self._device = []
        self._outgoing = []
        self._pending_puts = []
        self._acc_tail.clear()
        self.comm._windows.pop(self.wid, None)
        self.comm._count("win_free")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Window {self.name!r} over {self.comm.name!r}>"

    # -- guards -------------------------------------------------------------
    def _ensure_usable(self) -> None:
        self.comm._ensure_alive()
        if self._freed:
            raise RmaError(f"window {self.name!r} has been freed")

    def _require_access(self, origin: int, target: int, what: str) -> None:
        self._ensure_usable()
        self.comm._check_rank(target)
        if self.passive_all:
            return
        mode = self._mode[origin]
        if mode == "fence":
            return
        if mode == "pscw" and target in (self._start_group[origin] or ()):
            return
        if self._lock_all[origin] or target in self._locks_held[origin]:
            return
        raise RmaError(
            f"{what} by rank {origin} targeting rank {target} outside "
            "any access epoch (fence / start / lock first)"
        )

    def _target_view(
        self, target: int, offset: int, count: int, what: str
    ) -> np.ndarray:
        flat = self._arrays[target].reshape(-1)
        if offset < 0 or offset + count > flat.size:
            raise RmaError(
                f"{what}: [{offset}, {offset + count}) outside rank "
                f"{target}'s window of {flat.size} elements"
            )
        return flat[offset : offset + count]

    def _as_elems(
        self, data: Any, target: int, what: str, writable: bool = False
    ) -> np.ndarray:
        """``data`` as a flat array of ``target``'s window dtype."""
        win = self._arrays[target]
        if win is None:
            raise RmaError(
                f"{what}: rank {target} exposes a zero-size window"
            )
        arr = data.data if isinstance(data, HostBuffer) else data
        if not isinstance(arr, np.ndarray):
            raise RmaError(f"{what} needs an array payload")
        if arr.dtype != win.dtype:
            raise RmaError(
                f"{what}: payload dtype {arr.dtype} does not match the "
                f"target window dtype {win.dtype}"
            )
        if writable and not arr.flags["C_CONTIGUOUS"]:
            # reshape(-1) would hand back a copy and the results would
            # silently vanish into it; fail loudly like the two-sided
            # deliver path does.
            raise RmaError(
                f"{what} needs a C-contiguous result buffer"
            )
        return arr.reshape(-1)

    # -- building blocks ----------------------------------------------------
    def _op_span(
        self, t0: float, t1: float, origin: int, target: int,
        row: Protocol, nbytes: int, proto: Optional[str],
        extra: Optional[Tuple[str, Any]],
    ) -> None:
        """Record one one-sided op as a span on the origin's track.

        The exact walk records its own lifetime; the analytic one
        ``[issue, priced fin]``, once its batch is priced — the span
        carries the priced duration even though nothing simulates it.
        """
        spans = self.sim.spans
        if spans is not None:
            attrs = {"nbytes": nbytes, "win": self.name}
            if proto is not None:
                attrs["proto"] = proto
            if extra is not None:
                attrs[extra[0]] = extra[1]
            spans.complete(
                t0, t1, f"{row.span}->r{target}", "rma.op",
                self.comm.span_track(origin), attrs=attrs,
            )

    def _pcie(self, target: int):
        """The target's PCIe link when its window is device memory."""
        dev = self._device[target]
        if dev is None:
            return None
        node = self.comm.cluster.nodes[self.comm.placement[target]]
        return node.gpus[dev.device_id].pcie

    def _an_usable(self, target: int) -> bool:
        """Host-window targets price analytically; device windows keep
        the exact walk (PCIe contention)."""
        return self._an and self._device[target] is None

    def _track(self, origin: int, target: int, proc: Process) -> Process:
        lists = self._outgoing[origin]
        procs = lists.setdefault(target, [])
        # Prune completed ops lazily so long passive epochs stay bounded.
        if len(procs) > 32:
            lists[target] = procs = [p for p in procs if p.is_alive]
        procs.append(proc)
        return proc

    # -- the two walkers of a protocol row ----------------------------------
    def _settle(self) -> List[float]:
        """The analytic walk: price every logged op, in issue order, as
        one tape (:class:`~repro.mpi.rma_wire.TapePricer`); returns
        their finish times, in log order.  The fins are booked per
        (origin, target), and ``rma.op`` spans run from each op's issue
        to its priced finish."""
        log = self._log
        if not log:
            return []
        self._log = []
        o, t, code, nb, t0, extra = (log[i::6] for i in range(6))
        fins = self._pricer.price(o, t, code, nb, t0)
        an_fins = self._an_fins
        for origin, target, f in zip(o, t, fins):
            booked = an_fins[origin]
            if f > booked.get(target, 0.0):
                booked[target] = f
        if self.sim.spans is not None:
            for i, c in enumerate(code):
                self._op_span(t0[i], fins[i], o[i], t[i], ROWS[c], nb[i],
                              None if c == COALESCED else "analytic",
                              extra[i])
        return fins

    def _walk(
        self,
        row: Protocol,
        origin: int,
        target: int,
        nbytes: int,
        applies: Sequence[Tuple[Any, ...]],
        land: Optional[Tuple[np.ndarray, np.ndarray]],
        prev: Optional[Event],
        done: Optional[Event],
        extra: Optional[Tuple[str, Any]],
    ) -> Generator[Event, Any, None]:
        """The exact walk: ``row``'s legs as transfers on the contended
        channels, in one process.  ``applies`` are the ``_apply`` calls
        of the apply point; ``land`` copies a fetched result into the
        origin's buffer once the response arrives; ``done`` releases
        the pair's next accumulate when the walk ends."""
        comm = self.comm
        pcie = self._pcie(target)
        t0 = self.sim.now
        try:
            for leg, carries in row.legs:
                n = nbytes if carries else 0
                if leg == "req":
                    yield from comm._wire(origin, target, HEADER_BYTES + n)
                elif leg == "rsp":
                    yield from comm._wire(target, origin, HEADER_BYTES + n)
                elif leg == "stage":
                    yield from comm._wire(target, target, n)
                elif leg == "order":
                    if prev is not None and not prev.triggered:
                        yield prev
                elif leg == "apply":
                    for args in applies:
                        _apply(*args)
                elif pcie is not None:
                    if leg == "pcie_r":
                        yield from pcie.read(n)
                    else:
                        yield from pcie.write(n)
            if land is not None:
                land[0][...] = land[1]
            self._op_span(t0, self.sim.now, origin, target, row, nbytes,
                          row.proto, extra)
        finally:
            if done is not None:
                done.succeed(None)

    def _launch(
        self,
        code: int,
        origin: int,
        target: int,
        nbytes: int,
        applies: Sequence[Tuple[Any, ...]] = (),
        land: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        want_event: bool = False,
        extra: Optional[Tuple[str, Any]] = None,
    ) -> Optional[Event]:
        """Put protocol row number ``code`` on the wire, now.  On the
        analytic path it is logged for the next sync point (the caller
        applied its data already) and returns nothing — unless
        ``want_event``: then the log is priced through this op, which
        gets an event at its finish.  On the exact path it returns the
        tracked process walking the row."""
        row = ROWS[code]
        if row.counter is not None:
            self.comm._count_unchecked(row.counter)
        if self._an_usable(target):
            self._log.extend(
                (origin, target, code, nbytes, self.sim.now, extra))
            self.sim.stats.fastpath_rma_ops += 1
            if not want_event:
                return None
            fin = self._settle()[-1]
            # A real event firing at the computed finish.
            ev = self.sim.event(
                name=f"{self.name}." + row.proc.format(origin, target)
            )
            batch = EventBatch(self.sim, name="rma")
            batch.add(fin, ev, None)
            batch.commit()
            return ev
        prev = done = None
        if ("order", False) in row.legs:
            prev = self._acc_tail.get((origin, target))
            done = self.sim.event(name=f"{self.name}.accdone")
            self._acc_tail[(origin, target)] = done
        proc = self.sim.process(
            self._walk(row, origin, target, nbytes, applies, land, prev,
                       done, extra),
            name=f"{self.name}." + row.proc.format(origin, target),
        )
        return self._track(origin, target, proc)

    def _flush_pending_puts(self, origin: int, target: int) -> None:
        """Put the buffered batch to ``target`` (if any) on the wire as
        one coalesced transfer.  Called from every completion point and
        before any conflicting operation to the same target."""
        batch = self._pending_puts[origin].pop(target, None)
        if batch is not None:
            self._launch(
                COALESCED, origin, target, batch.nbytes, batch,
                extra=("n_ops", len(batch)),
            )

    # -- op issue (shared by WinContext and the DCGN comm threads) ---------
    def start(
        self,
        kind: str,
        origin: int,
        target: int,
        buf: Any,
        offset: int = 0,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        fetch_into: Optional[np.ndarray] = None,
        snapshot: bool = True,
        defer: bool = False,
        want_event: bool = False,
    ) -> Generator[Event, Any, Optional[Event]]:
        """Issue one one-sided op: charge the origin setup and put the
        op's protocol on the wire.  ``kind`` is ``"put"``, ``"get"`` or
        ``"accumulate"``; ``buf`` is the payload, or a get's receive
        buffer.  An accumulate combines with ``op`` and, given
        ``fetch_into``, is a get_accumulate.

        Every check runs before anything else, so a rejected call has
        no side effect (a buffered put batch stays buffered).

        ``snapshot=False`` skips the defensive payload copy when the
        caller already owns a private snapshot (the DCGN comm threads
        do — their requests snapshotted at kernel issue/harvest time).

        ``defer=True`` (only honoured for a small eager put on a
        ``coalesce=True`` window) buffers the put and returns ``None``;
        the batch rides one wire transfer at the next completion point
        or conflicting operation.

        Returns a waitable completion: always on the exact path and for
        a get or get_accumulate; on the analytic path only if
        ``want_event`` (``rput``) — otherwise it logs the op for its
        sync point, no per-op event, no heap entry.
        """
        what = kind if fetch_into is None else "get_accumulate"
        self._require_access(origin, target, what)
        rop = ReduceOp(op) if kind == "accumulate" else None
        arr = self._as_elems(buf, target, what, writable=kind == "get")
        if fetch_into is not None:
            fetch_into = self._as_elems(fetch_into, target, what, True)
        view = self._target_view(target, offset, arr.size, what)
        self.comm._count("rma_" + kind)
        an = self._an_usable(target)
        data, dst = (None, arr) if kind == "get" else (arr, fetch_into)
        if snapshot and not an and data is not None:
            # Analytic never copies: the bytes land synchronously at
            # issue (epochs forbid conflicting access until the sync).
            data = data.copy()
        nbytes = int(arr.nbytes)
        rndv = nbytes > self._eager_max
        defer = defer and self.coalesce and kind == "put" and not rndv
        if defer:
            self.comm._count_unchecked("rma_put[coalesced]")
            self.sim.stats.rma_coalesced_puts += 1
        else:
            # Program order per (origin, target): this op follows the
            # buffered puts onto the wire.
            self._flush_pending_puts(origin, target)
        # The origin's WQE build and doorbell.
        yield self.sim.timeout(us(self._ib.rma_setup_us))
        if defer:
            if an and not self._price_only:
                _apply(view, data, None, None)
            batch = self._pending_puts[origin].setdefault(target, _Batch())
            batch.nbytes += nbytes
            batch.append((view, data, None, None))
            if batch.nbytes > self._eager_max:
                # Batch outgrew the eager path: put it on the wire now.
                self._flush_pending_puts(origin, target)
            return None
        code = CODES[what][rndv]
        extra = None if rop is None else ("op", rop.value)
        if an:
            if not self._price_only:
                _apply(view, data, rop, dst)
            return self._launch(code, origin, target, nbytes,
                                want_event=want_event or dst is not None,
                                extra=extra)
        out = None if dst is None else np.zeros_like(view)
        return self._launch(
            code, origin, target, nbytes, ((view, data, rop, out),),
            None if out is None else (dst, out), want_event, extra,
        )

    # -- completion --------------------------------------------------------
    def _join(
        self, origin: int, target: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        """Put this origin's buffered puts (to ``target``, or all) on
        the wire and join its exact ops' processes."""
        pending = self._pending_puts[origin]
        for t in [target] if target is not None else list(pending):
            self._flush_pending_puts(origin, t)
        lists = self._outgoing[origin]
        targets = [target] if target is not None else list(lists)
        for t in targets:
            for proc in lists.get(t, []):
                if proc.is_alive:
                    yield proc
            lists[t] = []

    def _due(self, origin: int, target: Optional[int] = None) -> float:
        """Price the log, then take the latest finish of this origin's
        analytic ops (to ``target``, or all) out of the epoch."""
        if self._log:
            self._settle()
        fins = self._an_fins[origin]
        if target is not None:
            return fins.pop(target, 0.0)
        t_max = max(fins.values(), default=0.0)
        fins.clear()
        return t_max

    def flush_ops(
        self, origin: int, target: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        """Wait until this origin's operations (to ``target``, or all)
        have completed *remotely*.

        Analytic ops resolve to one computed instant per (origin,
        target) pair — the wait is a single timeout to the latest
        finish, not a per-op process join.  Device-window ops (exact
        even on a fast-path backend) still join their processes."""
        yield from self._join(origin, target)
        if self._an:
            t_max = self._due(origin, target)
            now = self.sim.now
            if t_max > now:
                yield self.sim.timeout(t_max - now)

    def _close(self, origin: int) -> Generator[Event, Any, None]:
        """:meth:`flush_ops` ahead of a fence's or a collective free's
        barrier.  On a fast-path communicator the analytic wait folds
        into the barrier instead: the rank deposits at once, and its
        arrival resolves, when the barrier completes, to the instant the
        wait would have ended."""
        if not self._an:
            yield from self.flush_ops(origin)
            return
        if self._pending_puts[origin] or self._outgoing[origin]:
            yield from self._join(origin)
        self.comm.engine.defer_arrival(origin, self._arrival)

    def _arrival(self, origin: int, now: float) -> float:
        """Where an origin that deposited at ``now`` arrives once its
        analytic ops have completed (see :meth:`_close`): the float
        :meth:`flush_ops`' timeout would end at."""
        t_max = self._due(origin)
        return now + (t_max - now) if t_max > now else now

    # -- passive-target lock machinery (NIC-side state) --------------------
    def _acquire(
        self, origin: int, target: int, exclusive: bool
    ) -> Generator[Event, Any, None]:
        st = self._lock_state[target]
        if st.can_grant(exclusive) and not st.waitq:
            st.holders[origin] = exclusive
            return
        kind = "excl" if exclusive else "shared"
        holders = ",".join(
            f"r{o}" for o in sorted(st.holders)
        ) or "granting"
        ev = self.sim.event(
            name=(
                f"{self.name}.lockwait({kind} r{origin}@r{target} "
                f"behind {holders})"
            )
        )
        st.waitq.append((ev, origin, exclusive))
        yield ev

    def _release(self, origin: int, target: int) -> None:
        st = self._lock_state[target]
        st.holders.pop(origin, None)
        while st.waitq:
            ev, o, exclusive = st.waitq[0]
            if not st.can_grant(exclusive):
                break
            st.waitq.pop(0)
            st.holders[o] = exclusive
            ev.succeed(None)


class WinContext:
    """Rank-bound facade of a :class:`Window`: what a rank's program
    calls.  All communication/synchronization methods are generators —
    ``yield from`` them inside a simulated process.  The request-based
    :meth:`rput`/:meth:`rget` are generators too (they charge the
    origin-side issue cost), returning a
    :class:`~repro.mpi.communicator.Request` whose ``wait`` observes
    completion: ``req = yield from w.rput(...)``.
    """

    def __init__(self, win: Window, rank: int) -> None:
        self.win = win
        self.rank = rank
        self.sim = win.sim
        self.comm = win.comm

    # -- identity -----------------------------------------------------------
    @property
    def size(self) -> int:
        return self.win.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WinContext rank={self.rank} win={self.win.name!r}>"

    @property
    def local(self) -> Optional[np.ndarray]:
        """This rank's own exposed memory (read after sync)."""
        return self.win.region(self.rank)

    # -- one-sided operations ----------------------------------------------
    def put(
        self, target: int, data: Any, offset: int = 0
    ) -> Generator[Event, Any, None]:
        """One-sided write of ``data`` into ``target``'s window at
        element ``offset``.  Returns after the origin-side issue; the
        transfer completes at the next synchronization (or
        :meth:`flush`).  On a ``coalesce=True`` window, small eager
        puts are buffered and batched onto one wire transfer at that
        completion point."""
        yield from self.win.start(
            "put", self.rank, target, data, offset, defer=True
        )

    def rput(
        self, target: int, data: Any, offset: int = 0
    ) -> Generator[Event, Any, Request]:
        """Request-based put (``req = yield from w.rput(...)``):
        ``req.wait()`` guarantees *remote* completion — the bytes are
        visible in the target window."""
        proc = yield from self.win.start(
            "put", self.rank, target, data, offset, want_event=True
        )
        return Request(proc)

    def get(
        self, target: int, recvbuf: Any, offset: int = 0
    ) -> Generator[Event, Any, None]:
        """One-sided read of ``recvbuf.size`` elements from ``target``'s
        window at ``offset`` into ``recvbuf``.  Blocking form: returns
        once the data has arrived."""
        proc = yield from self.win.start(
            "get", self.rank, target, recvbuf, offset
        )
        yield proc

    def rget(
        self, target: int, recvbuf: Any, offset: int = 0
    ) -> Generator[Event, Any, Request]:
        """Request-based get (``req = yield from w.rget(...)``);
        ``req.wait()`` returns once ``recvbuf`` is filled."""
        proc = yield from self.win.start(
            "get", self.rank, target, recvbuf, offset
        )
        return Request(proc)

    def accumulate(
        self,
        target: int,
        data: Any,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """One-sided read-modify-write: ``win[target][off:] = win OP
        data``.  Same-(origin, target) accumulates apply in program
        order (the MPI ordering guarantee); ``ReduceOp.REPLACE`` turns
        this into MPI_Put-with-ordering."""
        yield from self.win.start(
            "accumulate", self.rank, target, data, offset, op=op
        )

    def get_accumulate(
        self,
        target: int,
        data: Any,
        result: Any,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """Atomic fetch-and-accumulate: ``result`` receives the target
        elements as they were *before* ``data`` was combined in.
        Blocking form (returns once ``result`` is filled)."""
        proc = yield from self.win.start(
            "accumulate", self.rank, target, data, offset, op=op,
            fetch_into=result,
        )
        yield proc

    def fetch_and_op(
        self,
        target: int,
        value: Any,
        result: Any,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """Single-element atomic fetch-and-op (``MPI_Fetch_and_op``)."""
        yield from self.get_accumulate(
            target, value, result, op=op, offset=offset
        )

    # -- observability ------------------------------------------------------
    def _espan(self, name: str):
        """Open an ``rma.epoch`` span on this rank's track (or None)."""
        spans = self.sim.spans
        if spans is None:
            return None
        return spans.begin(
            self.sim.now, name, "rma.epoch",
            self.comm.span_track(self.rank),
            attrs={"win": self.win.name},
        )

    def _espan_end(self, sp) -> None:
        if sp is not None and self.sim.spans is not None:
            self.sim.spans.end(self.sim.now, sp)

    # -- active-target synchronization: fence ------------------------------
    def fence(self, end: bool = False) -> Generator[Event, Any, None]:
        """Collective fence: completes every operation this rank issued
        (remote completion), then synchronizes all ranks — after it
        returns, every rank's window reflects every pre-fence operation.

        As in MPI, every fence both closes the preceding epoch and
        opens the next one, so RMA calls are legal between any two
        fences.  ``end=True`` (the ``MPI_MODE_NOSUCCEED`` assertion)
        declares that no epoch follows: the access epoch closes, later
        operations raise, and other sync modes (PSCW, locks) become
        usable again."""
        self.win._ensure_usable()
        self.comm._count("rma_fence")
        sp = self._espan("fence")
        yield from self.win._close(self.rank)
        yield from self.comm.ctx(self.rank).barrier()
        self.win._mode[self.rank] = None if end else "fence"
        self._espan_end(sp)

    # -- active-target synchronization: PSCW -------------------------------
    def _pscw_group(self, ranks: Sequence[int], verb: str) -> Tuple[int, ...]:
        """``ranks`` as a sorted PSCW group, each one checked: in range
        and not this rank (no post to oneself is ever sent)."""
        group = tuple(sorted(set(int(r) for r in ranks)))
        for r in group:
            self.comm._check_rank(r)
            if r == self.rank:
                raise RmaError(f"a rank cannot {verb} itself")
        return group

    def post(self, origins: Sequence[int]) -> Generator[Event, Any, None]:
        """Expose this rank's window to ``origins`` (MPI_Win_post).
        Non-blocking: the post notifications are injected and travel
        while this rank continues."""
        win = self.win
        win._ensure_usable()
        if win._exposure[self.rank] is not None:
            raise RmaError(
                f"rank {self.rank} already has an exposure epoch open"
            )
        origins = self._pscw_group(origins, "post to")
        win._exposure[self.rank] = origins
        self.comm._count("rma_post")
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_POST
        sp = self._espan("post")
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        for o in origins:
            self.sim.process(
                self.comm._send_impl(self.rank, o, None, tag),
                name=f"{win.name}.post(r{self.rank}->r{o})",
            )
        self._espan_end(sp)

    def start(self, targets: Sequence[int]) -> Generator[Event, Any, None]:
        """Open an access epoch to ``targets`` (MPI_Win_start): waits
        until each target's matching :meth:`post` notification arrives."""
        win = self.win
        win._ensure_usable()
        if win._mode[self.rank] is not None:
            raise RmaError(
                f"rank {self.rank} already has an access epoch open "
                f"({win._mode[self.rank]})"
            )
        # Every target is checked before the first post is received: a
        # rejected call must not consume a post notification.
        targets = self._pscw_group(targets, "start an epoch on")
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_POST
        sp = self._espan("start")
        for t in targets:
            yield from self.comm._recv_impl(self.rank, t, None, tag)
        self._espan_end(sp)
        win._mode[self.rank] = "pscw"
        win._start_group[self.rank] = frozenset(targets)
        self.comm._count("rma_start")

    def complete(self) -> Generator[Event, Any, None]:
        """Close the access epoch (MPI_Win_complete): completes all
        operations of this epoch, then notifies the targets."""
        win = self.win
        win._ensure_usable()
        if win._mode[self.rank] != "pscw":
            raise RmaError(
                f"rank {self.rank} has no PSCW access epoch to complete"
            )
        group = win._start_group[self.rank] or frozenset()
        sp = self._espan("complete")
        yield from win.flush_ops(self.rank)
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_COMPLETE
        for t in sorted(group):
            self.sim.process(
                self.comm._send_impl(self.rank, t, None, tag),
                name=f"{win.name}.complete(r{self.rank}->r{t})",
            )
        self._espan_end(sp)
        win._mode[self.rank] = None
        win._start_group[self.rank] = None
        self.comm._count("rma_complete")

    def wait_sync(self) -> Generator[Event, Any, None]:
        """Close the exposure epoch (MPI_Win_wait): waits for the
        :meth:`complete` notification of every posted origin — after it
        returns, their operations are visible in this rank's window."""
        win = self.win
        win._ensure_usable()
        origins = win._exposure[self.rank]
        if origins is None:
            raise RmaError(
                f"rank {self.rank} has no exposure epoch to wait on"
            )
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_COMPLETE
        sp = self._espan("wait")
        for o in origins:
            yield from self.comm._recv_impl(self.rank, o, None, tag)
        self._espan_end(sp)
        win._exposure[self.rank] = None
        self.comm._count("rma_wait")

    # -- passive-target synchronization ------------------------------------
    def lock(
        self, target: int, exclusive: bool = False
    ) -> Generator[Event, Any, None]:
        """Acquire ``target``'s window lock (shared by default).  The
        lock lives at the target NIC: acquisition costs one header
        round-trip plus any wait for conflicting holders; the target
        CPU is never involved."""
        win = self.win
        win._ensure_usable()
        self.comm._check_rank(target)
        if target in win._locks_held[self.rank] or win._lock_all[self.rank]:
            raise RmaError(
                f"rank {self.rank} already holds a lock on rank {target}"
            )
        self.comm._count("rma_lock")
        sp = self._espan("lock")
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        yield from self.comm._wire(self.rank, target, HEADER_BYTES)
        yield from win._acquire(self.rank, target, exclusive)
        yield from self.comm._wire(target, self.rank, HEADER_BYTES)
        self._espan_end(sp)
        win._locks_held[self.rank][target] = exclusive

    def unlock(self, target: int) -> Generator[Event, Any, None]:
        """Release ``target``'s lock; completes this origin's pending
        operations to it first (flush semantics, as in MPI)."""
        win = self.win
        win._ensure_usable()
        if target not in win._locks_held[self.rank]:
            raise RmaError(
                f"rank {self.rank} holds no lock on rank {target}"
            )
        sp = self._espan("unlock")
        yield from win.flush_ops(self.rank, target)
        yield from self.comm._wire(self.rank, target, HEADER_BYTES)
        self._espan_end(sp)
        del win._locks_held[self.rank][target]
        win._release(self.rank, target)
        self.comm._count("rma_unlock")

    def lock_all(self) -> Generator[Event, Any, None]:
        """Shared-lock every rank's window (MPI_Win_lock_all).  Lazy
        acquisition (no per-target wire traffic), as real
        implementations defer it to first access — but conflicting
        exclusive holders are still waited for."""
        win = self.win
        win._ensure_usable()
        if win._lock_all[self.rank] or win._locks_held[self.rank]:
            raise RmaError(
                f"rank {self.rank} already holds window locks"
            )
        self.comm._count("rma_lock_all")
        sp = self._espan("lock_all")
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        for t in range(win.size):
            yield from win._acquire(self.rank, t, False)
        self._espan_end(sp)
        win._lock_all[self.rank] = True

    def unlock_all(self) -> Generator[Event, Any, None]:
        """Release every lock taken by :meth:`lock_all` (flushes first)."""
        win = self.win
        win._ensure_usable()
        if not win._lock_all[self.rank]:
            raise RmaError(f"rank {self.rank} holds no lock_all")
        sp = self._espan("unlock_all")
        yield from win.flush_ops(self.rank)
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        for t in range(win.size):
            win._release(self.rank, t)
        self._espan_end(sp)
        win._lock_all[self.rank] = False
        self.comm._count("rma_unlock_all")

    def flush(self, target: int) -> Generator[Event, Any, None]:
        """Complete (remotely) every pending operation to ``target``."""
        self.win._ensure_usable()
        self.comm._count("rma_flush")
        sp = self._espan("flush")
        yield from self.win.flush_ops(self.rank, target)
        self._espan_end(sp)

    def flush_all(self) -> Generator[Event, Any, None]:
        """Complete (remotely) every pending operation of this rank."""
        self.win._ensure_usable()
        self.comm._count("rma_flush")
        sp = self._espan("flush_all")
        yield from self.win.flush_ops(self.rank)
        self._espan_end(sp)

    # -- lifetime -----------------------------------------------------------
    def free(self) -> Generator[Event, Any, None]:
        """Collective window release: completes local operations,
        synchronizes, then frees.  Further use raises
        :class:`~repro.mpi.errors.RmaError`."""
        win = self.win
        win._ensure_usable()
        yield from win._close(self.rank)
        yield from self.comm.ctx(self.rank).barrier()
        if not win._freed:
            win.free()
