"""The DCGN kernel API: one op table, one endpoint, two transports.

The paper's DCGN lets CPU threads and GPU slots make the same calls:
``dcgn::send`` in a CPU kernel (Figure 3), ``dcgn::gpu::send(slot, …)``
in a GPU kernel (Figure 1).  The two differ only in how a request
reaches the node's communication thread:

* a **CPU** kernel thread pays the request overhead, snapshots its
  payload at issue, pushes the request onto the work queue and
  sleep-polls for completion (§3.2.2) — :class:`CpuTransport`;
* a **GPU slot** writes a descriptor into its mailbox and spins on the
  completion flag; the host's GPU-kernel thread notices it over PCIe,
  reads the payload and relays the request (§3.2.3) —
  :class:`GpuSlotTransport` and :mod:`.gpu_thread`.

So every operation is defined exactly once, in :data:`OPS`: a builder
that validates the call and returns a :class:`Plan` — the
:class:`~.requests.CommRequest` plus the buffer its payload comes from
and the buffer its result lands in.  :class:`Endpoint`, one virtual
rank's view of one group, turns each entry into a nonblocking ``iop``
and a blocking ``op`` (the ``iop`` followed by ``wait``) over its
transport.  The world is the group table's group 0: every group,
the world included, has one collective-sequence counter per rank, and
``root`` arguments are group ranks (for the world, group rank =
virtual rank).

CPU kernels receive a :class:`CpuKernelContext` (the world endpoint
plus ``compute``); a GPU kernel block receives a :class:`GpuCommApi` as
``ctx.comm`` whose slot-first methods forward to the slot's endpoint —
"Kernels pass this slot-identifier to enforce explicit mappings of
GPU-sourced communication requests to slots" (§3.2).  GPU buffers must
live in global memory (:class:`~repro.gpusim.memory.DeviceBuffer`),
mirroring the paper's "for communication, we have to use global
memory".
"""

from __future__ import annotations

import functools
from typing import (
    Any, Callable, Dict, Generator, List, NamedTuple, Optional, Tuple,
)

import numpy as np

from ..gpusim.memory import DeviceBuffer
from ..hw.memory import snapshot_head
from ..mpi.datatypes import ReduceOp, payload_array
from ..sim.core import Event, us
from .errors import CommViolation
from .groups import WORLD_GID, DcgnGroup
from .queues import sleep_poll_wait
from .ranks import ANY
from .requests import CommRequest, CommStatus

__all__ = [
    "OPS",
    "Plan",
    "RequestHandle",
    "Endpoint",
    "CpuTransport",
    "GpuSlotTransport",
    "CpuKernelContext",
    "GpuCommApi",
]


class Plan(NamedTuple):
    """One request ready for a transport."""

    req: CommRequest
    #: Buffer whose first ``payload_nbytes`` become ``req.data``
    #: (``snapshot_head``; CPU: at issue; GPU: after the PCIe read of
    #: ``payload_nbytes`` at harvest).
    payload: Any = None
    payload_nbytes: int = 0
    #: Buffer the delivered data is written into.
    result: Any = None
    #: Write the result element-wise (reductions, get) rather than as
    #: raw bytes.
    typed: bool = False


def _reduce_op(op, what: str) -> str:
    """Validate a reduction op at issue time (a catchable kernel error
    instead of a dead comm thread)."""
    try:
        name = ReduceOp(getattr(op, "value", op)).value
    except ValueError:
        raise CommViolation(f"unknown {what} op {op!r}") from None
    if name == ReduceOp.REPLACE.value and what != "accumulate":
        raise CommViolation(
            f"{what}: 'replace' is only valid for one-sided accumulate"
        )
    return name


# ---------------------------------------------------------------------------
# The op table: each builder validates one call and returns its Plan.
# ---------------------------------------------------------------------------

def _send(
    ep: "Endpoint", dest: int, buf, nbytes: Optional[int] = None
) -> Plan:
    """dcgn::send — send ``buf`` (its first ``nbytes`` bytes) to virtual
    rank ``dest``; completes once the underlying send finished."""
    ep._peer(dest)
    n = ep._nbytes(nbytes, buf, "send")
    return Plan(ep._req("send", dest, n), payload=buf, payload_nbytes=n)


def _recv(
    ep: "Endpoint", source: int, buf, nbytes: Optional[int] = None
) -> Plan:
    """dcgn::recv — receive into ``buf`` from virtual rank ``source``
    (``ANY`` matches any sender); the status names the actual source."""
    ep._peer(source, wildcard=True)
    n = ep._nbytes(nbytes, buf, "recv")
    result = ep._landing(buf, "recv")
    return Plan(ep._req("recv", source, n), result=result)


def _put(
    ep: "Endpoint", win: str, dest: int, buf, offset: int = 0,
    nbytes: Optional[int] = None,
) -> Plan:
    """dcgn::put — one-sided write of ``buf`` into virtual rank
    ``dest``'s region of window ``win`` at element ``offset``.

    No matching receive exists anywhere: the local comm thread drives
    an RDMA write into the target's registered region and the *target*
    comm thread is never involved.  Completion is remote: once it
    returns, the data is visible at the target."""
    n = ep._window(win, dest, buf, nbytes, offset, "put")
    req = ep._req("rma_put", dest, n, win=str(win), offset=int(offset))
    return Plan(req, payload=buf, payload_nbytes=n)


def _accumulate(
    ep: "Endpoint", win: str, dest: int, buf, op: str = "sum",
    offset: int = 0, nbytes: Optional[int] = None,
) -> Plan:
    """dcgn::accumulate — one-sided read-modify-write of ``buf`` into
    ``dest``'s window region (``"replace"`` is an ordered overwrite).
    Same-pair accumulates apply in program order."""
    n = ep._window(win, dest, buf, nbytes, offset, "accumulate")
    req = ep._req(
        "rma_accumulate", dest, n, win=str(win), offset=int(offset),
        reduce_op=_reduce_op(op, "accumulate"),
    )
    return Plan(req, payload=buf, payload_nbytes=n)


def _get(
    ep: "Endpoint", win: str, source: int, buf, offset: int = 0,
    nbytes: Optional[int] = None,
) -> Plan:
    """dcgn::get — one-sided read of virtual rank ``source``'s window
    region into ``buf``; the source rank never participates."""
    result = ep._landing(buf, "get")
    n = ep._window(win, source, buf, nbytes, offset, "get")
    req = ep._req("rma_get", source, n, win=str(win), offset=int(offset))
    return Plan(req, result=result, typed=True)


def _barrier(ep: "Endpoint") -> Plan:
    """dcgn::barrier across every member of the group."""
    return Plan(ep._coll("barrier"))


def _broadcast(
    ep: "Endpoint", root: int, buf, nbytes: Optional[int] = None
) -> Plan:
    """dcgn::broadcast of ``buf`` from group rank ``root``."""
    root = ep._root(root)
    n = ep._nbytes(nbytes, buf, "broadcast")
    if ep.vrank == root:
        return Plan(ep._coll("bcast", root, n), payload=buf, payload_nbytes=n)
    result = ep._landing(buf, "broadcast")
    return Plan(ep._coll("bcast", root, n), result=result)


def _allreduce(
    ep: "Endpoint", sendbuf, recvbuf, op: str = "sum",
    nbytes: Optional[int] = None,
) -> Plan:
    """dcgn::allReduce — elementwise ``op`` over every member's
    ``sendbuf``; the result lands in ``recvbuf`` everywhere."""
    n = ep._nbytes(nbytes, sendbuf, "allreduce")
    ep._array(recvbuf, "allreduce")
    req = ep._coll(
        "allreduce", nbytes=n, reduce_op=_reduce_op(op, "allreduce")
    )
    return Plan(req, sendbuf, n, recvbuf, typed=True)


def _reduce(
    ep: "Endpoint", root: int, sendbuf, recvbuf=None, op: str = "sum"
) -> Plan:
    """dcgn::reduce — elementwise ``op`` into group rank ``root``'s
    ``recvbuf``."""
    root = ep._root(root)
    n = ep._nbytes(None, sendbuf, "reduce")
    result = ep._root_buffer(root, recvbuf, "recv", "reduce")
    req = ep._coll("reduce", root, n, reduce_op=_reduce_op(op, "reduce"))
    return Plan(req, sendbuf, n, result, typed=True)


def _gather(ep: "Endpoint", root: int, sendbuf, recvbuf=None) -> Plan:
    """dcgn::gather — equal chunks from every member to group rank
    ``root``, assembled in group-rank order."""
    root = ep._root(root)
    chunk = ep._nbytes(None, sendbuf, "gather")
    result = ep._landing(
        ep._root_buffer(root, recvbuf, "recv", "gather", chunk), "gather"
    )
    req = ep._coll("gather", root, chunk, chunk=chunk)
    return Plan(req, sendbuf, chunk, result)


def _scatter(ep: "Endpoint", root: int, recvbuf, sendbuf=None) -> Plan:
    """dcgn::scatter — equal chunks of group rank ``root``'s
    ``sendbuf`` to every member, in group-rank order."""
    root = ep._root(root)
    chunk = ep._nbytes(None, recvbuf, "scatter")
    result = ep._landing(recvbuf, "scatter")
    payload = ep._root_buffer(root, sendbuf, "send", "scatter", chunk)
    n = 0 if payload is None else ep._nbytes(None, payload, "scatter")
    req = ep._coll("scatter", root, chunk, chunk=chunk)
    return Plan(req, payload, n, result)


#: Every single-request DCGN operation, by name.  :class:`Endpoint`
#: exposes each as a blocking ``name`` and a nonblocking ``i<name>``.
OPS: Dict[str, Callable[..., Plan]] = {
    "send": _send,
    "recv": _recv,
    "put": _put,
    "accumulate": _accumulate,
    "get": _get,
    "barrier": _barrier,
    "broadcast": _broadcast,
    "allreduce": _allreduce,
    "reduce": _reduce,
    "gather": _gather,
    "scatter": _scatter,
}


# ---------------------------------------------------------------------------
# Request handles and transports
# ---------------------------------------------------------------------------

class RequestHandle:
    """Handle of one issued DCGN request (CPU thread or GPU slot).

    The kernel keeps computing while the comm thread progresses the
    operation — the compute/communication overlap the paper's dedicated
    comm thread exists to provide.  ``wait`` observes completion the
    way the issuer does (CPU: sleep-polling; GPU: spinning on the
    mailbox flag); ``test`` is a cheap flag check.
    """

    def __init__(self, transport, req: CommRequest, mreq=None) -> None:
        self._transport = transport
        #: The request as the comm thread sees it.
        self.req = req
        #: The GPU mailbox descriptor (None for CPU requests).
        self._mreq = mreq

    def test(self) -> bool:
        """True once the issuer could observe completion."""
        flag = self.req.done if self._mreq is None else self._mreq.done
        return flag.triggered

    def wait(self) -> Generator[Event, Any, Any]:
        """``yield from`` until complete; returns the CommStatus."""
        status = yield from self._transport.wait(self)
        return status


class CpuTransport:
    """How a CPU-kernel thread's requests reach its comm thread.

    Issue charges the request overhead once per batch (a fused
    ``sendrecv`` pays it once for the pair), snapshots payloads, and
    enqueues on the work queue; waiting is sleep-based polling — the
    two cost sources the paper blames for DCGN's small-message
    overhead (§5.2).
    """

    label = ""
    memory = "host"

    def __init__(self, comm) -> None:
        self.comm = comm
        self.sim = comm.sim
        self.rankmap = comm.rankmap
        #: (gid, vrank) → next collective sequence number.
        self.coll_seqs: Dict[Tuple[int, int], int] = {}

    def array(self, buf, what: str) -> np.ndarray:
        arr = payload_array(buf)
        if arr is None:
            raise CommViolation(f"{what} requires an array payload")
        return arr

    def start(
        self, plans: List[Plan]
    ) -> Generator[Event, Any, List[RequestHandle]]:
        sim = self.sim
        for plan in plans:
            req = plan.req
            req.done = sim.event(name=f"req{req.req_id}.done")
            req.mark(sim, "issued", self.comm.name)
            if plan.payload is not None:
                req.data = snapshot_head(payload_array(plan.payload),
                                         plan.payload_nbytes)
            if plan.result is not None:
                req.result = payload_array(plan.result)
                req.typed = plan.typed
        yield sim.timeout(us(self.comm.params.cpu.request_overhead_us))
        for plan in plans:
            yield from self.comm.enqueue_from_cpu(plan.req)
            plan.req.mark(sim, "enqueued", self.comm.name)
        return [RequestHandle(self, plan.req) for plan in plans]

    def wait(self, handle: RequestHandle) -> Generator[Event, Any, Any]:
        req = handle.req
        status = yield from sleep_poll_wait(
            self.sim, req.done, self.comm.params.dcgn.cpu_wait_poll_us
        )
        req.mark(self.sim, "returned", self.comm.name)
        return status


class GpuSlotTransport:
    """How one GPU slot's requests reach the comm thread.

    Issue checks that buffers live in this device's global memory and
    posts the prebuilt request (with its payload and write-back
    buffers) into the slot's mailbox; the GPU-kernel thread charges
    the PCIe payload read at harvest and writes results back.  Waiting
    spins on the completion flag.
    """

    label = "gpu::"
    memory = "device"

    def __init__(self, block_ctx, mailboxes, slot: int, thread) -> None:
        self.device = block_ctx.device
        self.sim = block_ctx.sim
        self.mbox = mailboxes
        self.slot = slot
        self.comm = thread.comm
        self.rankmap = thread.rankmap
        self.coll_seqs = thread.coll_seqs
        self.vrank = thread.rankmap.slot_rank(
            thread.comm.mpi.rank, thread.gpu_index, slot
        )

    def array(self, buf, what: str) -> np.ndarray:
        if not isinstance(buf, DeviceBuffer):
            raise CommViolation(
                f"gpu::{what} requires GPU global memory, got "
                f"{type(buf).__name__} (paper §3.2: communication must "
                f"use global memory)"
            )
        if not self.device.owns(buf):
            raise CommViolation(
                f"gpu::{what}: buffer {buf.name!r} lives on another device"
            )
        buf.check_usable()
        return buf.data

    def start(
        self, plans: List[Plan]
    ) -> Generator[Event, Any, List[RequestHandle]]:
        handles = []
        for plan in plans:
            mreq = yield from self.mbox.post(self.slot, plan.req.op, plan=plan)
            handles.append(RequestHandle(self, plan.req, mreq))
        return handles

    def wait(self, handle: RequestHandle) -> Generator[Event, Any, Any]:
        status = yield from self.mbox.wait(handle._mreq)
        return status


# ---------------------------------------------------------------------------
# The endpoint
# ---------------------------------------------------------------------------

class Endpoint:
    """One virtual rank's communication scope over one group.

    Collectives are scoped to the group: the comm thread stages them
    against the group's local members and runs the MPI phase on the
    group's own node sub-communicator, so collectives on disjoint
    groups progress independently and overlap on the wire.  Every
    member must issue a group's collectives in the same order (their
    sequence numbers are claimed at issue, so blocking and nonblocking
    forms mix freely); no order is required *between* groups.
    Point-to-point and one-sided calls address virtual ranks in every
    scope; only collective roots are group ranks.
    """

    def __init__(self, transport, vrank: int, group: DcgnGroup) -> None:
        if vrank not in group:
            raise CommViolation(
                f"vrank {vrank} is not a member of group {group.name!r}"
            )
        self._transport = transport
        self.vrank = vrank
        self._group = group

    # -- identity ----------------------------------------------------------
    @property
    def group(self) -> DcgnGroup:
        """The group this endpoint communicates in."""
        return self._group

    @property
    def sim(self):
        return self._transport.sim

    @property
    def rank(self) -> int:
        """This rank within the group (the virtual rank for the world)."""
        return self._group.rank_of(self.vrank)

    @property
    def size(self) -> int:
        """Members of the group."""
        return self._group.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self._group.name!r} "
            f"vrank={self.vrank} rank={self.rank}/{self.size}>"
        )

    # -- validation and request building (used by the op table) -----------
    def _array(self, buf, what: str) -> np.ndarray:
        return self._transport.array(buf, what)

    def _nbytes(self, nbytes: Optional[int], buf, what: str) -> int:
        """Bytes a request covers: all of ``buf`` unless ``nbytes``
        says fewer — never more than the buffer holds."""
        arr = self._array(buf, what)
        n = int(arr.nbytes) if nbytes is None else int(nbytes)
        if not 0 <= n <= arr.nbytes:
            t = self._transport
            raise CommViolation(
                f"{t.label}{what}: nbytes {n} exceeds {t.memory} buffer "
                f"of {arr.nbytes} B"
            )
        return n

    def _landing(self, buf, what: str):
        """``buf`` (or None), checked as a buffer bytes land in."""
        if buf is not None and not self._array(buf, what).flags.c_contiguous:
            raise CommViolation(
                f"{self._transport.label}{what} needs a C-contiguous "
                f"result buffer (vrank {self.vrank})"
            )
        return buf

    def _peer(self, peer: int, wildcard: bool = False) -> None:
        if not (wildcard and peer == ANY):
            self._transport.rankmap.info(peer)  # raises if out of range

    def _root(self, root: int) -> int:
        """Group rank ``root`` → its virtual rank."""
        group = self._group
        if not (0 <= root < group.size):
            raise CommViolation(
                f"group root {root} out of range [0,{group.size})"
            )
        return group.vranks[root]

    def _root_buffer(
        self, root: int, buf, kind: str, what: str, chunk: int = 0
    ):
        """The buffer only the root supplies (None elsewhere); it must
        hold ``chunk`` bytes for every group member."""
        if self.vrank != root:
            return None
        if buf is None:
            raise CommViolation(f"root needs a {kind} buffer for {what}")
        need = chunk * self._group.size
        have = self._array(buf, what).nbytes
        if have < need:
            raise CommViolation(
                f"{self._transport.label}{what}: root {kind} buffer of "
                f"{have} B is short of {chunk} B x {self._group.size} "
                f"members = {need} B"
            )
        return buf

    def _window(
        self, win: str, target: int, buf, nbytes, offset: int, what: str
    ) -> int:
        """Validate a one-sided access at issue: the window exists,
        dtypes match, the byte count is whole elements, and the target
        range is in bounds — mistakes surface as kernel errors instead
        of a silent cast or a dead comm thread."""
        label = self._transport.label
        table = self._transport.comm.windows
        if table is None:
            raise CommViolation("this job declares no windows")
        window = table.by_name(str(win))
        if target == ANY or not (0 <= target < self._transport.rankmap.size):
            raise CommViolation(
                f"{label}{what} needs a concrete target virtual rank, got "
                f"{target} (one-sided ops have no wildcard matching)"
            )
        window.locate(target)  # raises if the vrank has no region
        dtype = self._array(buf, what).dtype
        if dtype != window.dtype:
            raise CommViolation(
                f"{label}{what}: buffer dtype {dtype} does not match "
                f"window {window.name!r} dtype {window.dtype}"
            )
        n = self._nbytes(nbytes, buf, what)
        if n % window.dtype.itemsize:
            raise CommViolation(
                f"{label}{what}: nbytes {n} is not a whole number of "
                f"{window.dtype} elements"
            )
        window.check_range(target, int(offset), n // window.dtype.itemsize)
        return n

    def _req(self, op: str, peer: int, nbytes: int, **extra) -> CommRequest:
        return CommRequest(
            op=op, src_vrank=self.vrank, peer=peer, nbytes=nbytes, extra=extra,
            req_id=next(self._transport.comm.req_ids),
        )

    def _coll(
        self, op: str, root: int = -1, nbytes: int = 0, **extra
    ) -> CommRequest:
        """A collective request, claiming the group's next sequence
        number for this rank."""
        seqs = self._transport.coll_seqs
        key = (self._group.gid, self.vrank)
        seq = seqs.get(key, 0)
        seqs[key] = seq + 1
        return CommRequest(
            op=op,
            src_vrank=self.vrank,
            root=root,
            nbytes=nbytes,
            extra={"coll_seq": seq, "gid": self._group.gid, **extra},
            req_id=next(self._transport.comm.req_ids),
        )

    # -- operations outside the table --------------------------------------
    def sendrecv(
        self, dest: int, sendbuf, source: int, recvbuf,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, CommStatus]:
        """Fused send+recv: both requests issued before waiting.

        The paper (§5.1, matrix multiplication) credits this fusion for
        Cannon's DCGN performance: one round of polling services both
        requests, and a CPU thread pays one request overhead for the
        pair.
        """
        sent, got = yield from self._transport.start([
            _send(self, dest, sendbuf, nbytes),
            _recv(self, source, recvbuf, nbytes),
        ])
        yield from sent.wait()
        status = yield from got.wait()
        return status

    def sendrecv_replace(
        self, dest: int, source: int, buf, nbytes: Optional[int] = None
    ) -> Generator[Event, Any, CommStatus]:
        """In-place fused exchange (the MPI_Sendrecv_replace analogue):
        safe because the outgoing payload is read before any incoming
        one is written back."""
        status = yield from self.sendrecv(dest, buf, source, buf, nbytes)
        return status

    def split(
        self, color: int, key: int = 0
    ) -> Generator[Event, Any, Optional["Endpoint"]]:
        """Collective ``comm_split`` over every virtual rank in the job.

        All ranks — CPU threads and GPU slots alike — must call it in
        the same collective order; ranks sharing a ``color`` get an
        endpoint over the new group, ordered by (key, vrank).  A
        negative color opts out and returns ``None``.
        """
        if self._group.gid != WORLD_GID:
            raise CommViolation("split is collective over the whole job")
        plan = Plan(self._coll("split", color=int(color), key=int(key)))
        (handle,) = yield from self._transport.start([plan])
        yield from handle.wait()
        group = handle.req.extra.get("group")
        if group is None:
            return None
        return Endpoint(self._transport, self.vrank, group)


def _blocking(name: str, build: Callable[..., Plan]):
    def op(self, *args, **kwargs):
        transport = self._transport
        (handle,) = yield from transport.start([build(self, *args, **kwargs)])
        status = yield from transport.wait(handle)
        return status

    functools.update_wrapper(op, build)
    op.__name__ = op.__qualname__ = name
    return op


def _nonblocking(name: str, build: Callable[..., Plan]):
    def iop(self, *args, **kwargs):
        plan = build(self, *args, **kwargs)
        (handle,) = yield from self._transport.start([plan])
        return handle

    functools.update_wrapper(iop, build)
    iop.__name__ = iop.__qualname__ = "i" + name
    iop.__doc__ = (
        f"Nonblocking :meth:`{name}`: returns a :class:`RequestHandle` "
        "once issued; buffers may be reused after its ``wait``."
    )
    return iop


for _name, _build in OPS.items():
    setattr(Endpoint, _name, _blocking(_name, _build))
    setattr(Endpoint, "i" + _name, _nonblocking(_name, _build))


class CpuKernelContext(Endpoint):
    """Execution context of one CPU-kernel thread (paper Figure 3): the
    world endpoint of its virtual rank over a :class:`CpuTransport`,
    plus modeled computation and slot-group lookup."""

    def __init__(self, comm, vrank: int) -> None:
        world = comm.groups.group(WORLD_GID)
        super().__init__(CpuTransport(comm), vrank, world)

    @property
    def node_id(self) -> int:
        return self._transport.comm.node.node_id

    def compute(self, seconds: float) -> Generator[Event, Any, None]:
        """Model CPU-kernel computation time."""
        if seconds < 0:
            raise ValueError("negative compute time")
        if seconds > 0:
            yield self.sim.timeout(seconds)

    def group(self, name: str) -> Endpoint:
        """Endpoint for a slot group declared in ``DcgnConfig``."""
        group = self._transport.comm.groups.by_name(name)
        return Endpoint(self._transport, self.vrank, group)


class GpuCommApi:
    """Slot-first DCGN calls for one GPU kernel block (``ctx.comm``).

    Every method takes the issuing ``slot`` first and forwards to that
    slot's :class:`Endpoint` — ``comm.send(slot, dest, buf)`` is
    ``dcgn::gpu::send(slot, dest, buf, size)``.  ``allreduce`` works in
    place on the slot's buffer, as in the paper.  Scoped to a slot
    group (from :meth:`group` or :meth:`split`), ``rank(slot)`` and
    ``root`` arguments are group ranks.
    """

    def __init__(
        self, block_ctx, mailboxes, thread, group: Optional[DcgnGroup] = None
    ) -> None:
        self._ctx = block_ctx
        self._mbox = mailboxes
        self._thread = thread
        self._group = (
            group if group is not None
            else thread.comm.groups.group(WORLD_GID)
        )
        self._endpoints: Dict[int, Endpoint] = {}

    def endpoint(self, slot: int) -> Endpoint:
        """The slot's :class:`Endpoint`: the same calls a CPU thread
        makes, without the slot argument."""
        ep = self._endpoints.get(slot)
        if ep is None:
            t = GpuSlotTransport(self._ctx, self._mbox, slot, self._thread)
            ep = self._endpoints[slot] = Endpoint(t, t.vrank, self._group)
        return ep

    def _scoped(self, group: DcgnGroup) -> "GpuCommApi":
        return GpuCommApi(self._ctx, self._mbox, self._thread, group)

    # -- identity ----------------------------------------------------------
    @property
    def n_slots(self) -> int:
        return self._mbox.n_slots

    @property
    def size(self) -> int:
        """Members of the group (every virtual rank for the world)."""
        return self._group.size

    def rank(self, slot: int) -> int:
        """dcgn::gpu::getRank(slot) — the slot's rank in the group (its
        virtual rank for the world)."""
        return self.endpoint(slot).rank

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GpuCommApi {self._group.name!r} size={self.size}>"

    # -- the GPU-specific call shapes --------------------------------------
    def allreduce(
        self, slot: int, buf, op: str = "sum", nbytes: Optional[int] = None
    ) -> Generator[Event, Any, CommStatus]:
        """dcgn::gpu::allReduce(slot, buf, op) — in-place result."""
        ep = self.endpoint(slot)
        status = yield from ep.allreduce(buf, buf, op, nbytes)
        return status

    def iallreduce(
        self, slot: int, buf, op: str = "sum", nbytes: Optional[int] = None
    ) -> Generator[Event, Any, RequestHandle]:
        """Nonblocking in-place allreduce on the slot's buffer."""
        ep = self.endpoint(slot)
        handle = yield from ep.iallreduce(buf, buf, op, nbytes)
        return handle

    def split(
        self, slot: int, color: int, key: int = 0
    ) -> Generator[Event, Any, Optional["GpuCommApi"]]:
        """Collective ``comm_split`` issued from ``slot`` (see
        :meth:`Endpoint.split`); returns the slot-first API over the
        new group, or ``None`` for a negative color."""
        ep = yield from self.endpoint(slot).split(color, key)
        return None if ep is None else self._scoped(ep.group)

    def group(self, name: str) -> "GpuCommApi":
        """Slot-first API over a slot group declared in ``DcgnConfig``."""
        return self._scoped(self._thread.comm.groups.by_name(name))


def _slot_first(name: str):
    def forward(self, slot: int, *args, **kwargs):
        return getattr(self.endpoint(slot), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.__doc__ = (
        f"``{name}`` issued from ``slot`` (see :meth:`Endpoint.{name}`)."
    )
    return forward


for _name in [*OPS, *("i" + n for n in OPS), "sendrecv", "sendrecv_replace"]:
    if _name not in GpuCommApi.__dict__:
        setattr(GpuCommApi, _name, _slot_first(_name))

#: Paper-style aliases (dcgn::gpu::iSendTo / iRecvFrom / iAllReduce …).
GpuCommApi.iSendTo = GpuCommApi.isend
GpuCommApi.iRecvFrom = GpuCommApi.irecv
GpuCommApi.iPutTo = GpuCommApi.iput
GpuCommApi.iAllreduce = GpuCommApi.iallreduce
GpuCommApi.iBroadcast = GpuCommApi.ibroadcast
