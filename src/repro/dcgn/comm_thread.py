"""The DCGN communication thread: one per node, sole owner of MPI.

Paper §3.2.2: "The communication thread initializes the underlying MPI,
handles communication requests from kernels, signals CPU- and
GPU-controlling threads as communications complete ... Each DCGN process
spawns exactly one communication thread.  This method allows DCGN to
provide thread-safe access to any communication library, even a
potentially non-threadsafe implementation of MPI."

Responsibilities implemented here:

* sleep-based polling of the node's work queue (requests funneled from
  CPU-kernel threads and GPU-kernel threads), each request served by
  its op's entry in one handler table, :data:`_OPS`;
* point-to-point matching between virtual ranks: local matches complete
  via host memcpy (paper §6.2), remote sends travel over MPI with a
  header + payload wire protocol;
* collective staging: requests accumulate until every local CPU kernel
  and GPU slot has entered, then the kind's *stager* charges the local
  staging and issues a single MPI collective with one rank per node
  (which is why DCGN's CPU broadcast can beat MVAPICH2's in Figure 7);
  its dispersal generator runs once the MPI phase completes.  That is
  one local staging operator, one distribution and one local dispersal
  operator per collective (Eijkhout, arXiv:1602.02409).

Every result reaches its kernel through :meth:`CommRequest.land`.

The wire protocol mimics a real progress engine: one wildcard header
``irecv`` is always outstanding; payload transfers run in spawned
"progress" sub-processes that model MPI's internal engine (the comm
thread remains the only *caller* of MPI operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Generator, Iterator, List, NamedTuple, Optional,
    Tuple,
)

import numpy as np

from ..hw.memory import as_bytes_view, land_bytes
from ..hw.node import Node
from ..mpi.communicator import MpiContext, Request
from ..mpi.datatypes import ReduceOp
from ..mpi.status import ANY_SOURCE
from ..sim.core import Event, Simulator, us
from ..sim.sync import Signal, Wake
from .errors import CollectiveMismatch, DcgnError
from .groups import GroupTable, WORLD_GID
from .queues import WorkQueue
from .ranks import ANY, RankMap
from .requests import CommRequest, CommStatus
from .windows import DcgnWindowTable

__all__ = ["CommThread", "HDR_TAG", "PAYLOAD_TAG_BASE"]

#: MPI tag of DCGN wire headers (user tag space, below INTERNAL_TAG_BASE).
HDR_TAG = 900_000
#: Payload tags: PAYLOAD_TAG_BASE + seq % PAYLOAD_TAG_MOD.
PAYLOAD_TAG_BASE = 901_000
PAYLOAD_TAG_MOD = 4096

_HDR_LEN = 8  # int64 fields
_KIND_P2P = 1


@dataclass
class _Unexpected:
    """An arrived-but-unmatched message (local or remote origin)."""

    src_vrank: int
    dst_vrank: int
    nbytes: int
    data: Optional[np.ndarray]
    #: For local sends: the originating request, completed upon match.
    local_send: Optional[CommRequest] = None
    #: True once the message sat in the unexpected queue (delivery then
    #: pays a bounce-buffer copy; matched-on-arrival remote messages
    #: land zero-copy, as with rendezvous RDMA).
    buffered: bool = False


class _CollSig(NamedTuple):
    """What every entry of one collective must agree on."""

    kind: str
    root: int
    op_name: str
    #: Bytes and per-member chunk.
    nbytes: int
    chunk: Optional[int]


@dataclass
class _CollState:
    """Per-node staging state of one collective operation.

    ``gid`` scopes the collective to a slot group (``WORLD_GID`` = the
    whole job): staging waits for the group's *local* members only, the
    MPI phase runs on the group's node sub-communicator, and ordering
    is per group — collectives on disjoint groups progress
    independently and overlap on the wire.
    """

    seq: int
    gid: int
    sig: _CollSig
    entries: List[CommRequest] = field(default_factory=list)


class CommThread:
    """Per-node communication thread."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        mpi_ctx: MpiContext,
        rankmap: RankMap,
        kick: Signal,
        groups: GroupTable,
        req_ids: Iterator[int],
        windows: Optional[DcgnWindowTable] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.node = node
        self.mpi = mpi_ctx
        self.rankmap = rankmap
        #: Slot-group registry.  Must be the ONE table shared by all of
        #: the job's comm threads — a per-thread table would give every
        #: node a different sub-communicator object for the same group
        #: and their collectives would never match.
        self.groups = groups
        #: One-sided window registry (shared; None = job has no windows).
        self.windows = windows
        #: Request ids, shared by the job's comm threads.
        self.req_ids = req_ids
        self.params = node.params
        self.name = name or f"dcgn.comm{node.node_id}"
        #: Internal wake-up signal: fired on queue puts and shutdown so
        #: the thread can idle without burning poll ticks.  Observable
        #: timing is unchanged — processing is quantized to the poll
        #: grid (sleep-based polling, §3.2.3).
        self._wake = Signal(sim, name=f"{self.name}.wake")
        #: Requests from local kernels (CPU threads + GPU threads).
        self.workq = WorkQueue(
            sim,
            queue_op_us=self.params.cpu.queue_op_us,
            name=f"{self.name}.workq",
            kick=self._wake,
        )
        #: Signal fired when CPU-side requests arrive (GPU poller kick).
        self.kick = kick
        self._pending_recvs: List[CommRequest] = []
        self._unexpected: List[_Unexpected] = []
        #: (gid, seq) → staging state; ordering is enforced per gid.
        self._colls: Dict[Tuple[int, int], _CollState] = {}
        self._next_coll: Dict[int, int] = {}
        self._wire_seq = 0
        self._inflight_sends = 0
        #: Collectives whose MPI phase is progressing in the background
        #: (issued nonblockingly; a completer process disperses results).
        self._inflight_colls = 0
        self._shutdown = False
        self._hdr_buf = np.zeros(_HDR_LEN, dtype=np.int64)
        self._hdr_req: Optional[Request] = None
        #: Counters for reports.
        self.stats: Dict[str, int] = {}
        self.proc = sim.process(self._run(), name=self.name)

    # -- external interface ----------------------------------------------
    def shutdown(self) -> None:
        """Ask the thread to exit once quiescent."""
        self._shutdown = True
        self._wake.fire()

    def enqueue_from_cpu(self, req: CommRequest) -> Generator[Event, Any, None]:
        """CPU-kernel-thread entry point: put + kick GPU pollers."""
        yield from self.workq.put(req)
        self.kick.fire()

    def enqueue_from_gpu_thread(
        self, req: CommRequest
    ) -> Generator[Event, Any, None]:
        """GPU-kernel-thread entry point (no kick: GPU-only traffic must
        pay the polling interval, per Table 1's GPU-only rows)."""
        yield from self.workq.put(req)

    # -- main loop ---------------------------------------------------------
    def _run(self):
        interval = us(self.params.dcgn.comm_poll_interval_us)
        # Deterministic pseudo-random start phase (threads are never
        # synchronized in reality).
        phase = float(
            self.node.rng.stream(f"{self.name}.phase").uniform(0.0, interval)
        )
        if phase > 0:
            yield self.sim.timeout(phase)
        self._post_header_irecv()
        sleep = Wake(self.sim)
        while True:
            spans = self.sim.spans
            if spans is not None:
                # One marker per poll cycle (grid-quantized wakeup).
                spans.instant(
                    self.sim.now, "poll", "dcgn.poll", self.name,
                    attrs={"node": self.node.node_id},
                )
            made_progress = True
            while made_progress:
                made_progress = False
                if len(self.workq) > 0:
                    items = yield from self.workq.drain()
                    for req in items:
                        yield from self._handle_request(req)
                    made_progress = bool(items)
                while self._hdr_req is not None and self._hdr_req.test():
                    yield from self._handle_wire_arrival()
                    self._post_header_irecv()
                    made_progress = True
                while True:
                    key = self._ready_collective()
                    if key is None:
                        break
                    made_progress = True
                    state = self._colls.pop(key)
                    self._next_coll[key[0]] = key[1] + 1
                    yield from self._execute_collective(state)
            if self._shutdown and self._quiescent():
                break
            # Sleep-based polling without busy ticks: block until a wake
            # source fires (queue put, header arrival, shutdown), then
            # quantize the reaction to the next grid tick so observable
            # latency matches a thread sleeping `interval` between polls.
            if not self._actionable():
                hdr = self._hdr_req
                yield sleep.arm(
                    None, (self._wake,), () if hdr is None else (hdr.event,)
                )
            elapsed = self.sim.now - phase
            ticks = int(elapsed / interval) + 1
            remainder = phase + ticks * interval - self.sim.now
            if remainder > 1e-15:
                yield self.sim.timeout(remainder)
        self._cancel_header_irecv()

    def _actionable(self) -> bool:
        """Anything the next poll iteration could act on right now?"""
        return (
            len(self.workq) > 0
            or (self._hdr_req is not None and self._hdr_req.test())
            or self._ready_collective() is not None
            or (self._shutdown and self._quiescent())
        )

    def _quiescent(self) -> bool:
        return (
            len(self.workq) == 0
            and self._inflight_sends == 0
            and self._inflight_colls == 0
            and not self._colls
            and (self._hdr_req is None or not self._hdr_req.test())
        )

    # -- wire protocol -----------------------------------------------------
    def _post_header_irecv(self) -> None:
        self._hdr_buf = np.zeros(_HDR_LEN, dtype=np.int64)
        self._hdr_req = self.mpi.irecv(
            self._hdr_buf, source=ANY_SOURCE, tag=HDR_TAG
        )

    def _cancel_header_irecv(self) -> None:
        if self._hdr_req is not None and not self._hdr_req.test():
            proc = self._hdr_req.event
            proc.interrupt("dcgn shutdown")
            proc.defuse()
        self._hdr_req = None

    def _handle_wire_arrival(self) -> Generator[Event, Any, None]:
        status = yield from self._hdr_req.wait()
        kind, src_vrank, dst_vrank, nbytes, seq = (
            int(self._hdr_buf[0]),
            int(self._hdr_buf[1]),
            int(self._hdr_buf[2]),
            int(self._hdr_buf[3]),
            int(self._hdr_buf[4]),
        )
        if kind != _KIND_P2P:  # pragma: no cover - defensive
            raise DcgnError(f"unknown wire kind {kind}")
        data: Optional[np.ndarray] = None
        if nbytes > 0:
            data = np.zeros(nbytes, dtype=np.uint8)
            yield from self.mpi.recv(
                data,
                source=status.source,
                tag=PAYLOAD_TAG_BASE + seq % PAYLOAD_TAG_MOD,
            )
        self._bump("wire_arrivals")
        yield from self._match_arrival(
            _Unexpected(src_vrank, dst_vrank, nbytes, data)
        )

    def _wire_send(self, req: CommRequest, dst_node: int) -> None:
        seq = self._wire_seq
        self._wire_seq += 1
        hdr = np.array(
            [_KIND_P2P, req.src_vrank, req.peer, req.nbytes, seq, 0, 0, 0],
            dtype=np.int64,
        )
        payload = None
        if req.nbytes > 0:
            payload = as_bytes_view(req.payload())[: req.nbytes]
        self._inflight_sends += 1
        self._bump("wire_sends")

        def runner():
            try:
                yield from self.mpi.send(hdr, dest=dst_node, tag=HDR_TAG)
                if payload is not None:
                    yield from self.mpi.send(
                        payload,
                        dest=dst_node,
                        tag=PAYLOAD_TAG_BASE + seq % PAYLOAD_TAG_MOD,
                    )
                # Send-complete semantics: the kernel's send returns once
                # the MPI call finished (paper Figure 2, step 3).
                self._complete(
                    req, CommStatus(source=req.peer, nbytes=req.nbytes)
                )
            finally:
                self._inflight_sends -= 1

        self.sim.process(runner(), name=f"{self.name}.wire{seq}")

    # -- request handling --------------------------------------------------
    def _handle_request(self, req: CommRequest) -> Generator[Event, Any, None]:
        """Serve one kernel request through its entry in :data:`_OPS`."""
        entry = _OPS.get(req.op)
        if entry is None:
            raise DcgnError(f"unknown op {req.op!r}")
        self._bump(f"req.{req.op}")
        req.mark(self.sim, "picked", self.name)
        spans = self.sim.spans
        sp = None
        if spans is not None:
            sp = spans.begin(
                self.sim.now, req.op, "dcgn.slot", self.name,
                attrs={"vrank": req.src_vrank},
            )
        yield from entry[0](self, req)
        if spans is not None:
            spans.end(self.sim.now, sp)

    def _handle_send(self, req: CommRequest) -> Generator[Event, Any, None]:
        dst = req.peer
        dst_node = self.rankmap.node_of(dst)
        local = dst_node == self.mpi.rank
        if local and self.params.dcgn.local_via_memcpy:
            entry = _Unexpected(
                req.src_vrank, dst, req.nbytes, req.data, local_send=req
            )
            yield from self._match_arrival(entry)
        else:
            # Remote (or ablation A3: loopback through MPI).
            self._wire_send(req, dst_node)

    def _handle_recv(self, req: CommRequest) -> Generator[Event, Any, None]:
        for i, entry in enumerate(self._unexpected):
            if self._p2p_match(req, entry):
                del self._unexpected[i]
                yield from self._deliver_p2p(req, entry)
                return
        self._pending_recvs.append(req)

    def _match_arrival(self, entry: _Unexpected) -> Generator[Event, Any, None]:
        for i, req in enumerate(self._pending_recvs):
            if self._p2p_match(req, entry):
                del self._pending_recvs[i]
                yield from self._deliver_p2p(req, entry)
                return
        entry.buffered = True
        self._unexpected.append(entry)

    @staticmethod
    def _p2p_match(req: CommRequest, entry: _Unexpected) -> bool:
        if entry.dst_vrank != req.src_vrank:
            return False
        return req.peer == ANY or req.peer == entry.src_vrank

    def _deliver_p2p(
        self, req: CommRequest, entry: _Unexpected
    ) -> Generator[Event, Any, None]:
        """Land a matched message in the receiver, at most its count,
        which its status reports (and finish the sender)."""
        if entry.nbytes > 0 and (entry.local_send is not None or entry.buffered):
            # Bounce-buffer memcpy: local sends always stage through host
            # memory (paper §6.2), and unexpected remote messages are
            # buffered then copied.  Matched-on-arrival remote messages
            # land zero-copy (rendezvous into the posted buffer), which
            # is what keeps 1 MB CPU:CPU within a few percent of MPI.
            yield from self.node.memcpy.copy(None, None, nbytes=entry.nbytes)
        n = min(entry.nbytes, req.nbytes)
        if entry.data is not None:
            req.land(as_bytes_view(entry.data)[:n])
        self._complete(req, CommStatus(source=entry.src_vrank, nbytes=n))
        if entry.local_send is not None:
            self._complete(
                entry.local_send,
                CommStatus(source=entry.dst_vrank, nbytes=entry.nbytes),
            )
        self._bump("p2p_delivered")
        self._kick_if_cpu_involved((req.src_vrank, entry.src_vrank))

    # -- one-sided windows -------------------------------------------------
    def _handle_rma(self, req: CommRequest) -> Generator[Event, Any, None]:
        """Drive a kernel's one-sided operation against a window.

        Matching-free by construction: the origin comm thread issues the
        wire-level RMA op (eager bounce or zero-copy RDMA, per the
        autotuned threshold) and the *target* node's comm thread never
        sees a request at all — the bytes land in (or are read from)
        its registered window region while it services its own kernels.
        The kernel's request completes at *remote* completion, so a
        completed put is already visible to the target.
        """
        if self.windows is None:
            raise DcgnError("this job declares no windows")
        win = self.windows.by_name(str(req.extra["win"]))
        offset = int(req.extra.get("offset", 0))
        count = req.nbytes // win.dtype.itemsize
        win.check_range(req.peer, offset, count)
        tnode, base = win.locate(req.peer)
        kind = req.op[len("rma_"):]
        if kind == "get":
            # zeros, not empty: under the pricing backend the wire op
            # moves no data, and garbage would make runs irreproducible.
            moved = landed = np.zeros(count, dtype=win.dtype)
        else:
            # Snapshotted at kernel issue: the window skips its copy.
            moved = np.ascontiguousarray(req.payload().reshape(-1)[:count])
            landed = None
        proc = yield from win.win.start(
            kind, self.mpi.rank, tnode, moved, base + offset,
            op=req.extra.get("reduce_op", "sum"), snapshot=False,
            want_event=True,
        )
        # A get reports the rank it read; a put or accumulate, its origin.
        source = req.src_vrank if landed is None else req.peer
        self._inflight_sends += 1
        self._bump(f"rma.{req.op}")

        def runner():
            try:
                yield proc
                req.land(landed)
                self._complete(
                    req, CommStatus(source=source, nbytes=int(moved.nbytes))
                )
                self._kick_if_cpu_involved((req.src_vrank,))
            finally:
                self._inflight_sends -= 1
                self._wake.fire()

        self.sim.process(runner(), name=f"{self.name}.rma{req.req_id}")

    # -- collectives -------------------------------------------------------
    def _local_quorum(self, gid: int) -> int:
        """How many of the group's members live on this node."""
        return self.groups.local_count(gid, self.mpi.rank)

    def _enter_collective(
        self, req: CommRequest
    ) -> Generator[Event, Any, None]:
        """Add ``req`` to its collective's staging state (no simulated
        cost: the collective runs once every local member entered)."""
        yield from ()
        seq = req.extra.get("coll_seq")
        if seq is None:
            raise DcgnError(f"collective {req!r} missing coll_seq")
        gid = int(req.extra.get("gid", WORLD_GID))
        if req.src_vrank not in self.groups.group(gid):
            raise CollectiveMismatch(
                f"vrank {req.src_vrank} issued a collective on group "
                f"{gid} it does not belong to"
            )
        if seq < self._next_coll.get(gid, 0):
            raise CollectiveMismatch(
                f"collective #{seq} (group {gid}) already executed; vrank "
                f"{req.src_vrank} replayed a stale sequence number "
                "(participants disagree on how many collectives ran)"
            )
        sig = _CollSig(
            req.op, req.root, req.extra.get("reduce_op", ""), req.nbytes,
            req.extra.get("chunk"),
        )
        state = self._colls.get((gid, seq))
        if state is None:
            state = self._colls[(gid, seq)] = _CollState(seq, gid, sig)
        elif state.sig != sig:
            raise CollectiveMismatch(
                f"collective #{seq} (group {gid}): vrank {req.src_vrank} "
                f"entered {sig} but others entered {state.sig}"
            )
        state.entries.append(req)
        if len(state.entries) > self._local_quorum(gid):
            raise CollectiveMismatch(
                f"collective #{seq} (group {gid}): more entries than "
                "local participants"
            )

    def _ready_collective(self) -> Optional[Tuple[int, int]]:
        """The next fully staged collective, if any.

        Per group, collectives execute in sequence order; across groups
        any fully staged head-of-line collective may go — their MPI
        phases run on disjoint sub-communicators (own tag spaces), so
        relative order between groups is free, which is exactly what
        lets disjoint-group collectives overlap.
        """
        for (gid, seq), state in sorted(self._colls.items()):
            if (
                seq == self._next_coll.get(gid, 0)
                and len(state.entries) == self._local_quorum(gid)
            ):
                return (gid, seq)
        return None

    def _kick_if_cpu_involved(self, vranks) -> None:
        """Fire the node kick when a completed op involved local CPU ranks.

        Models the host-side scheduler activity that accompanies
        CPU-kernel communication and incidentally wakes the GPU pollers
        — the mechanism behind Table 1's fast mixed CPU+GPU barriers.
        """
        for v in vranks:
            if (
                 0 <= v < self.rankmap.size
                and self.rankmap.is_cpu(v)
                and self.rankmap.node_of(v) == self.mpi.rank
            ):
                self.kick.fire()
                return

    def _execute_collective(
        self, state: _CollState
    ) -> Generator[Event, Any, None]:
        """Stage the collective and hand its wire phase to a completer.

        Staging (the kind's stager: payload assembly, local combine
        trees) runs inline so every node issues the MPI-level operation
        for collective #seq of a given group in the same order — the
        nonblocking collectives claim their tag blocks synchronously at
        issue time, which keeps concurrent collectives aligned across
        nodes.  The MPI phase runs on the *group's* node
        sub-communicator (its own tag space and schedule engine) and
        progresses in the background while this thread returns to
        servicing kernel requests: that is the compute/communication
        overlap the paper's dedicated comm thread exists to provide,
        and what lets collectives on disjoint slot groups share the
        wire.  The completer then runs the stager's dispersal.
        """
        self._bump(f"coll.{state.sig.kind}")
        info = self.groups.info(state.gid)
        mreq, disperse = yield from _OPS[state.sig.kind][1](
            self, state, info, info.ctx_for(self.mpi.rank)
        )
        self._inflight_colls += 1

        def runner():
            try:
                yield from mreq.wait()
                yield from disperse
                self._kick_if_cpu_involved(
                    [e.src_vrank for e in state.entries]
                )
            finally:
                self._inflight_colls -= 1
                self._wake.fire()

        self.sim.process(runner(), name=f"{self.name}.coll{state.seq}")

    def _disperse(
        self,
        entries: List[CommRequest],
        results: Optional[List[Optional[np.ndarray]]] = None,
        source: int = -1,
        copied: Optional[Callable[[CommRequest], bool]] = None,
    ) -> Generator[Event, Any, None]:
        """Land ``results[i]`` (None: nothing) in ``entries[i]`` and
        complete it with the bytes landed, in order.  Entries asking
        for bytes that ``copied`` selects first pay a host memcpy: CPU
        participants get the copy, GPU threads a data handoff (they
        perform the PCIe write on their side)."""
        for i, entry in enumerate(entries):
            data = None if results is None else results[i]
            n = 0
            if data is not None:
                n = int(data.nbytes)
                if copied is not None and copied(entry) and entry.nbytes > 0:
                    yield from self.node.memcpy.copy(None, None, nbytes=n)
                entry.land(data)
            self._complete(entry, CommStatus(source=source, nbytes=n))

    @staticmethod
    def _root_entry(state: _CollState) -> Optional[CommRequest]:
        """The root's own entry (None: the root lives on another node)."""
        return next(
            (e for e in state.entries if e.src_vrank == state.sig.root), None
        )

    def _root_rank(self, state: _CollState, info) -> int:
        """The root's node rank in the group's sub-communicator."""
        return info.mpi_rank_of_node(self.rankmap.node_of(state.sig.root))

    @staticmethod
    def _by_group_rank(state: _CollState, info) -> List[CommRequest]:
        return sorted(
            state.entries, key=lambda e: info.group.rank_of(e.src_vrank)
        )

    def _copy_waves(
        self, copies: int, nbytes: int
    ) -> Generator[Event, Any, None]:
        """Charge ``copies`` independent ``nbytes`` host copies (or
        combines) run in parallel waves: ⌈copies / cores⌉ memcpy
        charges instead of a serial ``copies``.

        Modeling choice: the cores are genuinely idle (every
        contributor is blocked in sleep_poll_wait on this collective),
        and the dual-socket Opterons' per-socket memory controllers plus
        combine ALU time are taken to give the parallel streams usable
        bandwidth; if calibration shows this too optimistic, drop
        `cores` toward the socket count.
        """
        cores = max(1, self.node.cores)
        for _ in range((copies + cores - 1) // cores):
            yield from self.node.memcpy.copy(None, None, nbytes=nbytes)

    # -- stagers: (state, group info, node context) → (MPI request,
    #    dispersal).  Every stager is a generator, even where staging is
    #    free.
    def _stage_barrier(self, state: _CollState, info, mpi):
        yield from ()
        return mpi.ibarrier(), self._disperse(state.entries)

    def _stage_bcast(self, state: _CollState, info, mpi):
        """Broadcast the root's ``nbytes`` (which every member agreed
        on at entry) to every node, then copy it out to the members."""
        yield from ()
        root = self._root_entry(state)
        if root is not None:
            buf = as_bytes_view(root.payload())[: state.sig.nbytes].copy()
        else:
            # "one buffer is selected at random from those specified" —
            # we use a staging buffer, equivalent cost-wise; zeroed, so
            # no byte the root did not send can leak out of it.
            buf = np.zeros(state.sig.nbytes, dtype=np.uint8)
        mreq = mpi.ibcast(buf, root=self._root_rank(state, info))
        return mreq, self._disperse(
            state.entries, [buf] * len(state.entries), state.sig.root,
            copied=lambda e: e is not root,
        )

    def _combine_local(
        self, state: _CollState
    ) -> Generator[Event, Any, Tuple[np.ndarray, ReduceOp]]:
        """Tree-combine the local contributions in vrank order: pairwise
        combines within a round run on distinct host cores, so the
        total charge is 1 initial copy + Σ ⌈pairs_in_round / cores⌉
        memcpy-equivalents instead of a serial O(k) fold."""
        # Kernel-side issue already validated the op name (and refused
        # "replace", which only one-sided accumulate may use).
        op = ReduceOp(state.sig.op_name or "sum")
        local = sorted(state.entries, key=lambda e: e.src_vrank)
        level = [e.payload() for e in local]
        yield from self.node.memcpy.copy(
            None, None, nbytes=int(level[0].nbytes)
        )
        while len(level) > 1:
            nxt = [
                op.combine(level[i], level[i + 1])
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            yield from self._copy_waves(len(level) // 2, int(level[0].nbytes))
            level = nxt
        # Safe to alias the sole contribution: combines are never
        # in-place and the MPI layer snapshots sends.
        return level[0], op

    def _stage_allreduce(self, state: _CollState, info, mpi):
        acc, op = yield from self._combine_local(state)
        result = np.zeros_like(acc)
        mreq = mpi.iallreduce(acc, result, op=op)
        return mreq, self._disperse(
            state.entries, [result] * len(state.entries)
        )

    def _stage_reduce(self, state: _CollState, info, mpi):
        acc, op = yield from self._combine_local(state)
        root = self._root_entry(state)
        result = np.zeros_like(acc)
        mreq = mpi.ireduce(
            acc, None if root is None else result, op=op,
            root=self._root_rank(state, info),
        )
        return mreq, self._disperse(
            state.entries,
            [result if e is root else None for e in state.entries],
        )

    def _stage_gather(self, state: _CollState, info, mpi):
        """Gather equal-size contributions to the root vrank.

        Every entry carries ``extra["chunk"]`` — the per-rank chunk size
        in bytes (agreed by all participants, as in MPI_Gather).
        Results assemble in *group-rank* order (vrank order for the
        world group).
        """
        chunk = state.sig.chunk
        # Assemble this node's contribution in group-rank order; the
        # per-entry copies are independent, so they run in waves.
        local = self._by_group_rank(state, info)
        sendbuf = np.zeros(chunk * len(local), dtype=np.uint8)
        for i, e in enumerate(local):
            land_bytes(sendbuf[i * chunk :], as_bytes_view(e.payload())[:chunk])
        yield from self._copy_waves(len(local), chunk)
        root = self._root_entry(state)
        recvbufs = None
        if root is not None:
            recvbufs = [
                np.zeros(chunk * len(info.local_vranks(n)), dtype=np.uint8)
                for n in info.nodes
            ]
        mreq = mpi.igather(
            sendbuf, recvbufs, root=self._root_rank(state, info)
        )

        def disperse():
            total = None
            if root is not None:
                # Assemble the full result in global group-rank order
                # (a key-reordered group need not be node-major, so
                # each member's chunk lands at its group-rank offset).
                total = np.zeros(chunk * info.group.size, dtype=np.uint8)
                for i, node in enumerate(info.nodes):
                    for j, member in enumerate(info.local_vranks(node)):
                        g = info.group.rank_of(member)
                        land_bytes(total[g * chunk :],
                                   recvbufs[i][j * chunk : (j + 1) * chunk])
            yield from self._disperse(
                state.entries,
                [total if e is root else None for e in state.entries],
            )

        return mreq, disperse()

    def _stage_scatter(self, state: _CollState, info, mpi):
        """Scatter equal-size chunks from the root vrank.

        Every entry carries ``extra["chunk"]`` (bytes per rank); the
        root's buffer is read in group-rank order.
        """
        yield from ()
        chunk = state.sig.chunk
        local = self._by_group_rank(state, info)
        recvbuf = np.zeros(chunk * len(local), dtype=np.uint8)
        root = self._root_entry(state)
        sendbufs = None
        if root is not None:
            full = as_bytes_view(root.payload())
            sendbufs = [
                np.concatenate([
                    full[g * chunk : (g + 1) * chunk]
                    for g in map(info.group.rank_of, info.local_vranks(n))
                ])
                for n in info.nodes
            ]
        mreq = mpi.iscatter(
            sendbufs, recvbuf, root=self._root_rank(state, info)
        )

        def disperse():
            pieces = [
                recvbuf[i * chunk : (i + 1) * chunk] for i in range(len(local))
            ]
            yield from self._disperse(
                local, pieces, state.sig.root, copied=lambda e: True
            )

        return mreq, disperse()

    def _stage_split(self, state: _CollState, info, mpi):
        """Collective ``comm_split`` over the whole job.

        Every virtual rank contributes a (color, key) pair; the comm
        threads allgather the triples over the node communicator (real
        wire cost, like ``MPI_Comm_split``'s internal exchange), then
        each derives the identical grouping and registers it in the
        shared :class:`~repro.dcgn.groups.GroupTable` — which builds
        one node-level MPI sub-communicator per color.  Each entry
        completes carrying its group descriptor (``None`` for negative
        colors, mirroring ``MPI_UNDEFINED``).

        The color/key allgather is issued *nonblockingly* (its tag
        block claimed synchronously, like every staged collective) and
        resolved by a background completer, so the exchange hides
        behind kernel traffic instead of stalling the comm thread —
        the same overlap discipline the data collectives follow.
        """
        yield from ()
        local = sorted(state.entries, key=lambda e: e.src_vrank)
        mine = np.array([
            (e.src_vrank, int(e.extra.get("color", -1)),
             int(e.extra.get("key", 0)))
            for e in local
        ], dtype=np.int64).reshape(-1)
        recv = [
            np.zeros(3 * len(self.rankmap.local_ranks(n)), dtype=np.int64)
            for n in range(mpi.size)
        ]
        mreq = mpi.iallgather(mine, recv)

        def disperse():
            triples = [
                tuple(map(int, t)) for buf in recv for t in buf.reshape(-1, 3)
            ]
            groups = self.groups.register_split(state.seq, triples)
            for e in state.entries:
                e.extra["group"] = groups.get(int(e.extra.get("color", -1)))
            yield from self._disperse(state.entries)

        return mreq, disperse()

    # -- misc ------------------------------------------------------------
    def _complete(self, req: CommRequest, status: CommStatus) -> None:
        """Complete ``req`` and record its ``completed`` stage."""
        req.mark(self.sim, "completed", self.name)
        req.complete(status)

    def _bump(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1


#: Every op a kernel request can carry → (handler, the op's own step).
#: The handler runs when the comm thread picks the request.  A
#: collective's step is its stager, run once every local member has
#: entered.
_OPS = {
    "send": (CommThread._handle_send, None),
    "recv": (CommThread._handle_recv, None),
    "rma_put": (CommThread._handle_rma, None),
    "rma_get": (CommThread._handle_rma, None),
    "rma_accumulate": (CommThread._handle_rma, None),
    "barrier": (CommThread._enter_collective, CommThread._stage_barrier),
    "bcast": (CommThread._enter_collective, CommThread._stage_bcast),
    "reduce": (CommThread._enter_collective, CommThread._stage_reduce),
    "allreduce": (CommThread._enter_collective, CommThread._stage_allreduce),
    "gather": (CommThread._enter_collective, CommThread._stage_gather),
    "scatter": (CommThread._enter_collective, CommThread._stage_scatter),
    "split": (CommThread._enter_collective, CommThread._stage_split),
}
