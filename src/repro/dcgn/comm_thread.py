"""The DCGN communication thread: one per node, sole owner of MPI.

Paper §3.2.2: "The communication thread initializes the underlying MPI,
handles communication requests from kernels, signals CPU- and
GPU-controlling threads as communications complete ... Each DCGN process
spawns exactly one communication thread.  This method allows DCGN to
provide thread-safe access to any communication library, even a
potentially non-threadsafe implementation of MPI."

Responsibilities implemented here:

* sleep-based polling of the node's work queue (requests funneled from
  CPU-kernel threads and GPU-kernel threads);
* point-to-point matching between virtual ranks: local matches complete
  via host memcpy (paper §6.2), remote sends travel over MPI with a
  header + payload wire protocol;
* collective staging: requests accumulate until every local CPU kernel
  and GPU slot has entered, then a single MPI collective runs with one
  rank per node (which is why DCGN's CPU broadcast can beat MVAPICH2's
  in Figure 7) followed by local dispersal.

The wire protocol mimics a real progress engine: one wildcard header
``irecv`` is always outstanding; payload transfers run in spawned
"progress" sub-processes that model MPI's internal engine (the comm
thread remains the only *caller* of MPI operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..hw.node import Node
from ..mpi.communicator import MpiContext, Request
from ..mpi.datatypes import ReduceOp
from ..mpi.status import ANY_SOURCE
from ..sim.core import Event, Simulator, us
from ..sim.sync import Signal
from .errors import CollectiveMismatch, DcgnError
from .groups import GroupTable, WORLD_GID
from .queues import WorkQueue
from .ranks import ANY, RankMap
from .requests import COLLECTIVE_OPS, RMA_OPS, CommRequest, CommStatus
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
    gid: int = WORLD_GID
    kind: Optional[str] = None
    root: int = -1
    op_name: str = ""
    #: Bytes and per-member chunk every entry must agree on.
    nbytes: int = 0
    chunk: Optional[int] = None
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
                from ..sim.primitives import AnyOf

                waits = [self._wake.wait()]
                if self._hdr_req is not None:
                    waits.append(self._hdr_req.event)
                yield AnyOf(self.sim, waits)
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
            data = np.empty(nbytes, dtype=np.uint8)
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
            if req.data is None:
                raise DcgnError(f"{req!r} has no payload snapshot")
            payload = req.data.view(np.uint8).reshape(-1)[: req.nbytes]
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
        self._bump(f"req.{req.op}")
        req.mark(self.sim, "picked", self.name)
        spans = self.sim.spans
        sp = None
        if spans is not None:
            sp = spans.begin(
                self.sim.now, req.op, "dcgn.slot", self.name,
                attrs={"vrank": req.src_vrank},
            )
        if req.op == "send":
            yield from self._handle_send(req)
        elif req.op == "recv":
            yield from self._handle_recv(req)
        elif req.op in RMA_OPS:
            yield from self._handle_rma(req)
        elif req.op in COLLECTIVE_OPS:
            self._stage_collective(req)
        else:
            raise DcgnError(f"unknown op {req.op!r}")
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
        """Land a matched message in the receiver (and finish the sender)."""
        if entry.nbytes > 0 and (entry.local_send is not None or entry.buffered):
            # Bounce-buffer memcpy: local sends always stage through host
            # memory (paper §6.2), and unexpected remote messages are
            # buffered then copied.  Matched-on-arrival remote messages
            # land zero-copy (rendezvous into the posted buffer), which
            # is what keeps 1 MB CPU:CPU within a few percent of MPI.
            yield from self.node.memcpy.copy(None, None, nbytes=entry.nbytes)
        status = CommStatus(source=entry.src_vrank, nbytes=entry.nbytes)
        if req.deliver is not None and entry.data is not None:
            req.deliver(entry.data)
        else:
            req.data = entry.data
        self._complete(req, status)
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
        target = req.peer
        offset = int(req.extra.get("offset", 0))
        count = req.nbytes // win.dtype.itemsize
        win.check_range(target, offset, count)
        tnode, base = win.locate(target)
        woff = base + offset
        me = self.mpi.rank
        if req.op == "rma_put":
            if req.data is None:
                raise DcgnError(f"{req!r} has no payload snapshot")
            payload = np.ascontiguousarray(req.data.reshape(-1)[:count])
            proc = yield from win.win.start_put(
                me, tnode, payload, woff, snapshot=False, want_event=True
            )

            def finish(req=req, n=int(payload.nbytes)):
                self._complete(
                    req, CommStatus(source=req.src_vrank, nbytes=n)
                )

        elif req.op == "rma_accumulate":
            if req.data is None:
                raise DcgnError(f"{req!r} has no payload snapshot")
            payload = np.ascontiguousarray(req.data.reshape(-1)[:count])
            op = req.extra.get("reduce_op", "sum")
            proc = yield from win.win.start_accumulate(
                me, tnode, payload, op=op, offset=woff, snapshot=False,
                want_event=True,
            )

            def finish(req=req, n=int(payload.nbytes)):
                self._complete(
                    req, CommStatus(source=req.src_vrank, nbytes=n)
                )

        elif req.op == "rma_get":
            # zeros, not empty: under the pricing backend the wire op
            # moves no data, and garbage would make runs irreproducible.
            recv = np.zeros(count, dtype=win.dtype)
            proc = yield from win.win.start_get(me, tnode, recv, woff)

            def finish(req=req, recv=recv):
                if req.deliver is not None:
                    req.deliver(recv)
                else:
                    req.data = recv
                self._complete(
                    req, CommStatus(source=target, nbytes=int(recv.nbytes))
                )

        else:  # pragma: no cover - defensive
            raise DcgnError(f"unknown RMA op {req.op!r}")
        self._inflight_sends += 1
        self._bump(f"rma.{req.op}")

        def runner():
            try:
                yield proc
                finish()
                self._kick_if_cpu_involved((req.src_vrank,))
            finally:
                self._inflight_sends -= 1
                self._wake.fire()

        self.sim.process(runner(), name=f"{self.name}.rma{req.req_id}")

    # -- collectives -------------------------------------------------------
    def _local_quorum(self, gid: int) -> int:
        """How many of the group's members live on this node."""
        return self.groups.local_count(gid, self.mpi.rank)

    def _stage_collective(self, req: CommRequest) -> None:
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
        state = self._colls.get((gid, seq))
        if state is None:
            state = _CollState(seq=seq, gid=gid)
            self._colls[(gid, seq)] = state
        chunk = req.extra.get("chunk")
        if state.kind is None:
            state.kind = req.op
            state.root = req.root
            state.op_name = req.extra.get("reduce_op", "")
            state.nbytes, state.chunk = req.nbytes, chunk
        else:
            if state.kind != req.op:
                raise CollectiveMismatch(
                    f"collective #{seq}: {req.src_vrank} called {req.op!r} "
                    f"but others called {state.kind!r}"
                )
            if state.root != req.root:
                raise CollectiveMismatch(
                    f"collective #{seq}: root mismatch "
                    f"({req.root} vs {state.root})"
                )
            if state.op_name != req.extra.get("reduce_op", ""):
                raise CollectiveMismatch(
                    f"collective #{seq}: reduce-op mismatch"
                )
            # Broadcast non-roots may pass any buffer size: staging
            # takes the largest.
            if req.op != "bcast" and (state.nbytes, state.chunk) != (
                req.nbytes, chunk
            ):
                raise CollectiveMismatch(
                    f"collective #{seq}: vrank {req.src_vrank} passed "
                    f"{req.nbytes} B (chunk {chunk}) but others passed "
                    f"{state.nbytes} B (chunk {state.chunk})"
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

        Staging (payload assembly, local combine trees) runs inline so
        every node issues the MPI-level operation for collective #seq
        of a given group in the same order — the nonblocking
        collectives claim their tag blocks synchronously at issue time,
        which keeps concurrent collectives aligned across nodes.  The
        MPI phase runs on the *group's* node sub-communicator (its own
        tag space and schedule engine) and progresses in the background
        while this thread returns to servicing kernel requests: that is
        the compute/communication overlap the paper's dedicated comm
        thread exists to provide, and what lets collectives on disjoint
        slot groups share the wire.
        """
        self._bump(f"coll.{state.kind}")
        info = self.groups.info(state.gid)
        mpi = info.ctx_for(self.mpi.rank)
        if state.kind == "barrier":
            self._spawn_completer(state, mpi.ibarrier(), None)
        elif state.kind == "bcast":
            self._start_bcast(state, info, mpi)
        elif state.kind in ("reduce", "allreduce"):
            yield from self._exec_reduce(state, info, mpi)
        elif state.kind == "gather":
            yield from self._exec_gather(state, info, mpi)
        elif state.kind == "scatter":
            self._start_scatter(state, info, mpi)
        elif state.kind == "split":
            self._start_split(state)
        else:
            raise DcgnError(f"unhandled collective {state.kind!r}")

    def _spawn_completer(self, state: _CollState, req, finish) -> None:
        """Wait for the MPI phase, then disperse results and release
        the participants.  ``finish`` is None (plain completion), a
        plain callable, or a generator function charging dispersal
        costs."""
        self._inflight_colls += 1

        def runner():
            try:
                yield from req.wait()
                if finish is None:
                    for e in state.entries:
                        self._complete(e, CommStatus(source=-1, nbytes=0))
                else:
                    out = finish()
                    if out is not None:
                        yield from out
                self._kick_if_cpu_involved(
                    [e.src_vrank for e in state.entries]
                )
            finally:
                self._inflight_colls -= 1
                self._wake.fire()

        self.sim.process(runner(), name=f"{self.name}.coll{state.seq}")

    def _start_bcast(self, state: _CollState, info, mpi) -> None:
        root_vrank = state.root
        root_node = self.rankmap.node_of(root_vrank)
        nbytes = max(e.nbytes for e in state.entries)
        root_entry = next(
            (e for e in state.entries if e.src_vrank == root_vrank), None
        )
        if root_entry is not None:
            if root_entry.data is None:
                raise DcgnError("bcast root entry has no payload")
            mpi_buf = root_entry.data.view(np.uint8).reshape(-1)[:nbytes].copy()
        else:
            # "one buffer is selected at random from those specified" — we
            # use a staging buffer, equivalent cost-wise.
            mpi_buf = np.empty(nbytes, dtype=np.uint8)
        req = mpi.ibcast(mpi_buf, root=info.mpi_rank_of_node(root_node))

        def finish():
            # Local dispersal: memcpy to CPU participants, data handoff
            # to GPU threads (they perform the PCIe write on their side).
            for entry in state.entries:
                if entry is root_entry:
                    self._complete(
                        entry, CommStatus(source=root_vrank, nbytes=nbytes)
                    )
                    continue
                if entry.nbytes > 0:
                    yield from self.node.memcpy.copy(
                        None, None, nbytes=nbytes
                    )
                if entry.deliver is not None:
                    entry.deliver(mpi_buf)
                else:
                    # Per-request copy: handing every sibling the same
                    # ndarray would let one rank's buffer mutation corrupt
                    # the others' received payloads.
                    entry.data = mpi_buf.copy()
                self._complete(
                    entry, CommStatus(source=root_vrank, nbytes=nbytes)
                )

        self._spawn_completer(state, req, finish)

    def _exec_reduce(
        self, state: _CollState, info, mpi
    ) -> Generator[Event, Any, None]:
        # Kernel-side issue already validated the op name (and refused
        # "replace", which only one-sided accumulate may use).
        op = ReduceOp(state.op_name or "sum")
        root_vrank = state.root
        contributions = sorted(state.entries, key=lambda e: e.src_vrank)
        level: List[np.ndarray] = []
        for e in contributions:
            if e.data is None:
                raise DcgnError(f"reduce entry {e!r} missing contribution")
            level.append(e.data)
        # Tree-combine the local contributions: pairwise combines within
        # a round run on distinct host cores, so the total charge is
        # 1 initial copy + Σ ⌈pairs_in_round / cores⌉ memcpy-equivalents
        # instead of the old serial O(k) fold.  Modeling choice: the
        # cores are genuinely idle (every contributor is blocked in
        # sleep_poll_wait on this collective), and the dual-socket
        # Opterons' per-socket memory controllers plus combine ALU time
        # are taken to give the parallel streams usable bandwidth; if
        # calibration shows this too optimistic, drop `cores` toward
        # the socket count.
        yield from self.node.memcpy.copy(
            None, None, nbytes=int(level[0].nbytes)
        )
        cores = max(1, self.node.cores)
        while len(level) > 1:
            nxt = [
                op.combine(level[i], level[i + 1])
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            pairs = len(level) // 2
            for _ in range((pairs + cores - 1) // cores):
                yield from self.node.memcpy.copy(
                    None, None, nbytes=int(level[0].nbytes)
                )
            level = nxt
        # Safe to alias the sole contribution: combines are never
        # in-place and the MPI layer snapshots sends.
        acc = level[0]
        result = np.empty_like(acc)
        if state.kind == "allreduce":
            mreq = mpi.iallreduce(acc, result, op=op)

            def finish_allreduce():
                for req in state.entries:
                    if req.deliver is not None:
                        req.deliver(result)
                    else:
                        # Per-request copy (same aliasing hazard as bcast).
                        req.data = result.copy()
                    self._complete(
                        req, CommStatus(source=-1, nbytes=int(result.nbytes))
                    )

            self._spawn_completer(state, mreq, finish_allreduce)
        else:
            root_node = self.rankmap.node_of(root_vrank)
            recvbuf = result if self.mpi.rank == root_node else None
            mreq = mpi.ireduce(
                acc, recvbuf, op=op, root=info.mpi_rank_of_node(root_node)
            )

            def finish_reduce():
                for req in state.entries:
                    if req.src_vrank == root_vrank:
                        if req.deliver is not None:
                            req.deliver(result)
                        else:
                            req.data = result
                        self._complete(
                            req,
                            CommStatus(source=-1, nbytes=int(result.nbytes)),
                        )
                    else:
                        self._complete(req, CommStatus(source=-1, nbytes=0))

            self._spawn_completer(state, mreq, finish_reduce)

    def _exec_gather(
        self, state: _CollState, info, mpi
    ) -> Generator[Event, Any, None]:
        """Gather equal-size contributions to the root vrank.

        Every entry carries ``extra["chunk"]`` — the per-rank chunk size
        in bytes (agreed by all participants, as in MPI_Gather).
        Results assemble in *group-rank* order (vrank order for the
        world group).
        """
        root_vrank = state.root
        root_node = self.rankmap.node_of(root_vrank)
        chunk = int(state.entries[0].extra["chunk"])
        # Assemble this node's contribution in group-rank order.
        local = sorted(
            state.entries,
            key=lambda e: info.group.rank_of(e.src_vrank),
        )
        sendbuf = np.zeros(chunk * len(local), dtype=np.uint8)
        for i, e in enumerate(local):
            if e.data is None:
                raise DcgnError(f"gather entry {e!r} missing contribution")
            view = e.data.view(np.uint8).reshape(-1)[:chunk]
            sendbuf[i * chunk : i * chunk + view.size] = view
        # Stage the contributions in parallel waves: the per-entry
        # copies are independent, so k of them run on distinct host
        # cores per wave — Σ ⌈entries / cores⌉ memcpy charges instead of
        # the old serial k (same modeling argument as the reduce
        # tree-combine above: every contributor is blocked in
        # sleep_poll_wait on this collective, so the cores are idle).
        cores = max(1, self.node.cores)
        for _ in range((len(local) + cores - 1) // cores):
            yield from self.node.memcpy.copy(None, None, nbytes=chunk)
        sub_root = info.mpi_rank_of_node(root_node)
        if self.mpi.rank == root_node:
            recvbufs = [
                np.zeros(
                    chunk * len(info.local_vranks(n)), dtype=np.uint8
                )
                for n in info.nodes
            ]
            mreq = mpi.igather(sendbuf, recvbufs, root=sub_root)

            def finish_gather_root():
                # Assemble the full result in global group-rank order
                # (a key-reordered group need not be node-major, so
                # each member's chunk lands at its group-rank offset).
                total = np.zeros(chunk * info.group.size, dtype=np.uint8)
                for i, node in enumerate(info.nodes):
                    for j, member in enumerate(info.local_vranks(node)):
                        g = info.group.rank_of(member)
                        total[g * chunk : (g + 1) * chunk] = recvbufs[i][
                            j * chunk : (j + 1) * chunk
                        ]
                root_entry = next(
                    e for e in state.entries if e.src_vrank == root_vrank
                )
                if root_entry.deliver is not None:
                    root_entry.deliver(total)
                else:
                    root_entry.data = total
                for req in state.entries:
                    n = total.size if req.src_vrank == root_vrank else 0
                    self._complete(req, CommStatus(source=-1, nbytes=n))

            self._spawn_completer(state, mreq, finish_gather_root)
        else:
            mreq = mpi.igather(sendbuf, None, root=sub_root)
            self._spawn_completer(state, mreq, None)

    def _start_scatter(self, state: _CollState, info, mpi) -> None:
        """Scatter equal-size chunks from the root vrank.

        Every entry carries ``extra["chunk"]`` (bytes per rank); the
        root's buffer is read in group-rank order.
        """
        root_vrank = state.root
        root_node = self.rankmap.node_of(root_vrank)
        local = sorted(
            state.entries,
            key=lambda e: info.group.rank_of(e.src_vrank),
        )
        chunk = int(state.entries[0].extra["chunk"])
        recvbuf = np.zeros(chunk * len(local), dtype=np.uint8)
        sub_root = info.mpi_rank_of_node(root_node)
        if self.mpi.rank == root_node:
            root_entry = next(
                e for e in state.entries if e.src_vrank == root_vrank
            )
            if root_entry.data is None:
                raise DcgnError("scatter root entry has no payload")
            full = root_entry.data.view(np.uint8).reshape(-1)
            sendbufs = []
            for n in info.nodes:
                pieces = [
                    full[
                        info.group.rank_of(m) * chunk
                        : (info.group.rank_of(m) + 1) * chunk
                    ]
                    for m in info.local_vranks(n)
                ]
                sendbufs.append(np.concatenate(pieces))
            mreq = mpi.iscatter(sendbufs, recvbuf, root=sub_root)
        else:
            mreq = mpi.iscatter(None, recvbuf, root=sub_root)

        def finish_scatter():
            status = mreq.event.value  # None at the root's node
            if status is not None and status.nbytes != recvbuf.nbytes:
                raise CollectiveMismatch(
                    f"collective #{state.seq}: node {self.mpi.rank}'s "
                    f"members expect {recvbuf.nbytes} B but the root "
                    f"sent {status.nbytes} B (count mismatch)"
                )
            for i, req in enumerate(local):
                piece = recvbuf[i * chunk : (i + 1) * chunk]
                if req.nbytes > 0:
                    yield from self.node.memcpy.copy(
                        None, None, nbytes=int(piece.size)
                    )
                if req.deliver is not None:
                    req.deliver(piece)
                else:
                    req.data = piece.copy()
                self._complete(
                    req, CommStatus(source=root_vrank, nbytes=int(piece.size))
                )

        self._spawn_completer(state, mreq, finish_scatter)

    def _start_split(self, state: _CollState) -> None:
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
        local = sorted(state.entries, key=lambda e: e.src_vrank)
        mine = np.zeros(3 * len(local), dtype=np.int64)
        for i, e in enumerate(local):
            mine[3 * i : 3 * i + 3] = (
                e.src_vrank,
                int(e.extra.get("color", -1)),
                int(e.extra.get("key", 0)),
            )
        recv = [
            np.empty(
                3 * len(self.rankmap.local_ranks(n)), dtype=np.int64
            )
            for n in range(self.mpi.size)
        ]
        mreq = self.mpi.iallgather(mine, recv)

        def finish_split():
            triples = []
            for buf in recv:
                for i in range(buf.size // 3):
                    triples.append(
                        (int(buf[3 * i]), int(buf[3 * i + 1]),
                         int(buf[3 * i + 2]))
                    )
            groups = self.groups.register_split(state.seq, triples)
            for e in state.entries:
                color = int(e.extra.get("color", -1))
                e.extra["group"] = groups.get(color)
                self._complete(e, CommStatus(source=-1, nbytes=0))

        self._spawn_completer(state, mreq, finish_split)

    # -- misc ------------------------------------------------------------
    def _complete(self, req: CommRequest, status: CommStatus) -> None:
        """Complete ``req`` and record its ``completed`` stage."""
        req.mark(self.sim, "completed", self.name)
        req.complete(status)

    def _bump(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1
