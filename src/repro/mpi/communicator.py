"""The simulated MPI library: communicator, groups, contexts, p2p.

Semantics follow MPI (and mpi4py's buffer interface) closely:

* ``send``/``recv`` are blocking; ``isend``/``irecv`` return
  :class:`Request` objects with ``wait``/``test``.
* Small messages use the **eager** protocol (one wire transfer),
  large ones **rendezvous** (RTS → CTS → payload), with the threshold
  taken from :class:`~repro.hw.params.IbParams` — the small/large
  message behaviour of MVAPICH2 in Figure 6.  Both are rows of
  :mod:`repro.mpi.p2p`, walked by ``_send_impl``/``_recv_impl``.
* Matching is FIFO per (source, tag) with ``ANY_SOURCE``/``ANY_TAG``
  wildcards; non-overtaking order is preserved.
* Payloads are real NumPy arrays, snapshotted at send time and copied
  into the receive buffer at completion.
* Communicators are **derivable**: :meth:`Communicator.split` /
  :meth:`~Communicator.split_type` / :meth:`~Communicator.dup` /
  :meth:`~Communicator.create` build sub-communicators over
  :class:`~repro.mpi.group.Group`\\ s of ranks.  Every derived
  communicator owns its own matching stores, tag space,
  :class:`~repro.mpi.algorithms.schedule.ScheduleEngine` and autotuned
  :class:`~repro.mpi.algorithms.CollectiveTuning` (derived from the
  *sub-fabric* its nodes span — an intra-pod communicator tunes for
  pod-local α/β), so collectives on disjoint sub-communicators overlap
  on the wire without tag coordination.

The communicator is deliberately *process-agnostic*: any simulated
process (a plain MPI rank, a DCGN communication thread, a GAS master)
may drive a rank's :class:`MpiContext`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..hw.cluster import Cluster
from ..hw.memory import land_bytes, nbytes_of
from ..sim.core import Event, Process, Simulator, us
from ..sim.stores import FilterStore
from .datatypes import AdoptBuf, Payload, payload_array, snapshot
from .errors import MpiError, RankError, TagError, TruncationError
from .group import Group, UNDEFINED
from .p2p import Leg, Row, p2p_row
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = [
    "Communicator",
    "MpiContext",
    "Request",
    "COMM_TYPE_NODE",
    "COMM_TYPE_LOCALITY",
]

#: User tags must be below this; collectives use the space above it.
INTERNAL_TAG_BASE = 1 << 20

#: ``split_type`` kinds: ranks sharing a node / a topology locality
#: domain (a fat-tree pod, a torus row) land in the same communicator.
COMM_TYPE_NODE = "node"
COMM_TYPE_LOCALITY = "locality"


@dataclass(slots=True)
class _WireMsg:
    """A message's envelope sitting in a rank's matching queue."""

    row: Row
    src: int
    tag: int
    nbytes: int
    data: Optional[np.ndarray]
    #: (leg, event) per leg after the match point; its owner fires it.
    events: Sequence[Tuple[Leg, Event]]
    #: the payload array is private to the wire (defensive copy or a
    #: donated builder-local array) — the receiver may adopt it outright.
    private: bool
    #: sid of the sender's span: the receiver's wait spans link to it.
    span: Optional[int]


class Request:
    """Handle for a non-blocking operation.

    Wraps the operation's completion — a spawned :class:`Process` on
    the exact path, or a bare :class:`Event` scheduled by an analytic
    pricer (one-sided fast path).
    """

    def __init__(self, proc: Event) -> None:
        self._proc = proc

    def wait(self) -> Generator[Event, Any, Any]:
        """``yield from`` until complete; returns the operation's value."""
        value = yield self._proc
        return value

    def test(self) -> bool:
        """True once the operation has completed."""
        ev = self._proc
        if isinstance(ev, Process):
            return not ev.is_alive
        return ev.processed

    @property
    def event(self) -> Event:
        """The completion event (the underlying process)."""
        return self._proc


class Communicator:
    """A communicator: rank→node placement + matching state.

    Built directly over a cluster it is the job's COMM_WORLD; built via
    :meth:`split` / :meth:`split_type` / :meth:`dup` / :meth:`create`
    it is a *derived* communicator over a :class:`Group` of the
    parent's ranks, with its own tag space, matching stores, schedule
    engine and per-sub-fabric autotuned thresholds.

    ``tuning`` overrides the collective-algorithm selection thresholds
    (see :class:`repro.mpi.algorithms.CollectiveTuning`); by default the
    thresholds are *autotuned* from the fabric the communicator's nodes
    actually span (:mod:`repro.mpi.algorithms.autotune`), cached per
    sub-fabric profile — so an intra-pod communicator tunes for
    pod-local α/β while its parent tunes for the whole machine.  An
    explicit ``tuning`` is inherited by derived communicators.
    """

    def __init__(
        self,
        cluster: Cluster,
        placement: Sequence[int],
        tuning: Optional["CollectiveTuning"] = None,
        parent: Optional["Communicator"] = None,
        world_ranks: Optional[Sequence[int]] = None,
        name: str = "world",
        backend: str = "exact",
    ) -> None:
        from .algorithms import AlgorithmSelector
        from .algorithms.autotune import autotune_tuning
        from .algorithms.fastpath import FastPathEngine
        from .algorithms.schedule import ScheduleEngine

        if not placement:
            raise MpiError("placement must name at least one rank")
        for node in placement:
            if not (0 <= node < cluster.n_nodes):
                raise RankError(f"placement node {node} out of range")
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.placement = list(placement)
        self.size = len(placement)
        #: Parent communicator (None for a world communicator).
        self.parent = parent
        #: The root (world) communicator this one ultimately derives
        #: from, ``None`` for the root itself (see :attr:`root_comm`).
        self._root = parent.root_comm if parent is not None else None
        #: Local rank → rank in the root communicator (identity at root).
        self.world_ranks: Tuple[int, ...] = (
            tuple(range(self.size))
            if world_ranks is None
            else tuple(int(w) for w in world_ranks)
        )
        if len(self.world_ranks) != self.size:
            raise MpiError("world_ranks must match the placement length")
        self._world_index = {w: r for r, w in enumerate(self.world_ranks)}
        self.name = name
        #: The tuning *argument* (None = autotune); derived communicators
        #: inherit an explicit tuning, else autotune their sub-fabric.
        self._tuning_arg = tuning
        if tuning is not None:
            self.tuning = tuning
        elif parent is None:
            self.tuning = autotune_tuning(cluster)
        else:
            self.tuning = autotune_tuning(
                cluster, nodes=tuple(self.placement)
            )
        #: Per-call collective algorithm selection (collectives.py asks).
        self.selector = AlgorithmSelector(self.tuning)
        if backend not in ("exact", "analytic", "pricing"):
            raise MpiError(
                f"unknown execution backend {backend!r}; "
                "use 'exact', 'analytic' or 'pricing'"
            )
        #: Collective execution backend: ``"exact"`` simulates every
        #: packet; ``"analytic"`` prices whole schedules from the fabric
        #: profile (:class:`~repro.mpi.algorithms.fastpath.FastPathEngine`)
        #: while still moving data bit-exactly; ``"pricing"`` prices only
        #: — collective receive buffers are left untouched, which is what
        #: the large-P benchmark sweeps use.  Algorithm *selection* is
        #: identical in all three.
        self.backend = backend
        #: Nonblocking progress engine executing collective schedules.
        self.engine = (
            ScheduleEngine(self) if backend == "exact"
            else FastPathEngine(self, price_only=(backend == "pricing"))
        )
        self._match: List[FilterStore] = [
            FilterStore(self.sim, name=f"mpi.match[{name}:{r}]")
            for r in range(self.size)
        ]
        self._coll_seq = [0] * self.size
        #: Per-rank counters sequencing collective ``split`` calls.
        self._split_seq = [0] * self.size
        #: Lazily-built rank → span-track cache (:meth:`span_track` is on
        #: the traced p2p hot path; formatting the name once per rank
        #: instead of once per message keeps tracing cheap).
        self._span_tracks: Dict[int, str] = {}
        #: (prefix, peer) → interned span name of a traced p2p leg
        #: ("send->7", "recv<-3", ...), built once per peer (as above).
        self._leg_names: Dict[Tuple[str, int], str] = {}
        #: split seq → (per-rank sub-communicators, retrievals left).
        self._split_built: Dict[int, Tuple[List, int]] = {}
        self._hier: Optional[_HierComms] = None
        #: True once :meth:`free` ran; every subsequent use raises.
        self._freed = False
        #: Ranks that have completed the collective :meth:`MpiContext.free`.
        self._free_calls = 0
        #: Point-to-point operations currently inside the wire protocol
        #: (the collective free drains these before releasing state).
        self._inflight_ops = 0
        #: Per-rank counters sequencing collective window creations.
        self._win_seq = [0] * self.size
        #: win seq → per-rank deposited local buffers.
        self._win_deposits: Dict[int, Dict[int, Any]] = {}
        #: win seq → (shared Window, retrievals left).
        self._win_built: Dict[int, Tuple[Any, int]] = {}
        #: Windows ever created over this communicator (id allocation).
        self._win_count = 0
        #: Live (not yet freed) windows exposed over this communicator;
        #: :meth:`free` refuses while any remain (a landing RMA transfer
        #: would write through released state).
        self._windows: "weakref.WeakValueDictionary[int, Any]" = (
            weakref.WeakValueDictionary())
        #: Operation counters for reports/tests.
        self.stats: Dict[str, int] = {}
        self._ib = cluster.spec.params.ib
        self._init_locality()

    def _init_locality(self) -> None:
        """Group ranks by the topology's locality domains.

        ``locality_groups`` (domain-ordered, ranks sorted within) feeds
        the hierarchical collectives; ``hier_capable`` says whether the
        grouping offers any hierarchy to exploit (≥ 2 groups, at least
        one of them non-trivial — sizes may differ, the sub-communicator
        composition handles unequal pods); ``fragmented`` says whether
        the rank-order ring crosses domains more often than a contiguous
        placement would — the regime where hierarchical schedules pay
        off (a contiguous ring touches each domain boundary once, so
        the flat ring is already near-optimal).
        """
        topo = self.cluster.topology
        domains = [topo.locality_group(n) for n in self.placement]
        by_domain: Dict[int, List[int]] = {}
        for rank, dom in enumerate(domains):
            by_domain.setdefault(dom, []).append(rank)
        #: Rank groups by locality domain, ordered by domain id.
        self.locality_groups: List[List[int]] = [
            by_domain[d] for d in sorted(by_domain)
        ]
        #: True when hierarchical collectives can run on this placement.
        self.hier_capable: bool = (
            len(self.locality_groups) >= 2
            and max(len(g) for g in self.locality_groups) >= 2
        )
        crossings = sum(
            1
            for r in range(self.size)
            if domains[r] != domains[(r + 1) % self.size]
        )
        #: True when rank order is scattered across domains.
        self.fragmented: bool = crossings > len(self.locality_groups)

    # -- lifetime ----------------------------------------------------------
    def _ensure_alive(self) -> None:
        if self._freed:
            raise MpiError(
                f"communicator {self.name!r} has been freed "
                "(MPI_Comm_free); operations on it are erroneous"
            )

    @property
    def root_comm(self) -> "Communicator":
        """The world communicator this one derives from (itself for
        the world): computed, so a world holds no reference to itself
        and a dropped job is freed without the cyclic collector."""
        return self if self._root is None else self._root

    def live_windows(self) -> List[Any]:
        """Windows created over this communicator and not yet freed
        (held weakly: a window refers to its communicator, and a window
        nothing else holds is unreachable anyway)."""
        return [w for w in self._windows.values() if not w._freed]

    def free(self, force: bool = False) -> None:
        """``MPI_Comm_free`` for a *derived* communicator (driver-level;
        simulated ranks use the collective :meth:`MpiContext.free`).

        Releases the heavy per-communicator state — matching stores,
        schedule engine, split/window bookkeeping, the hierarchical
        sub-communicator bundle — so long split-heavy runs keep bounded
        memory.  The communicator is unusable afterwards: any operation
        raises :class:`~repro.mpi.errors.MpiError`.  World communicators
        cannot be freed.

        Freeing while one-sided windows are still live is erroneous (as
        in MPI): an RMA transfer landing after the release would write
        through freed state, so this raises unless ``force=True``.
        **Force-free semantics:** ``force`` severs the live windows —
        each is marked freed without completing its in-flight
        operations, every later operation on it raises — and then
        releases the communicator.  It is a teardown escape hatch
        (tests, error recovery), not a substitute for the orderly
        ``WinContext.free`` → ``free`` sequence.
        """
        self._ensure_alive()
        if self.parent is None:
            raise MpiError("cannot free a world communicator")
        self._release_checked(force)

    def release(self, force: bool = False) -> None:
        """Driver-level teardown that — unlike :meth:`free` — is allowed
        on **world** communicators.

        ``MPI_Comm_free`` refusing the world communicator is the right
        *rank-level* rule, but it left drivers that churn whole jobs
        (the serving scheduler's per-job worlds, repeated
        ``MpiJob``/``DcgnRuntime`` builds on one long-lived cluster)
        with no way to drop a retired world's matching stores, schedule
        engine and window bookkeeping — thousands of job churns grew
        memory without bound.  ``release`` is the ``MPI_Finalize``
        analogue: quiescence is required (no in-flight operations, and
        live windows refuse unless ``force=True`` severs them, exactly
        as in :meth:`free`), then the state drops.  Derived
        communicators may also use it; it behaves like :meth:`free`.
        """
        self._ensure_alive()
        self._release_checked(force)

    def _release_checked(self, force: bool) -> None:
        live = self.live_windows()
        if live and not force:
            names = ", ".join(repr(w.name) for w in live)
            raise MpiError(
                f"cannot free communicator {self.name!r} with live "
                f"window(s) {names}; free them first (WinContext.free) "
                "or pass force=True to sever them"
            )
        if self._inflight_ops or self.engine.active:
            raise MpiError(
                f"cannot free communicator {self.name!r} with "
                "operations in flight (use the collective "
                "MpiContext.free, which drains them)"
            )
        for w in live:
            w._freed = True
        self._free_now()

    def _free_now(self) -> None:
        """Release state (idempotent entry for the collective free)."""
        if self._freed:
            return
        self._freed = True
        # Recursively retire the derived communicators the hierarchical
        # bundle holds — they are unreachable once self is freed.
        hier = self._hier
        self._hier = None
        if hier is not None:
            for sub in hier.children():
                if sub is not None and not sub._freed:
                    sub._free_now()
        self._match.clear()
        self._split_built.clear()
        self._win_deposits.clear()
        self._win_built.clear()
        self._windows.clear()
        self.engine = None
        self._count_unchecked("comm_free")

    # -- groups and derived communicators ----------------------------------
    @property
    def group(self) -> Group:
        """This communicator's members as a :class:`Group` of world ids."""
        return Group(self.world_ranks)

    def rank_of_world(self, world_id: int) -> int:
        """Local rank of a world process id (UNDEFINED if absent)."""
        return self._world_index.get(int(world_id), UNDEFINED)

    def _derive(
        self, world_ranks: Sequence[int], name: str
    ) -> "Communicator":
        root = self.root_comm
        placement = [root.placement[w] for w in world_ranks]
        return Communicator(
            self.cluster,
            placement,
            tuning=self._tuning_arg,
            parent=self,
            world_ranks=world_ranks,
            name=name,
            backend=self.backend,
        )

    def split(
        self,
        colors: Sequence[int],
        keys: Optional[Sequence[int]] = None,
    ) -> List[Optional["Communicator"]]:
        """``MPI_Comm_split`` with the whole color/key vector in hand.

        ``colors[r]`` / ``keys[r]`` are what rank ``r`` would pass;
        ranks with color :data:`~repro.mpi.group.UNDEFINED` opt out.
        Returns one entry per rank: its new communicator (shared between
        the ranks of one color) or ``None``.  Ranks order within each
        new communicator by (key, parent rank).  This is the
        deterministic driver-level constructor; simulated ranks use the
        collective :meth:`MpiContext.split`, which exchanges the
        color/key pairs over the wire and lands here.
        """
        if len(colors) != self.size:
            raise MpiError("split needs one color per rank")
        if keys is None:
            keys = [0] * self.size
        if len(keys) != self.size:
            raise MpiError("split needs one key per rank")
        by_color: Dict[int, List[int]] = {}
        for r in range(self.size):
            color = int(colors[r])
            if color == UNDEFINED:
                continue
            if color < 0:
                raise MpiError(
                    f"split color must be >= 0 or UNDEFINED, got {color}"
                )
            by_color.setdefault(color, []).append(r)
        comms: Dict[int, Communicator] = {}
        for color, members in by_color.items():
            members.sort(key=lambda r: (int(keys[r]), r))
            comms[color] = self._derive(
                [self.world_ranks[r] for r in members],
                name=f"{self.name}/split{color}",
            )
        self._count("comm_split")
        return [
            comms[int(colors[r])] if int(colors[r]) != UNDEFINED else None
            for r in range(self.size)
        ]

    def split_type(
        self, kind: str, keys: Optional[Sequence[int]] = None
    ) -> List["Communicator"]:
        """Topology-aware split: one communicator per node
        (:data:`COMM_TYPE_NODE`) or per fabric locality domain
        (:data:`COMM_TYPE_LOCALITY` — a fat-tree pod, a torus row),
        colors derived from the placement and
        :meth:`~repro.hw.topology.base.Topology.locality_group`.
        """
        return self.split(self._type_colors(kind), keys)

    def _type_colors(self, kind: str) -> List[int]:
        if kind == COMM_TYPE_NODE:
            return list(self.placement)
        if kind == COMM_TYPE_LOCALITY:
            topo = self.cluster.topology
            return [topo.locality_group(n) for n in self.placement]
        raise MpiError(
            f"unknown split_type kind {kind!r}; use COMM_TYPE_NODE or "
            f"COMM_TYPE_LOCALITY"
        )

    def dup(self) -> "Communicator":
        """A congruent communicator: same members, fresh tag space."""
        self._count("comm_dup")
        return self._derive(self.world_ranks, name=f"{self.name}/dup")

    def create(self, group: Group) -> Optional["Communicator"]:
        """``MPI_Comm_create``: a communicator over ``group``'s members
        (which must all belong to this communicator); ``None`` for the
        empty group."""
        for w in group.members:
            if w not in self._world_index:
                raise MpiError(
                    f"group member {w} is not part of communicator "
                    f"{self.name!r}"
                )
        if group.size == 0:
            return None
        self._count("comm_create")
        return self._derive(group.members, name=f"{self.name}/create")

    def hier_comms(self) -> "_HierComms":
        """The derived-communicator bundle hierarchical collectives run
        on: an intra-domain communicator per locality group, a leader
        communicator (first member of each group), and — when every
        group has the same size — one *peer* communicator per member
        index (member *i* of every domain), which is what the
        bandwidth-optimal equal-pod allreduce rings over.  Built lazily
        on first use and cached; construction itself is free, like the
        implicit world communicator.
        """
        if self._hier is None:
            groups = self.locality_groups
            dom_of = [0] * self.size
            member_idx = [0] * self.size
            for gi, g in enumerate(groups):
                for mi, r in enumerate(g):
                    dom_of[r] = gi
                    member_idx[r] = mi
            intra = self.split(dom_of)
            leader_ranks = [g[0] for g in groups]
            leader = self.create(self.group.incl(leader_ranks))
            sizes = {len(g) for g in groups}
            peers: Optional[List[Optional[Communicator]]] = None
            if len(sizes) == 1 and len(groups[0]) >= 2 and len(groups) >= 2:
                peers = self.split(member_idx, keys=dom_of)
            # Locality-contiguous reordering of the whole communicator:
            # neighbor schedules (rings) on it cross each domain
            # boundary exactly once per step, uncontended — the general
            # any-pod-size fallback.
            reordered = self.split([0] * self.size, keys=dom_of)
            self._hier = _HierComms(
                comm=self,
                intra=intra,
                leader=leader,
                peers=peers,
                reordered=reordered,
                dom_of=dom_of,
                member_idx=member_idx,
                leader_ranks=leader_ranks,
            )
        return self._hier

    # -- collective constructions (MpiContext.split / win_create land here)
    def _pickup(
        self, built: Dict[int, Tuple[Any, int]], seq: int, build
    ) -> Any:
        """Per-rank pickup of collective construction ``seq``: the first
        rank to finish its exchange calls ``build`` (every rank gathered
        the same inputs), the rest reuse it; then the entry is dropped."""
        obj, remaining = built.get(seq) or (build(), self.size)
        if remaining == 1:
            built.pop(seq, None)
        else:
            built[seq] = (obj, remaining - 1)
        return obj

    def _split_result(
        self, seq: int, rank: int, pairs: Sequence[Tuple[int, int]]
    ) -> Optional["Communicator"]:
        """``rank``'s communicator from a collective split."""
        return self._pickup(self._split_built, seq, lambda: self.split(
            [p[0] for p in pairs], [p[1] for p in pairs]
        ))[rank]

    def _win_result(self, seq: int, coalesce: bool = False) -> Any:
        """The shared :class:`~repro.mpi.rma.Window` of a collective
        creation, built from the buffers every rank deposited before its
        size exchange (``coalesce`` is a collective argument)."""
        def build():
            from .rma import Window

            deposits = self._win_deposits.pop(seq)
            bufs = [deposits.get(r) for r in range(self.size)]
            return Window(self, bufs, coalesce=coalesce)

        return self._pickup(self._win_built, seq, build)

    # -- helpers -----------------------------------------------------------
    def ctx(self, rank: int) -> "MpiContext":
        """The context a process uses to act as ``rank``."""
        self._ensure_alive()
        self._check_rank(rank)
        return MpiContext(self, rank)

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return self.placement[rank]

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise RankError(f"rank {rank} out of range [0,{self.size})")

    def _check_tag(self, tag: int) -> None:
        if tag < 0 or tag >= INTERNAL_TAG_BASE:
            raise TagError(f"user tag {tag} out of range")

    def _count(self, op: str) -> None:
        self._ensure_alive()
        self.stats[op] = self.stats.get(op, 0) + 1

    def _count_unchecked(self, op: str) -> None:
        self.stats[op] = self.stats.get(op, 0) + 1

    def _sw(self) -> Event:
        """Per-call software overhead."""
        return self.sim.timeout(us(self._ib.sw_overhead_us))

    def span_track(self, rank: int) -> str:
        """Observability track for a local rank.

        Tracks live in the *root* communicator's rank space so a
        hierarchical collective's sub-communicator traffic lands on the
        owning rank's track rather than scattering per derived
        communicator.
        """
        track = self._span_tracks.get(rank)
        if track is None:
            track = f"{self.root_comm.name}.r{self.world_ranks[rank]}"
            self._span_tracks[rank] = track
        return track

    def _leg_name(self, prefix: str, peer: int) -> str:
        """Interned span name of a p2p protocol leg."""
        key = (prefix, peer)
        name = self._leg_names.get(key)
        if name is None:
            name = self._leg_names[key] = prefix + str(peer)
        return name

    # -- wire primitives -----------------------------------------------------
    def _wire(
        self, src_rank: int, dst_rank: int, nbytes: int
    ) -> Generator[Event, Any, float]:
        t = yield from self.cluster.topology.transfer(
            self.placement[src_rank], self.placement[dst_rank], nbytes
        )
        return t

    # -- point-to-point (internal, tag-space-unchecked) -------------------
    # One walker per side over a protocol row of ``repro.mpi.p2p``.  With
    # spans attached each leg is also recorded (reading ``sim._now``
    # directly: the ``now`` property costs real time at this call rate).
    def _send_impl(
        self,
        src: int,
        dst: int,
        buf: Payload,
        tag: int,
        copy: bool = True,
        donate: bool = False,
    ) -> Generator[Event, Any, None]:
        self._ensure_alive()
        self._inflight_ops += 1
        sim = self.sim
        spans = sim.spans
        # Inlined span_track cache hit — one dict probe instead of a
        # method call on every traced message.
        track = "" if spans is None else (
            self._span_tracks.get(src) or self.span_track(src)
        )
        try:
            t0 = sim._now
            yield self._sw()
            if spans is not None:
                spans.complete(t0, sim._now, "sw", "overhead", track)
            nbytes = nbytes_of(buf) if buf is not None else 0
            data = snapshot(buf, copy=copy)
            if data is not None:
                if copy:
                    sim.stats.payload_copies += 1
                else:
                    sim.stats.payload_views += 1
            row = p2p_row(nbytes, self._ib)
            events = [
                (leg, sim.event(name=f"{leg.event}({src}->{dst})"))
                for leg in row.after
            ] if row.after else ()
            # The sid is stamped into the envelope (the receiver's wait
            # spans link to it), so reserve it up front and record the
            # span retrospectively.
            sid = None if spans is None else spans.alloc_sid()
            leg = row.envelope
            t0 = sim._now
            yield from self._wire(src, dst, leg.header + leg.payload * nbytes)
            # A defensive copy is private by construction; a donated
            # zero-copy view is private by the builder's promise (the
            # sender will never write the array again before the
            # receiver consumes it).  Either way the receiver may adopt
            # the array instead of memcpying it out.
            msg = _WireMsg(row, src, tag, nbytes, data, events,
                           copy or donate, sid)
            self._match[dst].put(msg)
            if spans is not None:
                spans.complete(
                    t0, sim._now, self._leg_name(leg.send, dst),
                    "p2p.send", track, None, None,
                    {"nbytes": nbytes, "tag": tag, "proto": leg.proto}, sid,
                )
            # After the match: own legs go on the wire; wait on the rest.
            for leg, ev in events:
                t0 = sim._now
                if leg.by_sender:
                    yield from self._wire(
                        src, dst, leg.header + leg.payload * nbytes)
                    ev.succeed()
                    if spans is not None:
                        spans.complete(
                            t0, sim._now, self._leg_name(leg.send, dst),
                            "p2p.send", track, None, None,
                            {"nbytes": nbytes, "proto": leg.proto},
                        )
                else:
                    yield ev
                    if spans is not None:
                        spans.complete(
                            t0, sim._now, self._leg_name(leg.wait, dst),
                            "p2p.wait", track,
                        )
        finally:
            self._inflight_ops -= 1

    def _recv_impl(
        self,
        me: int,
        src: int,
        buf: Payload,
        tag: int,
    ) -> Generator[Event, Any, Status]:
        self._ensure_alive()
        self._inflight_ops += 1
        sim = self.sim
        spans = sim.spans
        track = "" if spans is None else (
            self._span_tracks.get(me) or self.span_track(me)
        )
        try:
            t0 = sim._now
            yield self._sw()
            if spans is not None:
                spans.complete(t0, sim._now, "sw", "overhead", track)

            def matches(m: _WireMsg) -> bool:
                if src != ANY_SOURCE and m.src != src:
                    return False
                if tag == ANY_TAG:
                    # ANY_TAG is only ever posted by user code; internal
                    # collective/RMA traffic lives above
                    # INTERNAL_TAG_BASE (MPI: a separate context) and
                    # must never satisfy a user wildcard.
                    return m.tag < INTERNAL_TAG_BASE
                return m.tag == tag

            t0 = sim._now
            msg: _WireMsg = yield self._match[me].get(matches)
            if spans is not None:
                spans.complete(
                    t0, sim._now, self._leg_name(msg.row.envelope.wait, src),
                    "p2p.wait", track, None, msg.span, {"tag": tag},
                )
            # After the match: own legs go on the wire; wait on the rest.
            for leg, ev in msg.events:
                t0 = sim._now
                n = leg.header + leg.payload * msg.nbytes
                if leg.by_sender:
                    yield ev
                    if spans is not None:
                        spans.complete(
                            t0, sim._now, self._leg_name(leg.wait, msg.src),
                            "p2p.wait", track, None, msg.span, {"nbytes": n},
                        )
                else:
                    yield from self._wire(me, msg.src, n)
                    ev.succeed()
                    if spans is not None:
                        spans.complete(
                            t0, sim._now, self._leg_name(leg.send, msg.src),
                            "p2p.send", track, None, None, {"nbytes": n},
                        )
            data = msg.data
            if (
                isinstance(buf, AdoptBuf)
                and msg.private
                and data is not None
                and buf.adopt(data)
            ):
                # Adopted the in-flight array outright: no delivery copy.
                sim.stats.payload_adopted += 1
            else:
                self._deliver(buf, data, msg.nbytes)
            return Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)
        finally:
            self._inflight_ops -= 1

    @staticmethod
    def _deliver(buf: Payload, data: Optional[np.ndarray], nbytes: int) -> None:
        arr = payload_array(buf)
        if arr is None or data is None:
            return  # timing-only receive or message
        if data.nbytes > arr.nbytes:
            raise TruncationError(
                f"message of {data.nbytes} B exceeds recv buffer "
                f"of {arr.nbytes} B"
            )
        land_bytes(arr, data)


@dataclass
class _HierComms:
    """Derived-communicator bundle for hierarchical collectives.

    ``intra[r]`` is rank *r*'s intra-domain communicator; ``leader`` is
    the communicator over the first member of each locality group (or
    ``None`` when there is a single group); ``peers[r]`` — equal-size
    groups only — is the communicator joining member index
    ``member_idx[r]`` of every group, ordered by domain.
    """

    comm: "Communicator"
    intra: List[Optional["Communicator"]]
    leader: Optional["Communicator"]
    peers: Optional[List[Optional["Communicator"]]]
    reordered: List[Optional["Communicator"]]
    dom_of: List[int]
    member_idx: List[int]
    leader_ranks: List[int]

    @property
    def equal_groups(self) -> bool:
        """True when the peer communicators exist (equal-size pods)."""
        return self.peers is not None

    def children(self) -> List[Optional["Communicator"]]:
        """Every derived communicator in the bundle (deduplicated)."""
        subs: List[Optional["Communicator"]] = []
        seen = set()
        for sub in (
            list(self.intra)
            + [self.leader]
            + list(self.peers or [])
            + list(self.reordered)
        ):
            if sub is not None and id(sub) not in seen:
                seen.add(id(sub))
                subs.append(sub)
        return subs

    def ctx(self, name: str, rank: int) -> Optional["MpiContext"]:
        """``rank``'s context on the sub-communicator ``name``
        (``"intra"``, ``"leader"``, ``"peer"`` or ``"reordered"``), or
        ``None`` if the rank is not a member of one."""
        if name == "leader":
            sub = self.leader if rank in self.leader_ranks else None
        elif name == "peer":
            sub = None if self.peers is None else self.peers[rank]
        else:
            sub = getattr(self, name)[rank]
        if sub is None:
            return None
        return sub.ctx(sub.rank_of_world(self.comm.world_ranks[rank]))


class MpiContext:
    """Rank-bound facade: what an MPI process calls.

    Blocking communication methods are generators (``yield from`` them
    inside a simulated process); their ``i``-forms return a
    :class:`Request` at once.  The collectives (``barrier``, ``bcast``,
    ``reduce``, ``allreduce``, ``allgather``, ``alltoall``, ``gather``,
    ``scatter`` and each ``i``-form) are generated from the op table
    :data:`repro.mpi.collectives.OPS`.
    """

    def __init__(self, comm: Communicator, rank: int) -> None:
        self.comm = comm
        self.rank = rank
        self.sim = comm.sim

    # -- identity -----------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def node_id(self) -> int:
        return self.comm.node_of(self.rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MpiContext rank={self.rank}/{self.size}"
            f" comm={self.comm.name!r}>"
        )

    # -- derived communicators (collective calls) ---------------------------
    def split(
        self, color: int, key: int = 0
    ) -> Generator[Event, Any, Optional["MpiContext"]]:
        """``MPI_Comm_split``: every rank of this communicator calls
        with its own ``color``/``key``; ranks sharing a color get a new
        communicator ordered by (key, parent rank).  Returns this
        rank's context on the new communicator, or ``None`` for color
        :data:`~repro.mpi.group.UNDEFINED`.

        The color/key pairs travel over the wire (an allgather, as in
        real MPI), so the call is collective and costs what the
        exchange costs; constructing the communicator objects
        themselves is free.
        """
        comm = self.comm
        seq = comm._split_seq[self.rank]
        comm._split_seq[self.rank] += 1
        mine = np.array([int(color), int(key)], dtype=np.int64)
        recv = [np.zeros(2, dtype=np.int64) for _ in range(comm.size)]
        yield from self.allgather(mine, recv)
        pairs = [(int(b[0]), int(b[1])) for b in recv]
        sub = comm._split_result(seq, self.rank, pairs)
        if sub is None:
            return None
        return sub.ctx(sub.rank_of_world(comm.world_ranks[self.rank]))

    def split_type(
        self, kind: str, key: int = 0
    ) -> Generator[Event, Any, Optional["MpiContext"]]:
        """Topology-aware split (:data:`COMM_TYPE_NODE` /
        :data:`COMM_TYPE_LOCALITY`): the color is derived from where
        this rank's node sits in the fabric."""
        color = self.comm._type_colors(kind)[self.rank]
        sub = yield from self.split(color, key)
        return sub

    def dup(self) -> Generator[Event, Any, "MpiContext"]:
        """Collective duplicate: same members and order, fresh tag
        space (what a library layer uses to keep its traffic isolated
        from the application's)."""
        sub = yield from self.split(0, self.rank)
        return sub

    def create(
        self, group: Group
    ) -> Generator[Event, Any, Optional["MpiContext"]]:
        """``MPI_Comm_create``: collective over the parent; ranks in
        ``group`` (world ids) get a communicator ordered by group rank,
        everyone else ``None``."""
        my_world = self.comm.world_ranks[self.rank]
        gr = group.rank(my_world)
        color = 0 if gr != UNDEFINED else UNDEFINED
        sub = yield from self.split(color, gr if gr != UNDEFINED else 0)
        return sub

    def free(self) -> Generator[Event, Any, None]:
        """``MPI_Comm_free``: collective retirement of a derived
        communicator.  Every rank calls it; after an internal barrier
        the *last* rank to arrive releases the matching stores,
        schedule engine and split/window bookkeeping (earlier arrivals
        may still have barrier traffic draining — freeing eagerly
        would yank the stores out from under them), and any further
        use raises :class:`~repro.mpi.errors.MpiError`."""
        comm = self.comm
        if comm.parent is None:
            raise MpiError("cannot free a world communicator")
        live = comm.live_windows()
        if live:
            names = ", ".join(repr(w.name) for w in live)
            raise MpiError(
                f"cannot free communicator {comm.name!r} with live "
                f"window(s) {names}; free them first (WinContext.free)"
            )
        yield from self.barrier()
        comm._free_calls += 1
        if comm._free_calls >= comm.size:
            # MPI allows pending nonblocking ops at free time (their
            # completion is merely deferred): drain p2p ops *and*
            # background collective schedules before the stores go
            # away.  A pending receive that can never match turns this
            # into a visible hang — the MPI-legal outcome of freeing a
            # communicator while a wildcard recv waits.
            while comm._inflight_ops > 0 or comm.engine.active > 0:
                yield self.sim.timeout(us(1.0))
            comm._free_now()

    # -- one-sided windows (implementations in .rma) -----------------------
    def win_create(
        self, buf: Any, coalesce: bool = False
    ) -> Generator[Event, Any, "WinContext"]:
        """``MPI_Win_create``: collective; every rank exposes ``buf``
        (a NumPy array, :class:`~repro.hw.memory.HostBuffer`,
        :class:`~repro.gpusim.memory.DeviceBuffer`, or ``None`` for a
        zero-size window) and gets back its rank-bound
        :class:`~repro.mpi.rma.WinContext`.  The per-rank sizes travel
        over the wire (an allgather, as in a real registration
        exchange); building the window object itself is free.
        ``coalesce`` (a collective argument: pass the same value on
        every rank) enables small-put batching — see
        :class:`~repro.mpi.rma.Window`."""
        comm = self.comm
        seq = comm._win_seq[self.rank]
        comm._win_seq[self.rank] += 1
        comm._win_deposits.setdefault(seq, {})[self.rank] = buf
        # ndarray, HostBuffer and DeviceBuffer all expose .nbytes.
        nbytes = 0 if buf is None else int(buf.nbytes)
        mine = np.array([nbytes], dtype=np.int64)
        recv = np.zeros(comm.size, dtype=np.int64)
        yield from self.allgather(mine, recv)
        win = comm._win_result(seq, coalesce=coalesce)
        return win.ctx(self.rank)

    def win_allocate(
        self, count: int, dtype=np.float64, coalesce: bool = False
    ) -> Generator[Event, Any, "WinContext"]:
        """``MPI_Win_allocate``: collective; allocates ``count``
        elements of ``dtype`` in simulated host memory on this rank's
        node and exposes them as a window."""
        node = self.comm.cluster.nodes[self.node_id]
        buf = node.alloc(count, dtype=dtype, name=f"win.r{self.rank}")
        wctx = yield from self.win_create(buf, coalesce=coalesce)
        return wctx

    # -- p2p: one validation per direction -----------------------------------
    def _send_args(self, op: str, dest: int, tag: int) -> None:
        self.comm._check_rank(dest)
        self.comm._check_tag(tag)
        self.comm._count(op)

    def _recv_args(self, op: str, source: int, tag: int, buf) -> None:
        if source != ANY_SOURCE:
            self.comm._check_rank(source)
        if tag != ANY_TAG:
            self.comm._check_tag(tag)
        self._contiguous(op, "recv buffer", (buf,))
        self.comm._count(op)

    def _contiguous(self, op: str, what: str, bufs) -> None:
        """Buffers moved as raw bytes must be C-contiguous (see
        :mod:`repro.hw.memory`): every receive buffer, and the send
        buffers of ``allgather`` and ``alltoall`` (some of their
        algorithms pack them bytewise).  Raised at issue, the same on
        every backend."""
        for buf in bufs:
            arr = payload_array(buf)
            if arr is not None and not arr.flags.c_contiguous:
                raise MpiError(
                    f"{op}: rank {self.rank}'s {what} is not C-contiguous; "
                    "pass a contiguous array (np.ascontiguousarray) and "
                    "copy back"
                )

    def send(
        self, buf: Payload, dest: int, tag: int = 0
    ) -> Generator[Event, Any, None]:
        """Blocking send.  Returns once the sender's last protocol leg
        has crossed the fabric: an eager message sits in the receiver's
        matching queue, a rendezvous payload has landed (so it waits
        for the matching receive)."""
        self._send_args("send", dest, tag)
        yield from self.comm._send_impl(self.rank, dest, buf, tag)

    def recv(
        self,
        buf: Payload,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Generator[Event, Any, Status]:
        """Blocking receive into ``buf``; returns a :class:`Status`."""
        self._recv_args("recv", source, tag, buf)
        status = yield from self.comm._recv_impl(self.rank, source, buf, tag)
        return status

    def isend(self, buf: Payload, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; payload snapshotted immediately (that
        snapshot is the one payload copy: it ships as is)."""
        self._send_args("isend", dest, tag)
        data = snapshot(buf)
        if data is None:
            data = nbytes_of(buf) if buf is not None else 0
        else:
            self.sim.stats.payload_copies += 1
        return Request(self.sim.process(
            self.comm._send_impl(self.rank, dest, data, tag, copy=False,
                                 donate=True),
            name=f"isend(r{self.rank}->r{dest})",
        ))

    def irecv(
        self,
        buf: Payload,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Request:
        """Non-blocking receive."""
        self._recv_args("irecv", source, tag, buf)
        return Request(self.sim.process(
            self.comm._recv_impl(self.rank, source, buf, tag),
            name=f"irecv(r{self.rank}<-{source})",
        ))

    # -- combined p2p ------------------------------------------------------
    def sendrecv(
        self,
        sendbuf: Payload,
        dest: int,
        recvbuf: Payload,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator[Event, Any, Status]:
        """Simultaneous send+receive (deadlock-free)."""
        self._contiguous("sendrecv", "recv buffer", (recvbuf,))
        self.comm._count("sendrecv")
        sreq = self.isend(sendbuf, dest, sendtag)
        status = yield from self.recv(recvbuf, source, recvtag)
        yield from sreq.wait()
        return status

    def sendrecv_replace(
        self,
        buf: Payload,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator[Event, Any, Status]:
        """The ``MPI_Sendrecv_replace`` used by Cannon's algorithm."""
        self._contiguous("sendrecv_replace", "buffer", (buf,))
        self.comm._count("sendrecv_replace")
        status = yield from self.sendrecv(
            buf, dest, buf, source, sendtag, recvtag
        )
        return status
