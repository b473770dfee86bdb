"""Analytic fast-path execution backend for collective schedules.

The exact :class:`~repro.mpi.algorithms.schedule.ScheduleEngine` spawns
one simulated process per wire step and drives every packet through the
matching stores — faithful, but at 256–1024 ranks the per-packet Python
churn dominates wall-clock.  :class:`FastPathEngine` executes the *same*
schedules (same builders, same selector decisions, same tag claims, same
``comm.stats`` counters) without enqueueing a single packet:

1. **Collect** — every rank's ``execute`` deposits its per-rank schedule
   into a shared per-collective *instance*; the last-arriving rank
   triggers completion (collectives are synchronizing, so nothing can
   legally complete before the last rank shows up).  Each rank's issue
   time is recorded at deposit, so skewed arrivals propagate into the
   timing exactly as they do in the exact engine.
2. **Interpret** — the per-rank DAGs run as a deterministic dataflow:
   computes run inline, sends deliver payloads straight into matched
   receive buffers (rank-0-first round-robin, one step per rank per
   cycle; per-key FIFO message queues mirror the matcher's
   non-overtaking order).  Data results are therefore *bit-identical* to
   the exact simulator.
3. **Price** — completion times come from a per-step critical-path
   resolution over the very same DAGs: the k-th send on a
   ``(comm, src, dst, tag)`` key pairs with the k-th receive (the
   matcher is non-overtaking per key), and each paired wire step is
   priced with the protocol shape of ``_send_impl``/``_recv_impl`` —
   eager (``sw`` + one wire trip, receive finishing at
   ``max(recv_ready + sw, send_finish)``) or rendezvous (RTS → CTS →
   payload, both sides finishing together).  Per-message wire times come
   from the topology's interned ``wire_cost`` (hits/misses surface as
   ``sim.stats.wire_cost_hits``/``wire_cost_misses``).
   Because the resolution follows dependencies, not round labels,
   transfers in different rounds overlap exactly as the spawned wire
   processes of the exact engine do — non-power-of-two binomial trees,
   whose straggler subtrees fire early, price tight instead of paying a
   per-round barrier.  What the model still ignores is channel
   *contention* (concurrent transfers sharing a NIC or spine link
   serialize in the exact engine, never here) — enforced within
   tolerance at P ≤ 16 by ``tests/test_fastpath.py``.
4. **Commit** — all per-rank completions go through one
   :class:`~repro.sim.batch.EventBatch`, so 1024 rank completions cost
   a handful of heap operations instead of thousands.

What stays exact: point-to-point (``send``/``recv``/``isend``/...),
``gather``/``scatter`` (linear, not schedule-based), and host-memory
RMA epochs take their own analytic path in :mod:`repro.mpi.rma` — only
schedule-compiled collectives take *this* one.  Selection thresholds,
being driven by the same tuning, match the exact backend exactly.

**Pricing-only mode** (``backend="pricing"``): skips the dataflow
interpretation entirely and resolves times straight off the step lists
— same critical-path model, bit-identical simulated times, but receive
buffers are left untouched (compute steps never run).  This is the
sweep mode: a 1024-rank collective costs one pass over the steps, which
is what makes the ``BENCH_scale.json`` sweeps interactive.  Never use
it when the program consumes the data it communicates.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Generator, List, Optional, Tuple

from ...hw.memory import nbytes_of
from ...sim.batch import EventBatch
from ...sim.core import Event, us
from ..datatypes import AdoptBuf, payload_array
from ..errors import MpiError
from .schedule import ScheduleEngine, Schedule, _Step, _round_name

__all__ = ["FastPathEngine"]

_SEND = "send"
_RECV = "recv"
_COMPUTE = "compute"
_OVERHEAD = "overhead"


class _Instance:
    """One collective call site: per-rank schedules awaiting the last
    arrival."""

    __slots__ = (
        "ctxs", "scheds", "dones", "arrivals", "arrived",
        "lazy_key", "lazy_builder",
    )

    def __init__(self, size: int) -> None:
        self.ctxs: List[Any] = [None] * size
        self.scheds: List[Optional[Schedule]] = [None] * size
        self.dones: List[Optional[Event]] = [None] * size
        self.arrivals: List[float] = [0.0] * size
        self.arrived = 0
        #: Set when deposits defer their DAG build (``execute_barrier``):
        #: the intern key stands in for the schedules, and the builder
        #: materializes them only on a fin-cache miss.
        self.lazy_key: Optional[Tuple] = None
        self.lazy_builder: Optional[Any] = None

    def deposit(self, rank: int, ctx, sched: Optional[Schedule],
                done: Event) -> None:
        if self.dones[rank] is not None or self.scheds[rank] is not None:
            raise MpiError(
                f"rank {rank} deposited twice into one collective "
                "instance — collectives issued out of order?"
            )
        self.ctxs[rank] = ctx
        self.scheds[rank] = sched
        self.dones[rank] = done
        if ctx is not None:
            self.arrivals[rank] = ctx.sim.now
        self.arrived += 1


class _RankState:
    """Dataflow bookkeeping for one rank's DAG (mirrors ``_execute``)."""

    __slots__ = (
        "steps", "missing", "dependents", "ready", "ready_recv", "done"
    )

    def __init__(self, sched: Schedule) -> None:
        steps = sched.steps
        self.steps = steps
        self.missing = [len(s.deps) for s in steps]
        self.dependents: List[List[int]] = [[] for _ in steps]
        for s in steps:
            for d in s.deps:
                self.dependents[d].append(s.idx)
        # Receives ready to post are kept apart from other ready steps:
        # the interpreter parks every ready receive before running any
        # send, so deliveries hit a waiting buffer (zero-copy) instead
        # of forcing a queue snapshot.
        self.ready: List[int] = []
        self.ready_recv: List[int] = []
        for i in range(len(steps)):
            if self.missing[i] == 0:
                self._push(i)
        heapq.heapify(self.ready)
        heapq.heapify(self.ready_recv)
        self.done = 0

    def _push(self, idx: int) -> None:
        if self.steps[idx].kind == _RECV:
            heapq.heappush(self.ready_recv, idx)
        else:
            heapq.heappush(self.ready, idx)

    def finish(self, idx: int) -> None:
        self.done += 1
        for j in self.dependents[idx]:
            self.missing[j] -= 1
            if self.missing[j] == 0:
                self._push(j)


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
        #: Interned completion offsets for data-free schedules
        #: (``Schedule.intern_key``): (key, relative arrivals) →
        #: (per-rank ``fin - base``, n_rounds, span skeleton or None,
        #: priced wire legs or None).  Critical-path resolution is
        #: time-translation-invariant, so a repeat instance with the
        #: same arrival skew prices identically; the skeleton (built on
        #: the first traced resolve) lets traced cache hits replay the
        #: span tree too, and the legs (kept on the first resolve with
        #: fabric accounting on) let them book their link traffic.
        self._fin_cache: Dict[Tuple, Tuple] = {}
        #: Skip the dataflow interpreter: price timings only, leave
        #: receive buffers untouched (see module doc).
        self.price_only = price_only

    # -- entry points -------------------------------------------------------
    def execute(
        self, ctx, sched: Schedule
    ) -> Generator[Event, Any, None]:
        self.comm._ensure_alive()
        seq = self._claims[ctx.rank]
        self._claims[ctx.rank] += 1
        return self._run(ctx, sched, seq)

    def execute_barrier(
        self, ctx
    ) -> Generator[Event, Any, None]:
        """Barrier with a deferred DAG build: the dissemination
        schedule is a pure function of size and moves no data, so when
        this instance's arrival skew is already interned nobody ever
        builds it (a Jacobi run fences every iteration)."""
        from .barrier import build_barrier_dissemination

        self.comm._ensure_alive()
        seq = self._claims[ctx.rank]
        self._claims[ctx.rank] += 1
        return self._run(
            ctx, None, seq,
            lazy_key=("barrier_dissemination", ctx.size),
            lazy_builder=build_barrier_dissemination,
        )

    def _run(
        self, ctx, sched: Optional[Schedule], seq: int,
        lazy_key: Optional[Tuple] = None, lazy_builder=None,
    ) -> Generator[Event, Any, None]:
        self.active += 1
        try:
            inst = self._instances.get(seq)
            if inst is None:
                inst = _Instance(self.comm.size)
                self._instances[seq] = inst
            done = ctx.sim.event(name=f"fastpath(r{ctx.rank}#{seq})")
            inst.deposit(ctx.rank, ctx, sched, done)
            if lazy_key is not None:
                inst.lazy_key = lazy_key
                inst.lazy_builder = lazy_builder
            if inst.arrived == self.comm.size:
                del self._instances[seq]
                self._complete(inst)
            yield done
        finally:
            self.active -= 1

    # -- completion ---------------------------------------------------------
    def _complete(self, inst: _Instance) -> None:
        """Interpret the dataflow (exact data), resolve the per-step
        critical path (analytic time), and batch-commit the per-rank
        completions."""
        comm = self.comm
        sim = comm.sim
        stats = sim.stats
        size = comm.size
        topo = comm.cluster.topology
        # With a recorder enabled, skip the interned-offsets shortcut so
        # every instance resolves (and emits) its full span tree.  The
        # resolution is deterministic and translation-invariant, so the
        # committed completion times are bit-identical either way — only
        # the cache-hit counters differ under tracing.
        spans = sim.spans
        if spans is not None and not spans.enabled:
            spans = None

        # Data-free schedules (intern_key set by the builder, identical
        # across ranks, or a deferred-build barrier) skip interpretation
        # outright — there is no payload to move — and intern their
        # resolved completion offsets keyed by arrival skew, so the
        # fence-per-iteration hot path resolves (and, when deferred,
        # builds) its dissemination DAG once, not once per epoch.
        ikey = inst.lazy_key
        if ikey is None and inst.scheds[0] is not None:
            ikey = inst.scheds[0].intern_key
            if ikey is not None:
                for r in range(1, size):
                    sched_r = inst.scheds[r]
                    if sched_r is None or sched_r.intern_key != ikey:
                        ikey = None
                        break
        if ikey is not None:
            base = inst.arrivals[0]
            ckey = (ikey, tuple(a - base for a in inst.arrivals))
            cached = self._fin_cache.get(ckey)
            if cached is not None and (
                (spans is not None and cached[2] is None)
                or (topo.accounting and cached[3] is None)
            ):
                # First traced (or accounted) pass resolves in full so
                # the span skeleton (or the priced wire legs) gets
                # built and cached for later hits.
                cached = None
            if cached is not None:
                offsets, n_rounds, skel, legs = cached
                stats.fastpath_sched_cache_hits += 1
                stats.fastpath_collectives += 1
                stats.fastpath_rounds += n_rounds
                if spans is not None:
                    self._replay_spans(inst, base, offsets, skel, spans)
                if topo.accounting:
                    for leg in legs:
                        topo.account(*leg)
                batch = EventBatch(sim, name="fastpath")
                now = sim.now
                for r in range(size):
                    batch.add(max(base + offsets[r], now),
                              inst.dones[r], None)
                batch.commit()
                return
            if inst.lazy_builder is not None:
                for r in range(size):
                    if inst.scheds[r] is None:
                        inst.scheds[r] = inst.lazy_builder(inst.ctxs[r])

        #: Per-rank map of send-step idx → resolved payload size; the
        #: paired receive is priced with the *send's* size, exactly as
        #: the wire message carries it.
        send_bytes: List[Dict[int, int]] = [dict() for _ in range(size)]
        recv_bytes: List[Dict[int, int]] = [dict() for _ in range(size)]
        if self.price_only or ikey is not None:
            # Computes never run in pricing mode, so a lazy send buffer
            # built from staged data (e.g. the Bruck working vector) can
            # under-resolve; the posted receive buffer is statically the
            # right size, so each pair is priced with the larger of the
            # two resolved sizes — which equals the interpreted send
            # size, keeping pricing bit-identical to analytic.
            for r in range(size):
                for st in inst.scheds[r].steps:
                    if st.kind == _SEND or st.kind == _RECV:
                        buf = st.resolve_buf()
                        tgt = send_bytes if st.kind == _SEND else recv_bytes
                        tgt[r][st.idx] = (
                            nbytes_of(buf) if buf is not None else 0
                        )
        else:
            self._interpret(inst, send_bytes)

        legs = [] if ikey is not None and topo.accounting else None
        fins, fin_detail = self._resolve_times(
            inst, send_bytes, recv_bytes, legs
        )

        n_rounds = max(
            (inst.scheds[r].n_rounds for r in range(size)), default=0
        )
        stats.fastpath_collectives += 1
        stats.fastpath_rounds += int(n_rounds)
        skel = None
        if spans is not None:
            skel = self._record_spans(inst, fins, fin_detail, ikey, spans)
        if ikey is not None:
            self._fin_cache[ckey] = (
                [f - base for f in fins], int(n_rounds), skel, legs
            )

        batch = EventBatch(sim, name="fastpath")
        now = sim.now
        for r in range(size):
            # A rank whose steps all finish before the last arrival
            # (e.g. an eager-only bcast root) resumes immediately: the
            # instance only resolves once every rank has shown up.
            batch.add(max(fins[r], now), inst.dones[r], None)
        batch.commit()

    def _record_spans(
        self,
        inst: _Instance,
        fins: List[float],
        fin: List[List[Optional[float]]],
        ikey: Optional[Tuple],
        spans,
    ) -> Optional[Tuple]:
        """Emit the same span skeleton the exact engine records — one
        collective span per rank with per-round children — plus the
        pricer's own stage markers.  All timestamps come from the
        resolved critical path, so the tree carries priced durations.

        For internable instances (``ikey`` set) the emitted tree is
        also returned as a base-relative skeleton, cached next to the
        fin offsets so later cache hits replay it via
        :meth:`_replay_spans` instead of re-resolving the DAG — the
        cache key pins the exact arrival skew, so the resolved times
        are identical up to the base shift."""
        comm = self.comm
        sim = comm.sim
        size = comm.size
        meta = None
        for r in range(size):
            if inst.scheds[r] is not None and inst.scheds[r].meta:
                meta = inst.scheds[r].meta
                break
        if meta is None and ikey is not None:
            meta = {"op": "barrier", "algo": "dissemination", "nbytes": 0}
        meta = meta or {}
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
                      attrs={"priced": self.price_only or ikey is not None})
        backend = comm.backend
        nbytes_meta = meta.get("nbytes", 0)
        base = arrivals[0]
        skel_ranks: Optional[List[Tuple]] = [] if ikey is not None else None
        for r in range(size):
            sched = inst.scheds[r]
            steps = sched.steps
            n_rounds = sched.n_rounds  # O(steps) property — hoist
            rtrack = comm.span_track(r)
            psid = spans.complete(
                arrivals[r], fins[r], name, "collective", rtrack,
                None, None,
                {"backend": backend, "nbytes": nbytes_meta,
                 "n_rounds": n_rounds, "n_steps": len(steps)},
            )
            if psid is None:
                # Recorder paused mid-collective: the tree is partial,
                # so don't cache a skeleton of it.
                skel_ranks = None
                continue
            # Round ids live in [0, n_rounds), so flat lists beat
            # dicts here; None marks rounds this rank never runs.
            rstart: List[Optional[float]] = [None] * n_rounds
            rend: List[Optional[float]] = [None] * n_rounds
            arr = arrivals[r]
            fin_r = fin[r]
            for st in steps:
                t0 = arr
                for d in st.deps:
                    fd = fin_r[d]
                    if fd is not None and fd > t0:
                        t0 = fd
                t1 = fin_r[st.idx]
                if t1 is None:
                    t1 = t0
                rd = st.round
                s = rstart[rd]
                if s is None or t0 < s:
                    rstart[rd] = t0
                e = rend[rd]
                if e is None or t1 > e:
                    rend[rd] = t1
            rounds_off = []
            for rd in range(n_rounds):
                t0 = rstart[rd]
                if t0 is None:
                    continue
                t1 = rend[rd]
                spans.complete(t0, t1, _round_name(rd), "round",
                               rtrack, psid)
                if skel_ranks is not None:
                    rounds_off.append((rd, t0 - base, t1 - base))
            if skel_ranks is not None:
                skel_ranks.append(
                    (n_rounds, len(steps), tuple(rounds_off))
                )
        spans.instant(now, name, "fastpath.commit", ftrack,
                      attrs={"n_ranks": size})
        if skel_ranks is None:
            return None
        return (name, nbytes_meta, tuple(skel_ranks))

    def _replay_spans(
        self,
        inst: _Instance,
        base: float,
        offsets: List[float],
        skel: Tuple,
        spans,
    ) -> None:
        """Re-emit a cached span skeleton, shifted to this instance's
        base arrival — byte-identical to what :meth:`_record_spans`
        would have produced had the DAG been re-resolved."""
        comm = self.comm
        sim = comm.sim
        size = comm.size
        name, nbytes_meta, skel_ranks = skel
        arrivals = inst.arrivals
        now = sim.now
        ftrack = f"{comm.root_comm.name}.fastpath"
        spans.complete(
            min(arrivals), max(arrivals), name, "fastpath.collect", ftrack,
            attrs={"n_ranks": size},
        )
        spans.instant(now, name, "fastpath.interpret", ftrack,
                      attrs={"priced": True})
        backend = comm.backend
        for r in range(size):
            n_rounds, n_steps, rounds_off = skel_ranks[r]
            rtrack = comm.span_track(r)
            psid = spans.complete(
                arrivals[r], base + offsets[r], name, "collective", rtrack,
                None, None,
                {"backend": backend, "nbytes": nbytes_meta,
                 "n_rounds": n_rounds, "n_steps": n_steps},
            )
            if psid is None:
                continue
            for rd, t0, t1 in rounds_off:
                spans.complete(base + t0, base + t1, _round_name(rd),
                               "round", rtrack, psid)
        spans.instant(now, name, "fastpath.commit", ftrack,
                      attrs={"n_ranks": size})

    def _resolve_times(
        self,
        inst: _Instance,
        send_bytes: List[Dict[int, int]],
        recv_bytes: List[Dict[int, int]],
        legs: Optional[List[Tuple[int, int, int]]] = None,
    ) -> Tuple[List[float], List[List[Optional[float]]]]:
        """Per-step critical-path resolution over all ranks' DAGs.

        Mirrors the exact engine's concurrency structure: every step
        starts the moment its dependencies finish (wire steps are
        spawned processes there, so independent steps overlap freely),
        and each wire pair is priced with the protocol of
        ``_send_impl``/``_recv_impl``:

        * compute — finishes at its ready time (inline, zero cost);
        * overhead — ready + ``sw``;
        * eager send — ready + ``sw`` + wire(n + header); the paired
          receive finishes at ``max(recv_ready + sw, send_finish)``;
        * rendezvous pair — ``m = max(recv_ready + sw,
          send_ready + sw + wire(hdr))`` (the RTS meets the posted
          receive), then both sides finish at
          ``m + wire(cts) + wire(payload)``.

        Returns ``(fins, fin)``: each rank's completion time (max over
        its steps) and the full per-step finish matrix (observability —
        the span recorder derives round boundaries from it).

        Every wire leg is priced by :meth:`Topology.wire_cost`, which
        also books it onto the routed channel path when the topology's
        ``accounting`` flag is on, so the link-utilization report sees
        analytic traffic the pricer never simulates.  ``legs``, when
        given, collects every priced ``(src, dst, nbytes)`` so interned
        instances can book the same legs again on a cache hit.
        """
        from ..communicator import HEADER_BYTES

        comm = self.comm
        ib = comm._ib
        sw = us(ib.sw_overhead_us)
        eager_max = ib.eager_threshold
        size = comm.size
        wt = comm.cluster.topology.wire_cost
        if legs is not None:
            wire_cost = wt

            def wt(src: int, dst: int, n: int) -> float:
                legs.append((src, dst, n))
                return wire_cost(src, dst, n)

        steps_of = [inst.scheds[r].steps for r in range(size)]

        # LIGHT pairing: k-th send on a (comm, src, dst, tag) key pairs
        # with the k-th receive, both in step-index order — the
        # matcher's per-key FIFO guarantees non-overtaking, and every
        # schedule builder issues same-key wire steps dep-ordered.
        sends: Dict[Tuple, List[Tuple[int, int]]] = {}
        recvs: Dict[Tuple, List[Tuple[int, int]]] = {}
        for r in range(size):
            ctx_r = inst.ctxs[r]
            for st in steps_of[r]:
                if st.kind == _SEND:
                    tctx = st.via if st.via is not None else ctx_r
                    sends.setdefault(
                        (id(tctx.comm), tctx.rank, st.peer, st.tag), []
                    ).append((r, st.idx))
                elif st.kind == _RECV:
                    tctx = st.via if st.via is not None else ctx_r
                    recvs.setdefault(
                        (id(tctx.comm), st.peer, tctx.rank, st.tag), []
                    ).append((r, st.idx))
        pair: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for key, ss in sends.items():
            for s_ref, r_ref in zip(ss, recvs.get(key, ())):
                pair[s_ref] = r_ref
                pair[r_ref] = s_ref

        arrivals = inst.arrivals
        fin: List[List[Optional[float]]] = [
            [None] * len(steps_of[r]) for r in range(size)
        ]
        ready_t: List[List[Optional[float]]] = [
            [None] * len(steps_of[r]) for r in range(size)
        ]
        missing = [
            [len(st.deps) for st in steps_of[r]] for r in range(size)
        ]
        dependents: List[List[List[int]]] = [
            [[] for _ in steps_of[r]] for r in range(size)
        ]
        for r in range(size):
            for st in steps_of[r]:
                for d in st.deps:
                    dependents[r][d].append(st.idx)

        work: List[Tuple[int, int]] = []
        for r in range(size):
            for i, m in enumerate(missing[r]):
                if m == 0:
                    work.append((r, i))

        resolved = 0

        def finish(r: int, idx: int, t: float) -> None:
            nonlocal resolved
            fin[r][idx] = t
            resolved += 1
            for j in dependents[r][idx]:
                missing[r][j] -= 1
                if missing[r][j] == 0:
                    work.append((r, j))

        def wire_nodes(r: int, st: _Step) -> Tuple[int, int]:
            tctx = st.via if st.via is not None else inst.ctxs[r]
            placement = tctx.comm.placement
            return placement[tctx.rank], placement[st.peer]

        while work:
            r, idx = work.pop()
            st = steps_of[r][idx]
            t = arrivals[r]
            for d in st.deps:
                fd = fin[r][d]
                if fd > t:
                    t = fd
            if st.kind == _COMPUTE:
                finish(r, idx, t)
                continue
            if st.kind == _OVERHEAD:
                finish(r, idx, t + sw)
                continue
            ready_t[r][idx] = t
            other = pair.get((r, idx))
            if other is None:
                continue  # unmatched — reported as a stall below
            ro, oidx = other
            if st.kind == _SEND:
                src, dst = wire_nodes(r, st)
                n = max(send_bytes[r][idx], recv_bytes[ro].get(oidx, 0))
                if n <= eager_max:
                    f = t + sw + wt(src, dst, n + HEADER_BYTES)
                    finish(r, idx, f)
                    t_recv = ready_t[ro][oidx]
                    if t_recv is not None:
                        finish(ro, oidx, max(t_recv + sw, f))
                else:
                    t_recv = ready_t[ro][oidx]
                    if t_recv is not None:
                        m = max(t_recv + sw, t + sw + wt(src, dst, HEADER_BYTES))
                        f = m + wt(dst, src, HEADER_BYTES) + wt(src, dst, n)
                        finish(r, idx, f)
                        finish(ro, oidx, f)
                    # else: parked; the receive side resolves the pair.
            else:  # _RECV
                t_send = ready_t[ro][oidx]
                if t_send is None:
                    continue  # parked; the send side resolves the pair
                sst = steps_of[ro][oidx]
                src, dst = wire_nodes(ro, sst)
                n = max(send_bytes[ro][oidx], recv_bytes[r].get(idx, 0))
                if n <= eager_max:
                    finish(r, idx, max(t + sw, fin[ro][oidx]))
                else:
                    m = max(t + sw, t_send + sw + wt(src, dst, HEADER_BYTES))
                    f = m + wt(dst, src, HEADER_BYTES) + wt(src, dst, n)
                    finish(ro, oidx, f)
                    finish(r, idx, f)

        total = sum(len(s) for s in steps_of)
        if resolved < total:
            stuck = {
                r: sum(1 for f in fin[r] if f is None)
                for r in range(size)
                if any(f is None for f in fin[r])
            }
            raise MpiError(
                "fast-path schedule stalled (cyclic or unmatched "
                f"wire steps); pending steps per rank: {stuck}"
            )

        return [
            max((f for f in fin[r] if f is not None), default=arrivals[r])
            for r in range(size)
        ], fin

    def _interpret(
        self, inst: _Instance, send_bytes: List[Dict[int, int]]
    ) -> None:
        """Dataflow interpretation: exact data movement (timing is
        resolved separately; sends record their resolved payload sizes
        into ``send_bytes`` for the pricer)."""
        from ..communicator import Communicator

        comm = self.comm
        stats = comm.sim.stats
        size = comm.size

        states = [_RankState(inst.scheds[r]) for r in range(size)]
        #: (comm id, src, dst, tag) → FIFO of (payload, nbytes).
        queues: Dict[Tuple, List] = {}
        #: same key → FIFO of (rank, recv buffer, step idx) still waiting.
        parked: Dict[Tuple, List] = {}

        def deliver_to(rank: int, buf, data, nbytes: int,
                       private: bool = True) -> None:
            # Mirror the matcher's adoption path: a private payload
            # (queue snapshot, or a donated direct delivery) may be
            # taken over by an AdoptBuf receive outright.
            if (
                private
                and isinstance(buf, AdoptBuf)
                and data is not None
                and buf.adopt(data)
            ):
                stats.payload_adopted += 1
            else:
                Communicator._deliver(buf, data, nbytes)

        def run_step(r: int, st: _Step) -> None:
            tctx = st.via if st.via is not None else inst.ctxs[r]
            if st.kind == _COMPUTE:
                st.fn()
            elif st.kind == _OVERHEAD:
                pass  # timing-only; priced in _resolve_times
            elif st.kind == _SEND:
                buf = st.resolve_buf()
                nbytes = nbytes_of(buf) if buf is not None else 0
                send_bytes[r][st.idx] = nbytes
                key = (id(tctx.comm), tctx.rank, st.peer, st.tag)
                arr = payload_array(buf)
                waiters = parked.get(key)
                if waiters:
                    # A matched receiver is already parked: deliver
                    # source → destination directly, no snapshot.  Only
                    # a donated payload is private here (the live array
                    # is otherwise still the sender's).
                    rank2, rbuf, ridx = waiters.pop(0)
                    if arr is not None:
                        stats.payload_views += 1
                    deliver_to(rank2, rbuf, arr, nbytes,
                               private=st.donate)
                    states[rank2].finish(ridx)
                else:
                    if arr is not None:
                        if st.donate:
                            # Donated: nothing writes the array again,
                            # so it can sit in the queue un-snapshotted.
                            stats.payload_views += 1
                        else:
                            arr = arr.copy()
                            stats.payload_copies += 1
                    # Queue entries are private either way (donated or
                    # freshly snapshotted) — adoptable at the recv.
                    queues.setdefault(key, []).append((arr, nbytes))
            elif st.kind == _RECV:
                key = (id(tctx.comm), st.peer, tctx.rank, st.tag)
                buf = st.resolve_buf()
                queue = queues.get(key)
                if queue:
                    data, nbytes = queue.pop(0)
                    deliver_to(r, buf, data, nbytes)
                else:
                    parked.setdefault(key, []).append((r, buf, st.idx))
                    return  # finished later, at delivery
            else:  # pragma: no cover - defensive
                raise MpiError(f"unknown step kind {st.kind!r}")
            states[r].finish(st.idx)

        # Round-robin cycles, fully deterministic: first every rank
        # parks (or drains) all its ready receives, then each rank runs
        # one other ready step.  Posting receives first means a send
        # almost always finds its peer's buffer parked and delivers
        # directly — the zero-copy path — instead of snapshotting into
        # a queue; one non-receive step per rank per cycle bounds
        # run-ahead so the lockstep holds.
        total = sum(len(s.steps) for s in states)
        done_total = 0
        while done_total < total:
            progressed = False
            for r in range(size):
                state = states[r]
                while state.ready_recv:
                    idx = heapq.heappop(state.ready_recv)
                    run_step(r, state.steps[idx])
                    progressed = True
            for r in range(size):
                state = states[r]
                if state.ready:
                    idx = heapq.heappop(state.ready)
                    run_step(r, state.steps[idx])
                    progressed = True
                while state.ready_recv:
                    idx = heapq.heappop(state.ready_recv)
                    run_step(r, state.steps[idx])
            done_total = sum(s.done for s in states)
            if not progressed and done_total < total:
                stuck = {
                    r: len(s.steps) - s.done
                    for r, s in enumerate(states)
                    if s.done < len(s.steps)
                }
                raise MpiError(
                    "fast-path schedule stalled (cyclic or unmatched "
                    f"wire steps); pending steps per rank: {stuck}"
                )
