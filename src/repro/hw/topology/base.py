"""Topology abstraction: how bytes move between nodes.

The seed modelled exactly the paper's testbed — a single non-blocking
InfiniBand switch — as one tx/rx channel pair per node.  A
:class:`Topology` generalizes that: it owns the fabric's
:class:`~repro.sim.resources.BandwidthChannel`s and routes every
transfer through the channel path its shape dictates, so contention
appears wherever the real fabric would contend (a shared fat-tree
uplink, a striped rail set, a multi-hop torus path).

Each topology writes its path exactly once, as :meth:`Topology.route`.
Every other view is derived from that one route:

* ``transfer`` walks it on the simulator (exact backend);
* ``wire_time`` sums it without queueing (uncontended time);
* ``account`` books it onto the channels without simulating it (the
  link report of the analytic backends);
* ``wire_costs`` interns ``wire_time`` for the fast-path pricers and
  books the legs when accounting is on; it walks one route per
  ``wire_class`` of a pair and size, since the fabric prices the pairs
  of a class alike.

``signature`` says which placements the fabric cannot tell apart; the
fast path keys the compiled plans it keeps in :attr:`Topology.plans`
by it, so communicators of one structure compile each shape once.

The *static* view — ``profile`` / ``locality_group`` — feeds the
collective auto-tuner (:mod:`repro.mpi.algorithms.autotune`), which
sweeps an analytic cost model over the profile to derive per-cluster
selection thresholds instead of hardcoded constants.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ...sim.core import Event, Simulator, us
from ...sim.primitives import AllOf
from ...sim.resources import BandwidthChannel
from ..params import IbParams

__all__ = ["FabricProfile", "Leg", "Route", "Topology", "ordinal"]

#: One stage of a route: ``(channel, nbytes, seconds)``.  A leg with
#: ``nbytes`` set serializes that payload through ``channel``
#: (``seconds`` is None: the channel's own latency + size/bandwidth); a
#: leg with ``nbytes`` None holds ``channel`` for ``seconds`` (the
#: receiver's latency-only ejection half); a leg without a channel is
#: pure forwarding delay (torus routers).
Leg = Tuple[Optional[BandwidthChannel], Optional[int], Optional[float]]

#: A routed transfer: lanes that run in parallel (rail stripes), each a
#: sequence of legs walked in order.  Single-path fabrics have one lane.
Route = Tuple[Tuple[Leg, ...], ...]


def ordinal(values: Sequence[int]) -> Tuple[int, ...]:
    """Each value's index among the distinct values, sorted: keeps which
    values are equal and how they order, forgets the ids."""
    index = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(index[v] for v in values)


@dataclass(frozen=True)
class FabricProfile:
    """Static summary of a topology, consumed by the collective autotuner.

    ``alpha``/``beta`` are the classic LogP-style per-message latency and
    per-byte time of an ordinary inter-node hop; the ``cross_*`` fields
    describe a transfer that crosses the fabric's bottleneck (a fat-tree
    uplink, the torus diameter).  ``cross_load_beta_s_per_B`` is the
    effective per-byte time of a crossing when every node of a locality
    domain crosses at once — the regime a fragmented rank placement puts
    collectives in.  Frozen and hashable so it can key the autotune
    cache.
    """

    kind: str
    n_nodes: int
    #: Uncontended one-way inter-node latency (s), averaged over pairs.
    alpha_s: float
    #: Latency of a rank-adjacent hop (s) — what neighbor-exchange
    #: schedules (ring) pay; equals ``alpha_s`` except on multi-hop
    #: fabrics, where adjacent nodes are one router apart.
    neighbor_alpha_s: float
    #: Per-byte time through one NIC (s/B).
    beta_s_per_B: float
    #: Latency of a bottleneck-crossing transfer (s).
    cross_alpha_s: float
    #: Per-byte time of one uncontended crossing (s/B).
    cross_beta_s_per_B: float
    #: Per-byte time of a crossing when a whole domain crosses at once.
    cross_load_beta_s_per_B: float
    #: Fabric oversubscription factor (1.0 = non-blocking).
    oversubscription: float
    #: Number of locality domains (pods); equals n_nodes when flat.
    n_domains: int
    #: Nodes per domain (1 when the fabric has no grouping).
    domain_size: int


class Topology(ABC):
    """Base class: per-node shared-memory channels + routed NIC paths.

    Subclasses build their own NIC/fabric channels and implement
    ``_route`` (the inter-node path) plus the static views.  The
    intra-node shared-memory channel is common to every topology — it
    models ranks on one node, not the fabric.
    """

    kind: str = "?"
    #: Whether an exact transfer runs its lanes as parallel processes
    #: (rail striping); single-path fabrics walk their one lane inline.
    striped: bool = False

    def __init__(self, sim: Simulator, n_nodes: int, params: IbParams) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.n_nodes = n_nodes
        self.params = params
        #: Half the wire latency: what each NIC side (and each extra
        #: switch traversal) charges.
        self._half_lat = us(params.lat_us) / 2.0
        #: When True, analytic backends charge their priced transfers
        #: onto the routed channel path (see :meth:`wire_costs`), so the
        #: link-utilization report works even when nothing simulates
        #: channel occupancy.  Off by default.
        self.accounting = False
        #: Interned uncontended wire times: (src, dst, nbytes) → s.  The
        #: one cache both fast-path pricers (collectives and RMA) share.
        self._wire_cache: Dict[Tuple[int, int, int], float] = {}
        #: What fills its misses: wire times by (:meth:`wire_class` of
        #: the pair, nbytes).
        self._class_cache: Dict[Tuple[Any, int], float] = {}
        #: Compiled collective plans by key, shared by the communicators
        #: on this fabric (see :meth:`signature` and
        #: :mod:`repro.mpi.algorithms.fastpath`).  Held weakly: a plan
        #: lives while a communicator that uses it keeps it.
        self.plans: "weakref.WeakValueDictionary[Tuple, Any]" = (
            weakref.WeakValueDictionary())
        self._shm: List[BandwidthChannel] = [
            BandwidthChannel(
                sim,
                latency_s=us(params.intra_lat_us),
                bandwidth_Bps=params.intra_bw_GBps * 1e9,
                name=f"shm{i}",
            )
            for i in range(n_nodes)
        ]

    def _check(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range [0,{self.n_nodes})")

    # -- the one path definition -------------------------------------------
    def route(self, src: int, dst: int, nbytes: int) -> Route:
        """The channel path ``nbytes`` take from node ``src`` to ``dst``.

        Intra-node transfers use the shared-memory channel; inter-node
        transfers follow the subclass's :meth:`_route`.  Every dynamic
        view (``transfer``, ``wire_time``, ``account``) walks this.
        """
        self._check(src)
        self._check(dst)
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if src == dst:
            return (((self._shm[src], nbytes, None),),)
        return self._route(src, dst, nbytes)

    @abstractmethod
    def _route(self, src: int, dst: int, nbytes: int) -> Route:
        """Inter-node path (``src != dst``, all arguments validated)."""

    # -- derived views -------------------------------------------------------
    def transfer(
        self, src: int, dst: int, nbytes: int
    ) -> Generator[Event, Any, float]:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Walks the route on the simulator, queueing FIFO on every channel
        it holds; returns the elapsed transfer time.
        """
        lanes = self.route(src, dst, nbytes)
        t0 = self.sim.now
        if self.striped and src != dst:
            procs = [
                self.sim.process(
                    self._walk(lane), name=f"{lane[0][0].name}({src}->{dst})"
                )
                for lane in lanes
            ]
            yield AllOf(self.sim, procs)
        else:
            yield from self._walk(lanes[0])
        return self.sim.now - t0

    def _walk(self, lane: Tuple[Leg, ...]) -> Generator[Event, Any, None]:
        for ch, nbytes, seconds in lane:
            if ch is None:
                yield self.sim.timeout(seconds)
            elif nbytes is None:
                yield from ch.occupy(seconds)
            else:
                yield from ch.transfer(nbytes)

    def wire_time(self, src: int, dst: int, nbytes: int) -> float:
        """Uncontended end-to-end transfer time: the slowest lane's sum
        of leg times."""
        best = 0.0
        for lane in self.route(src, dst, nbytes):
            t = 0.0
            for ch, n, seconds in lane:
                t += ch.transfer_time(n) if seconds is None else seconds
            if t > best:
                best = t
        return best

    def account(self, src: int, dst: int, nbytes: int) -> None:
        """Charge one priced transfer onto the routed channel path.

        The analytic backends never occupy channels — they price wire
        legs with :meth:`wire_costs` and commit completions directly —
        so without this hook a fast-path run reports an idle fabric.
        ``account`` books the *uncontended* service demand (bytes and
        busy seconds, no queueing) onto exactly the channels
        :meth:`transfer` would have held, and counts ``chan_bytes``
        per payload leg as the exact channels do.  Demand booked this
        way can exceed the wall clock on an oversubscribed link: that
        over-commit is the congestion signal the report exists to show.
        Timing-passive — never called from the exact path, never
        affects simulated time.
        """
        stats = self.sim.stats
        for lane in self.route(src, dst, nbytes):
            for ch, n, seconds in lane:
                if ch is None:
                    continue
                if seconds is None:
                    ch.bytes_moved += n
                    ch.busy_s += ch.transfer_time(n)
                    stats.chan_bytes += n
                else:
                    ch.busy_s += seconds

    def wire_cost(self, src: int, dst: int, nbytes: int) -> float:
        """Interned :meth:`wire_time` of one priced leg (see
        :meth:`wire_costs`)."""
        return self.wire_costs((src,), (dst,), (nbytes,))[0]

    def wire_costs(
        self, src: Sequence[int], dst: Sequence[int], nbytes: Sequence[int]
    ) -> List[float]:
        """Interned :meth:`wire_time` of priced legs, one per
        ``(src[i], dst[i], nbytes[i])``.

        The fast-path backends price every wire leg through here, a
        batch at a time: hits and misses surface as
        ``sim.stats.wire_cost_hits`` / ``wire_cost_misses``, and with
        :attr:`accounting` on every leg is also booked onto its
        channels (:meth:`account`), in order.
        """
        keys = list(zip(src, dst, nbytes))
        if self.accounting:
            for key in keys:
                self.account(*key)
        cache = self._wire_cache
        costs = list(map(cache.get, keys))
        stats = self.sim.stats
        misses = 0
        if None in costs:
            by_class = self._class_cache
            wire_class = self.wire_class
            for i, cost in enumerate(costs):
                if cost is None:
                    key = keys[i]
                    cost = cache.get(key)
                    if cost is None:
                        misses += 1
                        stats.wire_cost_misses += 1
                        src, dst, n = key
                        ckey = (wire_class(src, dst), n)
                        cost = by_class.get(ckey)
                        if cost is None:
                            cost = by_class[ckey] = self.wire_time(*key)
                        cache[key] = cost
                    costs[i] = cost
        stats.wire_cost_hits += len(costs) - misses
        return costs

    def wire_class(self, src: int, dst: int) -> Any:
        """What of a node pair the fabric prices: pairs of one class
        have bit-equal :meth:`wire_time` at every size.  The base class
        keeps one class per pair, which is always right (the torus
        prices by hop count)."""
        return (src, dst)

    def signature(self, nodes: Sequence[int]) -> Tuple:
        """What the fabric can tell of a placement (``nodes[r]``: rank
        ``r``'s node).

        Contract: two placements of one length with equal signatures
        price every ordered rank pair alike — ``wire_cost(nodes[i],
        nodes[j], n)`` is the same float for both at every ``n`` — and
        order their nodes and locality domains alike, as
        :func:`ordinal` relabels them (hierarchical sub-communicators
        are built in domain order).  A structure compiled for one
        placement (a fast-path plan, with its legs labelled by
        ``ordinal``) then serves the other.  The base class returns
        the nodes themselves: it never shares, so it is always right.
        """
        return tuple(nodes)

    # -- observability -----------------------------------------------------
    def channels(self) -> List[BandwidthChannel]:
        """Every fabric channel, deterministically ordered.

        The utilization report (:mod:`repro.obs.links`) iterates this:
        per-node shared-memory channels first, then the subclass's
        fabric channels (NIC pairs, pod up/down links, rails).
        """
        return list(self._shm) + self._fabric_channels()

    def _fabric_channels(self) -> List[BandwidthChannel]:
        """Subclass hook: the inter-node channels, in report order."""
        return []

    # -- static view (autotune-facing) -------------------------------------
    def locality_group(self, node: int) -> int:
        """Domain id of ``node`` (nodes sharing cheap, non-bottlenecked
        links share a domain).  Flat fabrics have one node per domain."""
        self._check(node)
        return node

    @abstractmethod
    def profile(self) -> FabricProfile:
        """Static cost summary for the collective autotuner."""
