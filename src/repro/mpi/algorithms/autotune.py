"""Topology-derived collective auto-tuning.

The :class:`CollectiveTuning` crossovers are derived at cluster-build
time from the cluster's actual
:class:`~repro.hw.topology.base.FabricProfile` and
:class:`~repro.hw.params.IbParams`, by sweeping an analytic cost model
over message sizes and communicator sizes — so a fat tree, multi-rail
fabric or torus each get thresholds matching *their* α/β, and
hierarchical gates open only where the topology reports
oversubscription.  The model's unit is :func:`p2p_time`, which
evaluates the two-sided protocol rows of :mod:`repro.mpi.p2p` — the
rows the exact wire and the fast-path tape walk — on one (α, β) hop;
the per-algorithm closed forms (``cost_*``) compose it.  The model
tracks the simulator to within a fraction of a percent on uncontended
schedules — validated by the ``collectives`` artifact of
``python -m repro.bench``.

The derived tuning is cached per ``(FabricProfile, IbParams)`` pair (both
frozen dataclasses), so every cluster of the same shape shares one
derivation and repeated ``Communicator`` construction is free.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ...hw.params import IbParams
from ...sim.core import us
from ..p2p import EAGER, HEADER_BYTES, RENDEZVOUS, Row, p2p_row
from .base import largest_pof2
from .tuning import CollectiveTuning

__all__ = [
    "autotune_tuning",
    "derive_tuning",
    "subfabric_profile",
    "clear_cache",
    "p2p_time",
    "cost_allreduce",
    "cost_allgather",
    "cost_alltoall",
    "cost_bcast",
    "cost_reduce",
    "cost_rma_put",
]

#: Derivation cache: (FabricProfile, IbParams) → CollectiveTuning.
_CACHE: Dict[Tuple, CollectiveTuning] = {}

#: Scan grid: 256 B … 16 MB in quarter-octave steps.
_GRID: List[int] = sorted(
    {int(round(2.0 ** (k / 4.0))) for k in range(8 * 4, 24 * 4 + 1)}
)

#: Sentinel for "no upper bound inside the swept range".
_UNBOUNDED = _GRID[-1]

_EPS = 1e-12


# ---------------------------------------------------------------------------
# Analytic cost model
# ---------------------------------------------------------------------------

def _closed_form(row: Row) -> Tuple[int, Tuple[Tuple[bool, int], ...]]:
    """``row`` on an (α, β) hop: its leg count (one α each) and its
    byte terms — ``(payload?, legs carrying it)`` — collected in leg
    order, a leg's payload before its header."""
    legs = (row.envelope, *row.after)
    terms: Dict[bool, int] = {}
    for leg in legs:
        for payload, carried in ((True, leg.payload), (False, leg.header)):
            if carried:
                terms[payload] = terms.get(payload, 0) + 1
    return len(legs), tuple(terms.items())


#: Row → its :func:`_closed_form`.
_FORMS = {row: _closed_form(row) for row in (EAGER, RENDEZVOUS)}


def p2p_time(
    nbytes: int, alpha_s: float, beta_s_per_B: float, ib: IbParams
) -> float:
    """One blocking point-to-point of ``nbytes`` over an (α, β) hop:
    the sender's ``sw``, then the :func:`~repro.mpi.p2p.p2p_row` row's
    :func:`_closed_form`."""
    n_legs, terms = _FORMS[p2p_row(nbytes, ib)]
    t = us(ib.sw_overhead_us) + n_legs * alpha_s
    for payload, count in terms:
        t += count * ((nbytes if payload else HEADER_BYTES) * beta_s_per_B)
    return t


def _log2ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 0


def _cross_beta_eff(nbytes: int, prof, ib: IbParams) -> float:
    """Per-byte cost of a domain-wide bottleneck crossing.

    Eager messages (their row ends at the match) overlap their NIC wire
    time with the shared uplink's queue drain (the simulator's FIFO
    channels pipeline them), so only rendezvous crossings feel the full
    domain fan-in.
    """
    if not p2p_row(nbytes, ib).after:
        return prof.cross_beta_s_per_B
    return prof.cross_load_beta_s_per_B


def cost_allreduce(
    algo: str, P: int, nbytes: int, prof, ib: IbParams
) -> float:
    """Analytic allreduce cost.

    Distance-doubling schedules (recursive doubling, reduce+bcast) are
    costed at the fabric's bottleneck under load — their partners span
    the whole machine, so on an oversubscribed or multi-hop fabric
    every round crosses it at full domain fan-in.  The ring is a
    *neighbor* schedule: consecutive ranks exchange, so it pays the
    adjacent-hop latency and at most one uncontended bottleneck
    crossing per domain per step.  On flat fabrics all terms coincide
    and this is simply the uncontended cost.
    """
    a = prof.cross_alpha_s
    b = _cross_beta_eff(nbytes, prof, ib)
    if P <= 1:
        return 0.0
    if algo == "recursive_doubling":
        rounds = _log2ceil(P)
        fold = 0 if (P & (P - 1)) == 0 else 2
        return (rounds + fold) * p2p_time(nbytes, a, b, ib)
    if algo == "ring":
        chunk = math.ceil(nbytes / P)
        return 2.0 * (P - 1) * p2p_time(
            chunk, prof.neighbor_alpha_s, prof.cross_beta_s_per_B, ib
        )
    if algo == "reduce_bcast":
        return 2.0 * _log2ceil(P) * p2p_time(nbytes, a, b, ib)
    if algo == "hierarchical":
        s, G = prof.domain_size, prof.n_domains
        if s < 2 or G < 2:
            return math.inf
        intra = p2p_time(math.ceil(nbytes / s), prof.alpha_s,
                         prof.beta_s_per_B, ib)
        cross = p2p_time(math.ceil(nbytes / (s * G)), prof.cross_alpha_s,
                         prof.cross_load_beta_s_per_B, ib)
        return 2.0 * (s - 1) * intra + 2.0 * (G - 1) * cross
    raise ValueError(f"unknown allreduce algorithm {algo!r}")


def cost_allgather(
    algo: str, P: int, block_nbytes: int, prof, ib: IbParams
) -> float:
    """Analytic allgather cost (uncontended regime: allgather selection
    is size-driven, and its ring/doubling schedules keep per-step
    crossings sparse even when fragmented).  The ``hierarchical``
    schedule is the exception — it exists for the fragmented
    oversubscribed regime, so it is costed against the bottleneck
    terms; the derivation compares it to a fragmented-ring baseline
    (every step a loaded crossing), not to this function's ``ring``."""
    a, b = prof.alpha_s, prof.beta_s_per_B
    if P <= 1:
        return 0.0
    if algo == "hierarchical":
        s, G = prof.domain_size, prof.n_domains
        if s < 2 or G < 2:
            return math.inf
        gather = (s - 1) * p2p_time(block_nbytes, a, b, ib)
        ring = (G - 1) * p2p_time(
            s * block_nbytes, prof.cross_alpha_s,
            prof.cross_beta_s_per_B, ib,
        )
        fanout = _log2ceil(s) * p2p_time(P * block_nbytes, a, b, ib)
        return gather + ring + fanout
    if algo == "ring":
        return (P - 1) * p2p_time(block_nbytes, a, b, ib)
    if algo == "recursive_doubling":
        return sum(
            p2p_time((1 << i) * block_nbytes, a, b, ib)
            for i in range(_log2ceil(P))
        )
    if algo == "bruck":
        total, step = 0.0, 1
        while step < P:
            count = min(step, P - step)
            total += p2p_time(count * block_nbytes, a, b, ib)
            step <<= 1
        return total
    raise ValueError(f"unknown allgather algorithm {algo!r}")


def cost_bcast(algo: str, P: int, nbytes: int, prof, ib: IbParams) -> float:
    """Analytic bcast cost under the fragmented-placement regime.

    Schedules are costed per round: the binomial tree pays ⌈log2 P⌉
    full-payload rounds on its critical path; the pipelined chain pays
    one round per segment plus the P−2 fill rounds, each one segment
    deep — exactly the round structure its :class:`Schedule` carries.
    """
    if P <= 1:
        return 0.0
    if algo == "binomial":
        return _log2ceil(P) * p2p_time(
            nbytes, prof.cross_alpha_s, _cross_beta_eff(nbytes, prof, ib), ib
        )
    if algo == "hierarchical":
        s, G = prof.domain_size, prof.n_domains
        if s < 2 or G < 2:
            return math.inf
        # Leaders cross one at a time per domain (uncontended crossing);
        # the intra-domain fan-out never leaves the leaf switch.
        leaders = _log2ceil(G) * p2p_time(
            nbytes, prof.cross_alpha_s, prof.cross_beta_s_per_B, ib
        )
        intra = _log2ceil(s) * p2p_time(
            nbytes, prof.alpha_s, prof.beta_s_per_B, ib
        )
        return leaders + intra
    if algo == "pipelined":
        from .bcast import best_pipeline_segments

        if P <= 2:
            return math.inf
        S = best_pipeline_segments(nbytes, P, ib)
        if S < 2:
            return math.inf
        seg = math.ceil(nbytes / S)
        # Chain hops are rank-adjacent but a fragmented placement makes
        # every hop a bottleneck crossing, one segment at a time.
        per_round = p2p_time(seg, prof.cross_alpha_s,
                             prof.cross_beta_s_per_B, ib)
        return (S + P - 2) * per_round
    raise ValueError(f"unknown bcast algorithm {algo!r}")


def cost_reduce(algo: str, P: int, nbytes: int, prof, ib: IbParams) -> float:
    """Analytic reduce-to-root cost (per-round, like the schedules).

    The binomial tree's critical path is ⌈log2 P⌉ full-payload rounds;
    Rabenseifner's is ⌈log2 P⌉ halving rounds of n/2, n/4, … followed
    by the mirror-image gather rounds — ≈2·nβ total bytes.
    """
    a = prof.cross_alpha_s
    b = _cross_beta_eff(nbytes, prof, ib)
    if P <= 1:
        return 0.0
    if algo == "binomial":
        return _log2ceil(P) * p2p_time(nbytes, a, b, ib)
    if algo == "rabenseifner":
        if P <= 2:
            return math.inf
        pof2 = largest_pof2(P)
        # Non-powers of two pay one extra full-size fold-in round.
        total = 0.0 if pof2 == P else p2p_time(nbytes, a, b, ib)
        part = nbytes
        for _ in range(_log2ceil(pof2)):
            part = math.ceil(part / 2)
            # One halving round and its mirrored gather round.
            total += 2.0 * p2p_time(part, a, b, ib)
        return total
    raise ValueError(f"unknown reduce algorithm {algo!r}")


def cost_alltoall(
    algo: str, P: int, block_nbytes: int, prof, ib: IbParams
) -> float:
    """Analytic alltoall cost per round.

    Linear schedules (shift/pairwise) pay P−1 rounds of one block;
    Bruck pays ⌈log2 P⌉ rounds each shipping the ⌊P/2⌋-ish packed run
    its schedule forwards.
    """
    a, b = prof.alpha_s, prof.beta_s_per_B
    if P <= 1:
        return 0.0
    if algo == "hierarchical":
        s, G = prof.domain_size, prof.n_domains
        if s < 2 or G < 2:
            return math.inf
        updown = 2.0 * (s - 1) * p2p_time(P * block_nbytes, a, b, ib)
        exchange = (G - 1) * p2p_time(
            s * s * block_nbytes, prof.cross_alpha_s,
            prof.cross_beta_s_per_B, ib,
        )
        return updown + exchange
    if algo in ("shift", "pairwise"):
        return (P - 1) * p2p_time(block_nbytes, a, b, ib)
    if algo == "bruck":
        total, step = 0.0, 1
        while step < P:
            count = len([i for i in range(P) if i & step])
            total += p2p_time(count * block_nbytes, a, b, ib)
            step <<= 1
        return total
    raise ValueError(f"unknown alltoall algorithm {algo!r}")


def cost_rma_put(mode: str, nbytes: int, prof, ib: IbParams) -> float:
    """Analytic one-sided put cost (mirrors ``repro.mpi.rma``).

    ``eager``: one wire transfer with the payload inlined behind the
    header, then a bounce copy through the target host's staging path
    (the intra-node α/β — the same channel the simulator charges).
    ``rendezvous``: an rkey/validation header round-trip, then the
    payload written directly into the registered window (zero-copy —
    no target-side copy at all).  Costed at the fabric's bottleneck
    crossing, since a one-sided target may be anywhere in the machine.
    """
    setup = us(ib.rma_setup_us)
    a, b = prof.cross_alpha_s, prof.cross_beta_s_per_B
    wire = a + (HEADER_BYTES + nbytes) * b
    if mode == "eager":
        bounce = us(ib.intra_lat_us) + nbytes / (ib.intra_bw_GBps * 1e9)
        return setup + wire + bounce
    if mode == "rendezvous":
        hdr = a + HEADER_BYTES * b
        return setup + 2.0 * hdr + wire
    raise ValueError(f"unknown RMA put mode {mode!r}")


# ---------------------------------------------------------------------------
# Threshold derivation
# ---------------------------------------------------------------------------

def _first_grid_where(pred) -> Optional[int]:
    """Smallest grid size below the top satisfying ``pred``, or None."""
    n = next((n for n in _GRID if pred(n)), _UNBOUNDED)
    return None if n >= _UNBOUNDED else n


def _grid_prefix(ok) -> int:
    """Largest grid size up to which ``ok`` holds throughout, or 0."""
    last = 0
    for n in _GRID:
        if not ok(n):
            break
        last = n
    return last


def _grid_suffix(ok) -> Optional[int]:
    """Smallest grid size below the top from which ``ok`` holds
    throughout, or None."""
    first = _UNBOUNDED
    for n in reversed(_GRID):
        if not ok(n):
            break
        first = n
    return None if first >= _UNBOUNDED else first


def derive_tuning(prof, ib: IbParams) -> CollectiveTuning:
    """Sweep the cost model over the profile; return the tuning."""
    P = max(4, prof.n_nodes)

    # Allreduce: ring beats doubling once bandwidth dominates latency.
    ring_min = _first_grid_where(
        lambda n: cost_allreduce("ring", P, n, prof, ib)
        < cost_allreduce("recursive_doubling", P, n, prof, ib) - _EPS
    ) or _UNBOUNDED

    # Allgather doubling: find the rank counts and block sizes where its
    # packed rounds (which cross the eager threshold early) still beat
    # the ring.  min_ranks = above the largest power of two that ever
    # loses; rd_max = largest prefix of the grid that wins everywhere.
    pof2_sizes = [1 << k for k in range(1, 8)]  # 2 … 128

    def rd_ok(p: int, n: int) -> bool:
        return (
            cost_allgather("recursive_doubling", p, n, prof, ib)
            <= cost_allgather("ring", p, n, prof, ib) + _EPS
        )

    losers = [
        p for p in pof2_sizes
        if not all(rd_ok(p, n) for n in _GRID)
    ]
    rd_min_ranks = 2 * max(losers) if losers else 2
    winners = [p for p in pof2_sizes if p >= rd_min_ranks]
    rd_max = _grid_prefix(lambda n: all(rd_ok(p, n) for p in winners))

    # Small-block exception: every packed doubling round stays eager as
    # long as the final round's P/2 blocks fit under the threshold —
    # with the min-ranks gate in place the binding round is the second
    # (2 blocks), hence half the eager threshold.  This *derives* the
    # constant that previously leaked the eager threshold silently.
    rd_small_max = ib.eager_threshold // 2

    # Bruck: latency-optimal on non-power-of-two communicators for
    # blocks small enough that its packed rounds stay cheap.
    npof2_sizes = [3, 5, 6, 7, 9, 12, 24, 48, 96]

    bruck_max = _grid_prefix(lambda n: all(
        cost_allgather("bruck", p, n, prof, ib)
        <= cost_allgather("ring", p, n, prof, ib) + _EPS
        for p in npof2_sizes
    ))

    # Bruck alltoall: its packed rounds beat the linear schedules only
    # while the block is small enough that ⌈log2 P⌉ latencies dominate
    # the ~(P/2)·log2 P extra block volume.  Swept over both linear
    # baselines so the threshold is safe on any communicator size.
    a2a_sizes = [4, 6, 8, 12, 16, 24, 32, 48, 96]

    a2a_bruck_max = _grid_prefix(lambda n: all(
        cost_alltoall("bruck", p, n, prof, ib)
        <= min(cost_alltoall("shift", p, n, prof, ib),
               cost_alltoall("pairwise", p, n, prof, ib)) + _EPS
        for p in a2a_sizes
    ))

    # Pipelined bcast: the chain beats the binomial tree once segments
    # amortize their fixed cost; demand a decisive (≥1.5×) modelled win
    # so razor-edge crossovers never regress a real broadcast, and sweep
    # every plausible rank count ≥ 4 (at P ≤ 2 the chain degenerates).
    pipe_sizes = [p for p in (4, 6, 8, 12, 16, 24, 32, 48, 96)]

    bcast_pipe_min = _grid_suffix(lambda n: all(
        cost_bcast("pipelined", p, n, prof, ib) * 1.5
        <= min(cost_bcast("binomial", p, n, prof, ib),
               cost_bcast("hierarchical", p, n, prof, ib)) + _EPS
        for p in pipe_sizes
    ))

    # Rabenseifner reduce: same shape as the allreduce ring crossover —
    # bandwidth-optimal once nβ dominates the extra log P latencies.
    # Non-powers of two are swept too: their fold-in round raises the
    # crossover, and the threshold must be safe for every P.
    raben_sizes = [4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]

    raben_min = _grid_suffix(lambda n: all(
        cost_reduce("rabenseifner", p, n, prof, ib)
        <= cost_reduce("binomial", p, n, prof, ib) + _EPS
        for p in raben_sizes
    ))

    # Hierarchical gates: only on fabrics that report oversubscription
    # and a regular domain structure.  Below half the eager threshold
    # a hierarchical schedule is latency-bound and the flat schedules'
    # fewer rounds win in practice — eager-sized rounds overlap their
    # wire time with the uplink queue drain, which the additive load
    # model cannot see — so the allreduce, allgather and alltoall gates
    # are floored there.
    hier_min = bcast_hier_min = ag_hier_min = a2a_hier_min = None
    floor = ib.eager_threshold // 2
    if (
        prof.oversubscription > 1.0
        and prof.domain_size >= 2
        and prof.n_domains >= 2
    ):
        n_hier = _first_grid_where(
            lambda n: cost_allreduce("hierarchical", P, n, prof, ib)
            < min(
                cost_allreduce("ring", P, n, prof, ib),
                cost_allreduce("recursive_doubling", P, n, prof, ib),
            )
            - _EPS
        )
        hier_min = None if n_hier is None else max(n_hier, floor)
        bcast_hier_min = _first_grid_where(
            lambda n: cost_bcast("hierarchical", P, n, prof, ib)
            < cost_bcast("binomial", P, n, prof, ib) - _EPS
        )

        # Allgather/alltoall: costed against the *fragmented* flat
        # schedules (every step a loaded bottleneck crossing — the only
        # regime hier_ok admits them in).
        P_hier = prof.domain_size * prof.n_domains

        def frag_linear(n: int) -> float:
            return (P_hier - 1) * p2p_time(
                n, prof.cross_alpha_s, _cross_beta_eff(n, prof, ib), ib
            )

        n_aghier = _first_grid_where(
            lambda n: cost_allgather("hierarchical", P_hier, n, prof, ib)
            < frag_linear(n) - _EPS
        )
        ag_hier_min = None if n_aghier is None else max(n_aghier, floor)
        n_a2ahier = _first_grid_where(
            lambda n: cost_alltoall("hierarchical", P_hier, n, prof, ib)
            < frag_linear(n) - _EPS
        )
        a2a_hier_min = (None if n_a2ahier is None
                        else max(n_a2ahier, floor))

    # RMA eager/rendezvous: eager wins while the target bounce copy is
    # cheaper than the rkey round-trip; the crossover therefore grows
    # with the fabric's latency (a torus keeps eager puts longer than
    # the flat switch).  Largest grid prefix where eager still wins.
    rma_eager = _grid_prefix(
        lambda n: cost_rma_put("eager", n, prof, ib)
        <= cost_rma_put("rendezvous", n, prof, ib) + _EPS
    )

    return CollectiveTuning(
        allreduce_ring_min_bytes=ring_min,
        allgather_rd_max_bytes=rd_max,
        allgather_rd_min_ranks=rd_min_ranks,
        allgather_rd_small_max_bytes=rd_small_max,
        allgather_bruck_max_bytes=bruck_max,
        alltoall_bruck_max_bytes=a2a_bruck_max,
        bcast_pipeline_min_bytes=bcast_pipe_min,
        reduce_raben_min_bytes=raben_min,
        allreduce_hier_min_bytes=hier_min,
        bcast_hier_min_bytes=bcast_hier_min,
        allgather_hier_min_bytes=ag_hier_min,
        alltoall_hier_min_bytes=a2a_hier_min,
        rma_eager_max_bytes=rma_eager,
    )


def subfabric_profile(topology, nodes: Sequence[int]):
    """The :class:`~repro.hw.topology.base.FabricProfile` of the slice
    of the fabric a set of nodes actually spans.

    A derived communicator sees only its own nodes: an intra-pod
    communicator never crosses the spine, so its profile collapses to
    the pod-local α/β with no oversubscription — which is exactly what
    its collective thresholds should be tuned against.  A communicator
    spanning several domains keeps the cross-bottleneck terms but with
    the domain structure *it* sees (its domain count, its largest
    domain).  The result is frozen/hashable, so it keys the same
    derivation cache full-fabric profiles use.
    """
    prof = topology.profile()
    uniq = sorted(set(int(n) for n in nodes))
    domains: Dict[int, List[int]] = {}
    for n in uniq:
        domains.setdefault(topology.locality_group(n), []).append(n)
    if len(domains) <= 1:
        # Never crosses the fabric bottleneck: pod-local hops only.
        return replace(
            prof,
            n_nodes=len(uniq),
            cross_alpha_s=prof.alpha_s,
            cross_beta_s_per_B=prof.beta_s_per_B,
            cross_load_beta_s_per_B=prof.beta_s_per_B,
            oversubscription=1.0,
            n_domains=len(uniq),
            domain_size=1,
        )
    return replace(
        prof,
        n_nodes=len(uniq),
        n_domains=len(domains),
        domain_size=max(len(v) for v in domains.values()),
    )


def autotune_tuning(
    cluster, nodes: Optional[Sequence[int]] = None
) -> CollectiveTuning:
    """Per-cluster tuning, derived once and cached by fabric shape.

    ``nodes`` restricts the derivation to the sub-fabric those nodes
    span (what derived communicators pass); the cache is keyed by the
    resulting profile, so every communicator over the same sub-fabric
    shape shares one derivation.
    """
    topo = cluster.topology
    prof = (
        topo.profile() if nodes is None else subfabric_profile(topo, nodes)
    )
    ib = cluster.spec.params.ib
    key = (prof, ib)
    tuning = _CACHE.get(key)
    if tuning is None:
        tuning = derive_tuning(prof, ib)
        _CACHE[key] = tuning
    return tuning


def clear_cache() -> None:
    """Drop all cached derivations (tests and parameter sweeps)."""
    _CACHE.clear()
