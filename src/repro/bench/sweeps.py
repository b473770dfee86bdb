"""Gated collective sweeps: algorithm selection, topology, sub-communicators.

* :func:`collectives_table` — the size-adaptive
  :class:`~repro.mpi.algorithms.AlgorithmSelector` against the seed's
  fixed algorithms (allreduce = binomial reduce+bcast, allgather = ring,
  alltoall = shift) over message size × node count.
* :func:`topology_table` — per-cluster autotuned tuning against the
  flat-IB constants (``CollectiveTuning()``) on the flat switch, a 2:1
  fat tree (contiguous and pod-scattered placement), a 2-rail
  multi-rail and a 2-D torus.
* :func:`subcomm_table` — hierarchical allreduce rebuilt on
  sub-communicators against frozen hand-rolled timings, row/column
  communicator Cannon and Fox against world-communicator Cannon, and
  unequal-pod hierarchical against the flat ring.

Each gate is a band on a ``reference/candidate`` time ratio; "never
slower" is ``(1 - 1e-9, None)``.
"""

from __future__ import annotations

import time

import numpy as np

from ..apps.cannon import CannonConfig, run_mpi
from ..hw import ClusterSpec, TopologySpec, build_cluster, paper_cluster
from ..hw.params import KB, MB
from ..mpi import (
    SEED_TUNING,
    CollectiveTuning,
    MpiJob,
    ReduceOp,
    pod_cyclic_placement,
)
from ..sim import Simulator
from .harness import Table, fmt_size, fmt_time

__all__ = [
    "collective_time",
    "collectives_table",
    "topology_table",
    "subcomm_table",
]

#: "Never slower": the reference may not beat the candidate.
NEVER_SLOWER = (1 - 1e-9, None)


def _collective_prog(op, P, nbytes):
    """One ``op`` over ``nbytes`` (a block, for allgather/alltoall),
    on flat buffers and views of them."""

    def prog(ctx):
        if op == "allreduce":
            send = np.zeros(nbytes, dtype=np.uint8)
            recv = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)
        elif op == "allgather":
            send = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.allgather(send, np.zeros(P * nbytes, np.uint8))
        elif op == "alltoall":
            sflat = np.zeros(P * nbytes, dtype=np.uint8)
            rflat = np.zeros(P * nbytes, dtype=np.uint8)
            yield from ctx.alltoall(
                [sflat[i * nbytes:(i + 1) * nbytes] for i in range(P)],
                [rflat[i * nbytes:(i + 1) * nbytes] for i in range(P)],
            )
        elif op == "bcast":
            yield from ctx.bcast(np.zeros(nbytes, dtype=np.uint8), root=0)
        else:  # pragma: no cover - defensive
            raise ValueError(op)

    return prog


def collective_time(op, spec, nbytes, placement=None, tuning=None,
                    backend="exact"):
    """``(simulated time, selected algorithm, host wall)`` of one
    collective on a fresh cluster built from ``spec``, one rank per
    node unless ``placement`` says otherwise (the wall includes the
    cluster build)."""
    t0 = time.perf_counter()
    sim = Simulator()
    cluster = build_cluster(sim, spec)
    if placement is None:
        placement = list(range(spec.nodes))
    job = MpiJob(cluster, placement, tuning=tuning, backend=backend)
    job.start(_collective_prog(op, len(placement), nbytes))
    job.run()
    wall = time.perf_counter() - t0
    algo = next(
        (k.split("[")[1].rstrip("]") for k in job.comm.stats
         if k.startswith(f"{op}[")),
        "?",
    )
    return sim.now, algo, wall


def _compare(t, point, ref, cand, ref_s, cand_s, algo, band):
    """The two times of one point and their gated ratio."""
    t.record(f"{point} {ref} (us)", ref_s * 1e6)
    t.record(f"{point} {cand}={algo} (us)" if algo else
             f"{point} {cand} (us)", cand_s * 1e6)
    t.record(f"{point} {ref}/{cand}", ref_s / cand_s, band=band)


# ---------------------------------------------------------------------------
# size-adaptive selection vs the seed algorithms
# ---------------------------------------------------------------------------

#: alltoall moves size × P per rank: its sweep stops at 256 kB.
ALLTOALL_MAX_BYTES = 256 * KB
#: The exact allgather holds P × P blocks of real buffers: 16 GB at
#: 32 nodes × 16 MB, more than an 8 GB host has.
DROPPED = {("allgather", 32, 16 * MB)}


def collectives_table(smoke: bool = False) -> Table:
    """Adaptive ≤ seed everywhere; > 1.2× on ≥ 16-node ≥ 1 MB allreduce."""
    sizes = ([1 * KB, 1 * MB] if smoke else
             [1 * KB, 16 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB])
    nodes = [4, 16] if smoke else [2, 4, 8, 12, 16, 32]
    t = Table(
        "Size-adaptive collective engine vs seed fixed algorithms",
        ["op", "nodes", "size", "fixed", "adaptive", "speedup", "algo"],
    )
    for op in ("allreduce", "allgather", "alltoall"):
        for n in nodes:
            for nbytes in sizes:
                if ((op == "alltoall" and nbytes > ALLTOALL_MAX_BYTES)
                        or (op, n, nbytes) in DROPPED):
                    continue
                spec = paper_cluster(nodes=n, gpus_per_node=0)
                t_fixed, _, _ = collective_time(op, spec, nbytes,
                                                tuning=SEED_TUNING)
                t_adapt, algo, _ = collective_time(op, spec, nbytes)
                win = op == "allreduce" and n >= 16 and nbytes >= MB
                _compare(t, f"{op} {n}n {fmt_size(nbytes)}", "fixed",
                         "adaptive", t_fixed, t_adapt, algo,
                         (1.2, None) if win else NEVER_SLOWER)
                t.add(op, n, fmt_size(nbytes), fmt_time(t_fixed),
                      fmt_time(t_adapt), f"{t_fixed / t_adapt:.2f}×", algo)
    t.note("fixed = seed algorithms (allreduce: reduce+bcast, allgather: "
           "ring, alltoall: shift); adaptive = AlgorithmSelector defaults")
    t.note(f"alltoall swept only up to {fmt_size(ALLTOALL_MAX_BYTES)} per "
           "pair (volume grows with P)")
    t.note("large-message strict win is allreduce's: the seed allgather is "
           "already the bandwidth-optimal ring, so >=1 MB allgather parity "
           "(1.00x) is the ceiling there")
    if not smoke:
        t.note("dropped: allgather 32n 16 MB — the exact run holds 32 x 32 "
               "16 MB receive blocks (16 GB), more than an 8 GB host has")
    return t


# ---------------------------------------------------------------------------
# topology-derived autotuning vs flat-switch constants
# ---------------------------------------------------------------------------

POD = 4
FATTREE = dict(kind="fattree", pod_size=POD, oversubscription=2.0)

#: Swept fabrics: label → (TopologySpec kwargs, pod-scattered placement).
SCENARIOS = {
    "flat": (dict(kind="flat"), False),
    "fattree-2to1": (FATTREE, False),
    "fattree-2to1-scattered": (FATTREE, True),
    "multirail-2": (dict(kind="multirail", rails=2), False),
    "torus2d": (dict(kind="torus2d"), False),
}


def topology_table(smoke: bool = False) -> Table:
    """Flat spec bit-for-bit; autotuned ≤ constants × 1.02 everywhere;
    ≥ 1.2× on the scattered 2:1 fat tree at ≥ 16 nodes ≥ 1 MB."""
    sizes = [64 * KB, 1 * MB] if smoke else [4 * KB, 64 * KB, 1 * MB, 4 * MB]
    nodes = [16] if smoke else [8, 16, 32]
    t = Table(
        "Topology-derived autotuning vs flat-switch constants",
        ["op", "topology", "nodes", "size", "constants", "autotuned",
         "speedup", "algo"],
    )
    for nbytes in (1 * KB, 1 * MB):
        t_spec, t_default = (
            collective_time("allreduce", ClusterSpec(
                nodes=8, gpus_per_node=0, **topo), nbytes,
                tuning=SEED_TUNING)[0]
            for topo in (dict(topology=TopologySpec(kind="flat")), {})
        )
        t.record(f"flat spec identical to default at {fmt_size(nbytes)}",
                 t_spec == t_default, band=(0.5, None))
    points = [("allreduce", label) for label in SCENARIOS]
    points.append(("bcast", "fattree-2to1-scattered"))
    for op, label in points:
        topo, scattered = SCENARIOS[label]
        for n in nodes:
            spec = ClusterSpec(nodes=n, gpus_per_node=0,
                               topology=TopologySpec(**topo))
            placement = pod_cyclic_placement(n, POD) if scattered else None
            for nbytes in sizes:
                t_const, _, _ = collective_time(
                    op, spec, nbytes, placement, CollectiveTuning())
                t_auto, algo, _ = collective_time(op, spec, nbytes,
                                                  placement)
                win = (op == "allreduce" and scattered and n >= 16
                       and nbytes >= MB)
                _compare(t, f"{op} {label} {n}n {fmt_size(nbytes)}",
                         "constants", "autotuned", t_const, t_auto, algo,
                         (1.2, None) if win else (1 / 1.02, None))
                t.add(op, label, n, fmt_size(nbytes), fmt_time(t_const),
                      fmt_time(t_auto), f"{t_const / t_auto:.2f}×", algo)
    t.note("constants = flat-IB-calibrated CollectiveTuning(); autotuned = "
           "per-cluster derivation from the fabric profile (tuning=None); "
           "the 1.02 headroom absorbs razor-edge crossovers")
    t.note("scattered = Slurm-cyclic placement fragmenting ranks across "
           "pods; the hierarchical allreduce crosses the oversubscribed "
           "uplinks only in its inter-domain phase")
    return t


# ---------------------------------------------------------------------------
# communicator groups and the sub-communicator substrate
# ---------------------------------------------------------------------------

#: Frozen simulated times of the hand-rolled hierarchical allreduce
#: (equal pods, pod-cyclic placement on a 2:1 fat tree) that the
#: sub-communicator rebuild replaced.  The simulation is deterministic,
#: so these are exact.
OLD_HANDROLLED = {
    (8, 4 * KB): 27.681e-6,
    (16, 64 * KB): 166.900e-6,
    (16, 1 * MB): 3052.814e-6,
    (32, 4 * MB): 12929.833e-6,
    (12, 1000): 28.611e-6,
}


def _fattree_allreduce(n_ranks, n_nodes, nbytes, force):
    spec = ClusterSpec(nodes=n_nodes, gpus_per_node=0,
                       topology=TopologySpec(**FATTREE))
    placement = pod_cyclic_placement(n_nodes, POD)[:n_ranks]
    return collective_time(
        "allreduce", spec, nbytes, placement,
        CollectiveTuning(force_allreduce=force),
    )[0]


def _cannon_time(grid, n, variant, subcomms):
    cluster = build_cluster(
        Simulator(), ClusterSpec(nodes=grid * grid, gpus_per_node=0)
    )
    return run_mpi(cluster, CannonConfig(n=n, grid=grid), variant=variant,
                   subcomms=subcomms).elapsed


def subcomm_table(smoke: bool = False) -> Table:
    """Sub-communicator hierarchical ≤ hand-rolled × 1.0005; row/col
    Cannon ≥ 0.9995 × world; Fox's per-row broadcasts ≥ the linear
    fan-out at q = 4; unequal-pod hierarchical ≥ 1.2× the flat ring."""
    t = Table(
        "Communicator groups: sub-communicator schedules vs their "
        "baselines",
        ["series", "point", "baseline", "subcomms", "ratio"],
    )
    for (n, nbytes), t_old in OLD_HANDROLLED.items():
        if smoke and n not in (16, 12):
            continue
        t_new = _fattree_allreduce(n, n, nbytes, "hierarchical")
        point = f"hierarchical {n} ranks {fmt_size(nbytes)}"
        t.record(f"{point} subcomms (us)", t_new * 1e6)
        t.record(f"{point} hand-rolled/subcomms", t_old / t_new,
                 band=(1 / 1.0005, None))
        t.add("hier vs hand-rolled", point, fmt_time(t_old),
              fmt_time(t_new), f"{t_old / t_new:.4f}×")
    scenarios = [("cannon", 4, 512), ("fox", 4, 512)]
    if not smoke:
        scenarios += [("cannon", 3, 384), ("fox", 2, 256)]
    for variant, grid, n in scenarios:
        t_world = _cannon_time(grid, n, variant, subcomms=False)
        t_rowcol = _cannon_time(grid, n, variant, subcomms=True)
        band = ((0.9995, None) if variant == "cannon" else
                (1.0, None) if grid >= 4 else None)
        _compare(t, f"{variant} {grid}x{grid}", "world", "rowcol",
                 t_world, t_rowcol, None, band)
        t.add("row/col comms", f"{variant} {grid}x{grid}",
              fmt_time(t_world), fmt_time(t_rowcol),
              f"{t_world / t_rowcol:.3f}×")
    unequal = [(18, 20)] if smoke else [(18, 20), (14, 16), (10, 12)]
    for n_ranks, n_nodes in unequal:
        for nbytes in [1 * MB] if smoke else [1 * MB, 4 * MB]:
            t_ring = _fattree_allreduce(n_ranks, n_nodes, nbytes, "ring")
            t_hier = _fattree_allreduce(n_ranks, n_nodes, nbytes,
                                        "hierarchical")
            point = f"unequal pods {n_ranks}/{n_nodes} {fmt_size(nbytes)}"
            _compare(t, point, "ring", "hierarchical", t_ring, t_hier,
                     None, (1.2, None))
            t.add("unequal pods", point, fmt_time(t_ring),
                  fmt_time(t_hier), f"{t_ring / t_hier:.3f}×")
    t.note("hier vs hand-rolled: the hand-rolled times are frozen; the "
           "rebuild reproduces their message sequence step for step")
    t.note("unequal pods: ragged pods of 4 on a fragmented 2:1 fat tree, "
           "locality-reordered ring composition vs the flat ring")
    return t
