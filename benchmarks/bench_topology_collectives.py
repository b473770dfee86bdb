"""Benchmark — topology-derived autotuning vs flat-switch-constant tuning.

Sweeps allreduce (plus a broadcast series) over the pluggable fabric
topologies — flat switch, 2:1-oversubscribed fat tree (contiguous and
pod-scattered placements), 2-rail multi-rail, 2-D torus — comparing the
flat-IB-calibrated constant thresholds (``CollectiveTuning()``) against
the per-cluster autotuned tuning (``tuning=None``), and records the
results to ``BENCH_topology.json`` at the repository root.

Acceptance gates (exit non-zero on violation):

* a ``TopologySpec(kind="flat")`` cluster reproduces the default
  cluster's collective timings *exactly* (the refactor is bit-for-bit);
* autotuned simulated time ≤ constant-tuning time × 1.02 at every swept
  point (the 2% headroom absorbs razor-edge crossovers);
* strict win (≥1.2×) for ≥16-node ≥1 MB allreduce on the
  2:1-oversubscribed fat tree with a pod-scattered placement — the
  regime where the hierarchical intra/inter-domain decomposition pays.

The scattered placement models a scheduler that fragmented the job
across pods (Slurm cyclic distribution): consecutive ranks land in
different pods, so every step of the flat ring crosses the
oversubscribed uplinks while the hierarchical schedule crosses only in
its middle phase.

Run standalone:       python benchmarks/bench_topology_collectives.py
Fast smoke (CI):      python benchmarks/bench_topology_collectives.py --smoke
"""

import sys

import common
from common import KB, MB

import numpy as np

from repro.bench.harness import Table, fmt_time
from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.mpi import (
    CollectiveTuning,
    MpiJob,
    ReduceOp,
    SEED_TUNING,
    pod_cyclic_placement,
)
from repro.sim import Simulator

FULL_SIZES = [4 * KB, 64 * KB, 1 * MB, 4 * MB]
FULL_NODES = [8, 16, 32]
SMOKE_SIZES = [64 * KB, 1 * MB]
SMOKE_NODES = [16]

POD = 4
RAILS = 2

#: Swept fabrics: label → (TopologySpec kwargs, placement mode).
SCENARIOS = [
    ("flat", dict(kind="flat"), "contiguous"),
    ("fattree-2to1", dict(kind="fattree", pod_size=POD, oversubscription=2.0),
     "contiguous"),
    ("fattree-2to1-scattered",
     dict(kind="fattree", pod_size=POD, oversubscription=2.0), "scattered"),
    ("multirail-2", dict(kind="multirail", rails=RAILS), "contiguous"),
    ("torus2d", dict(kind="torus2d"), "contiguous"),
]

JSON_PATH = common.json_path("topology")


def _run(op, topo_kwargs, placement_mode, n_nodes, nbytes, tuning):
    """Simulated completion time of one collective, 1 rank per node."""
    sim = Simulator()
    spec = ClusterSpec(
        nodes=n_nodes,
        gpus_per_node=0,
        topology=TopologySpec(**topo_kwargs),
    )
    cluster = build_cluster(sim, spec)
    placement = (
        pod_cyclic_placement(n_nodes, POD)
        if placement_mode == "scattered"
        else list(range(n_nodes))
    )
    job = MpiJob(cluster, placement, tuning=tuning)

    def prog(ctx):
        if op == "allreduce":
            send = np.zeros(nbytes, dtype=np.uint8)
            recv = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)
        elif op == "bcast":
            buf = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.bcast(buf, root=0)
        else:  # pragma: no cover - defensive
            raise ValueError(op)

    job.start(prog)
    job.run()
    common.track(sim)
    algo = next(
        (
            k.split("[")[1].rstrip("]")
            for k in job.comm.stats
            if k.startswith(f"{op}[")
        ),
        "?",
    )
    return sim.now, algo


def check_flat_identical(violations):
    """A flat TopologySpec must be indistinguishable from the default."""
    for nbytes in (1 * KB, 1 * MB):
        t_spec, _ = _run(
            "allreduce", dict(kind="flat"), "contiguous", 8, nbytes,
            SEED_TUNING,
        )
        sim = Simulator()
        cluster = build_cluster(
            sim, ClusterSpec(nodes=8, gpus_per_node=0)
        )
        job = MpiJob(cluster, list(range(8)), tuning=SEED_TUNING)

        def prog(ctx):
            send = np.zeros(nbytes, dtype=np.uint8)
            recv = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.allreduce(send, recv, op=ReduceOp.MAX)

        job.start(prog)
        job.run()
        if t_spec != sim.now:
            violations.append((
                "flat_not_identical",
                f"flat TopologySpec {t_spec:.9e}s != default "
                f"{sim.now:.9e}s at {nbytes} B",
            ))


def sweep(sizes, nodes):
    """Run the sweep; returns (points, violations)."""
    points = []
    violations = []
    check_flat_identical(violations)
    for label, topo_kwargs, placement_mode in SCENARIOS:
        for n in nodes:
            for nbytes in sizes:
                t_const, _ = _run(
                    "allreduce", topo_kwargs, placement_mode, n, nbytes,
                    CollectiveTuning(),
                )
                t_auto, algo = _run(
                    "allreduce", topo_kwargs, placement_mode, n, nbytes,
                    None,
                )
                ratio = t_const / t_auto if t_auto > 0 else 1.0
                points.append({
                    "op": "allreduce",
                    "topology": label,
                    "nodes": n,
                    "nbytes": nbytes,
                    "t_constants_s": t_const,
                    "t_autotuned_s": t_auto,
                    "speedup": ratio,
                    "algorithm": algo,
                })
                if t_auto > t_const * 1.02:
                    violations.append((
                        "slower_than_constants",
                        f"allreduce @ {label} / {n} nodes / {nbytes} B: "
                        f"autotuned {t_auto:.6e}s > constants "
                        f"{t_const:.6e}s",
                    ))
                if (
                    label == "fattree-2to1-scattered"
                    and n >= 16
                    and nbytes >= 1 * MB
                    and ratio < 1.2
                ):
                    violations.append((
                        "no_strict_win",
                        f"allreduce @ {label} / {n} nodes / {nbytes} B: "
                        f"win only {ratio:.2f}× (need >=1.2×)",
                    ))
    # Broadcast series: the hierarchical leader tree on the scattered
    # fat tree (recorded for the crossover table; same ≤ gate).
    for n in nodes:
        for nbytes in sizes:
            t_const, _ = _run(
                "bcast",
                dict(kind="fattree", pod_size=POD, oversubscription=2.0),
                "scattered", n, nbytes, CollectiveTuning(),
            )
            t_auto, algo = _run(
                "bcast",
                dict(kind="fattree", pod_size=POD, oversubscription=2.0),
                "scattered", n, nbytes, None,
            )
            ratio = t_const / t_auto if t_auto > 0 else 1.0
            points.append({
                "op": "bcast",
                "topology": "fattree-2to1-scattered",
                "nodes": n,
                "nbytes": nbytes,
                "t_constants_s": t_const,
                "t_autotuned_s": t_auto,
                "speedup": ratio,
                "algorithm": algo,
            })
            if t_auto > t_const * 1.02:
                violations.append((
                    "slower_than_constants",
                    f"bcast @ fattree-scattered / {n} nodes / {nbytes} B: "
                    f"autotuned {t_auto:.6e}s > constants {t_const:.6e}s",
                ))
    return points, violations


def build_table(points):
    table = Table(
        title="Topology-derived autotuning vs flat-switch constants",
        columns=[
            "op", "topology", "nodes", "size", "constants", "autotuned",
            "speedup", "algo",
        ],
    )
    for p in points:
        size = (
            f"{p['nbytes'] // MB} MB"
            if p["nbytes"] >= MB
            else f"{p['nbytes'] // KB} KB"
        )
        table.add(
            p["op"],
            p["topology"],
            p["nodes"],
            size,
            fmt_time(p["t_constants_s"]),
            fmt_time(p["t_autotuned_s"]),
            f"{p['speedup']:.2f}×",
            p["algorithm"],
        )
    table.note(
        "constants = flat-IB-calibrated CollectiveTuning(); autotuned = "
        "per-cluster derivation from the fabric profile (tuning=None)"
    )
    table.note(
        "scattered = Slurm-cyclic placement fragmenting ranks across "
        "pods; the hierarchical allreduce crosses the oversubscribed "
        "uplinks only in its inter-domain phase"
    )
    return table


def run(smoke=False, json_path=JSON_PATH):
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    nodes = SMOKE_NODES if smoke else FULL_NODES
    points, violations = sweep(sizes, nodes)
    table = build_table(points)
    payload = {
        "benchmark": "bench_topology_collectives",
        "mode": "smoke" if smoke else "full",
        "acceptance": {
            "flat_spec_identical": not any(
                kind == "flat_not_identical" for kind, _ in violations
            ),
            "autotuned_never_slower": not any(
                kind == "slower_than_constants" for kind, _ in violations
            ),
            "fattree_scattered_strict_win": not any(
                kind == "no_strict_win" for kind, _ in violations
            ),
            "violations": [msg for _, msg in violations],
        },
        "points": points,
    }
    common.write_json(json_path, payload)
    return table, points, violations


def main(argv=None):
    parser = common.make_parser(
        __doc__, JSON_PATH,
        smoke_help="fast subset for CI (2 sizes × 1 node count)",
    )
    args = parser.parse_args(argv)
    table, points, violations = run(smoke=args.smoke, json_path=args.json)
    print(table.render())
    return common.finish(
        args.json, len(points), [msg for _, msg in violations],
        "flat spec identical; autotuned <= constants everywhere; "
        ">=1.2x win on scattered 2:1 fat tree >=16-node >=1MB allreduce",
    )


if __name__ == "__main__":
    sys.exit(main())
