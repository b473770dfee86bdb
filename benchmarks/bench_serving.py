"""Benchmark SERVE — tail latency and goodput vs offered load under
placement policies on an oversubscribed fat tree.

The serving stack (PR 9) carves per-job node sets out of one shared
256-node cluster: 16 Mandelbrot tile services, 16 nodes each, every
request a bcast + allgather fan-out/fan-in on the job's own
sub-communicator.  Each service is a serial server, so its saturation
throughput is ``1/S`` where ``S`` is the per-request service time — and
``S`` is set by *placement*: a packed job lives inside one fat-tree pod
(zero oversubscribed-uplink crossings per collective round), a random
one scatters across ~12 pods and pays the tapered uplinks on nearly
every ring hop.  Offered load is swept through the packed knee
(open-loop Poisson arrivals, same seeds for every policy), where
queueing theory amplifies the ~1.6x service-time gap into a large tail
gap: at overload factor ``u`` the backlog grows ~``(u*c - 1)`` for the
scattered placement vs ~``(u - 1)`` packed (``c`` = service ratio).

Gates (CI):

* at the highest swept load, locality-aware (packed) placement beats
  random placement by >= 1.3x on pooled p99 latency;
* packed goodput is never worse than random at any swept load (same
  arrival instants, faster service => every request completes no
  later);
* every rendered strip is verified against the escape-time reference
  (the analytic backend is bit-exact).

Sweep scale: 256 simulated ranks (one per node) in full mode, 64 in
``--smoke``.

Run:  PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
"""

import sys
import time

import common
from common import percentiles

from repro.apps.mandelbrot import MandelbrotConfig
from repro.apps.tile_service import TileService, TileServiceConfig
from repro.hw import ClusterSpec, TopologySpec, build_cluster
from repro.serve import ClusterScheduler, OpenLoopDriver, open_loop_arrivals
from repro.sim import Simulator

JSON_PATH = common.json_path("serving")

#: Offered load factors relative to packed saturation (1/S_packed):
#: below the knee, at it, and past it.
LOAD_FACTORS = (0.5, 0.9, 1.15)
POLICIES = ("packed", "spread", "random")

#: p99 advantage packed must hold over random at the highest load.
MIN_P99_WIN = 1.3

GATE_LOAD = LOAD_FACTORS[-1]


def _cluster_shape(smoke):
    if smoke:
        return dict(nodes=64, pod_size=8, n_services=8, job_nodes=8,
                    n_requests=32)
    return dict(nodes=256, pod_size=16, n_services=16, job_nodes=16,
                n_requests=96)


def _tile_cfg():
    return TileServiceConfig(
        tile=MandelbrotConfig(
            width=512, height=512, strip_height=32, max_iter=128
        )
    )


def _build(shape, policy, seed=7):
    sim = Simulator()
    spec = ClusterSpec(
        nodes=shape["nodes"],
        gpus_per_node=0,
        topology=TopologySpec(
            kind="fattree",
            pod_size=shape["pod_size"],
            oversubscription=4.0,
        ),
    )
    cluster = build_cluster(sim, spec)
    sched = ClusterScheduler(
        cluster, policy=policy, backend="analytic", seed=seed
    )
    return sim, sched


def calibrate(shape, policy):
    """Mean per-request service time of one lightly loaded service."""
    sim, sched = _build(shape, policy)
    svc = TileService(sim, _tile_cfg(), name="cal")
    sched.submit(svc.job_spec(n_nodes=shape["job_nodes"]))
    driver = OpenLoopDriver(
        sim, svc, open_loop_arrivals(50.0, 16, seed=1, start=0.01),
        name="cal",
    )
    driver.start()
    sim.run()
    common.track(sim)
    done = [r.service_time for r in svc.log.requests if r.done_t is not None]
    return sum(done) / len(done)


def _uplink_stats(sched, span):
    """Per-pod uplink demand under analytic accounting.

    ``busy_frac`` is booked *uncontended* demand over the observed
    span — it can exceed 1.0 on an oversubscribed uplink, which is
    precisely the congestion the p99 gap comes from.
    """
    from repro.obs import link_report

    rows = link_report(
        sched.cluster.topology, wall_s=span, include_idle=True
    )
    ups = [
        r for r in rows
        if r["name"].endswith(".up") or r["name"].endswith(".down")
    ]
    fracs = [r["busy_frac"] for r in ups]
    return {
        "uplink_bytes": sum(r["bytes"] for r in ups),
        "uplink_busy_frac_mean": (
            sum(fracs) / len(fracs) if fracs else 0.0
        ),
        "uplink_busy_frac_max": max(fracs, default=0.0),
        "n_uplinks_active": sum(1 for r in ups if r["bytes"] > 0),
    }


def run_point(shape, policy, load, rate_hz, verify):
    """One (policy, load) cell: fresh sim, all services, pooled stats."""
    sim, sched = _build(shape, policy)
    # Book analytic wire legs onto the routed channels so the link
    # report can attribute the placement gap to pod-uplink demand.
    sched.cluster.topology.accounting = True
    services = []
    for i in range(shape["n_services"]):
        svc = TileService(sim, _tile_cfg(), name=f"svc{i}")
        sched.submit(svc.job_spec(n_nodes=shape["job_nodes"]))
        # Same per-service arrival seeds for every policy: the gate
        # compares identical offered workloads.
        arrivals = open_loop_arrivals(
            rate_hz, shape["n_requests"], seed=100 + i, start=0.01
        )
        OpenLoopDriver(sim, svc, arrivals, name=f"drv{i}").start()
        services.append(svc)
    wall0 = time.time()
    sim.run()
    wall = time.time() - wall0
    common.track(sim)
    lats = []
    offered = completed = 0
    first_arrival = min(
        r.arrival_t for svc in services for r in svc.log.requests
    )
    last_done = max(
        r.done_t
        for svc in services
        for r in svc.log.requests
        if r.done_t is not None
    )
    for svc in services:
        if verify:
            svc.verify()
        offered += len(svc.log.requests)
        done = [r for r in svc.log.requests if r.done_t is not None]
        completed += len(done)
        lats.extend(r.latency for r in done)
    span = last_done - first_arrival
    uplinks = _uplink_stats(sched, span)
    sched.release()
    p = percentiles(lats)
    return {
        **uplinks,
        "policy": policy,
        "load_factor": load,
        "rate_hz_per_service": rate_hz,
        "n_services": shape["n_services"],
        "n_offered": offered,
        "n_completed": completed,
        "p50_s": p["p50"],
        "p95_s": p["p95"],
        "p99_s": p["p99"],
        "goodput_rps": completed / span,
        "span_s": span,
        "wall_s": wall,
    }


def main() -> int:
    parser = common.make_parser(
        __doc__, JSON_PATH,
        smoke_help="64-node / 8-service sweep for CI",
    )
    parser.add_argument(
        "--no-verify", dest="verify", action="store_false",
        help="skip per-strip data verification (timing only)",
    )
    args = parser.parse_args()
    shape = _cluster_shape(args.smoke)
    records = []
    violations = []

    s_packed = calibrate(shape, "packed")
    s_random = calibrate(shape, "random")
    print(
        f"calibration ({shape['nodes']} nodes, "
        f"{shape['job_nodes']}-node jobs): packed service "
        f"{s_packed * 1e6:.1f}us, random {s_random * 1e6:.1f}us "
        f"({s_random / s_packed:.2f}x)"
    )

    by_cell = {}
    for load in LOAD_FACTORS:
        rate_hz = load / s_packed
        for policy in POLICIES:
            rec = run_point(shape, policy, load, rate_hz, args.verify)
            records.append(rec)
            by_cell[(policy, load)] = rec
            print(
                f"  u={load:<5} {policy:<7} p50={rec['p50_s'] * 1e6:8.1f}us "
                f"p99={rec['p99_s'] * 1e6:9.1f}us "
                f"goodput={rec['goodput_rps']:9.0f} req/s "
                f"(wall {rec['wall_s']:.1f}s)"
            )

    # Gate 1: packed beats random on p99 at the highest load.
    hi_pack = by_cell[("packed", GATE_LOAD)]
    hi_rand = by_cell[("random", GATE_LOAD)]
    win = hi_rand["p99_s"] / hi_pack["p99_s"]
    print(
        f"\np99 @ u={GATE_LOAD}: random/packed = {win:.2f}x "
        f"(gate >= {MIN_P99_WIN}x)"
    )
    # Attribution: the gap comes from pod-uplink demand — packed jobs
    # stay inside their pod, scattered ones cross the tapered uplinks.
    for policy in POLICIES:
        rec = by_cell[(policy, GATE_LOAD)]
        print(
            f"  uplink demand {policy:<7} "
            f"mean {rec['uplink_busy_frac_mean']:6.3f}x  "
            f"max {rec['uplink_busy_frac_max']:6.3f}x  "
            f"({rec['uplink_bytes']:,} B over "
            f"{rec['n_uplinks_active']} active uplinks)"
        )
    if win < MIN_P99_WIN:
        violations.append(
            f"locality p99 win {win:.2f}x < {MIN_P99_WIN}x at load "
            f"{GATE_LOAD}"
        )
    # Gate 2: packed goodput never worse than random, any load.
    for load in LOAD_FACTORS:
        gp = by_cell[("packed", load)]["goodput_rps"]
        gr = by_cell[("random", load)]["goodput_rps"]
        if gp < gr * (1.0 - 1e-9):
            violations.append(
                f"packed goodput {gp:.0f} < random {gr:.0f} req/s at "
                f"load {load}"
            )

    common.write_json(args.json, {
        "benchmark": "bench_serving",
        "mode": "smoke" if args.smoke else "full",
        "cluster": {
            "nodes": shape["nodes"],
            "pod_size": shape["pod_size"],
            "oversubscription": 4.0,
            "backend": "analytic",
        },
        "calibration": {
            "service_s_packed": s_packed,
            "service_s_random": s_random,
        },
        "records": records,
        "violations": violations,
    })
    return common.finish(
        args.json, len(records), violations,
        f"locality-aware placement >= {MIN_P99_WIN}x better p99 than "
        f"random at load {GATE_LOAD} on the oversubscribed fat tree; "
        "packed goodput never worse at any swept load; all strips "
        "bit-exact vs the escape-time reference",
    )


if __name__ == "__main__":
    sys.exit(main())
