"""Gated application workloads: overlap, one-sided RMA, serving.

* :func:`overlap_table` — DCGN's nonblocking slot requests
  (``isend``/``irecv``/``ibroadcast``) against the blocking paths on
  the Cannon halo rotation (double-buffered under the block product)
  and on N-body's per-step broadcasts (pipelined by the comm thread).
* :func:`rma_table` — the Jacobi halo exchange (``apps/jacobi.py``) on
  blocking and nonblocking two-sided against RMA fence and PSCW, the
  strided-halo put coalescing, and one DCGN GPU-kernel-driven point.
* :func:`serving_table` — tail latency and goodput of 16 Mandelbrot
  tile services on one oversubscribed fat tree, vs offered load, under
  packed, spread and random placement.

Every run verifies its numerics (serving checks each rendered strip
against the escape-time reference and raises on a mismatch).
"""

from __future__ import annotations

import time

from ..apps.cannon import CannonConfig, run_dcgn as cannon_dcgn
from ..apps.jacobi import JacobiConfig, run_dcgn, run_mpi
from ..apps.mandelbrot import MandelbrotConfig
from ..apps.nbody import NBodyConfig, run_dcgn as nbody_dcgn
from ..apps.tile_service import TileService, TileServiceConfig
from ..hw import ClusterSpec, TopologySpec, build_cluster, paper_cluster
from ..hw.params import KB, MB
from ..serve import ClusterScheduler, OpenLoopDriver, open_loop_arrivals
from ..serve.workload import percentile
from ..sim import Simulator
from .harness import Table, fmt_size, fmt_time
from .sweeps import NEVER_SLOWER

__all__ = ["overlap_table", "rma_table", "serving_table"]


# ---------------------------------------------------------------------------
# compute/communication overlap via nonblocking slot requests
# ---------------------------------------------------------------------------

#: (app, label, nodes, config factory).  Cannon grids give each node a
#: ~1 MB block whose rotation time is comparable to the block product,
#: the regime overlap is designed for.
OVERLAP_POINTS = [
    ("cannon", "cannon-3x3", 9, lambda: CannonConfig(n=1536, grid=3)),
    ("cannon", "cannon-4x4", 16, lambda: CannonConfig(n=2048, grid=4)),
    ("nbody", "nbody-4k", 8, lambda: NBodyConfig(n_bodies=4096, steps=3)),
    ("nbody", "nbody-8k", 8,
     lambda: NBodyConfig(n_bodies=8192, steps=3, verify=False)),
]


def overlap_table(smoke: bool = False) -> Table:
    """Overlap never slower; overlapped Cannon ≥ 1.3× on ≥ 8 nodes."""
    t = Table(
        "Nonblocking slot requests: overlapped vs blocking exchange",
        ["app", "workload", "nodes", "blocking", "overlapped", "speedup"],
    )
    points = OVERLAP_POINTS[::2] if smoke else OVERLAP_POINTS
    for app, label, nodes, make_cfg in points:
        runner = cannon_dcgn if app == "cannon" else nbody_dcgn
        t_block, t_over = (
            runner(build_cluster(Simulator(), paper_cluster(
                nodes=nodes, gpus_per_node=1)), make_cfg(),
                overlap=overlap).elapsed
            for overlap in (False, True)
        )
        point = f"{label} {nodes}n"
        t.record(f"{point} blocking (us)", t_block * 1e6)
        t.record(f"{point} overlapped (us)", t_over * 1e6)
        t.record(f"{point} blocking/overlapped", t_block / t_over,
                 band=(1.3, None) if app == "cannon" and nodes >= 8
                 else NEVER_SLOWER)
        t.add(app, label, nodes, fmt_time(t_block), fmt_time(t_over),
              f"{t_block / t_over:.2f}×")
    t.note("cannon: per-step A/B halo rotation double-buffered through "
           "isend/irecv slot requests, hidden under the block product")
    t.note("nbody: the P per-step broadcasts issued via ibroadcast and "
           "pipelined by the comm thread")
    return t


# ---------------------------------------------------------------------------
# one-sided RMA vs two-sided halo exchange (Jacobi)
# ---------------------------------------------------------------------------

JACOBI_ITERS = 3


def _jacobi_time(n_nodes, halo_bytes, backend):
    cfg = JacobiConfig(
        p=n_nodes, rows_per_rank=4, cols=halo_bytes // 8,
        iters=JACOBI_ITERS,
        # Numerics are covered by the small points and the test suite;
        # skip the large-grid NumPy verification to keep the sweep fast.
        verify=(halo_bytes <= 64 * KB),
    )
    cluster = build_cluster(
        Simulator(), ClusterSpec(nodes=n_nodes, gpus_per_node=0)
    )
    return run_mpi(cluster, cfg, backend=backend,
                   placement=list(range(n_nodes))).elapsed


def rma_table(smoke: bool = False) -> Table:
    """RMA fence ≥ 1.2× blocking at ≥ 16 nodes / ≥ 1 MB halos; best
    RMA sync mode ≥ 0.999× blocking everywhere; coalesced strided-halo
    puts ≥ 1.2× per-chunk puts at tiny halos."""
    t = Table(
        "Jacobi halo exchange: two-sided vs RMA fence / PSCW, and "
        "strided-halo put coalescing",
        ["nodes", "halo", "blocking", "nonblock", "fence", "pscw",
         "fence win", "best-RMA win"],
    )
    nodes = [4, 16] if smoke else [4, 8, 16, 32]
    halos = ([4 * KB, 64 * KB, 1 * MB] if smoke else
             [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB])
    for n in nodes:
        for hb in halos:
            times = {b: _jacobi_time(n, hb, b) for b in
                     ("blocking", "nonblocking", "rma_fence", "rma_pscw")}
            point = f"{n}n {fmt_size(hb)}"
            for backend, elapsed in times.items():
                t.record(f"{point} {backend} (us)", elapsed * 1e6)
            t_blk = times["blocking"]
            fence_win = t_blk / times["rma_fence"]
            best_win = t_blk / min(times["rma_fence"], times["rma_pscw"])
            t.record(f"{point} blocking/fence", fence_win,
                     band=(1.2, None) if n >= 16 and hb >= MB else None)
            t.record(f"{point} blocking/best RMA", best_win,
                     band=(0.999, None))
            t.add(n, fmt_size(hb), *[fmt_time(x) for x in times.values()],
                  f"{fence_win:.2f}×", f"{best_win:.2f}×")
    nodes = [8] if smoke else [4, 8, 16]
    for n in nodes:
        for hb in [4 * KB] if smoke else [1 * KB, 4 * KB, 16 * KB]:
            t_chunk = _jacobi_time(n, hb, "rma_fence_chunked")
            t_coal = _jacobi_time(n, hb, "rma_fence_coalesced")
            point = f"strided {n}n {fmt_size(hb)}"
            t.record(f"{point} chunked (us)", t_chunk * 1e6)
            t.record(f"{point} coalesced (us)", t_coal * 1e6)
            t.record(f"{point} chunked/coalesced", t_chunk / t_coal,
                     band=(1.2, None))
            t.note(f"{point}: chunked {fmt_time(t_chunk)}, coalesced "
                   f"{fmt_time(t_coal)} ({t_chunk / t_coal:.2f}×)")
    cfg = JacobiConfig(p=4, rows_per_rank=4, cols=2048, iters=JACOBI_ITERS)
    res = run_dcgn(
        build_cluster(Simulator(), paper_cluster(nodes=4, gpus_per_node=1)),
        cfg,
    )
    t.record("DCGN GPU-kernel 4n 16 kB (us)", res.elapsed * 1e6)
    t.note("strided: each boundary row as 8 column-block puts, per chunk "
           "vs coalesced onto one wire transfer per neighbor per epoch")
    t.note(f"DCGN GPU-kernel RMA Jacobi (4 slots, 16 kB halos): "
           f"{fmt_time(res.elapsed)} (verified)")
    return t


# ---------------------------------------------------------------------------
# serving: tail latency and goodput vs offered load under placement
# ---------------------------------------------------------------------------

#: Offered load factors relative to packed saturation (1/S_packed):
#: below the knee, at it, and past it.  The gates read the last one.
LOAD_FACTORS = (0.5, 0.9, 1.15)
POLICIES = ("packed", "spread", "random")
MIN_P99_WIN = 1.3


def _serving_cluster(shape, policy):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(
        nodes=shape["nodes"], gpus_per_node=0,
        topology=TopologySpec(kind="fattree", pod_size=shape["pod_size"],
                              oversubscription=4.0),
    ))
    return sim, ClusterScheduler(cluster, policy=policy,
                                 backend="analytic", seed=7)


def _tile_service(sim, name):
    return TileService(sim, TileServiceConfig(tile=MandelbrotConfig(
        width=512, height=512, strip_height=32, max_iter=128)), name=name)


def _service_time(shape, policy):
    """Mean per-request service time of one lightly loaded service."""
    sim, sched = _serving_cluster(shape, policy)
    svc = _tile_service(sim, "cal")
    sched.submit(svc.job_spec(n_nodes=shape["job_nodes"]))
    OpenLoopDriver(
        sim, svc, open_loop_arrivals(50.0, 16, seed=1, start=0.01),
        name="cal",
    ).start()
    sim.run()
    done = [r.service_time for r in svc.log.requests if r.done_t is not None]
    return sum(done) / len(done)


def _serve(shape, policy, rate_hz):
    """One (policy, load) cell: every service on a fresh cluster, with
    the same per-service arrival seeds for every policy.  Returns the
    pooled latencies, offered and completed counts, the span from first
    arrival to last completion, the pod-uplink rows of the link report
    and the host wall of the run."""
    from ..obs import link_report

    sim, sched = _serving_cluster(shape, policy)
    # Book analytic wire legs onto the routed channels so the link
    # report can attribute the placement gap to pod-uplink demand.
    sched.cluster.topology.accounting = True
    services = []
    for i in range(shape["n_services"]):
        svc = _tile_service(sim, f"svc{i}")
        sched.submit(svc.job_spec(n_nodes=shape["job_nodes"]))
        arrivals = open_loop_arrivals(
            rate_hz, shape["n_requests"], seed=100 + i, start=0.01
        )
        OpenLoopDriver(sim, svc, arrivals, name=f"drv{i}").start()
        services.append(svc)
    wall0 = time.time()
    sim.run()
    wall = time.time() - wall0
    requests = [r for svc in services for r in svc.log.requests]
    done = [r for r in requests if r.done_t is not None]
    for svc in services:
        svc.verify()
    span = (max(r.done_t for r in done)
            - min(r.arrival_t for r in requests))
    ups = [row for row in link_report(sched.cluster.topology, wall_s=span,
                                      include_idle=True)
           if row["name"].endswith((".up", ".down"))]
    sched.release()
    return [r.latency for r in done], len(requests), len(done), span, ups, wall


def serving_table(smoke: bool = False) -> Table:
    """Packed ≥ 1.3× better p99 than random at the highest load; packed
    goodput never below random at any load."""
    shape = (dict(nodes=64, pod_size=8, n_services=8, job_nodes=8,
                  n_requests=32) if smoke else
             dict(nodes=256, pod_size=16, n_services=16, job_nodes=16,
                  n_requests=96))
    t = Table(
        f"Serving on a {shape['nodes']}-node 4:1 fat tree "
        f"({shape['n_services']} tile services of {shape['job_nodes']} "
        "nodes, analytic backend)",
        ["load", "policy", "p50", "p99", "goodput", "uplink max busy"],
    )
    service = {p: _service_time(shape, p) for p in ("packed", "random")}
    for policy, s in service.items():
        t.record(f"{policy} service time (us)", s * 1e6)
    t.note(f"calibration: packed service {fmt_time(service['packed'])}, "
           f"random {fmt_time(service['random'])} "
           f"({service['random'] / service['packed']:.2f}x)")
    p99, goodput = {}, {}
    for load in LOAD_FACTORS:
        rate_hz = load / service["packed"]
        t.record(f"u={load} rate per service (req/s)", rate_hz)
        for policy in POLICIES:
            lats, offered, completed, span, ups, wall = _serve(
                shape, policy, rate_hz)
            cell = f"u={load} {policy}"
            for q in (50, 95, 99):
                t.record(f"{cell} p{q} (us)", percentile(lats, q) * 1e6)
            t.record(f"{cell} offered", offered)
            t.record(f"{cell} completed", completed)
            t.record(f"{cell} goodput (req/s)", completed / span)
            t.record(f"{cell} span (us)", span * 1e6)
            fracs = [row["busy_frac"] for row in ups]
            t.record(f"{cell} uplink bytes", sum(r["bytes"] for r in ups))
            t.record(f"{cell} uplink busy frac mean",
                     sum(fracs) / len(fracs) if fracs else 0.0)
            t.record(f"{cell} uplink busy frac max", max(fracs, default=0.0))
            t.record(f"{cell} uplinks active",
                     sum(1 for r in ups if r["bytes"] > 0))
            t.record(f"{cell} wall (s)", wall, host=True)
            p99[policy, load] = percentile(lats, 99)
            goodput[policy, load] = completed / span
            t.add(load, policy, fmt_time(percentile(lats, 50)),
                  fmt_time(p99[policy, load]),
                  f"{completed / span:.0f} req/s",
                  f"{max(fracs, default=0.0):.3f}×")
        t.record(f"u={load} goodput packed/random",
                 goodput["packed", load] / goodput["random", load],
                 band=NEVER_SLOWER)
    hi = LOAD_FACTORS[-1]
    t.record(f"u={hi} p99 random/packed",
             p99["random", hi] / p99["packed", hi], band=(MIN_P99_WIN, None))
    t.note("uplink busy = booked uncontended demand over the span; above "
           "1.0 an uplink is oversubscribed (the analytic fabric does not "
           "charge that contention)")
    return t
