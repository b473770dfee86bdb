"""Traced demo runs behind the ``python -m repro.trace`` CLI.

One function per runnable app, all with the same contract: build a
cluster, attach a :class:`~repro.obs.spans.SpanRecorder`, enable fabric
accounting, run, and hand back a :class:`TraceRun` bundling everything
the CLI's report/export paths need.  The apps deliberately span the
three runtimes the span instrumentation covers:

* ``jacobi`` — the MPI halo-exchange stencil (collectives, p2p,
  schedule rounds);
* ``dcgn``   — the same stencil on the DCGN runtime (comm-thread slot
  servicing, poll ticks, one-sided windows);
* ``serve``  — an open-loop tile service on a fat tree (scheduler job
  phases, request queueing/service spans, pod uplink accounting).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["APPS", "TraceRun", "run_traced"]

#: Runnable app names, CLI order.
APPS = ("jacobi", "dcgn", "serve")


class TraceRun:
    """Everything one traced run produced."""

    def __init__(
        self,
        app: str,
        recorder: Any,
        sim: Any,
        topology: Any,
        wall_s: float,
        info: Dict[str, Any],
    ) -> None:
        self.app = app
        self.recorder = recorder
        self.sim = sim
        self.topology = topology
        self.wall_s = wall_s
        self.info = info


def run_traced(
    app: str,
    nodes: int = 8,
    backend: str = "exact",
    maxlen: Optional[int] = None,
) -> TraceRun:
    """Run ``app`` on ``nodes`` nodes with span tracing attached."""
    if app == "jacobi":
        return _run_jacobi(nodes, backend, maxlen)
    if app == "dcgn":
        return _run_dcgn(nodes, backend, maxlen)
    if app == "serve":
        return _run_serve(nodes, backend, maxlen)
    raise ValueError(f"unknown app {app!r}; pick one of {APPS}")


def _run_jacobi(nodes: int, backend: str, maxlen: Optional[int]) -> TraceRun:
    from ..apps.jacobi import JacobiConfig, run_mpi
    from ..hw import build_cluster, paper_cluster
    from ..obs import SpanRecorder
    from ..sim import Simulator

    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=nodes, gpus_per_node=0)
    )
    rec = sim.attach_spans(SpanRecorder(maxlen=maxlen))
    cluster.topology.accounting = True
    cfg = JacobiConfig(p=max(2, nodes), iters=4, cols=256)
    result = run_mpi(
        cluster, cfg, backend="nonblocking", exec_backend=backend
    )
    return TraceRun(
        "jacobi", rec, sim, cluster.topology, sim.now,
        {
            "ranks": cfg.p,
            "iters": cfg.iters,
            "elapsed_s": result.elapsed,
            "backend": backend,
        },
    )


def _run_dcgn(nodes: int, backend: str, maxlen: Optional[int]) -> TraceRun:
    from ..apps.jacobi import JacobiConfig, run_dcgn
    from ..hw import build_cluster, paper_cluster
    from ..obs import SpanRecorder
    from ..sim import Simulator

    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=nodes, gpus_per_node=2)
    )
    rec = sim.attach_spans(SpanRecorder(maxlen=maxlen))
    cluster.topology.accounting = True
    cfg = JacobiConfig(p=2 * nodes, iters=3, cols=128)
    result = run_dcgn(cluster, cfg, backend=backend)
    # The runtime watchdog horizon leaves hours of teardown poll ticks
    # past the app's end; trim the trace to the last real activity.
    app_end = max(
        (s.t1 for s in rec.spans
         if s.category != "dcgn.poll" and s.t1 is not None),
        default=sim.now,
    )
    rec.trim(app_end)
    return TraceRun(
        "dcgn", rec, sim, cluster.topology, rec.wall(),
        {
            "ranks": cfg.p,
            "iters": cfg.iters,
            "elapsed_s": result.elapsed,
            "backend": backend,
        },
    )


def _run_serve(nodes: int, backend: str, maxlen: Optional[int]) -> TraceRun:
    from ..apps.mandelbrot import MandelbrotConfig
    from ..apps.tile_service import TileService, TileServiceConfig
    from ..hw import ClusterSpec, TopologySpec, build_cluster
    from ..obs import SpanRecorder
    from ..serve import (
        ClusterScheduler, OpenLoopDriver, open_loop_arrivals,
    )
    from ..sim import Simulator

    pod = max(2, nodes // 4)
    sim = Simulator()
    cluster = build_cluster(
        sim,
        ClusterSpec(
            nodes=nodes,
            gpus_per_node=0,
            topology=TopologySpec(
                kind="fattree", pod_size=pod, oversubscription=4.0
            ),
        ),
    )
    rec = sim.attach_spans(SpanRecorder(maxlen=maxlen))
    cluster.topology.accounting = True
    sched = ClusterScheduler(cluster, policy="packed", backend=backend)
    svc = TileService(
        sim,
        TileServiceConfig(
            tile=MandelbrotConfig(
                width=128, height=128, strip_height=16, max_iter=64
            )
        ),
        name="svc",
    )
    sched.submit(svc.job_spec(n_nodes=pod))
    n_requests = 16
    OpenLoopDriver(
        sim, svc,
        open_loop_arrivals(200.0, n_requests, seed=1, start=0.01),
        name="drv",
    ).start()
    sim.run()
    done = sum(
        1 for r in svc.log.requests if r.done_t is not None
    )
    sched.release()
    return TraceRun(
        "serve", rec, sim, cluster.topology, sim.now,
        {
            "nodes": nodes,
            "pod_size": pod,
            "n_requests": n_requests,
            "n_completed": done,
            "backend": backend,
        },
    )
