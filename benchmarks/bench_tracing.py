"""Benchmark — wall-clock cost of span tracing on the collectives sweep.

Runs the 32-node collectives sweep (allreduce + allgather + barrier at
1 KB / 16 KB / 256 KB) with and without an attached
:class:`~repro.obs.SpanRecorder` on both the exact and the analytic
execution backends, and records the tracing overhead to
``BENCH_tracing.json``.

Tracing is timing-passive (the simulated results are bit-identical —
see ``tests/test_obs.py``), so the only cost is host CPU: span tuples,
attr dicts and the extra branches on the hot paths.  The measurement
protocol is built for noisy shared machines:

* **CPU time** (``time.process_time``), not wall clock — immune to
  other processes stealing the core between runs;
* **ABBA interleaving** — each repetition times untraced, traced,
  traced, untraced, so a multi-second slow phase of the machine hits
  both sides symmetrically instead of landing on whichever side ran
  second;
* **gc disabled inside the timed region** (stdlib ``timeit``
  semantics) — a traced run makes ~20k extra small allocations, and
  CPython's generational heuristic turns those into twice as many
  gen-0 collections, whose cost depends on everything *else* alive in
  the process, not on the tracer.  Collection is forced between runs
  so each side still pays its own allocation cost;
* **ratio of minima** — the best traced run over the best untraced
  run across all repetitions.  Minima are the stable statistic on a
  shared machine: they converge to the unloaded cost as samples grow,
  while means and medians inherit the (large, asymmetric) load noise.

Acceptance gates (exit non-zero on violation):

* traced exact-backend sweep ≤ 10% slower than untraced;
* traced analytic-backend sweep ≤ 10% slower than untraced.

Run standalone:  python benchmarks/bench_tracing.py
Fast smoke (CI): python benchmarks/bench_tracing.py --smoke
"""

import gc
import sys
import time

import common
from common import KB

import numpy as np

from repro.bench.harness import Table
from repro.hw import build_cluster, paper_cluster
from repro.mpi import MpiJob, block_placement
from repro.sim import Simulator

SIZES = [1 * KB, 16 * KB, 256 * KB]
NODES = 32
FULL_REPS = 12
SMOKE_REPS = 8
OVERHEAD_BUDGET = 0.10

JSON_PATH = common.json_path("tracing")


def _sweep(backend, traced):
    """One full collectives sweep; returns the recorder (or None)."""
    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=NODES, gpus_per_node=0)
    )
    rec = sim.attach_spans() if traced else None
    job = MpiJob(cluster, block_placement(NODES, NODES), backend=backend)

    def prog(ctx):
        for nbytes in SIZES:
            buf = np.ones(nbytes // 8)
            out = np.empty_like(buf)
            yield from ctx.allreduce(buf, out)
            block = np.ones(nbytes // 8 // ctx.size)
            recvs = [np.empty_like(block) for _ in range(ctx.size)]
            yield from ctx.allgather(block, recvs)
            yield from ctx.barrier()

    job.start(prog)
    job.run()
    return rec


def _measure(backend, reps, inner=1):
    """Best-vs-best CPU-time overhead of tracing for one backend.

    ``inner`` repeats the sweep inside each timed region — used for
    the analytic backend, whose single-sweep runtime is small enough
    that scheduler jitter would dominate the overhead ratio.
    """
    # Warm both code paths (imports, autotune caches, allocator).
    _sweep(backend, False)
    _sweep(backend, True)
    n_spans = 0

    def timed(traced):
        # Collect before each timed run so neither side starts with
        # the other's garbage pending, then freeze the collector for
        # the timed region (timeit semantics) — tracing's allocation
        # cost still lands inside, only gc *scheduling* is excluded.
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            for _ in range(inner):
                rec = _sweep(backend, traced)
            dt = time.process_time() - t0
        finally:
            gc.enable()
        return dt / inner, rec

    best_untraced = best_traced = float("inf")
    for _ in range(reps):
        for traced in (False, True, True, False):
            dt, rec = timed(traced)
            if traced:
                best_traced = min(best_traced, dt)
                n_spans = len(rec.spans)
            else:
                best_untraced = min(best_untraced, dt)
    return {
        "backend": backend,
        "nodes": NODES,
        "reps": reps,
        "untraced_cpu_s": best_untraced,
        "traced_cpu_s": best_traced,
        "overhead": best_traced / best_untraced - 1.0,
        "n_spans": n_spans,
    }


def run(smoke=False, json_path=JSON_PATH):
    reps = SMOKE_REPS if smoke else FULL_REPS
    table = Table(
        "tracing overhead — 32-node collectives sweep "
        f"(best of {reps} ABBA-interleaved CPU-time reps)",
        ["backend", "untraced", "traced", "overhead", "spans"],
    )
    points = []
    violations = []
    for backend in ("exact", "analytic"):
        pt = _measure(backend, reps, inner=4 if backend == "analytic" else 1)
        points.append(pt)
        table.add(
            backend,
            f"{pt['untraced_cpu_s'] * 1e3:.0f} ms",
            f"{pt['traced_cpu_s'] * 1e3:.0f} ms",
            f"{pt['overhead'] * 100:+.1f}%",
            str(pt["n_spans"]),
        )
        if pt["overhead"] > OVERHEAD_BUDGET:
            violations.append(
                f"{backend}: tracing overhead {pt['overhead'] * 100:.1f}% "
                f"exceeds the {OVERHEAD_BUDGET * 100:.0f}% budget"
            )
    common.write_json(json_path, {
        "benchmark": "tracing",
        "mode": "smoke" if smoke else "full",
        "budget": OVERHEAD_BUDGET,
        "points": points,
        "violations": violations,
    })
    return table, points, violations


def main(argv=None):
    parser = common.make_parser(
        __doc__, JSON_PATH,
        smoke_help="fewer repetitions for CI",
    )
    args = parser.parse_args(argv)
    table, points, violations = run(smoke=args.smoke, json_path=args.json)
    print(table.render())
    return common.finish(
        args.json, len(points), violations,
        "traced collectives sweep within the 10% overhead budget on "
        "both backends",
    )


if __name__ == "__main__":
    sys.exit(main())
