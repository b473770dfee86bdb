"""Artifacts with host-time gates: fast-path backends at scale, tracing.

* :func:`scale_table` — the analytic fast path
  (:mod:`repro.mpi.algorithms.fastpath`; ``backend="analytic"`` moves
  data bit-exactly, ``backend="pricing"`` prices only) against the
  exact simulator:

  1. agreement at small P (5/8/16 ranks): the same algorithm, times
     within :data:`AGREE_TOL`, pricing bit-identical to analytic;
  2. the 32-node collectives sweep end to end on exact and on pricing:
     the aggregate wall speedup;
  3. 256- and 1024-rank sweeps on pricing: at least one op crosses
     algorithms at every swept P;
  4. the Jacobi halo exchange: small-P agreement of the RMA fence/PSCW
     epochs, then 256/1024 ranks (analytic ≥ 10× exact wall on the
     256-rank fence run; the DCGN run, whose wall is the simulated
     comm-thread machinery kept exact by design, never slower);
  5. every exact wall against the baseline the committed
     ``BENCH_scale.json`` carries (> 10 % after a spin calibration
     fails), and the structured-array event heap against the seed
     per-event heap (≥ 1.5×).  Every run carries that baseline forward
     as ``baseline ...`` host records; only a run that finds none
     seeds it from its own walls.
* :func:`tracing_table` — the CPU-time cost of span tracing on a
  32-node collectives sweep, on the exact and analytic backends (≤ 10 %).

Simulated times are records; walls, CPU times and their ratios are
``host`` records.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np

from ..hw import ClusterSpec, build_cluster, paper_cluster
from ..hw.params import KB, MB
from ..mpi import MpiJob
from ..sim import Simulator
from .harness import REPO_ROOT, Table, fmt_size, fmt_time
from .sweeps import collective_time

__all__ = ["scale_table", "tracing_table"]

#: Analytic vs exact simulated-time tolerance.  Power-of-two grids
#: agree to float precision; non-power-of-two folds can skew ranks so
#: a late-posted receive drains an already-arrived eager message and
#: pays one extra software-overhead quantum in the exact simulator —
#: a fixed ~0.75 µs the skew-free analytic model cannot see (6.5%
#: relative at 1 KB / P=5, 0.3% by 64 KB).  The Jacobi epochs share it.
AGREE_TOL = 0.08

#: The 32-node sweep's aggregate exact/pricing wall floor.  The full
#: floor was re-based from 10× when the columnar event heap made the
#: exact denominator ~2.2× faster (the heap's own win is gated below).
MIN_SPEEDUP = {False: 7.0, True: 3.0}

#: P → op → sizes (block sizes for allgather/alltoall).  At 1024 ranks
#: the O(P²)-schedule regimes are capped (see :data:`SCALE_CAPS`).
SCALE_GRID = {
    False: {
        256: {
            "allreduce": [1 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB],
            "allgather": [256, 1 * KB, 4 * KB, 16 * KB, 64 * KB],
            "alltoall": [64, 256, 1 * KB, 4 * KB],
        },
        1024: {
            "allreduce": [1 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB],
            "allgather": [256, 1 * KB, 4 * KB],
            "alltoall": [64, 256],
        },
    },
    True: {256: {"allreduce": [64 * KB, 256 * KB],
                 "alltoall": [256, 1 * KB]}},
}
SCALE_CAPS = [
    "1024-rank alltoall capped at 256 B blocks (pairwise schedules "
    "are O(P^2) steps)",
    "1024-rank allgather capped at 4 KB blocks (ring schedules are "
    "O(P^2) steps)",
    "1024-rank Jacobi recorded analytic/pricing only (the exact "
    "dissemination fence alone is ~20k wire processes per epoch)",
]

JACOBI_COLS = 256           # 2 KB halo rows: eager puts, app numpy
                            # work stays off the critical wall-clock
JACOBI_ITERS_BASE = 20      # smoke + regression-baseline point
JACOBI_ITERS_GATE = 100     # full-mode >=10x point
MIN_JACOBI_SPEEDUP = {False: 10.0, True: 2.5}
#: DCGN at 256 vranks (128 nodes x 2 GPUs) and 1024 (256 x 4).
DCGN_SHAPE, DCGN_ITERS = (128, 2), 5
DCGN_1K_SHAPE, DCGN_1K_ITERS = (256, 4), 2

REG_TOL = 0.10              # >10% calibrated exact-wall regression fails
REG_FLOOR_S = 0.15          # absolute slack absorbing scheduler noise
#: Full 32-node sweep wall of the seed per-event heap, on the machine
#: whose spin calibration the committed baseline anchors; the
#: ``heap speedup`` numerator, rescaled by calibration.
PRE_HEAP_WALL_S = 3.285
MIN_HEAP_SPEEDUP = 1.5
CALIBRATION = "calibration spin (s)"


def _calibrate() -> float:
    """Machine-speed anchor: a fixed interpreter + numpy spin (min of
    five runs), so committed wall-clocks transfer across machines."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(500_000):
            x += i & 7
        a = np.arange(1 << 17, dtype=np.float64)
        for _ in range(10):
            a = a * 1.0000001 + 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def _committed_baseline():
    """``{row: value}`` of the ``baseline ...`` host records of the
    committed ``BENCH_scale.json``: the calibration and exact walls the
    regression compares against (empty when there are none)."""
    try:
        with open(os.path.join(REPO_ROOT, "BENCH_scale.json"),
                  encoding="utf-8") as fh:
            host = json.load(fh).get("host", [])
    except (OSError, ValueError):
        return {}
    return {r["row"][len("baseline "):]: r["measured"] for r in host
            if r["artifact"] == "scale" and r["row"].startswith("baseline ")}


def _jacobi(p, halo, backend, iters, verify=False, dcgn_shape=None):
    """``(host wall, simulated time, checksum)`` of one MPI Jacobi run,
    or a GPU-kernel-driven DCGN one on ``dcgn_shape`` (nodes, GPUs);
    the wall excludes the cluster build."""
    from ..apps.jacobi import JacobiConfig, run_dcgn, run_mpi

    nodes, gpus = dcgn_shape or (p, 0)
    cluster = build_cluster(
        Simulator(), ClusterSpec(nodes=nodes, gpus_per_node=gpus)
    )
    cfg = JacobiConfig(p=p, rows_per_rank=4, cols=JACOBI_COLS, iters=iters,
                       verify=verify)
    t0 = time.perf_counter()
    if dcgn_shape:
        res = run_dcgn(cluster, cfg, backend=backend)
    else:
        res = run_mpi(cluster, cfg, backend=halo, exec_backend=backend)
    return time.perf_counter() - t0, res.elapsed, res.extras.get("checksum")


def _best_exact(*args, **kwargs):
    """An exact run twice, keeping the faster wall: the simulated result
    is deterministic, and one scheduler hiccup on a busy runner would
    otherwise poison a 10% gate."""
    w1, t1, c1 = _jacobi(*args, **kwargs)
    return min(w1, _jacobi(*args, **kwargs)[0]), t1, c1


def _scale_collectives(t, smoke, exact_walls):
    """Series 1–3: small-P agreement, the 32-node wall speedup, and the
    256/1024-rank crossovers."""
    for op in ("allreduce", "allgather", "alltoall"):
        for P in [5, 8] if smoke else [5, 8, 16]:
            spec = ClusterSpec(nodes=P, gpus_per_node=0)
            for nbytes in [1 * KB, 64 * KB] + ([] if smoke else [1 * MB]):
                t_ex, a_ex, _ = collective_time(op, spec, nbytes)
                t_an, a_an, _ = collective_time(op, spec, nbytes,
                                                backend="analytic")
                t_pr, a_pr, _ = collective_time(op, spec, nbytes,
                                                backend="pricing")
                point = f"agree {op} P={P} {fmt_size(nbytes)}"
                t.record(f"{point} exact={a_ex} (us)", t_ex * 1e6)
                t.record(f"{point} analytic (us)", t_an * 1e6)
                t.record(f"{point} analytic rel err", abs(t_an - t_ex) / t_ex,
                         band=(None, AGREE_TOL))
                t.record(f"{point} algorithms agree", a_an == a_ex == a_pr,
                         band=(0.5, None))
                t.record(f"{point} pricing identical to analytic",
                         t_pr == t_an, band=(0.5, None))
    tot_exact = tot_fast = 0.0
    spec = ClusterSpec(nodes=32, gpus_per_node=0)
    for op in ("allreduce", "allgather", "alltoall"):
        for nbytes in [1 * KB, 64 * KB] + ([] if smoke else [1 * MB]):
            if op == "alltoall" and nbytes > 64 * KB:
                continue
            t_ex, _, w_ex = collective_time(op, spec, nbytes)
            t_fp, _, w_fp = collective_time(op, spec, nbytes,
                                            backend="pricing")
            point = f"32n {op} {fmt_size(nbytes)}"
            t.record(f"{point} exact (us)", t_ex * 1e6)
            t.record(f"{point} pricing (us)", t_fp * 1e6)
            exact_walls[f"{point} exact wall (s)"] = w_ex
            t.record(f"{point} pricing wall (s)", w_fp, host=True)
            tot_exact += w_ex
            tot_fast += w_fp
    t.record("32n sweep exact/pricing wall", tot_exact / tot_fast,
             band=(MIN_SPEEDUP[smoke], None), host=True)
    t.note(f"32-node sweep: exact {tot_exact:.2f}s vs pricing "
           f"{tot_fast:.3f}s = {tot_exact / tot_fast:.1f}x")
    for P, ops in SCALE_GRID[smoke].items():
        spec = ClusterSpec(nodes=P, gpus_per_node=0)
        crossed = 0
        for op, sizes in ops.items():
            algos = set()
            for nbytes in sizes:
                t_s, algo, wall = collective_time(op, spec, nbytes,
                                                  backend="pricing")
                algos.add(algo)
                point = f"P={P} {op} {fmt_size(nbytes)}"
                t.record(f"{point} pricing={algo} (us)", t_s * 1e6)
                t.record(f"{point} pricing wall (s)", wall, host=True)
                t.add(point, fmt_time(t_s), f"{wall:.2f}s", algo)
            crossed += len(algos) > 1
        t.record(f"P={P} ops with an algorithm crossover", crossed,
                 band=(0.5, None))
    return tot_exact


def _scale_jacobi(t, smoke, exact_walls):
    """Series 4: the RMA-epoch fast path on the Jacobi halo exchange."""
    for halo in ["rma_fence"] if smoke else ["rma_fence", "rma_pscw"]:
        for p in [5, 8] if smoke else [5, 8, 16]:
            _, t_ex, ck_ex = _jacobi(p, halo, "exact", 3, verify=True)
            _, t_an, ck_an = _jacobi(p, halo, "analytic", 3, verify=True)
            point = f"jacobi agree {halo} P={p}"
            t.record(f"{point} exact (us)", t_ex * 1e6)
            t.record(f"{point} analytic (us)", t_an * 1e6)
            t.record(f"{point} analytic rel err", abs(t_an - t_ex) / t_ex,
                     band=(None, AGREE_TOL))
            t.record(f"{point} fields identical", ck_an == ck_ex,
                     band=(0.5, None))
    floor = MIN_JACOBI_SPEEDUP[smoke]
    gated_iters = JACOBI_ITERS_BASE if smoke else JACOBI_ITERS_GATE
    for iters in [JACOBI_ITERS_BASE] + ([] if smoke else [JACOBI_ITERS_GATE]):
        w_ex, t_ex, _ = _best_exact(256, "rma_fence", "exact", iters)
        w_an, t_an, _ = _jacobi(256, "rma_fence", "analytic", iters)
        w_pr, t_pr, _ = _jacobi(256, "rma_fence", "pricing", iters)
        point = f"jacobi rma_fence P=256 i{iters}"
        t.record(f"{point} exact (us)", t_ex * 1e6)
        t.record(f"{point} analytic (us)", t_an * 1e6)
        t.record(f"{point} pricing identical to analytic", t_pr == t_an,
                 band=(0.5, None))
        exact_walls[f"{point} exact wall (s)"] = w_ex
        t.record(f"{point} analytic wall (s)", w_an, host=True)
        t.record(f"{point} pricing wall (s)", w_pr, host=True)
        t.record(f"{point} exact/analytic wall", w_ex / w_an, host=True,
                 band=(floor, None) if iters == gated_iters else None)
        t.add(point, fmt_time(t_an), f"{w_an:.2f}s",
              f"exact {w_ex:.2f}s ({w_ex / w_an:.1f}x)")
    w_ex, t_ex, _ = _best_exact(256, None, "exact", DCGN_ITERS,
                                dcgn_shape=DCGN_SHAPE)
    w_an, t_an, _ = _jacobi(256, None, "analytic", DCGN_ITERS,
                            dcgn_shape=DCGN_SHAPE)
    point = f"jacobi dcgn P=256 i{DCGN_ITERS}"
    t.record(f"{point} exact (us)", t_ex * 1e6)
    t.record(f"{point} analytic (us)", t_an * 1e6)
    exact_walls[f"{point} exact wall (s)"] = w_ex
    t.record(f"{point} analytic wall (s)", w_an, host=True)
    t.record(f"{point} exact/analytic wall", w_ex / w_an, host=True,
             band=(1.0, None))
    t.add(point, fmt_time(t_an), f"{w_an:.2f}s",
          f"exact {w_ex:.2f}s ({w_ex / w_an:.1f}x)")
    if smoke:
        return
    w_an, t_an, _ = _jacobi(1024, "rma_fence", "analytic", JACOBI_ITERS_BASE)
    w_pr, _, _ = _jacobi(1024, "rma_fence", "pricing", JACOBI_ITERS_BASE)
    point = f"jacobi rma_fence P=1024 i{JACOBI_ITERS_BASE}"
    t.record(f"{point} analytic (us)", t_an * 1e6)
    t.record(f"{point} analytic wall (s)", w_an, host=True)
    t.record(f"{point} pricing wall (s)", w_pr, host=True)
    t.add(point, fmt_time(t_an), f"{w_an:.2f}s", "exact capped")
    w_an, t_an, _ = _jacobi(1024, None, "analytic", DCGN_1K_ITERS,
                            dcgn_shape=DCGN_1K_SHAPE)
    point = f"jacobi dcgn P=1024 i{DCGN_1K_ITERS}"
    t.record(f"{point} analytic (us)", t_an * 1e6)
    t.record(f"{point} analytic wall (s)", w_an, host=True)
    t.add(point, fmt_time(t_an), f"{w_an:.2f}s", "exact capped")


def scale_table(smoke: bool = False) -> Table:
    """The fast-path backends against exact: agreement, crossovers and
    the host-time gates (see the module docstring)."""
    t = Table(
        "Fast-path backends at scale (pricing/analytic vs exact)",
        ["point", "sim time", "fast-path wall", "algo / exact"],
    )
    base = _committed_baseline()
    calib = _calibrate()
    t.record(CALIBRATION, calib, host=True)
    exact_walls = {}
    tot_exact = _scale_collectives(t, smoke, exact_walls)
    _scale_jacobi(t, smoke, exact_walls)
    ratio = calib / base.get(CALIBRATION, calib)
    for row, wall in exact_walls.items():
        t.record(row, wall, host=True)
        if row in base:
            # Matching rows only: a smoke run compares its subset
            # against the committed full sweep.
            allowed = base[row] * ratio * (1.0 + REG_TOL) + REG_FLOOR_S
            t.record(f"{row} / allowed", wall / allowed, host=True,
                     band=(None, 1.0))
    if not base:
        t.note("no committed baseline: this run's walls seed it")
    for row, value in (base or {CALIBRATION: calib, **exact_walls}).items():
        t.record(f"baseline {row}", value, host=True)
    if not smoke:
        t.record("heap speedup (calibrated seed heap / 32n exact wall)",
                 PRE_HEAP_WALL_S * ratio / tot_exact, host=True,
                 band=(MIN_HEAP_SPEEDUP, None))
    for cap in SCALE_CAPS:
        t.note(cap)
    t.note("dcgn wall is dominated by the simulated comm-thread/slot "
           "machinery (kept exact by design); only its wire traffic is "
           "priced")
    return t


# ---------------------------------------------------------------------------
# span-tracing overhead
# ---------------------------------------------------------------------------

TRACE_SIZES = [1 * KB, 16 * KB, 256 * KB]
TRACE_NODES = 32
OVERHEAD_BUDGET = 0.10


def _traced_sweep(backend, traced):
    """One 32-node allreduce + allgather + barrier sweep; returns the
    span recorder (or None)."""
    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=TRACE_NODES, gpus_per_node=0)
    )
    rec = sim.attach_spans() if traced else None
    job = MpiJob(cluster, list(range(TRACE_NODES)), backend=backend)

    # Receive buffers: each collective writes every byte, and nothing
    # reads them.
    def prog(ctx):
        for nbytes in TRACE_SIZES:
            buf = np.ones(nbytes // 8)
            out = np.empty_like(buf)  # det: ok - receive buffer
            yield from ctx.allreduce(buf, out)
            block = np.ones(nbytes // 8 // ctx.size)
            recvs = [np.empty_like(block)  # det: ok - receive buffers
                     for _ in range(ctx.size)]
            yield from ctx.allgather(block, recvs)
            yield from ctx.barrier()

    job.start(prog)
    job.run()
    return rec


def _cpu_time(backend, traced, inner):
    """CPU seconds per sweep and the last recorder.  Collection runs
    before the timed region and is frozen inside it (timeit semantics):
    tracing's allocation cost still lands inside, only gc *scheduling*
    — which depends on everything else alive — is excluded."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(inner):
            rec = _traced_sweep(backend, traced)
        return (time.process_time() - t0) / inner, rec
    finally:
        gc.enable()


def tracing_table(smoke: bool = False) -> Table:
    """Traced sweep ≤ 10% slower than untraced, on both backends.

    CPU time, not wall; ABBA-interleaved repetitions (untraced, traced,
    traced, untraced), so a slow phase of the machine hits both sides;
    and the ratio of the minima, which converge to the unloaded cost as
    samples grow.  The analytic sweep repeats 4× inside each timed
    region, since its single-sweep runtime is in scheduler-jitter range.
    """
    reps = 8 if smoke else 12
    t = Table(
        "tracing overhead — 32-node collectives sweep "
        f"(best of {reps} ABBA-interleaved CPU-time reps)",
        ["backend", "untraced", "traced", "overhead", "spans"],
    )
    for backend, inner in (("exact", 1), ("analytic", 4)):
        _traced_sweep(backend, False)   # warm imports, caches, allocator
        _traced_sweep(backend, True)
        best = {False: float("inf"), True: float("inf")}
        for _ in range(reps):
            for traced in (False, True, True, False):
                dt, rec = _cpu_time(backend, traced, inner)
                best[traced] = min(best[traced], dt)
                if traced:
                    n_spans = len(rec.spans)
        overhead = best[True] / best[False] - 1.0
        t.record(f"{backend} spans", n_spans)
        t.record(f"{backend} untraced cpu (s)", best[False], host=True)
        t.record(f"{backend} traced cpu (s)", best[True], host=True)
        t.record(f"{backend} overhead", overhead, host=True,
                 band=(None, OVERHEAD_BUDGET))
        t.add(backend, f"{best[False] * 1e3:.0f} ms",
              f"{best[True] * 1e3:.0f} ms", f"{overhead * 100:+.1f}%",
              n_spans)
    return t
