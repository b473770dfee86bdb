"""The four workloads of the perf benchmark.

Each workload drives the public ``repro`` API from outside.  A workload
object is built once (its inputs come from the seed: that is set-up),
then hands out *repetitions*: :meth:`rep` prepares a fresh simulated
machine (untimed) and returns the list of :class:`Op` calls to time.
Every call's result goes through ``Op.check`` after its clock stops, so
verification never sits inside the timed region.

Every repetition starts from identical fresh state, so its simulated
outputs (collective times, serving percentiles, paper data points) are
the same in every repetition and every run with the same seed; the
child hashes them and treats any difference as a failure.

``paper_err`` and ``agree_err`` are computed after timing by
:meth:`fidelity`, on inputs whose simulated times do not depend on the
seed, so they are the same in every run of a commit.  ``paper_err`` is
a property of the model, not of the workload: workloads other than
``paper-micro`` rerun the 25 paper points it reads, because every
workload reports every end-to-end metric.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.apps import micro
from repro.apps.jacobi import JacobiConfig, reference, run_mpi
from repro.apps.mandelbrot import MandelbrotConfig
from repro.apps.tile_service import TileService, TileServiceConfig
from repro.bench.calibration import FIG6_ANCHORS, TABLE1_PAPER
from repro.bench.figures import FIG6_SIZES, FIG7_SIZES
from repro.hw import ClusterSpec, TopologySpec, build_cluster, paper_cluster
from repro.mpi import MpiJob, block_placement
from repro.serve import (
    ClusterScheduler,
    OpenLoopDriver,
    open_loop_arrivals,
    percentile,
)
from repro.sim import Simulator

KB = 1024
MB = 1024 * 1024

#: Seed of every fidelity check's inputs.
FIDELITY_SEED = 0


class Op(NamedTuple):
    """One timed call of a repetition."""

    name: str
    #: The timed call; returns what ``check`` verifies.
    run: Callable[[], Any]
    #: Workload ops the call attempts (points, collectives, ...).
    units: int
    #: Untimed: ``check(result) -> (failed units, simulated output)``.
    check: Callable[[Any], Tuple[int, Any]]


#: Relative gaps below this are floating-point rounding, not model
#: disagreement: ``agree_err`` reads them as this floor, so it is never
#: 0 and a change of summation order does not read as a model change.
AGREE_FLOOR = 1e-9


def rel_gap(ours: float, ref: float) -> float:
    """Relative gap of ``ours`` from ``ref``."""
    return abs(ours - ref) / abs(ref)


def agree_err(gaps) -> float:
    """The largest analytic-vs-exact gap, floored at :data:`AGREE_FLOOR`."""
    return max(AGREE_FLOOR, *gaps)


# ---------------------------------------------------------------------------
# Paper data points (Table 1, Fig 6, Fig 7)
# ---------------------------------------------------------------------------

def paper_points() -> Dict[str, Callable[[], float]]:
    """Every data point of Table 1, Fig 6 and Fig 7 as
    ``repro.bench.figures`` runs them (default ``iters``, cluster seed
    0): point id -> call returning simulated seconds.

    The cluster seed sets DCGN's poll phases, so it changes both the
    values and the work; the paper configuration keeps it at 0.
    """
    pts: Dict[str, Callable[[], float]] = {}
    for i, row in enumerate(TABLE1_PAPER):
        kernels = row.cpus + row.gpus
        if row.mpi_us is not None:
            pts[f"table1/{i}/mpi"] = (
                lambda k=kernels: micro.mpi_barrier_time(
                    k, max(1, k // 2), iters=10
                )
            )
        pts[f"table1/{i}/dcgn"] = lambda row=row: _dcgn_barrier(row)
    for nbytes in FIG6_SIZES:
        pts[f"fig6/{nbytes}/mpi"] = (
            lambda n=nbytes: micro.mpi_send_time(n, iters=5)
        )
        for src, dst in (("cpu", "cpu"), ("cpu", "gpu"),
                         ("gpu", "cpu"), ("gpu", "gpu")):
            pts[f"fig6/{nbytes}/{src}-{dst}"] = (
                lambda n=nbytes, s=src, d=dst: micro.dcgn_send_time(
                    n, s, d, iters=5
                )
            )
    for nbytes in FIG7_SIZES:
        pts[f"fig7/{nbytes}/mpi"] = (
            lambda n=nbytes: micro.mpi_bcast_time(n, iters=5)
        )
        for kind in ("cpu", "gpu"):
            pts[f"fig7/{nbytes}/dcgn-{kind}"] = (
                lambda n=nbytes, k=kind: micro.dcgn_bcast_time(
                    n, k, iters=5
                )
            )
    return pts


def _dcgn_barrier(row) -> float:
    marks = micro.dcgn_barrier_time(
        row.nodes,
        cpu_threads=row.cpus_per_node,
        gpus=row.gpus_per_node,
        iters=10,
    )
    # Measured at a CPU kernel when present, else at the last GPU slot
    # (the convention of repro.bench.figures.table1_barriers).
    return marks.get("cpu", marks.get("gpu"))


#: Fig 6 anchor -> (numerator point, denominator point).
_FIG6_RATIOS = {
    "0B cpu:cpu / mpi": ("fig6/0/cpu-cpu", "fig6/0/mpi"),
    "0B gpu:gpu / mpi": ("fig6/0/gpu-gpu", "fig6/0/mpi"),
    "1MB cpu:cpu / mpi": (f"fig6/{MB}/cpu-cpu", f"fig6/{MB}/mpi"),
    "1MB gpu:gpu / mpi(cpu)": (f"fig6/{MB}/gpu-gpu", f"fig6/{MB}/mpi"),
}


def paper_rows(values: Dict[str, float]) -> List[Tuple[float, float]]:
    """(ours, paper) for the 23 rows with a paper number: every Table 1
    DCGN (10) and MPI (9) row and the four Fig 6 anchors."""
    rows = []
    for i, row in enumerate(TABLE1_PAPER):
        rows.append((values[f"table1/{i}/dcgn"] * 1e6, row.dcgn_us))
        if row.mpi_us is not None:
            rows.append((values[f"table1/{i}/mpi"] * 1e6, row.mpi_us))
    for key, paper in FIG6_ANCHORS.items():
        num, den = _FIG6_RATIOS[key]
        rows.append((values[num] / values[den], paper))
    return rows


def paper_err(values: Dict[str, float]) -> float:
    """exp(mean |ln(ours/paper)|) - 1 over :func:`paper_rows`."""
    rows = paper_rows(values)
    return math.exp(
        sum(abs(math.log(ours / paper)) for ours, paper in rows) / len(rows)
    ) - 1.0


def paper_err_from_scratch() -> float:
    """:func:`paper_err`, running only the 25 points it reads."""
    pts = paper_points()
    needed = sorted(
        {pid for pid in pts if pid.startswith("table1/")}
        | {pid for pair in _FIG6_RATIOS.values() for pid in pair}
    )
    return paper_err({pid: pts[pid]() for pid in needed})


# ---------------------------------------------------------------------------
# Collectives on the exact backend
# ---------------------------------------------------------------------------

def mpi_job(nodes: int, ranks: int, backend: str) -> MpiJob:
    """A fresh ``paper_cluster(nodes)`` with ``ranks`` block-placed."""
    cluster = build_cluster(Simulator(), paper_cluster(nodes=nodes))
    return MpiJob(cluster, block_placement(ranks, nodes), backend=backend)


def collective_inputs(
    op: str, nbytes: int, ranks: int, rng: np.random.Generator
) -> List[Any]:
    """Rank-dependent integer-valued float64 payloads (sums are exact).

    ``nbytes`` is what each rank ends up holding: the reduced vector
    (allreduce), the root's buffer (bcast), the gathered vector
    (allgather), or the blocks each rank sends (alltoall).
    """
    def draw(count):
        return rng.integers(0, 1 << 20, size=count).astype(np.float64)

    if op == "barrier":
        return [None] * ranks
    if op == "allreduce":
        return [draw(max(1, nbytes // 8)) for _ in range(ranks)]
    if op == "bcast":
        return [draw(max(1, nbytes // 8))] + [None] * (ranks - 1)
    block = max(1, nbytes // (8 * ranks))
    if op == "allgather":
        return [draw(block) for _ in range(ranks)]
    if op == "alltoall":
        return [[draw(block) for _ in range(ranks)] for _ in range(ranks)]
    raise ValueError(f"unknown collective {op!r}")


def run_collective(job: MpiJob, op: str, inputs: List[Any], nbytes: int):
    """One collective as its own ``job.start()`` + ``job.run()``.

    Returns ``(per-rank results, simulated duration)``; the duration is
    from the start instant to the last rank's completion.
    """
    size = job.size
    results: Dict[int, Any] = {}
    done: Dict[int, float] = {}

    def prog(ctx):
        r = ctx.rank
        mine = inputs[r]
        if op == "allreduce":
            out = np.empty_like(mine)
            yield from ctx.allreduce(mine, out)
        elif op == "bcast":
            out = mine.copy() if r == 0 else np.empty(max(1, nbytes // 8))
            yield from ctx.bcast(out, root=0)
        elif op == "allgather":
            out = [np.empty_like(mine) for _ in range(size)]
            yield from ctx.allgather(mine, out)
        elif op == "alltoall":
            out = [np.empty_like(b) for b in mine]
            yield from ctx.alltoall(mine, out)
        else:
            out = None
            yield from ctx.barrier()
        results[r] = out
        done[r] = ctx.sim.now

    t0 = job.sim.now
    job.start(prog)
    job.run()
    return results, max(done.values()) - t0


def collective_ok(op: str, inputs: List[Any], results: Dict[int, Any]) -> bool:
    """Every rank's result equals the numpy reference."""
    size = len(inputs)
    if op == "barrier":
        return len(results) == size
    if op == "allreduce":
        want = np.sum(inputs, axis=0)
        return all(np.array_equal(results[r], want) for r in range(size))
    if op == "bcast":
        return all(
            np.array_equal(results[r], inputs[0]) for r in range(size)
        )
    if op == "allgather":
        return all(
            np.array_equal(results[r][j], inputs[j])
            for r in range(size) for j in range(size)
        )
    return all(
        np.array_equal(results[r][j], inputs[j][r])
        for r in range(size) for j in range(size)
    )


class CollectivesExact:
    """32 ranks on ``paper_cluster(32)``, exact backend: the event
    kernel and the p2p matching path at ~10^5 events per sweep."""

    name = "collectives-exact"
    SWEEP: Tuple[Tuple[str, int], ...] = tuple(
        (op, size)
        for size in (1 * KB, 64 * KB, 1 * MB)
        for op in ("allreduce", "allgather", "bcast", "barrier")
    ) + (("alltoall", 1 * KB), ("alltoall", 64 * KB))

    def __init__(
        self,
        seed: int,
        ranks: int = 32,
        sweep: Sequence[Tuple[str, int]] = SWEEP,
    ) -> None:
        self.seed = seed
        self.ranks = ranks
        rng = np.random.default_rng(seed)
        self.sweep = [
            (f"{op}@{nbytes}", op, nbytes,
             collective_inputs(op, nbytes, ranks, rng))
            for op, nbytes in sweep
        ]

    def rep(self) -> List[Op]:
        job = mpi_job(self.ranks, self.ranks, "exact")
        return [
            Op(name,
               lambda op=op, nbytes=nbytes, inputs=inputs: run_collective(
                   job, op, inputs, nbytes),
               1,
               lambda res, op=op, inputs=inputs: (
                   0 if collective_ok(op, inputs, res[0]) else 1, res[1]))
            for name, op, nbytes, inputs in self.sweep
        ]

    def fidelity(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        """``agree_err``: the warm-up's sweep rerun on the analytic
        backend.  Simulated times do not depend on payload values, so
        the result is the same for every seed."""
        job = mpi_job(self.ranks, self.ranks, "analytic")
        gaps = [
            rel_gap(run_collective(job, op, inputs, nbytes)[1], outputs[name])
            for name, op, nbytes, inputs in self.sweep
        ]
        return {"paper_err": paper_err_from_scratch(),
                "agree_err": agree_err(gaps)}


# ---------------------------------------------------------------------------
# Paper micro-benchmarks
# ---------------------------------------------------------------------------

class PaperMicro:
    """The 61 data points of Table 1, Fig 6 and Fig 7 (exact backend):
    DCGN, gpusim and PCIe under polling-heavy 1-4-node traffic."""

    name = "paper-micro"
    #: Table 1 MPI shapes (ranks, nodes) and the Fig 7 8-rank/4-node
    #: broadcast: where the analytic backend can run the same inputs.
    AGREE_SHAPES = tuple(
        ("barrier", k, max(1, k // 2), 0) for k in (2, 4, 8)
    ) + tuple(("bcast", 8, 4, n) for n in FIG7_SIZES)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # The seed only orders the points (see paper_points).
        self.points = sorted(paper_points().items())
        random.Random(seed).shuffle(self.points)

    def rep(self) -> List[Op]:
        return [Op(pid, fn, 1, _check_point) for pid, fn in self.points]

    def fidelity(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        rng = np.random.default_rng(FIDELITY_SEED)
        gaps = []
        for op, ranks, nodes, nbytes in self.AGREE_SHAPES:
            inputs = collective_inputs(op, nbytes, ranks, rng)
            exact, analytic = (
                run_collective(mpi_job(nodes, ranks, backend), op, inputs,
                               nbytes)[1]
                for backend in ("exact", "analytic")
            )
            gaps.append(rel_gap(analytic, exact))
        return {"paper_err": paper_err(outputs), "agree_err": agree_err(gaps)}


def _check_point(value: float) -> Tuple[int, float]:
    ok = value is not None and math.isfinite(value) and value > 0.0
    return (0 if ok else 1), value


# ---------------------------------------------------------------------------
# 1024-rank Jacobi on the analytic backend
# ---------------------------------------------------------------------------

class Jacobi:
    """``apps.jacobi.run_mpi`` with RMA-fence halos on the analytic
    backend: the large-P use of ``mpi.algorithms`` (a 1024-rank
    ``win_create`` allgather) plus ``mpi.rma`` and fast-path pricing."""

    name = "jacobi-1024"
    AGREE_RANKS = 32

    def __init__(
        self, seed: int, p: int = 1024, iters: int = 10, cols: int = 256
    ) -> None:
        self.seed = seed
        self.cfg = JacobiConfig(p=p, cols=cols, iters=iters, verify=False)
        # One rank per node; the seed permutes which node runs which rank.
        self.placement = random.Random(seed).sample(range(p), p)
        self._want = None

    def rep(self) -> List[Op]:
        cfg = self.cfg
        cluster = _cpu_cluster(cfg.p)

        def call():
            return run_mpi(
                cluster, cfg, backend="rma_fence",
                placement=self.placement, exec_backend="analytic",
            )

        return [Op("run_mpi", call, cfg.p * cfg.iters, self._check)]

    def _check(self, res) -> Tuple[int, Any]:
        if self._want is None:
            self._want = float(reference(self.cfg).sum())
        got = res.extras["checksum"]
        ok = math.isclose(got, self._want, rel_tol=1e-12)
        return (0 if ok else self.cfg.p * self.cfg.iters), [res.elapsed, got]

    def fidelity(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        """``agree_err``: the same stencil at 32 ranks, exact vs analytic."""
        p = self.AGREE_RANKS
        cfg = JacobiConfig(
            p=p, cols=self.cfg.cols, iters=self.cfg.iters, verify=True
        )
        placement = random.Random(FIDELITY_SEED).sample(range(p), p)
        exact, analytic = (
            run_mpi(_cpu_cluster(p), cfg, backend="rma_fence",
                    placement=placement, exec_backend=backend).elapsed
            for backend in ("exact", "analytic")
        )
        return {"paper_err": paper_err_from_scratch(),
                "agree_err": agree_err([rel_gap(analytic, exact)])}


def _cpu_cluster(nodes: int):
    """A fresh flat-switch cluster of CPU-only nodes."""
    return build_cluster(Simulator(), ClusterSpec(nodes=nodes, gpus_per_node=0))


# ---------------------------------------------------------------------------
# Multi-tenant serving on a fat tree
# ---------------------------------------------------------------------------

def _tile_cfg() -> TileServiceConfig:
    return TileServiceConfig(
        tile=MandelbrotConfig(
            width=512, height=512, strip_height=32, max_iter=128
        )
    )


class Serving:
    """16 tile services of 16 nodes on a 256-node pod-16 oversub-4 fat
    tree (analytic backend), open-loop Poisson arrivals at 0.9x packed
    saturation, packed then random placement: the small-P, many-calls
    use of ``mpi.algorithms`` and the fast path."""

    name = "serving-256"
    POLICIES = ("packed", "random")
    LOAD = 0.9
    #: The 64-node smoke shape run on both backends for ``agree_err``.
    SMOKE = dict(nodes=64, pod=8, services=8, job_nodes=8, requests=32)

    def __init__(
        self,
        seed: int,
        nodes: int = 256,
        pod: int = 16,
        services: int = 16,
        job_nodes: int = 16,
        requests: int = 16,
    ) -> None:
        self.seed = seed
        self.nodes, self.pod = nodes, pod
        self.services, self.job_nodes = services, job_nodes
        self.requests = requests
        self.rate = self.LOAD / self._service_time()

    def _scheduler(self, policy: str, backend: str):
        sim = Simulator()
        spec = ClusterSpec(
            nodes=self.nodes,
            gpus_per_node=0,
            topology=TopologySpec(
                kind="fattree", pod_size=self.pod, oversubscription=4.0
            ),
        )
        sched = ClusterScheduler(
            build_cluster(sim, spec), policy=policy, backend=backend,
            seed=self.seed,
        )
        return sim, sched

    def _service_time(self) -> float:
        """Mean service time of one lightly loaded packed service."""
        sim, sched = self._scheduler("packed", "analytic")
        svc = TileService(sim, _tile_cfg(), name="cal")
        sched.submit(svc.job_spec(n_nodes=self.job_nodes))
        OpenLoopDriver(
            sim, svc, open_loop_arrivals(50.0, 16, seed=self.seed, start=0.01),
            name="cal",
        ).start()
        sim.run()
        sched.release()
        times = [r.service_time for r in svc.log.requests]
        return sum(times) / len(times)

    def _placement_run(self, policy: str, backend: str) -> Op:
        """Prepare one placement's simulation; the Op runs it."""
        sim, sched = self._scheduler(policy, backend)
        services = []
        for i in range(self.services):
            svc = TileService(sim, _tile_cfg(), name=f"svc{i}")
            sched.submit(svc.job_spec(n_nodes=self.job_nodes))
            arrivals = open_loop_arrivals(
                self.rate, self.requests, seed=self.seed * 1000 + i,
                start=0.01,
            )
            OpenLoopDriver(sim, svc, arrivals, name=f"drv{i}").start()
            services.append(svc)

        def check(_):
            failed = 0
            for svc in services:
                done = [r for r in svc.log.requests if r.done_t is not None]
                failed += self.requests - len(done)
                try:
                    svc.verify()
                except AssertionError:
                    failed += len(done)
            sched.release()
            return failed, serving_summary(services)

        return Op(policy, sim.run, self.services * self.requests, check)

    def rep(self) -> List[Op]:
        return [self._placement_run(p, "analytic") for p in self.POLICIES]

    def fidelity(self, outputs: Dict[str, Any]) -> Dict[str, float]:
        """``agree_err``: the 64-node smoke shape (fixed seed) on exact
        vs analytic, largest relative p50/p99 gap over both placements."""
        smoke = Serving(FIDELITY_SEED, **self.SMOKE)
        summaries = {}
        for backend in ("exact", "analytic"):
            for policy in self.POLICIES:
                op = smoke._placement_run(policy, backend)
                summaries[backend, policy] = op.check(op.run())[1]
        gaps = [
            rel_gap(summaries["analytic", pol][q], summaries["exact", pol][q])
            for pol in self.POLICIES for q in ("p50_s", "p99_s")
        ]
        return {"paper_err": paper_err_from_scratch(),
                "agree_err": agree_err(gaps)}


def serving_summary(services) -> Dict[str, Any]:
    """Simulated serving outputs of one placement run."""
    reqs = [r for svc in services for r in svc.log.requests]
    done = [r for r in reqs if r.done_t is not None]
    lats = [r.latency for r in done]
    span = max(r.done_t for r in done) - min(r.arrival_t for r in reqs)
    return {
        "p50_s": percentile(lats, 50),
        "p99_s": percentile(lats, 99),
        "goodput_rps": len(done) / span,
        "queue_waits_s": [r.start_t - r.arrival_t for r in done],
    }


WORKLOADS = {
    w.name: w for w in (PaperMicro, CollectivesExact, Jacobi, Serving)
}
