"""Cannon's matrix multiplication — simultaneous communication (paper §4).

Cannon's algorithm multiplies two N×N matrices on P = q² communication
targets arranged in a q×q grid.  After an initial skew, each target
performs q steps of: local sub-matrix multiply, then rotate its A-block
left and its B-block up — a simultaneous exchange on every target,
"similar to MPI_Sendrecv_replace".

Implementations:

* :func:`run_single_gpu` — whole multiply on one GPU (efficiency base);
* :func:`run_gas` — one MPI process per GPU, push/pull around kernels;
* :func:`run_dcgn` — GPU kernels rotate blocks *from inside the kernel*
  with the fused :meth:`~repro.dcgn.api.Endpoint.sendrecv_replace`,
  issued slot-first through ``ctx.comm``;
* :func:`run_mpi` — pure MPI ranks, and the **flagship consumer of
  derived communicators**: with ``subcomms=True`` every rank splits
  COMM_WORLD into its row and column communicator
  (``ctx.split(color=row, key=col)`` / ``ctx.split(color=col,
  key=row)``) and all grid communication happens on those — Cannon's
  rotation as ``sendrecv_replace`` on the row/column comm, and the Fox
  variant's per-row broadcasts as *concurrent collectives on disjoint
  sub-communicators* (``variant="fox"``).  With ``subcomms=False`` the
  same algorithms run on hand-rolled world-rank arithmetic (rotation)
  and linear point-to-point fan-out (Fox row broadcast) — the
  pre-communicator-groups baseline the benchmark compares against;
* :func:`run_dcgn_fox` — the same story at the DCGN layer: GPU kernels
  split the slot space into row groups (``ctx.comm.split``) and issue
  concurrent per-row ``broadcast``\\ s on them.

All versions compute C = A×B with real data and verify against NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dcgn import DcgnConfig, DcgnRuntime, NodeConfig
from ..gas import GasJob
from ..gpusim import LaunchConfig
from ..hw.cluster import Cluster
from ..mpi import MpiJob, block_placement
from ..sim.core import Simulator
from .common import AppResult

__all__ = [
    "CannonConfig",
    "run_single_gpu",
    "run_gas",
    "run_dcgn",
    "run_mpi",
    "run_dcgn_fox",
]


@dataclass(frozen=True)
class CannonConfig:
    """Workload parameters.

    ``matmul_gflops`` is the effective device throughput for the matrix
    kernel (well below peak for 2008-era hand-written SGEMM).
    """

    n: int = 1024
    grid: int = 2  #: q; P = q² targets
    dtype: str = "float32"
    matmul_gflops: float = 80.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n % self.grid != 0:
            raise ValueError("grid must divide n")

    @property
    def p(self) -> int:
        return self.grid * self.grid

    @property
    def block_n(self) -> int:
        return self.n // self.grid

    @property
    def block_nbytes(self) -> int:
        return self.block_n * self.block_n * np.dtype(self.dtype).itemsize


def _make_inputs(cfg: CannonConfig) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    a = rng.standard_normal((cfg.n, cfg.n)).astype(cfg.dtype)
    b = rng.standard_normal((cfg.n, cfg.n)).astype(cfg.dtype)
    return a, b


def _block(m: np.ndarray, cfg: CannonConfig, r: int, c: int) -> np.ndarray:
    bn = cfg.block_n
    return m[r * bn : (r + 1) * bn, c * bn : (c + 1) * bn]


def _block_matmul_seconds(cfg: CannonConfig) -> float:
    """Device time of one block sub-multiplication (2·bn³ flops)."""
    bn = cfg.block_n
    return 2.0 * bn * bn * bn / (cfg.matmul_gflops * 1e9)


def _verify(cfg: CannonConfig, a, b, c: np.ndarray) -> None:
    expected = (a.astype(np.float64) @ b.astype(np.float64)).astype(
        np.float64
    )
    got = c.astype(np.float64)
    err = np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(expected)))
    if err > 1e-3:
        raise AssertionError(f"cannon result off by {err:.2e}")


def _initial_skew(cfg: CannonConfig, a, b, r: int, c: int):
    """Blocks target (r,c) holds after Cannon's initial alignment."""
    q = cfg.grid
    a_blk = _block(a, cfg, r, (c + r) % q).copy()
    b_blk = _block(b, cfg, (r + c) % q, c).copy()
    return a_blk, b_blk


def run_single_gpu(cluster: Cluster, cfg: CannonConfig) -> AppResult:
    """Full N×N multiply on one GPU."""
    sim = cluster.sim
    device = cluster.nodes[0].gpus[0]
    a, b = _make_inputs(cfg)
    c = np.zeros((cfg.n, cfg.n), dtype=np.float64)
    marks = {}

    def kernel(ctx):
        flops = 2.0 * cfg.n ** 3
        yield from ctx.compute(seconds=flops / (cfg.matmul_gflops * 1e9))

    def host():
        from ..gpusim.driver import launch, memcpy_d2h, memcpy_h2d

        itemsize = np.dtype(cfg.dtype).itemsize
        da = device.alloc((cfg.n, cfg.n), dtype=cfg.dtype, name="A")
        db = device.alloc((cfg.n, cfg.n), dtype=cfg.dtype, name="B")
        dc = device.alloc((cfg.n, cfg.n), dtype=cfg.dtype, name="C")
        t0 = sim.now
        yield from memcpy_h2d(device, da, a)
        yield from memcpy_h2d(device, db, b)
        handle = yield from launch(device, kernel, LaunchConfig(grid_blocks=1))
        yield handle.done
        dc.data[...] = (a @ b).astype(cfg.dtype)
        out = np.zeros((cfg.n, cfg.n), dtype=cfg.dtype)
        yield from memcpy_d2h(device, out, dc)
        c[...] = out
        marks["elapsed"] = sim.now - t0
        for buf in (da, db, dc):
            buf.free()

    sim.process(host(), name="cannon.single")
    sim.run()
    _verify(cfg, a, b, c)
    return AppResult(elapsed=marks["elapsed"], units=1, model="single")


def run_gas(cluster: Cluster, cfg: CannonConfig) -> AppResult:
    """One MPI process per GPU; rotations via MPI_Sendrecv_replace."""
    job = GasJob.all_gpus(cluster, with_master=False)
    if job.size < cfg.p:
        raise ValueError(
            f"cluster offers {job.size} GPUs; Cannon needs {cfg.p}"
        )
    a, b = _make_inputs(cfg)
    c_blocks: Dict[int, np.ndarray] = {}
    marks = {}
    q = cfg.grid

    def worker(ctx):
        rank = ctx.rank
        if rank >= cfg.p:
            return  # spare GPUs idle
        r, col = divmod(rank, q)
        left = r * q + (col - 1) % q
        right = r * q + (col + 1) % q
        up = ((r - 1) % q) * q + col
        down = ((r + 1) % q) * q + col
        a_blk, b_blk = _initial_skew(cfg, a, b, r, col)
        c_blk = np.zeros((cfg.block_n, cfg.block_n), dtype=np.float64)
        da = ctx.alloc((cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="A")
        db = ctx.alloc((cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="B")
        t0 = ctx.sim.now
        yield from ctx.push(da, a_blk)
        yield from ctx.push(db, b_blk)

        def kernel(kctx):
            yield from kctx.compute(seconds=_block_matmul_seconds(cfg))

        for step in range(q):
            yield from ctx.run_kernel(
                kernel, LaunchConfig(grid_blocks=1), name=f"mm{step}"
            )
            c_blk += a_blk.astype(np.float64) @ b_blk.astype(np.float64)
            if step == q - 1:
                break
            # GPU-as-slave: pull blocks, exchange over MPI, push back.
            yield from ctx.pull(a_blk, da)
            yield from ctx.pull(b_blk, db)
            yield from ctx.mpi.sendrecv_replace(
                a_blk, dest=left, source=right, sendtag=10, recvtag=10
            )
            yield from ctx.mpi.sendrecv_replace(
                b_blk, dest=up, source=down, sendtag=11, recvtag=11
            )
            yield from ctx.push(da, a_blk)
            yield from ctx.push(db, b_blk)
        # Wait for everyone before stopping the clock (collective end).
        yield from ctx.mpi.barrier()
        if rank == 0:
            marks["elapsed"] = ctx.sim.now - t0
        c_blocks[rank] = c_blk
        da.free()
        db.free()

    job.start(worker)
    job.run()
    c = np.zeros((cfg.n, cfg.n), dtype=np.float64)
    for rank, blk in c_blocks.items():
        r, col = divmod(rank, q)
        bn = cfg.block_n
        c[r * bn : (r + 1) * bn, col * bn : (col + 1) * bn] = blk
    _verify(cfg, a, b, c)
    return AppResult(elapsed=marks["elapsed"], units=cfg.p, model="gas")


def run_dcgn(
    cluster: Cluster, cfg: CannonConfig, overlap: bool = False
) -> AppResult:
    """GPU kernels rotate blocks in-kernel via fused sendrecv_replace.

    With ``overlap=True`` the rotation is double-buffered and
    nonblocking: each step posts ``isend``/``irecv`` slot requests for
    the *next* A/B blocks into spare device buffers, then computes the
    current block product while the comm thread moves the payloads —
    the halo-style compute/communication overlap the nonblocking slot
    API exists for.  The result is identical; only the simulated
    timeline changes.
    """
    gpus_per_node = len(cluster.nodes[0].gpus)
    n_nodes = cluster.n_nodes
    if n_nodes * gpus_per_node < cfg.p:
        raise ValueError("not enough GPUs for the Cannon grid")
    # Use exactly cfg.p GPUs: fill nodes in order.
    node_cfgs = []
    remaining = cfg.p
    for n in range(n_nodes):
        g = min(gpus_per_node, remaining)
        remaining -= g
        if g > 0:
            node_cfgs.append(NodeConfig(cpu_threads=0, gpus=g, slots_per_gpu=1))
    rt = DcgnRuntime(cluster, DcgnConfig(node_cfgs))
    a, b = _make_inputs(cfg)
    c_blocks: Dict[int, np.ndarray] = {}
    marks = {}
    q = cfg.grid

    def gpu_worker(kctx):
        comm = kctx.comm
        rank = comm.rank(0)
        r, col = divmod(rank, q)
        left = r * q + (col - 1) % q
        right = r * q + (col + 1) % q
        up = ((r - 1) % q) * q + col
        down = ((r + 1) % q) * q + col
        device = kctx.device
        a_blk, b_blk = _initial_skew(cfg, a, b, r, col)
        da = device.alloc((cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="A")
        db = device.alloc((cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="B")
        da.data[...] = a_blk
        db.data[...] = b_blk
        if overlap:
            # Spare buffers for the in-flight next blocks.
            da2 = device.alloc(
                (cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="A2"
            )
            db2 = device.alloc(
                (cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="B2"
            )
        c_blk = np.zeros((cfg.block_n, cfg.block_n), dtype=np.float64)
        t0 = kctx.sim.now
        for step in range(q):
            if overlap and step < q - 1:
                # Post the rotation for the NEXT step, then compute the
                # current product while the payloads travel.
                sa = yield from comm.isend(0, left, da)
                ra = yield from comm.irecv(0, right, da2)
                sb = yield from comm.isend(0, up, db)
                rb = yield from comm.irecv(0, down, db2)
            yield from kctx.compute(seconds=_block_matmul_seconds(cfg))
            c_blk += da.data.astype(np.float64) @ db.data.astype(np.float64)
            if step == q - 1:
                break
            if overlap:
                for h in (sa, ra, sb, rb):
                    yield from h.wait()
                da, da2 = da2, da
                db, db2 = db2, db
            else:
                # In-kernel simultaneous rotation (no CPU mediation).
                yield from comm.sendrecv_replace(0, left, right, da)
                yield from comm.sendrecv_replace(0, up, down, db)
        yield from comm.barrier(0)
        if rank == 0:
            marks["elapsed"] = kctx.sim.now - t0
        c_blocks[rank] = c_blk
        da.free()
        db.free()
        if overlap:
            da2.free()
            db2.free()

    rt.launch_gpu(gpu_worker, config=LaunchConfig(grid_blocks=1))
    rt.run(max_time=600.0)
    c = np.zeros((cfg.n, cfg.n), dtype=np.float64)
    for rank, blk in c_blocks.items():
        r, col = divmod(rank, q)
        bn = cfg.block_n
        c[r * bn : (r + 1) * bn, col * bn : (col + 1) * bn] = blk
    _verify(cfg, a, b, c)
    return AppResult(elapsed=marks["elapsed"], units=cfg.p, model="dcgn")


def run_mpi(
    cluster: Cluster,
    cfg: CannonConfig,
    variant: str = "cannon",
    subcomms: bool = True,
    exec_backend: str = "exact",
) -> AppResult:
    """Pure-MPI Cannon (or Fox) over ``cfg.p`` ranks.

    ``variant="cannon"`` rotates A left / B up each step
    (``MPI_Sendrecv_replace``); ``variant="fox"`` broadcasts the
    diagonal-offset A block along each row and shifts B up — the
    classic broadcast-multiply-roll formulation whose row broadcasts
    run *concurrently* on the q disjoint row communicators.

    ``subcomms=True`` derives row/column communicators with
    ``ctx.split`` and expresses all grid communication in their local
    rank spaces; ``subcomms=False`` is the world-communicator baseline
    (hand-rolled rank arithmetic; Fox's row broadcast degenerates to a
    linear point-to-point fan-out because a world broadcast cannot be
    scoped to a row).  The communicator setup runs before the timed
    region, mirroring an application that splits once at startup.
    Block compute time is modeled at ``cfg.matmul_gflops``.

    ``exec_backend`` picks the timing engine (``"exact"`` |
    ``"analytic"`` | ``"pricing"``); the analytic backends fast-path
    the collectives (Fox's row broadcasts, the barriers) while the
    point-to-point rotations stay exact.  ``"pricing"`` moves no
    collective data, so verification is skipped.
    """
    if variant not in ("cannon", "fox"):
        raise ValueError(f"unknown variant {variant!r}")
    q = cfg.grid
    a, b = _make_inputs(cfg)
    job = MpiJob(
        cluster, block_placement(cfg.p, cluster.n_nodes),
        backend=exec_backend,
    )
    c_blocks: Dict[int, np.ndarray] = {}
    marks = {}

    def worker(ctx):
        rank = ctx.rank
        r, col = divmod(rank, q)
        if variant == "cannon":
            a_blk, b_blk = _initial_skew(cfg, a, b, r, col)
        else:
            a_blk = _block(a, cfg, r, col).copy()
            b_blk = _block(b, cfg, r, col).copy()
        c_blk = np.zeros((cfg.block_n, cfg.block_n), dtype=np.float64)
        a_work = np.zeros_like(a_blk)
        row_ctx = col_ctx = None
        if subcomms:
            row_ctx = yield from ctx.split(color=r, key=col)
            col_ctx = yield from ctx.split(color=col, key=r)
        yield from ctx.barrier()
        t0 = ctx.sim.now
        for step in range(q):
            if variant == "fox":
                # Row broadcast of the diagonal-offset A block.
                root_col = (r + step) % q
                if col == root_col:
                    a_work[...] = a_blk
                if subcomms:
                    yield from row_ctx.bcast(a_work, root=root_col)
                elif col == root_col:
                    reqs = [
                        ctx.isend(a_work, r * q + dst, tag=20 + step)
                        for dst in range(q)
                        if dst != col
                    ]
                    for req in reqs:
                        yield from req.wait()
                else:
                    yield from ctx.recv(
                        a_work, r * q + root_col, tag=20 + step
                    )
                mult = a_work
            else:
                mult = a_blk
            yield ctx.sim.timeout(_block_matmul_seconds(cfg))
            c_blk += mult.astype(np.float64) @ b_blk.astype(np.float64)
            if step == q - 1:
                break
            if variant == "cannon":
                if subcomms:
                    yield from row_ctx.sendrecv_replace(
                        a_blk,
                        dest=(row_ctx.rank - 1) % q,
                        source=(row_ctx.rank + 1) % q,
                        sendtag=10, recvtag=10,
                    )
                else:
                    yield from ctx.sendrecv_replace(
                        a_blk,
                        dest=r * q + (col - 1) % q,
                        source=r * q + (col + 1) % q,
                        sendtag=10, recvtag=10,
                    )
            # Both variants roll B upward within the column.
            if subcomms:
                yield from col_ctx.sendrecv_replace(
                    b_blk,
                    dest=(col_ctx.rank - 1) % q,
                    source=(col_ctx.rank + 1) % q,
                    sendtag=11, recvtag=11,
                )
            else:
                yield from ctx.sendrecv_replace(
                    b_blk,
                    dest=((r - 1) % q) * q + col,
                    source=((r + 1) % q) * q + col,
                    sendtag=11, recvtag=11,
                )
        yield from ctx.barrier()
        if rank == 0:
            marks["elapsed"] = ctx.sim.now - t0
        c_blocks[rank] = c_blk

    job.start(worker)
    job.run()
    c = np.zeros((cfg.n, cfg.n), dtype=np.float64)
    for rank, blk in c_blocks.items():
        r, col = divmod(rank, q)
        bn = cfg.block_n
        c[r * bn : (r + 1) * bn, col * bn : (col + 1) * bn] = blk
    if exec_backend != "pricing":
        _verify(cfg, a, b, c)
    model = f"mpi-{variant}-" + ("rowcol" if subcomms else "world")
    return AppResult(elapsed=marks["elapsed"], units=cfg.p, model=model)


def run_dcgn_fox(
    cluster: Cluster, cfg: CannonConfig, rowcol: bool = True
) -> AppResult:
    """Fox's broadcast-multiply-roll matmul on DCGN GPU kernels.

    With ``rowcol=True`` every slot joins its row group via the
    collective ``ctx.comm.split`` and the per-step A dissemination is a
    *group broadcast* — q concurrent broadcasts on disjoint slot
    groups, each progressed independently by the comm threads.  With
    ``rowcol=False`` the root slot fans its block out with linear
    point-to-point sends (the world-only API the groups replace).
    B rolls upward via the fused ``sendrecv_replace`` either way.
    """
    gpus_per_node = len(cluster.nodes[0].gpus)
    if cluster.n_nodes * gpus_per_node < cfg.p:
        raise ValueError("not enough GPUs for the Cannon grid")
    node_cfgs = []
    remaining = cfg.p
    for _n in range(cluster.n_nodes):
        g = min(gpus_per_node, remaining)
        remaining -= g
        if g > 0:
            node_cfgs.append(NodeConfig(cpu_threads=0, gpus=g, slots_per_gpu=1))
    rt = DcgnRuntime(cluster, DcgnConfig(node_cfgs))
    a, b = _make_inputs(cfg)
    c_blocks: Dict[int, np.ndarray] = {}
    marks = {}
    q = cfg.grid

    def gpu_worker(kctx):
        comm = kctx.comm
        rank = comm.rank(0)
        r, col = divmod(rank, q)
        up = ((r - 1) % q) * q + col
        down = ((r + 1) % q) * q + col
        device = kctx.device
        da = device.alloc((cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="A")
        db = device.alloc((cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="B")
        dw = device.alloc((cfg.block_n, cfg.block_n), dtype=cfg.dtype, name="W")
        da.data[...] = _block(a, cfg, r, col)
        db.data[...] = _block(b, cfg, (r + 0) % q, col)
        c_blk = np.zeros((cfg.block_n, cfg.block_n), dtype=np.float64)
        row = None
        if rowcol:
            row = yield from comm.split(0, color=r, key=col)
        yield from comm.barrier(0)
        t0 = kctx.sim.now
        for step in range(q):
            root_col = (r + step) % q
            if col == root_col:
                dw.data[...] = da.data
            if rowcol:
                yield from row.broadcast(0, root_col, dw)
            elif col == root_col:
                handles = []
                for dst in range(q):
                    if dst == col:
                        continue
                    h = yield from comm.isend(0, r * q + dst, dw)
                    handles.append(h)
                for h in handles:
                    yield from h.wait()
            else:
                yield from comm.recv(0, r * q + root_col, dw)
            yield from kctx.compute(seconds=_block_matmul_seconds(cfg))
            c_blk += dw.data.astype(np.float64) @ db.data.astype(np.float64)
            if step == q - 1:
                break
            yield from comm.sendrecv_replace(0, up, down, db)
        yield from comm.barrier(0)
        if rank == 0:
            marks["elapsed"] = kctx.sim.now - t0
        c_blocks[rank] = c_blk
        da.free()
        db.free()
        dw.free()

    rt.launch_gpu(gpu_worker, config=LaunchConfig(grid_blocks=1))
    rt.run(max_time=600.0)
    c = np.zeros((cfg.n, cfg.n), dtype=np.float64)
    for rank, blk in c_blocks.items():
        r, col = divmod(rank, q)
        bn = cfg.block_n
        c[r * bn : (r + 1) * bn, col * bn : (col + 1) * bn] = blk
    _verify(cfg, a, b, c)
    model = "dcgn-fox-" + ("rowcol" if rowcol else "world")
    return AppResult(elapsed=marks["elapsed"], units=cfg.p, model=model)
