"""Jacobi 2-D stencil: the halo-exchange application family.

A (rows × cols) grid with fixed (Dirichlet) edges is decomposed into
horizontal strips, one per rank; every iteration each rank refreshes
its two ghost rows from its neighbors — the *halo exchange* — then
relaxes its interior.  The exchange is the classic neighbor-traffic hot
path, and this app ships it in four interchangeable MPI flavours plus a
DCGN GPU-kernel-driven one, which is what the ``rma`` artifact of
``python -m repro.bench`` sweeps against each other:

``blocking``
    The textbook deadlock-avoiding two-sided version: four
    parity-ordered blocking send/recv phases (evens send down while
    odds receive, then the mirror, then the same upward).  Each phase
    serializes behind the previous one — the baseline RMA removes.
``nonblocking``
    ``irecv``/``isend`` both directions, then wait — the overlapped
    two-sided version.
``rma_fence``
    Each rank exposes its whole slab as an MPI-3 window; neighbors
    ``put`` boundary rows straight into its ghost rows and a fence
    closes the epoch.  No matching, no rendezvous, no per-message
    receiver software: the halo lands by RDMA.
``rma_pscw``
    Same puts under post-start-complete-wait: synchronization only
    with the actual neighbors instead of a world fence — the cheaper
    sync when the stencil's dependency graph is sparse.
``rma_fence_chunked`` / ``rma_fence_coalesced``
    The strided-halo variants: each boundary row leaves as many small
    column-block puts per epoch.  ``chunked`` pays per-put wire
    latency; ``coalesced`` runs the same puts on a ``coalesce=True``
    window, so they batch onto one wire transfer per neighbor at the
    fence (MVAPICH2-style operation coalescing).

``run_dcgn`` drives the same stencil from GPU kernels: each kernel
pushes its boundary rows into the neighbor's window region with the
slot ``put`` API (GPU-sourced, matching-free) and pulls its refreshed
ghost rows back after a barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from ..hw.cluster import Cluster
from ..mpi.communicator import MpiContext
from ..mpi.job import MpiJob, block_placement
from ..sim.core import Event
from .common import AppResult

__all__ = [
    "JacobiConfig",
    "MPI_BACKENDS",
    "reference",
    "run_mpi",
    "run_dcgn",
]

#: Tags of the downward- and upward-moving halo streams.
_TAG_DOWN = 11
_TAG_UP = 12

MPI_BACKENDS = (
    "blocking",
    "nonblocking",
    "rma_fence",
    "rma_pscw",
    "rma_fence_chunked",
    "rma_fence_coalesced",
)

#: Column blocks per halo row in the chunked fence variants (the
#: strided-halo pattern: many small puts per neighbor per epoch).
_HALO_CHUNKS = 8


@dataclass(frozen=True)
class JacobiConfig:
    """Shape of one Jacobi run.

    The global grid is ``(p * rows_per_rank + 2) × cols``: every rank
    owns ``rows_per_rank`` interior rows, the outermost rows/columns
    are fixed boundary.  One halo row is ``cols * 8`` bytes — size the
    halos through ``cols``.
    """

    p: int
    rows_per_rank: int = 4
    cols: int = 256
    iters: int = 4
    #: Per-rank stencil throughput used to charge compute time
    #: (GFLOP/s; the 4-flop update is strongly memory-bound).
    gflops: float = 4.0
    verify: bool = True

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("jacobi needs at least 2 ranks")
        if self.rows_per_rank < 1 or self.cols < 3:
            raise ValueError("strip too small")
        if self.iters < 1:
            raise ValueError("need at least one iteration")

    @property
    def rows(self) -> int:
        """Global rows including the two boundary rows."""
        return self.p * self.rows_per_rank + 2

    @property
    def halo_bytes(self) -> int:
        """Bytes of one halo row."""
        return self.cols * 8

    def compute_seconds(self) -> float:
        """Modelled per-rank relaxation time of one iteration."""
        flops = 4.0 * self.rows_per_rank * max(1, self.cols - 2)
        return flops / (self.gflops * 1e9)


def _init_field(cfg: JacobiConfig) -> np.ndarray:
    """Deterministic initial condition (no RNG: reproducible)."""
    i = np.arange(cfg.rows, dtype=np.float64)[:, None]
    j = np.arange(cfg.cols, dtype=np.float64)[None, :]
    return ((i * 13.0 + j * 7.0) % 101.0) / 101.0


def reference(cfg: JacobiConfig) -> np.ndarray:
    """Sequential Jacobi, the ground truth every backend must match."""
    u = _init_field(cfg)
    new = u.copy()
    for _ in range(cfg.iters):
        new[1:-1, 1:-1] = 0.25 * (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
        )
        u, new = new, u
    return u


def _relax(u: np.ndarray, new: np.ndarray) -> None:
    """One local relaxation: interior of ``u`` (with ghosts) → ``u``."""
    new[1:-1, 1:-1] = 0.25 * (
        u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
    )
    u[1:-1, 1:-1] = new[1:-1, 1:-1]


# ---------------------------------------------------------------------------
# MPI halo-exchange backends
# ---------------------------------------------------------------------------

def _exchange_blocking(ctx, u, k, up, down):
    """Parity-ordered blocking two-sided exchange (4 serialized phases)."""
    even = ctx.rank % 2 == 0
    # Downward stream: my bottom data row becomes down's top ghost.
    if even:
        if down is not None:
            yield from ctx.send(u[k], down, tag=_TAG_DOWN)
    elif up is not None:
        yield from ctx.recv(u[0], up, tag=_TAG_DOWN)
    if not even:
        if down is not None:
            yield from ctx.send(u[k], down, tag=_TAG_DOWN)
    elif up is not None:
        yield from ctx.recv(u[0], up, tag=_TAG_DOWN)
    # Upward stream: my top data row becomes up's bottom ghost.
    if even:
        if up is not None:
            yield from ctx.send(u[1], up, tag=_TAG_UP)
    elif down is not None:
        yield from ctx.recv(u[k + 1], down, tag=_TAG_UP)
    if not even:
        if up is not None:
            yield from ctx.send(u[1], up, tag=_TAG_UP)
    elif down is not None:
        yield from ctx.recv(u[k + 1], down, tag=_TAG_UP)


def _exchange_nonblocking(ctx, u, k, up, down):
    """Overlapped two-sided exchange: post everything, then wait."""
    reqs = []
    if up is not None:
        reqs.append(ctx.irecv(u[0], up, tag=_TAG_DOWN))
        reqs.append(ctx.isend(u[1], up, tag=_TAG_UP))
    if down is not None:
        reqs.append(ctx.irecv(u[k + 1], down, tag=_TAG_UP))
        reqs.append(ctx.isend(u[k], down, tag=_TAG_DOWN))
    for r in reqs:
        yield from r.wait()


def _exchange_rma_fence(wctx, u, k, cols, up, down):
    """One-sided halo: put boundary rows into the neighbors' ghost rows
    (their window offsets), close the epoch with a fence."""
    if down is not None:
        yield from wctx.put(down, u[k], offset=0)
    if up is not None:
        yield from wctx.put(up, u[1], offset=(k + 1) * cols)
    yield from wctx.fence()


def _exchange_rma_fence_chunked(wctx, u, k, cols, up, down):
    """Column-blocked halo pushes: each boundary row leaves as
    ``_HALO_CHUNKS`` separate small puts (the strided-halo pattern real
    stencils with non-contiguous boundaries produce).  On a plain
    window every chunk pays its own header and fabric latency; on a
    ``coalesce=True`` window the per-neighbor chunks merge onto one
    wire transfer at the fence — the MVAPICH2-style coalescing win
    ``rma`` benchmark gates."""
    bounds = [(c * cols) // _HALO_CHUNKS for c in range(_HALO_CHUNKS + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        if down is not None:
            yield from wctx.put(down, u[k, lo:hi], offset=lo)
        if up is not None:
            yield from wctx.put(
                up, u[1, lo:hi], offset=(k + 1) * cols + lo
            )
    yield from wctx.fence()


def _exchange_rma_pscw(wctx, u, k, cols, up, down, nbrs):
    """Same puts under PSCW: synchronize with the neighbors only."""
    yield from wctx.post(nbrs)
    yield from wctx.start(nbrs)
    if down is not None:
        yield from wctx.put(down, u[k], offset=0)
    if up is not None:
        yield from wctx.put(up, u[1], offset=(k + 1) * cols)
    yield from wctx.complete()
    yield from wctx.wait_sync()


def run_mpi(
    cluster: Cluster,
    cfg: JacobiConfig,
    backend: str = "blocking",
    placement: Optional[List[int]] = None,
    exec_backend: str = "exact",
) -> AppResult:
    """Run the stencil under one of :data:`MPI_BACKENDS`.

    ``exec_backend`` selects the simulator's timing engine
    (``"exact"`` | ``"analytic"`` | ``"pricing"``): the analytic
    backends price collectives and window epochs without per-op wire
    processes, which is what makes 1024-rank halo sweeps interactive.
    ``"pricing"`` moves no data, so verification is skipped.
    """
    if backend not in MPI_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; pick one of {MPI_BACKENDS}"
        )
    if placement is None:
        placement = block_placement(cfg.p, cluster.n_nodes)
    job = MpiJob(cluster, placement, backend=exec_backend)
    field = _init_field(cfg)
    strips: Dict[int, np.ndarray] = {}
    marks: Dict[str, float] = {}
    k, cols = cfg.rows_per_rank, cfg.cols

    def worker(ctx: MpiContext) -> Generator[Event, Any, None]:
        r = ctx.rank
        up = r - 1 if r > 0 else None
        down = r + 1 if r < cfg.p - 1 else None
        nbrs = [n for n in (up, down) if n is not None]
        # Local slab with ghost rows; rank r owns global rows
        # [1 + r*k, 1 + (r+1)*k).
        u = field[r * k : r * k + k + 2].copy()
        new = u.copy()
        wctx = None
        if backend.startswith("rma_"):
            wctx = yield from ctx.win_create(
                u, coalesce=(backend == "rma_fence_coalesced")
            )
            if backend != "rma_pscw":
                yield from wctx.fence()  # open the first epoch
        yield from ctx.barrier()
        if r == 0:
            marks["t0"] = ctx.sim.now
        for _ in range(cfg.iters):
            if backend == "blocking":
                yield from _exchange_blocking(ctx, u, k, up, down)
            elif backend == "nonblocking":
                yield from _exchange_nonblocking(ctx, u, k, up, down)
            elif backend == "rma_fence":
                yield from _exchange_rma_fence(
                    wctx, u, k, cols, up, down
                )
            elif backend in ("rma_fence_chunked", "rma_fence_coalesced"):
                yield from _exchange_rma_fence_chunked(
                    wctx, u, k, cols, up, down
                )
            else:
                yield from _exchange_rma_pscw(
                    wctx, u, k, cols, up, down, nbrs
                )
            yield ctx.sim.timeout(cfg.compute_seconds())
            _relax(u, new)
        yield from ctx.barrier()
        if r == 0:
            marks["t1"] = ctx.sim.now
        strips[r] = u

    job.start(worker)
    job.run()
    result = _assemble(
        cfg, field, strips, verify=(exec_backend != "pricing")
    )
    return AppResult(
        elapsed=marks["t1"] - marks["t0"],
        units=cfg.p,
        model="mpi",
        extras={"backend": backend, "checksum": float(result.sum())},
    )


def _assemble(
    cfg: JacobiConfig,
    field: np.ndarray,
    strips: Dict[int, np.ndarray],
    verify: bool = True,
) -> np.ndarray:
    """Stitch the per-rank strips back together and (optionally) verify
    against the sequential reference."""
    k = cfg.rows_per_rank
    out = field.copy()
    for r, strip in strips.items():
        out[1 + r * k : 1 + (r + 1) * k] = strip[1 : k + 1]
    if cfg.verify and verify:
        ref = reference(cfg)
        if not np.allclose(out, ref, atol=1e-12):
            err = float(np.abs(out - ref).max())
            raise AssertionError(
                f"jacobi field mismatch (max err {err:.3e})"
            )
    return out


# ---------------------------------------------------------------------------
# DCGN: GPU-kernel-driven one-sided halo exchange
# ---------------------------------------------------------------------------

def run_dcgn(
    cluster: Cluster, cfg: JacobiConfig, backend: str = "exact"
) -> AppResult:
    """GPU kernels push halos into the neighbors' window regions.

    One GPU slot per rank.  Each iteration the kernel ``put``s its
    boundary rows into the adjacent ranks' window regions (the paper's
    GPU-as-source idea, now with no matching receive anywhere), crosses
    a barrier, ``get``s its two refreshed ghost rows from its *own*
    region, and relaxes.

    ``backend`` selects the node-level MPI timing engine the comm
    threads ride (``"exact"`` | ``"analytic"`` | ``"pricing"``; see
    :class:`~repro.dcgn.DcgnConfig`).  ``"pricing"`` moves no window
    data, so verification is skipped.
    """
    from ..dcgn import DcgnConfig, DcgnRuntime, NodeConfig
    from ..gpusim.kernel import LaunchConfig

    gpus_per_node = len(cluster.nodes[0].gpus)
    if cluster.n_nodes * gpus_per_node < cfg.p:
        raise ValueError("not enough GPUs for the Jacobi strips")
    node_cfgs = []
    remaining = cfg.p
    for _ in range(cluster.n_nodes):
        g = min(gpus_per_node, remaining)
        remaining -= g
        if g > 0:
            node_cfgs.append(NodeConfig(gpus=g, slots_per_gpu=1))
    k, cols = cfg.rows_per_rank, cfg.cols
    rt = DcgnRuntime(
        cluster,
        DcgnConfig(
            node_cfgs, windows={"halo": (k + 2) * cols}, backend=backend
        ),
    )
    field = _init_field(cfg)
    strips: Dict[int, np.ndarray] = {}
    marks: Dict[str, float] = {}

    def kernel(kctx):
        comm = kctx.comm
        me = comm.rank(0)
        up = me - 1 if me > 0 else None
        down = me + 1 if me < cfg.p - 1 else None
        dev = kctx.device
        u = dev.alloc((k + 2, cols), name="slab")
        u.data[...] = field[me * k : me * k + k + 2]
        new = u.data.copy()
        row_top = dev.alloc(cols, name="row_top")
        row_bot = dev.alloc(cols, name="row_bot")
        ghosts = dev.alloc(cols, name="ghosts")
        # Seed my own window region with the slab so ghost reads of the
        # fixed global boundary rows stay valid.
        rt.window("halo").region(me)[...] = u.data.reshape(-1)
        yield from comm.barrier(0)
        if me == 0:
            marks["t0"] = kctx.sim.now
        row_nbytes = cols * 8
        for _ in range(cfg.iters):
            if down is not None:
                row_bot.data[...] = u.data[k]
                yield from comm.put(
                    0, "halo", down, row_bot, offset=0,
                    nbytes=row_nbytes,
                )
            if up is not None:
                row_top.data[...] = u.data[1]
                yield from comm.put(
                    0, "halo", up, row_top, offset=(k + 1) * cols,
                    nbytes=row_nbytes,
                )
            yield from comm.barrier(0)
            if up is not None:
                yield from comm.get(
                    0, "halo", me, ghosts, offset=0, nbytes=row_nbytes
                )
                u.data[0] = ghosts.data
            if down is not None:
                yield from comm.get(
                    0, "halo", me, ghosts, offset=(k + 1) * cols,
                    nbytes=row_nbytes,
                )
                u.data[k + 1] = ghosts.data
            # Second barrier: nobody may overwrite a window region with
            # next-iteration halos until every rank has read this
            # iteration's (the gets go through the polled comm path, so
            # wire latency alone does not order them as it does for the
            # in-place MPI window variants).
            yield from comm.barrier(0)
            yield from kctx.compute(seconds=cfg.compute_seconds())
            _relax(u.data, new)
        yield from comm.barrier(0)
        if me == 0:
            marks["t1"] = kctx.sim.now
        strips[me] = u.data.copy()
        for buf in (u, row_top, row_bot, ghosts):
            buf.free()

    rt.launch_gpu(kernel, config=LaunchConfig(grid_blocks=1))
    rt.run(max_time=600.0)
    result = _assemble(cfg, field, strips, verify=(backend != "pricing"))
    return AppResult(
        elapsed=marks["t1"] - marks["t0"],
        units=cfg.p,
        model="dcgn",
        extras={"backend": "dcgn_rma", "checksum": float(result.sum())},
    )
