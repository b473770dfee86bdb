"""DCGN runtime: job setup, kernel launching, supervision, shutdown.

The runtime plays the role of the paper's ``dcgn::init`` + kernel-launch
machinery: it validates the configuration, assigns virtual ranks, spawns
one communication thread per node and one GPU-kernel thread per
requested GPU, and exposes ``launch_cpu`` / ``launch_gpu``.

``run()`` drives the simulation until every kernel finishes, then shuts
the service threads down (the analogue of ``MPI_Finalize``).  A watchdog
converts hangs — e.g. the paper's §3.2.4 block-scheduling deadlock —
into :class:`GpuCommDeadlock`/:class:`DcgnTimeout` with diagnostics.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..gpusim.errors import GpuCommDeadlock
from ..gpusim.kernel import KernelHandle, LaunchConfig
from ..hw.cluster import Cluster
from ..mpi.communicator import Communicator
from ..sim.core import Event, Process, Simulator
from ..sim.sync import Signal
from .comm_thread import CommThread
from .config import DcgnConfig
from .api import CpuKernelContext
from .errors import DcgnConfigError, DcgnTimeout
from .gpu_thread import GpuKernelThread
from .groups import DcgnGroup, GroupTable
from .polling import PollPolicy
from .ranks import RankMap
from .windows import DcgnWindow, DcgnWindowTable

__all__ = ["DcgnRuntime"]


class DcgnRuntime:
    """One DCGN job on a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        config: DcgnConfig,
        policy_factory: Optional[Callable[[], PollPolicy]] = None,
        node_comm: Optional[Communicator] = None,
    ) -> None:
        config.validate_against(cluster)
        self.cluster = cluster
        self.config = config
        self.sim: Simulator = cluster.sim
        self.rankmap = RankMap(config)
        #: Cluster node hosting each local node index (identity unless
        #: ``config.node_ids`` places the job elsewhere).
        self.node_ids = config.cluster_node_ids()
        # One MPI rank per participating node (the DCGN process).  The
        # job's collective tuning steers this communicator's algorithm
        # selection, so DCGN-layer collectives ride the same engine —
        # and its backend decides whether staged collectives and window
        # operations run exact wire processes or the analytic pricer.
        # A scheduler (repro.serve) passes its own ``node_comm`` — the
        # job's sub-communicator of the shared fabric — so tag spaces
        # stay isolated per job; the runtime then does not own it.
        self._owns_node_comm = node_comm is None
        if node_comm is None:
            node_comm = Communicator(
                cluster,
                placement=list(self.node_ids),
                tuning=config.tuning,
                backend=config.backend,
            )
        else:
            if tuple(node_comm.placement) != self.node_ids:
                raise DcgnConfigError(
                    f"node_comm placement {tuple(node_comm.placement)} "
                    f"does not match the job's nodes {self.node_ids}"
                )
        self.node_comm = node_comm
        #: Slot-group registry: the world group, every group declared in
        #: ``config.slot_groups`` (each backed by its own node-level MPI
        #: sub-communicator), and any groups kernels later form via the
        #: collective ``split``.  Shared by all comm threads.
        self.groups = GroupTable(self.rankmap, self.node_comm)
        for gname, vranks in config.slot_groups:
            self.groups.declare(gname, vranks)
        #: One-sided window registry (``config.windows`` plus any
        #: :meth:`create_window` calls before ``run``); shared by all
        #: comm threads so any origin can reach any target region.
        self.windows = DcgnWindowTable(self.rankmap, self.node_comm)
        for wname, spec in config.windows:
            self.windows.declare(wname, spec)
        #: Per-node kick signals (CPU request activity wakes GPU pollers).
        self.kicks: List[Signal] = [
            Signal(self.sim, name=f"dcgn.kick{n}")
            for n in range(config.n_nodes)
        ]
        #: The job's request numbering, shared by every comm thread.
        req_ids = itertools.count()
        self.comm_threads: List[CommThread] = [
            CommThread(
                self.sim,
                cluster.nodes[self.node_ids[n]],
                self.node_comm.ctx(n),
                self.rankmap,
                kick=self.kicks[n],
                groups=self.groups,
                windows=self.windows,
                req_ids=req_ids,
            )
            for n in range(config.n_nodes)
        ]
        self.gpu_threads: Dict[Tuple[int, int], GpuKernelThread] = {}
        for n, nc in enumerate(config.nodes):
            for g in range(nc.gpus):
                self.gpu_threads[(n, g)] = GpuKernelThread(
                    self.sim,
                    self.comm_threads[n],
                    cluster.nodes[self.node_ids[n]].gpus[g],
                    self.rankmap,
                    gpu_index=g,
                    slots=nc.slots_per_gpu,
                    kick=self.kicks[n],
                    policy=policy_factory() if policy_factory else None,
                )
        self._kernel_procs: List[Process] = []
        self._gpu_handles: List[KernelHandle] = []
        self._launchers: List[Process] = []

    # -- introspection -----------------------------------------------------
    @property
    def size(self) -> int:
        """Total virtual ranks."""
        return self.rankmap.size

    def group(self, name: str) -> DcgnGroup:
        """A declared slot group by name (``"world"`` always exists)."""
        return self.groups.by_name(name)

    def window(self, name: str) -> "DcgnWindow":
        """A declared one-sided window by name."""
        return self.windows.by_name(name)

    def create_window(self, name: str, spec) -> "DcgnWindow":
        """Declare a window before launching kernels (same forms as
        ``DcgnConfig(windows=...)``)."""
        return self.windows.declare(name, spec)

    def cpu_context(self, vrank: int) -> CpuKernelContext:
        """Build the kernel context for a CPU virtual rank."""
        info = self.rankmap.info(vrank)
        if not self.rankmap.is_cpu(vrank):
            raise DcgnConfigError(f"vrank {vrank} is not a CPU rank")
        return CpuKernelContext(self.comm_threads[info.node], vrank)

    # -- launching ---------------------------------------------------------
    def launch_cpu(
        self,
        fn: Callable[..., Generator[Event, Any, Any]],
        args: tuple = (),
        ranks: Optional[Sequence[int]] = None,
    ) -> List[Process]:
        """Run ``fn(ctx, *args)`` as a CPU kernel on each given CPU rank.

        Defaults to every CPU rank in the job.
        """
        targets = (
            list(ranks) if ranks is not None else self.rankmap.cpu_ranks()
        )
        procs = []
        for vrank in targets:
            ctx = self.cpu_context(vrank)
            p = self.sim.process(fn(ctx, *args), name=f"dcgn.cpu{vrank}")
            procs.append(p)
        self._kernel_procs.extend(procs)
        return procs

    def launch_gpu(
        self,
        fn: Callable[..., Generator[Event, Any, Any]],
        args: tuple = (),
        config: Optional[LaunchConfig] = None,
        gpus: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        """Launch ``fn`` as a communicating kernel on the given GPUs.

        ``gpus`` is a list of (node, gpu_index); default: every requested
        GPU.  The default grid runs one block per slot.
        """
        targets = (
            list(gpus) if gpus is not None else sorted(self.gpu_threads)
        )

        for key in targets:
            if key not in self.gpu_threads:
                raise DcgnConfigError(f"GPU {key} is not part of the job")
            gt = self.gpu_threads[key]

            def launcher(gt=gt):
                handle = yield from gt.launch(fn, config=config, args=args)
                self._gpu_handles.append(handle)
                yield handle.done

            self._launchers.append(
                self.sim.process(
                    launcher(), name=f"dcgn.launch{key[0]}.{key[1]}"
                )
            )

    # -- execution -----------------------------------------------------------
    def run(self, max_time: float = 30.0) -> "DcgnReport":
        """Drive the simulation to completion (or watchdog expiry)."""
        self.sim.run(until=max_time, detect_deadlock=False)
        unfinished = [p for p in self._kernel_procs if p.is_alive]
        unfinished_launch = [p for p in self._launchers if p.is_alive]
        if unfinished or unfinished_launch:
            self._diagnose_hang(unfinished, unfinished_launch)
        # All kernels done: wind the service threads down.
        for ct in self.comm_threads:
            ct.shutdown()
        for gt in self.gpu_threads.values():
            gt.shutdown()
        end = self.sim.run(until=max_time * 2, detect_deadlock=False)
        still = [
            ct.name for ct in self.comm_threads if ct.proc.is_alive
        ] + [gt.name for gt in self.gpu_threads.values() if gt.proc.is_alive]
        if still:
            raise DcgnTimeout(
                f"service threads did not drain: {', '.join(still)}"
            )
        return DcgnReport(self)

    def drain(self) -> Generator[Event, Any, None]:
        """In-simulation wind-down: join the kernels, then stop the
        service threads (the co-tenant analogue of :meth:`run`'s
        shutdown phase).

        :meth:`run` drives the whole simulation itself, which only
        works for a dedicated cluster.  A DCGN job *embedded* in a
        larger simulation — placed by the serving scheduler next to
        other jobs — yields from this instead (typically as the job's
        ``finalize``), so the wind-down happens at the right simulated
        time without monopolizing the event loop.
        """
        for p in self._kernel_procs + self._launchers:
            yield p
        for ct in self.comm_threads:
            ct.shutdown()
        for gt in self.gpu_threads.values():
            gt.shutdown()
        for ct in self.comm_threads:
            if ct.proc.is_alive:
                yield ct.proc
        for gt in self.gpu_threads.values():
            if gt.proc.is_alive:
                yield gt.proc

    def shutdown(self) -> None:
        """Release the job's communicator state (driver-level; after
        :meth:`run` or :meth:`drain`).

        Frees every slot group's sub-communicator, severs the DCGN
        windows' underlying MPI windows, and — when the runtime built
        its own node communicator — releases it.  Without this, a
        scheduler churning thousands of DCGN jobs on one cluster
        accumulates matching stores and schedule engines without
        bound.  A node communicator passed in by a scheduler is left
        for its owner to free.
        """
        self.windows.release()
        self.groups.release()
        if self._owns_node_comm and not self.node_comm._freed:
            self.node_comm.release(force=True)

    def _diagnose_hang(
        self, unfinished: List[Process], unfinished_launch: List[Process]
    ) -> None:
        gpu_state = [
            gt.describe_state()
            for gt in self.gpu_threads.values()
            if gt.busy
        ]
        # Detect the paper's §3.2.4 hazard: a kernel with unscheduled
        # blocks while every resident block is blocked on communication.
        for gt in self.gpu_threads.values():
            for h in gt._handles:
                if h.finished:
                    continue
                dev = h.device
                waiting_for_sm = dev.sm_slots.queued
                if waiting_for_sm > 0:
                    raise GpuCommDeadlock(
                        "kernel requires more co-resident blocks than the "
                        "device supports (paper §3.2.4): "
                        + h.describe_blocked()
                    )
        names = [p.name for p in unfinished] + [
            p.name for p in unfinished_launch
        ]
        detail = "; ".join(gpu_state) if gpu_state else "no GPU activity"
        raise DcgnTimeout(
            f"watchdog expired with unfinished kernels: {', '.join(names)} "
            f"({detail})"
        )


class DcgnReport:
    """Post-run access to results and overhead statistics."""

    def __init__(self, runtime: DcgnRuntime) -> None:
        self.runtime = runtime
        self.finished_at = runtime.sim.now

    def cpu_results(self) -> List[Any]:
        """Return values of CPU kernels in launch order."""
        return [p.value for p in self.runtime._kernel_procs]

    def gpu_block_results(self) -> List[List[Any]]:
        """Per-launch block results."""
        return [h.block_results for h in self.runtime._gpu_handles]

    def comm_stats(self) -> Dict[str, int]:
        """Aggregated comm-thread counters across nodes."""
        out: Dict[str, int] = {}
        for ct in self.runtime.comm_threads:
            for k, v in ct.stats.items():
                out[k] = out.get(k, 0) + v
        return out

    def polling_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-GPU-thread polling counters (ablation A1)."""
        return {
            gt.name: {
                "polls": gt.polls,
                "empty_polls": gt.empty_polls,
                "pcie_probes": gt.device.pcie.probe_count,
            }
            for gt in self.runtime.gpu_threads.values()
        }
