"""Cluster scheduler: concurrent jobs carved out of one shared fabric.

Everything before this layer ran one job on a dedicated cluster.  The
:class:`ClusterScheduler` turns the cluster into a *serving substrate*:
it owns a single **fabric communicator** — one MPI rank per node over
the whole :class:`~repro.hw.cluster.Cluster` — and every admitted job
gets a sub-communicator (:meth:`Communicator.create`, PR 4) over just
its nodes.  That split does exactly what multi-tenancy needs:

* **tag-space isolation** — each derived communicator has its own
  matching stores and tag space, so concurrent jobs cannot steal each
  other's messages;
* **real congestion** — every sub-communicator still routes through the
  shared :class:`~repro.hw.topology.base.Topology` channels, so two
  jobs whose placements share a fat-tree uplink genuinely queue against
  each other (under the exact backend; the analytic backend prices each
  transfer's routed path uncontended);
* **per-placement tuning** — the sub-communicator autotunes from the
  sub-fabric its nodes span, so a fragmented placement falls back to
  hierarchical schedules on its own.

Admission is **FIFO with aggressive backfill**: the queue head is
placed as soon as it fits; when it does not fit, later jobs that *do*
fit start immediately.  Backfill here takes no reservation for the
blocked head (EASY-style reservations need runtime estimates, which
jobs do not declare) — a stream of small jobs can therefore delay a
large head indefinitely; the model checker's contention scenarios pin
the safety properties, and preemption/reservations are the ROADMAP
follow-on.

Job lifecycle::

    submit -> queued -> placing -> running -> done
                  \\         \\
                   cancelled  cancelled

``placing`` models launch overhead — the pPython performance study's
observation that job start cost scales with the process count is why
the delay has a per-node term — and is the window where a cancel can
still win the race against the launch.

The scheduler is **callback-driven**: admission runs synchronously
inside ``submit``/cancel/completion, and only placement delays and job
watchers are simulated processes.  There is no perpetually-blocked
scheduler loop, so an idle scheduler never trips the simulator's
deadlock detector and the whole thing composes with
:class:`~repro.sim.explore.ExploringSimulator` sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from ..hw.cluster import Cluster
from ..mpi.communicator import Communicator
from ..mpi.group import Group
from ..sim.core import Event, Process, Simulator, us
from .errors import PlacementError, SchedulerError
from .placement import POLICIES, select_nodes

__all__ = [
    "JobSpec",
    "Job",
    "ClusterScheduler",
    "QUEUED",
    "PLACING",
    "RUNNING",
    "DONE",
    "CANCELLED",
]

#: Job lifecycle states.
QUEUED = "queued"
PLACING = "placing"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL = frozenset({DONE, CANCELLED})


@dataclass
class JobSpec:
    """What a tenant submits.

    ``program(ctx, *args)`` runs on every rank of the job's
    sub-communicator (the :class:`~repro.mpi.job.MpiJob` convention).
    Jobs that need custom process wiring — a DCGN runtime, a
    master/worker split — pass ``launch(job) -> [Process]`` instead,
    and optionally ``finalize(job)`` (a generator the watcher drains
    after the processes finish, before the communicator is freed — the
    place a DCGN job winds its service threads down).
    """

    name: str
    n_nodes: int
    program: Optional[Callable[..., Generator[Event, Any, Any]]] = None
    args: tuple = ()
    launch: Optional[Callable[["Job"], List[Process]]] = None
    finalize: Optional[
        Callable[["Job"], Generator[Event, Any, None]]
    ] = None
    metadata: dict = field(default_factory=dict)


class Job:
    """One submitted job's live state (scheduler-owned)."""

    __slots__ = (
        "id",
        "spec",
        "state",
        "nodes",
        "comm",
        "runtime",
        "cancel_requested",
        "submit_t",
        "place_t",
        "start_t",
        "end_t",
        "done",
        "_procs",
    )

    def __init__(
        self, scheduler: "ClusterScheduler", job_id: int, spec: JobSpec
    ) -> None:
        # No back-reference to the scheduler: the job list would close a
        # cycle, keeping a finished run (its services' rendered data)
        # alive until a full garbage collection.
        self.id = job_id
        self.spec = spec
        self.state = QUEUED
        #: Nodes reserved for this job (set when placement starts).
        self.nodes: Optional[List[int]] = None
        #: The job's sub-communicator (set when it starts running;
        #: freed — but kept for inspection — when the job finishes).
        self.comm: Optional[Communicator] = None
        #: Slot for job-owned runtime state (e.g. a DcgnRuntime).
        self.runtime: Any = None
        self.cancel_requested = False
        self.submit_t = scheduler.sim.now
        self.place_t: Optional[float] = None
        self.start_t: Optional[float] = None
        self.end_t: Optional[float] = None
        #: Fires (with the terminal state) when the job ends.
        self.done: Event = scheduler.sim.event(
            name=f"serve.done.{spec.name}"
        )
        self._procs: List[Process] = []

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds spent queued (None while still queued)."""
        if self.place_t is None:
            return None
        return self.place_t - self.submit_t

    def results(self) -> List[Any]:
        """Per-process return values (valid once done)."""
        return [p.value for p in self._procs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Job #{self.id} {self.name!r} {self.state}>"


class ClusterScheduler:
    """FIFO + backfill admission over one shared cluster.

    ``policy`` picks the placement policy (see
    :mod:`repro.serve.placement`); ``backend`` is handed to the fabric
    communicator and inherited by every job's sub-communicator
    (``"exact"`` for real shared-wire contention, ``"analytic"`` /
    ``"pricing"`` for large sweeps).  ``place_delay_us`` +
    ``launch_us_per_node`` × nodes model job launch overhead.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: str = "packed",
        backend: str = "exact",
        seed: int = 0,
        place_delay_us: float = 200.0,
        launch_us_per_node: float = 12.5,
        tuning=None,
    ) -> None:
        if policy not in POLICIES:
            raise PlacementError(
                f"unknown placement policy {policy!r}; valid: "
                + ", ".join(POLICIES)
            )
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.policy = policy
        self.place_delay_us = place_delay_us
        self.launch_us_per_node = launch_us_per_node
        self.topology = cluster.topology
        #: The shared fabric: one rank per node, world ids == node ids.
        self.fabric = Communicator(
            cluster,
            list(range(cluster.n_nodes)),
            tuning=tuning,
            backend=backend,
            name="fabric",
        )
        #: node id -> owning job id (None = free).
        self._owner: List[Optional[int]] = [None] * cluster.n_nodes
        self._queue: List[Job] = []
        #: Every job ever submitted, by id.
        self.jobs: List[Job] = []
        self._rng = random.Random(seed)
        #: Scheduler counters (mirrors of the sim.stats serve_* fields,
        #: kept per-scheduler so concurrent schedulers stay separable).
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "backfilled": 0,
            "completed": 0,
            "cancelled": 0,
        }
        self._released = False

    # -- introspection -----------------------------------------------------
    @property
    def n_free(self) -> int:
        return sum(1 for o in self._owner if o is None)

    def free_nodes(self) -> List[int]:
        """Currently unowned nodes, ascending."""
        return [n for n, o in enumerate(self._owner) if o is None]

    def owner_of(self, node: int) -> Optional[int]:
        """Owning job id of ``node`` (None = free)."""
        return self._owner[node]

    @property
    def outstanding(self) -> List[Job]:
        """Jobs not yet in a terminal state."""
        return [j for j in self.jobs if j.state not in TERMINAL]

    # -- public API --------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Queue a job; placement may start immediately (same instant)."""
        if self._released:
            raise SchedulerError("scheduler has been released")
        if spec.n_nodes < 1:
            raise SchedulerError(
                f"job {spec.name!r} requests {spec.n_nodes} nodes"
            )
        if spec.n_nodes > self.cluster.n_nodes:
            raise SchedulerError(
                f"job {spec.name!r} requests {spec.n_nodes} nodes; "
                f"the cluster has {self.cluster.n_nodes} — it can "
                "never be placed"
            )
        if spec.program is None and spec.launch is None:
            raise SchedulerError(
                f"job {spec.name!r} has neither program nor launch"
            )
        job = Job(self, len(self.jobs), spec)
        self.jobs.append(job)
        self._queue.append(job)
        self.stats["submitted"] += 1
        self.sim.stats.serve_jobs += 1
        self._admit()
        return job

    def cancel(self, job: Job) -> None:
        """Cancel a queued or placing job.

        Cancelling a running job raises — preemption (checkpoint,
        drain, re-queue) is the ROADMAP follow-on.  Cancelling a
        terminal job is a no-op.
        """
        if job.state in TERMINAL:
            return
        if job.state == QUEUED:
            self._queue.remove(job)
            self._finish(job, CANCELLED)
            return
        if job.state == PLACING:
            # The placement process observes the flag when its launch
            # delay elapses and releases the reservation.
            job.cancel_requested = True
            return
        raise SchedulerError(
            f"cannot cancel running job {job.name!r} "
            "(preemption is not implemented)"
        )

    def release(self) -> None:
        """Tear the scheduler down (driver-level, after all jobs end).

        Frees the fabric communicator so repeated scheduler builds on
        one simulation don't accumulate matching/engine state.  Refuses
        while jobs are outstanding.
        """
        if self._released:
            return
        live = self.outstanding
        if live:
            names = ", ".join(j.name for j in live[:4])
            raise SchedulerError(
                f"cannot release scheduler with live jobs: {names}"
            )
        self._released = True
        self.fabric.release()

    # -- admission ---------------------------------------------------------
    def _admit(self) -> None:
        """Place every job the FIFO+backfill rule admits right now."""
        i = 0
        head_blocked = False
        while i < len(self._queue):
            job = self._queue[i]
            if job.spec.n_nodes <= self.n_free:
                self._queue.pop(i)
                if head_blocked:
                    self.stats["backfilled"] += 1
                    self.sim.stats.serve_backfills += 1
                spans = self.sim.spans
                if spans is not None:
                    attrs = {"job_id": job.id}
                    if head_blocked:
                        attrs["backfilled"] = True
                    spans.complete(
                        job.submit_t, self.sim.now, "queued", "serve.job",
                        f"job.{job.name}", attrs=attrs,
                    )
                self._start_placement(job)
                # The free set shrank; re-test the next entry in place.
            else:
                head_blocked = True
                i += 1

    def _start_placement(self, job: Job) -> None:
        """Select and reserve nodes, then launch the placement process.

        Selection and reservation are **atomic** — no scheduling point
        between them — which is the property the model checker's buggy
        double-allocation fixture deliberately violates.
        """
        nodes = select_nodes(
            self.policy,
            self.topology,
            self.free_nodes(),
            job.spec.n_nodes,
            self._rng,
        )
        for n in nodes:
            if self._owner[n] is not None:
                raise SchedulerError(
                    f"reservation conflict: node {n} already owned by "
                    f"job {self._owner[n]} (scheduler bug)"
                )
        for n in nodes:
            self._owner[n] = job.id
        job.nodes = nodes
        job.state = PLACING
        job.place_t = self.sim.now
        self.sim.process(
            self._place(job), name=f"serve.place.{job.name}"
        )

    def _launch_overhead_s(self, n_nodes: int) -> float:
        return us(
            self.place_delay_us + self.launch_us_per_node * n_nodes
        )

    def _place(self, job: Job) -> Generator[Event, Any, None]:
        yield self.sim.timeout(
            self._launch_overhead_s(job.spec.n_nodes),
            name=f"serve.launch.{job.name}",
        )
        if job.cancel_requested:
            self._release_nodes(job)
            self._finish(job, CANCELLED)
            self._admit()
            return
        assert job.nodes is not None
        job.comm = self.fabric.create(Group(job.nodes))
        job.state = RUNNING
        job.start_t = self.sim.now
        spans = self.sim.spans
        if spans is not None:
            spans.complete(
                job.place_t, job.start_t, "placing", "serve.job",
                f"job.{job.name}",
                attrs={"job_id": job.id, "n_nodes": len(job.nodes)},
            )
        if job.spec.launch is not None:
            job._procs = list(job.spec.launch(job))
        else:
            comm = job.comm
            job._procs = [
                self.sim.process(
                    job.spec.program(comm.ctx(r), *job.spec.args),
                    name=f"serve.{job.name}.r{r}",
                )
                for r in range(comm.size)
            ]
        self.sim.process(
            self._watch(job), name=f"serve.watch.{job.name}"
        )

    def _watch(self, job: Job) -> Generator[Event, Any, None]:
        # A failed rank process propagates out of this yield and kills
        # the watcher — job failure is loud (the nodes stay reserved
        # and the crash surfaces at sim.run), not silently absorbed.
        for p in job._procs:
            yield p
        if job.spec.finalize is not None:
            yield from job.spec.finalize(job)
        job.comm.free()
        self._release_nodes(job)
        self._finish(job, DONE)
        self.stats["completed"] += 1
        self._admit()

    # -- bookkeeping -------------------------------------------------------
    def _release_nodes(self, job: Job) -> None:
        assert job.nodes is not None
        for n in job.nodes:
            if self._owner[n] != job.id:
                raise SchedulerError(
                    f"release conflict: node {n} owned by "
                    f"{self._owner[n]}, not job {job.id} (scheduler bug)"
                )
            self._owner[n] = None

    def _finish(self, job: Job, state: str) -> None:
        spans = self.sim.spans
        if spans is not None:
            # Close out whatever phase the job was in when it ended.
            track = f"job.{job.name}"
            if job.state == RUNNING:
                spans.complete(
                    job.start_t, self.sim.now, "running", "serve.job",
                    track, attrs={"job_id": job.id, "outcome": state},
                )
            elif job.state == PLACING:
                spans.complete(
                    job.place_t, self.sim.now, "placing", "serve.job",
                    track, attrs={"job_id": job.id, "outcome": state},
                )
            elif job.state == QUEUED:
                spans.complete(
                    job.submit_t, self.sim.now, "queued", "serve.job",
                    track, attrs={"job_id": job.id, "outcome": state},
                )
        job.state = state
        job.end_t = self.sim.now
        if state == CANCELLED:
            self.stats["cancelled"] += 1
        job.done.succeed(state)
