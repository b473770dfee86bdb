"""The serving layer: scheduler, placement, open-loop workloads.

Turns the one-job-per-cluster simulator into a multi-tenant serving
substrate (ROADMAP item 3): :class:`ClusterScheduler` queues and places
concurrent jobs on one shared fabric with FIFO+backfill admission,
:mod:`~repro.serve.placement` picks node sets by locality
(packed/spread/random), and :mod:`~repro.serve.workload` drives
request services under open-loop Poisson load with per-request latency
tracing.  The ``serving`` artifact of ``python -m repro.bench`` is the
gated study: locality-aware placement vs. random under offered-load
sweeps.
"""

from .errors import PlacementError, SchedulerError, ServeError
from .placement import (
    POLICIES,
    domains_of,
    fragmentation,
    placement_score,
    select_nodes,
)
from .scheduler import (
    CANCELLED,
    DONE,
    PLACING,
    QUEUED,
    RUNNING,
    ClusterScheduler,
    Job,
    JobSpec,
)
from .workload import (
    OpenLoopDriver,
    Request,
    RequestLog,
    open_loop_arrivals,
    percentile,
)

__all__ = [
    "ServeError",
    "SchedulerError",
    "PlacementError",
    "POLICIES",
    "select_nodes",
    "placement_score",
    "fragmentation",
    "domains_of",
    "ClusterScheduler",
    "Job",
    "JobSpec",
    "QUEUED",
    "PLACING",
    "RUNNING",
    "DONE",
    "CANCELLED",
    "OpenLoopDriver",
    "Request",
    "RequestLog",
    "open_loop_arrivals",
    "percentile",
]
