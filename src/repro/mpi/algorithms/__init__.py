"""Collective algorithm engine: schedules, implementations, selection.

Every algorithm compiles to a round-based
:class:`~repro.mpi.algorithms.schedule.Schedule` — a per-rank DAG of
send/recv/compute steps with explicit dependencies — executed by the
communicator's :class:`~repro.mpi.algorithms.schedule.ScheduleEngine`
either blockingly (classic MPI-2 calls) or in the background (the
MPI-3 style ``i``-collectives and DCGN's comm-thread overlap).

The menu (see :data:`~repro.mpi.algorithms.selector.ALGORITHMS`):

========== ===========================================================
allreduce  ``reduce_bcast`` (seed), ``recursive_doubling``, ``ring``,
           ``hierarchical`` (intra/inter-domain phases)
allgather  ``ring`` (seed), ``recursive_doubling``, ``bruck``
           (non-power-of-two small blocks)
alltoall   ``shift`` (seed), ``pairwise``, ``bruck`` (small blocks)
bcast      ``binomial`` (seed), ``hierarchical`` (domain leaders),
           ``pipelined`` (segmented chain, large payloads)
reduce     ``binomial`` (seed), ``rabenseifner`` (reduce-scatter +
           gather, large vectors)
========== ===========================================================

:class:`AlgorithmSelector` picks per call from message size ×
communicator size × placement using :class:`CollectiveTuning`
thresholds — derived per cluster from the fabric topology by
:mod:`~repro.mpi.algorithms.autotune` (which costs the schedules round
by round) unless explicitly overridden; the op table in
``mpi/collectives.py`` dispatches every adaptive collective through it, so both raw-MPI ranks
and the DCGN comm threads benefit.
"""

from .autotune import autotune_tuning, derive_tuning
from .schedule import Schedule, ScheduleEngine
from .selector import ALGORITHMS, SCHEDULES, AlgorithmSelector
from .tuning import SEED_TUNING, CollectiveTuning

__all__ = [
    "ALGORITHMS",
    "SCHEDULES",
    "AlgorithmSelector",
    "CollectiveTuning",
    "SEED_TUNING",
    "Schedule",
    "ScheduleEngine",
    "autotune_tuning",
    "derive_tuning",
]
