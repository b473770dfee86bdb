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
from .barrier import build_barrier_dissemination
from .schedule import Schedule, ScheduleEngine, blocking
from .selector import ALGORITHMS, SCHEDULES, AlgorithmSelector, binder
from .tuning import SEED_TUNING, CollectiveTuning

# Public blocking entry points ARE the registry values — one wrapper
# object per algorithm, created in selector.py from the schedule
# builders, so patching either view patches both.
allreduce_reduce_bcast = ALGORITHMS["allreduce"]["reduce_bcast"]
allreduce_recursive_doubling = ALGORITHMS["allreduce"]["recursive_doubling"]
allreduce_ring = ALGORITHMS["allreduce"]["ring"]
allreduce_hierarchical = ALGORITHMS["allreduce"]["hierarchical"]
allgather_ring = ALGORITHMS["allgather"]["ring"]
allgather_recursive_doubling = ALGORITHMS["allgather"]["recursive_doubling"]
allgather_bruck = ALGORITHMS["allgather"]["bruck"]
alltoall_shift = ALGORITHMS["alltoall"]["shift"]
alltoall_pairwise = ALGORITHMS["alltoall"]["pairwise"]
alltoall_bruck = ALGORITHMS["alltoall"]["bruck"]
bcast_binomial = ALGORITHMS["bcast"]["binomial"]
bcast_hierarchical = ALGORITHMS["bcast"]["hierarchical"]
bcast_pipelined = ALGORITHMS["bcast"]["pipelined"]
reduce_binomial = ALGORITHMS["reduce"]["binomial"]
reduce_rabenseifner = ALGORITHMS["reduce"]["rabenseifner"]
barrier_dissemination = blocking(binder("barrier"),
                                 build_barrier_dissemination)

__all__ = [
    "ALGORITHMS",
    "SCHEDULES",
    "AlgorithmSelector",
    "CollectiveTuning",
    "SEED_TUNING",
    "Schedule",
    "ScheduleEngine",
    "allgather_bruck",
    "allgather_recursive_doubling",
    "allgather_ring",
    "allreduce_hierarchical",
    "allreduce_recursive_doubling",
    "allreduce_reduce_bcast",
    "allreduce_ring",
    "alltoall_bruck",
    "alltoall_pairwise",
    "alltoall_shift",
    "autotune_tuning",
    "barrier_dissemination",
    "bcast_binomial",
    "bcast_hierarchical",
    "bcast_pipelined",
    "derive_tuning",
    "reduce_binomial",
    "reduce_rabenseifner",
]
