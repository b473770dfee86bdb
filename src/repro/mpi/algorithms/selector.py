"""Size- and topology-adaptive algorithm selection for collectives.

The selector is consulted once per collective call with the payload
geometry (bytes per rank, communicator size) plus — for the collectives
that have a hierarchical variant — whether the communicator's placement
makes the hierarchy worthwhile (``hier_ok``: equal locality groups on
an oversubscribed fabric, fragmented ring order).  It returns the
*name* of the algorithm to run; the registries map names to
implementations: :data:`SCHEDULES` holds the ``build_*`` functions
producing the round-based
:class:`~repro.mpi.algorithms.schedule.Schedule` — what the call
builders of the op table (:data:`repro.mpi.collectives.OPS`, behind
both ``ctx.bcast`` and ``ctx.ibcast``) hand the engine — and
:data:`ALGORITHMS` one blocking entry point per named algorithm (for
benchmarks and tests): the op's own call builder with the algorithm
forced instead of selected, as a ``CollectiveTuning.force_*`` call
does.  The thresholds live in
:class:`~repro.mpi.algorithms.tuning.CollectiveTuning` — autotuned per
cluster by :mod:`repro.mpi.algorithms.autotune` unless the user pins
their own — and are plumbed through both the raw-MPI layer
(``Communicator(tuning=...)``) and the DCGN layer
(``DcgnConfig(..., tuning=...)``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import MpiError
from .base import is_pof2 as _is_pof2
from .allgather import (
    build_allgather_bruck,
    build_allgather_recursive_doubling,
    build_allgather_ring,
)
from .allreduce import (
    build_allreduce_recursive_doubling,
    build_allreduce_reduce_bcast,
    build_allreduce_ring,
)
from .alltoall import (
    build_alltoall_bruck,
    build_alltoall_pairwise,
    build_alltoall_shift,
)
from .bcast import (
    build_bcast_binomial,
    build_bcast_hierarchical,
    build_bcast_pipelined,
)
from .hierarchical import (
    build_allgather_hierarchical,
    build_allreduce_hierarchical,
    build_alltoall_hierarchical,
)
from .reduce import build_reduce_binomial, build_reduce_rabenseifner
from .tuning import CollectiveTuning

__all__ = ["ALGORITHMS", "SCHEDULES", "AlgorithmSelector"]

#: Registry: collective → {algorithm name → schedule builder}; what the
#: op table's call builders hand the engine, and the single source of
#: truth the blocking registry below derives from.
SCHEDULES: Dict[str, Dict[str, Callable]] = {
    "allreduce": {
        "reduce_bcast": build_allreduce_reduce_bcast,
        "recursive_doubling": build_allreduce_recursive_doubling,
        "ring": build_allreduce_ring,
        "hierarchical": build_allreduce_hierarchical,
    },
    "allgather": {
        "ring": build_allgather_ring,
        "recursive_doubling": build_allgather_recursive_doubling,
        "bruck": build_allgather_bruck,
        "hierarchical": build_allgather_hierarchical,
    },
    "alltoall": {
        "shift": build_alltoall_shift,
        "pairwise": build_alltoall_pairwise,
        "bruck": build_alltoall_bruck,
        "hierarchical": build_alltoall_hierarchical,
    },
    "bcast": {
        "binomial": build_bcast_binomial,
        "hierarchical": build_bcast_hierarchical,
        "pipelined": build_bcast_pipelined,
    },
    "reduce": {
        "binomial": build_reduce_binomial,
        "rabenseifner": build_reduce_rabenseifner,
    },
}


def _pinned(coll: str, algo: str) -> Callable:
    """Blocking ``coll`` with ``algo`` forced: the op table's call
    builder (imported late: ``mpi/collectives.py`` imports this module)
    run to completion in the calling process."""

    def run(ctx, *args, **kwargs):
        from ..collectives import MENU

        call = MENU[coll](ctx, algo, *args, **kwargs)
        yield from ctx.comm.engine.execute(ctx, call)

    run.__name__ = run.__qualname__ = f"{coll}_{algo}"
    return run


#: Registry: collective → {algorithm name → blocking implementation} —
#: derived from :data:`SCHEDULES`, so the two can never diverge.
ALGORITHMS: Dict[str, Dict[str, Callable]] = {
    coll: {name: _pinned(coll, name) for name in menu}
    for coll, menu in SCHEDULES.items()
}


class AlgorithmSelector:
    """Picks a collective algorithm from (message size × communicator
    size × placement/topology)."""

    def __init__(self, tuning: Optional[CollectiveTuning] = None) -> None:
        self.tuning = tuning if tuning is not None else CollectiveTuning()

    def _forced(self, coll: str, name: Optional[str]) -> Optional[str]:
        if name is None:
            return None
        if name not in SCHEDULES[coll]:
            raise MpiError(
                f"unknown {coll} algorithm {name!r}; "
                f"choose from {sorted(SCHEDULES[coll])}"
            )
        return name

    def allreduce(
        self, nbytes: int, size: int, hier_ok: bool = False
    ) -> str:
        forced = self._forced("allreduce", self.tuning.force_allreduce)
        if forced is not None:
            return forced
        if size <= 2:
            # Ring and doubling coincide at P=2; doubling has no chunking
            # overhead and degrades gracefully at P=1.
            return "recursive_doubling"
        if (
            hier_ok
            and self.tuning.allreduce_hier_min_bytes is not None
            and nbytes >= self.tuning.allreduce_hier_min_bytes
        ):
            return "hierarchical"
        if nbytes >= self.tuning.allreduce_ring_min_bytes:
            return "ring"
        return "recursive_doubling"

    def allgather(
        self,
        block_nbytes: int,
        size: int,
        uniform: bool = True,
        hier_ok: bool = False,
    ) -> str:
        forced = self._forced("allgather", self.tuning.force_allgather)
        if forced is not None:
            return forced
        if (
            hier_ok
            and size > 2
            and self.tuning.allgather_hier_min_bytes is not None
            and block_nbytes >= self.tuning.allgather_hier_min_bytes
        ):
            return "hierarchical"
        enough_ranks = (
            size >= self.tuning.allgather_rd_min_ranks
            or block_nbytes <= self.tuning.allgather_rd_small_max_bytes
        )
        if (
            uniform
            and _is_pof2(size)
            and block_nbytes <= self.tuning.allgather_rd_max_bytes
            and enough_ranks
        ):
            return "recursive_doubling"
        if (
            uniform
            and not _is_pof2(size)
            and size > 2
            and block_nbytes <= self.tuning.allgather_bruck_max_bytes
        ):
            return "bruck"
        return "ring"

    def alltoall(
        self,
        block_nbytes: int,
        size: int,
        uniform: bool = True,
        hier_ok: bool = False,
    ) -> str:
        forced = self._forced("alltoall", self.tuning.force_alltoall)
        if forced is not None:
            return forced
        if (
            hier_ok
            and uniform
            and size > 2
            and self.tuning.alltoall_hier_min_bytes is not None
            and block_nbytes >= self.tuning.alltoall_hier_min_bytes
        ):
            return "hierarchical"
        if (
            uniform
            and size > 2
            and 0 < block_nbytes <= self.tuning.alltoall_bruck_max_bytes
        ):
            return "bruck"
        if _is_pof2(size):
            return "pairwise"
        return "shift"

    def bcast(self, nbytes: int, size: int, hier_ok: bool = False) -> str:
        forced = self._forced("bcast", self.tuning.force_bcast)
        if forced is not None:
            return forced
        # Pipelined outranks hierarchical where both thresholds open:
        # the autotuner only sets bcast_pipeline_min_bytes where the
        # chain models a decisive (>=1.5x) win over BOTH tree shapes.
        if (
            size > 2
            and self.tuning.bcast_pipeline_min_bytes is not None
            and nbytes >= self.tuning.bcast_pipeline_min_bytes
        ):
            return "pipelined"
        if (
            hier_ok
            and size > 2
            and self.tuning.bcast_hier_min_bytes is not None
            and nbytes >= self.tuning.bcast_hier_min_bytes
        ):
            return "hierarchical"
        return "binomial"

    def reduce(self, nbytes: int, size: int) -> str:
        forced = self._forced("reduce", self.tuning.force_reduce)
        if forced is not None:
            return forced
        # Any-P: non-powers of two fold their excess ranks in first
        # (one extra full-size round, priced into the autotuned
        # crossover).
        if (
            size > 2
            and self.tuning.reduce_raben_min_bytes is not None
            and nbytes >= self.tuning.reduce_raben_min_bytes
        ):
            return "rabenseifner"
        return "binomial"
