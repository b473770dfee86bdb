"""Communication-request descriptors flowing through DCGN's queues."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..hw.memory import land_bytes
from ..sim.core import Event, Simulator
from .errors import DcgnError

__all__ = ["CommRequest", "CommStatus"]


@dataclass(frozen=True)
class CommStatus:
    """Completion record handed back to kernels (dcgn::CommStatus).

    ``nbytes`` counts the bytes that landed in the requester's buffer
    (for a send: the bytes sent).  A receive lands at most its own
    count, so a longer message reports the count, not its length."""

    source: int
    nbytes: int


@dataclass
class CommRequest:
    """One communication request from a kernel to the comm thread.

    ``data`` carries a snapshot of the payload for sends (taken at request
    creation for CPU kernels, at mailbox harvest — after the PCIe read —
    for GPU kernels).  Whatever arrives for the requester goes through
    :meth:`land`, into ``result`` (CPU kernels) or ``data`` (GPU slots).

    The request carries no timestamps: each thread that moves it
    through a lifecycle stage records that stage with :meth:`mark` on
    the attached span recorder (``sim.spans``).
    """

    op: str
    src_vrank: int
    #: Destination (sends) or source (recvs; ANY = -1).  Root for rooted
    #: collectives.
    peer: int = -1
    nbytes: int = 0
    data: Optional[np.ndarray] = None
    #: The CPU requester's array that arrived data lands in.  For GPU
    #: slots the GPU thread performs the PCIe write instead and this
    #: stays None.
    result: Optional[np.ndarray] = None
    #: Land element-wise (reductions, get) rather than as raw bytes.
    typed: bool = False
    #: Completion event fired by the comm thread (or GPU thread).
    done: Optional[Event] = None
    #: Status/result for the requester (set at completion).
    status: Optional[CommStatus] = None
    #: Collective op this request participates in (kind consistency check).
    root: int = -1
    #: Free-form extras (e.g. reduce op name).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Numbered per runtime, in issue order (``Endpoint`` draws it from
    #: the comm thread's ``req_ids``), so event names such as
    #: ``req3.done`` do not depend on what ran earlier in the process.
    req_id: int = -1

    def mark(
        self,
        sim: Simulator,
        stage: str,
        track: str,
        t: Optional[float] = None,
    ) -> None:
        """Record lifecycle ``stage`` as a ``dcgn.req`` instant on ``track``.

        Stages: issued / enqueued / returned (CPU transport), posted /
        harvested / enqueued / written_back (GPU thread), picked /
        completed (comm thread).  ``t`` defaults to now.  A no-op unless
        a span recorder is attached; readers such as the overhead
        breakdown take the first instant per (request, stage).
        """
        spans = sim.spans
        if spans is not None:
            spans.instant(
                sim.now if t is None else t, stage, "dcgn.req", track,
                {"req": self.req_id, "op": self.op},
            )

    def payload(self) -> np.ndarray:
        """The payload snapshot, which the request must carry."""
        if self.data is None:
            raise DcgnError(f"{self!r} has no payload snapshot")
        return self.data

    def land(self, data: Optional[np.ndarray]) -> None:
        """Land arrived ``data`` (None: nothing) in the requester: in
        ``result`` (CPU ranks) or as a private copy in ``data`` for the
        GPU thread's PCIe write-back — private, since collective
        siblings share one array.  Callers bound the byte count by
        slicing ``data``."""
        if data is None:
            return
        arr = self.result
        if arr is None:
            self.data = data.copy()
        elif not self.typed:
            land_bytes(arr, data)
        elif data.size == arr.size:
            arr[...] = data.reshape(arr.shape)
        else:  # an nbytes-limited get, or unequal reduce buffers
            arr.flat[: data.size] = data.reshape(-1)[: arr.size]

    def complete(self, status: Optional[CommStatus] = None) -> None:
        """Mark the request done (idempotence is an error by design)."""
        self.status = status
        if self.done is not None:
            self.done.succeed(status)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CommRequest #{self.req_id} {self.op} src={self.src_vrank} "
            f"peer={self.peer} n={self.nbytes}>"
        )
