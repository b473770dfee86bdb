"""MPI-compatibility adapter: run MPI-style programs on DCGN (§3.1).

The paper argues that porting MPI codes to DCGN is mechanical: "those
codes would have to be completely rewritten for DPMs, and the added task
of a few find-and-replaces was minimal by comparison."  This adapter
makes the claim literal for CPU kernels: it exposes the *simulated MPI*
context's call signatures (``send(buf, dest, tag)``, ``recv(buf, source,
tag)``, ``bcast(buf, root)``, …) on top of a DCGN
:class:`~repro.dcgn.api.CpuKernelContext`, so a program written
against :class:`repro.mpi.MpiContext` runs under DCGN unchanged.

Semantic differences (documented, checked):

* DCGN has no message tags — matching is by (source, arrival order).
  The adapter accepts tags but requires programs not to rely on
  out-of-order tag selection; by default a tag used for *reordering*
  (receiving a later tag first) will simply mismatch data, so strict
  mode (default) raises if two outstanding receives from the same
  source carry different tags.
* ``ANY_SOURCE`` maps to DCGN's ``ANY``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Sequence

import numpy as np

from ..hw.memory import as_bytes_view, land_bytes
from ..mpi.status import ANY_SOURCE, ANY_TAG, Status
from ..sim.core import Event
from .api import CpuKernelContext
from .errors import CommViolation
from .ranks import ANY
from .requests import CommStatus

__all__ = ["DcgnMpiAdapter"]


class DcgnMpiAdapter:
    """Wraps a DCGN CPU-kernel context in the simulated-MPI call shapes."""

    def __init__(self, ctx: CpuKernelContext, strict: bool = True) -> None:
        self._ctx = ctx
        self._strict = strict
        self._outstanding_tags: Dict[int, int] = {}

    # -- identity ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._ctx.rank

    @property
    def size(self) -> int:
        return self._ctx.size

    @property
    def sim(self):
        return self._ctx.sim

    # -- helpers ------------------------------------------------------------
    def _check_tag(self, source: int, tag: int) -> None:
        if not self._strict or tag in (ANY_TAG,):
            return
        prev = self._outstanding_tags.get(source)
        if prev is not None and prev != tag:
            raise CommViolation(
                "DCGN has no tags: cannot select messages from the same "
                f"source by tag ({prev} vs {tag}); restructure the "
                "receive order (paper §3.1: porting is mechanical only "
                "for tag-free matching)"
            )
        self._outstanding_tags[source] = tag

    @staticmethod
    def _status(st: CommStatus, tag: int) -> Status:
        return Status(source=st.source, tag=tag, nbytes=st.nbytes)

    # -- point-to-point (MPI signatures) ------------------------------------
    def send(
        self, buf, dest: int, tag: int = 0
    ) -> Generator[Event, Any, None]:
        yield from self._ctx.send(dest, buf)

    def recv(
        self,
        buf,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Generator[Event, Any, Status]:
        src = ANY if source == ANY_SOURCE else source
        self._check_tag(source, tag)
        st = yield from self._ctx.recv(src, buf)
        self._outstanding_tags.pop(source, None)
        return self._status(st, tag)

    def sendrecv(
        self,
        sendbuf,
        dest: int,
        recvbuf,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator[Event, Any, Status]:
        src = ANY if source == ANY_SOURCE else source
        st = yield from self._ctx.sendrecv(dest, sendbuf, src, recvbuf)
        return self._status(st, recvtag)

    def sendrecv_replace(
        self,
        buf,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator[Event, Any, Status]:
        status = yield from self.sendrecv(
            buf, dest, buf, source, sendtag, recvtag
        )
        return status

    # -- collectives (MPI signatures) ----------------------------------------
    def barrier(self) -> Generator[Event, Any, None]:
        yield from self._ctx.barrier()

    def bcast(self, buf, root: int = 0) -> Generator[Event, Any, None]:
        yield from self._ctx.broadcast(root, buf)

    def reduce(
        self, sendbuf, recvbuf, op=None, root: int = 0
    ) -> Generator[Event, Any, None]:
        name = getattr(op, "value", op) or "sum"
        yield from self._ctx.reduce(root, sendbuf, recvbuf, op=name)

    def allreduce(
        self, sendbuf, recvbuf, op=None
    ) -> Generator[Event, Any, None]:
        name = getattr(op, "value", op) or "sum"
        yield from self._ctx.allreduce(sendbuf, recvbuf, op=name)

    def gather(
        self,
        sendbuf,
        recvbufs: Optional[Sequence] = None,
        root: int = 0,
    ) -> Generator[Event, Any, None]:
        """MPI-style gather: the root's per-rank buffers are concatenated
        into DCGN's single flat receive buffer and split back after."""
        if self.rank == root:
            if recvbufs is None:
                raise CommViolation("root needs recv buffers for gather")
            arrs = [self._ctx._landing(np.asarray(b), "gather")
                    for b in recvbufs]
            flat = np.zeros(sum(a.nbytes for a in arrs), dtype=np.uint8)
            yield from self._ctx.gather(root, sendbuf, flat)
            offset = 0
            for arr in arrs:
                offset += land_bytes(arr, flat[offset : offset + arr.nbytes])
        else:
            yield from self._ctx.gather(root, sendbuf)

    def scatter(
        self,
        sendbufs: Optional[Sequence],
        recvbuf,
        root: int = 0,
    ) -> Generator[Event, Any, None]:
        """MPI-style scatter: per-rank buffers concatenated for DCGN."""
        if self.rank == root:
            if sendbufs is None:
                raise CommViolation("root needs send buffers for scatter")
            # Read by value: a strided send buffer is copied first.
            flat = np.concatenate([
                as_bytes_view(np.ascontiguousarray(b)) for b in sendbufs
            ])
            yield from self._ctx.scatter(root, recvbuf, flat)
        else:
            yield from self._ctx.scatter(root, recvbuf)
