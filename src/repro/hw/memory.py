"""Host memory: typed buffers backed by NumPy, the memcpy engine, and
the data plane every layer moves message bytes through.

Message payloads in the whole system are real bytes: sends snapshot the
source array, receives write into the destination array.  Only *time* is
simulated; data movement is executed eagerly so applications can verify
numerical results against sequential references.

**Data plane.**  No other module views or lands a buffer's bytes.
:func:`as_bytes_view` never copies and raises on a non-C-contiguous
array (numpy would make a strided array's byte view a copy, and bytes
written into it would be lost); :func:`land_bytes` copies a payload's
bytes into the head of a buffer and raises when they do not fit (a
caller that bounds a count slices the source first); a count-limited
send snapshots only the head it sends, with :func:`snapshot_head`.

**Buffers.**  A buffer bytes land in must be C-contiguous, checked at
issue with the layer's typed error: ``MpiError`` for MPI
``recv``/``irecv``/``sendrecv``/``sendrecv_replace`` and collective
receives, ``CommViolation`` for DCGN ``recv``, a non-root
``broadcast``, ``gather``'s root result and ``scatter``'s results.
Sends may be strided: the snapshot copies them (not ``allgather``/
``alltoall`` sends, which some algorithms pack bytewise).  Reductions
land by value, so their receive may be strided (not under the
``reduce_bcast`` allreduce, which broadcasts into it).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple, Union

import numpy as np

from ..sim.core import Event, Simulator, us
from ..sim.resources import BandwidthChannel

__all__ = ["HostBuffer", "MemcpyEngine", "as_bytes_view", "land_bytes",
           "nbytes_of", "snapshot_head"]


def as_bytes_view(obj: Union[np.ndarray, "HostBuffer"]) -> np.ndarray:
    """A flat uint8 view of a buffer's storage (no copy)."""
    arr = obj.data if isinstance(obj, HostBuffer) else obj
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"expected ndarray or HostBuffer, got {type(obj)}")
    if not arr.flags.c_contiguous:
        raise ValueError("buffers must be C-contiguous")
    return arr.reshape(-1).view(np.uint8)


def land_bytes(
    dst: Union[np.ndarray, "HostBuffer"], src: Union[np.ndarray, "HostBuffer"]
) -> int:
    """Copy the bytes of ``src`` into the head of ``dst`` and return
    how many landed; the rest of ``dst`` is left as it was.  Raises
    ``ValueError`` when they do not fit."""
    dview = as_bytes_view(dst)
    sview = as_bytes_view(src)
    n = sview.size
    if n > dview.size:
        raise ValueError(f"payload of {n} B exceeds buffer of {dview.size} B")
    dview[:n] = sview
    return n


def snapshot_head(arr: np.ndarray, nbytes: int) -> np.ndarray:
    """A private flat copy, in ``arr``'s dtype (a reduction sees real
    values), of the elements that hold its first ``nbytes`` bytes in C
    order; a count that ends inside an element takes all of it (the
    landing bounds the bytes)."""
    flat = arr.reshape(-1)
    return flat[: -(-nbytes // flat.itemsize)].copy()


def nbytes_of(obj: Union[np.ndarray, "HostBuffer", int]) -> int:
    """Byte size of an array, buffer, or plain byte count."""
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, HostBuffer):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    # Duck-typed fallback for payload holders defined in higher layers
    # (e.g. the MPI schedule's adoptable staging buffers).
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    raise TypeError(f"cannot size {type(obj)}")


class HostBuffer:
    """A named, typed region of host memory on a particular node.

    Thin wrapper around an ndarray carrying provenance (node id) so that
    cross-node "pointer" mistakes are caught in tests.
    """

    __slots__ = ("data", "node_id", "name")

    def __init__(
        self,
        data: np.ndarray,
        node_id: int,
        name: str = "",
    ) -> None:
        if not isinstance(data, np.ndarray):
            raise TypeError("HostBuffer wraps an ndarray")
        if not data.flags["C_CONTIGUOUS"]:
            raise ValueError("HostBuffer requires C-contiguous storage")
        self.data = data
        self.node_id = node_id
        self.name = name or f"hostbuf@{node_id}"

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HostBuffer {self.name!r} node={self.node_id} "
            f"{self.data.dtype}x{self.data.size}>"
        )


class MemcpyEngine:
    """Per-node host-memory copy engine (latency + bandwidth, serialized).

    Used for DCGN's local-communication staging (paper §6.2: intra-node
    messages are handled with memcpy instead of MPI).
    """

    def __init__(
        self,
        sim: Simulator,
        lat_us: float,
        bw_GBps: float,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.channel = BandwidthChannel(
            sim,
            latency_s=us(lat_us),
            bandwidth_Bps=bw_GBps * 1e9,
            name=name or "memcpy",
        )

    def copy(
        self,
        dst: Optional[Union[np.ndarray, HostBuffer]],
        src: Optional[Union[np.ndarray, HostBuffer]],
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, int]:
        """``yield from`` a host-to-host copy; returns bytes moved.

        Either real arrays (the first ``nbytes`` of ``src`` land in
        ``dst``, which must hold them) or ``None`` endpoints with an
        explicit ``nbytes`` (time-only accounting).
        """
        if nbytes is None:
            if src is None:
                raise ValueError("need src or explicit nbytes")
            nbytes = nbytes_of(src)
        yield from self.channel.transfer(nbytes)
        if dst is not None and src is not None:
            land_bytes(dst, as_bytes_view(src)[:nbytes])
        return nbytes
