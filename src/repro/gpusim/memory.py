"""Device (global) memory: typed buffers + an allocation tracker.

Paper §3.2 (Figure 1 comment): "for communication, we have to use global
memory; this is a byproduct of the memory system on the GPU."  The DCGN
layer enforces exactly that — only :class:`DeviceBuffer` s may be passed
to GPU-sourced communication calls.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Optional, Tuple

import numpy as np

from ..hw.memory import as_bytes_view
from .errors import GpuOutOfMemory, InvalidMemorySpace

__all__ = ["DeviceBuffer", "DeviceAllocator"]


class DeviceBuffer:
    """A region of GPU global memory backed by a NumPy array."""

    __slots__ = ("data", "node_id", "device_id", "name", "_allocator", "_freed")

    def __init__(
        self,
        data: np.ndarray,
        node_id: int,
        device_id: int,
        name: str = "",
        allocator: Optional["DeviceAllocator"] = None,
    ) -> None:
        if not data.flags["C_CONTIGUOUS"]:
            raise ValueError("DeviceBuffer requires C-contiguous storage")
        self.data = data
        self.node_id = node_id
        self.device_id = device_id
        self.name = name or f"dbuf@{node_id}.{device_id}"
        self._allocator = allocator
        self._freed = False

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Return this buffer's bytes to the allocator."""
        if self._freed:
            raise InvalidMemorySpace(f"double free of {self.name}")
        self._freed = True
        if self._allocator is not None:
            self._allocator._release(self.nbytes)

    def check_usable(self) -> None:
        """Raise if the buffer was freed (use-after-free guard)."""
        if self._freed:
            raise InvalidMemorySpace(f"use after free of {self.name}")

    def bytes_view(self) -> np.ndarray:
        """Flat uint8 view of the storage."""
        self.check_usable()
        return as_bytes_view(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DeviceBuffer {self.name!r} gpu={self.node_id}.{self.device_id} "
            f"{self.data.dtype}x{self.data.size}{' FREED' if self._freed else ''}>"
        )


class DeviceAllocator:
    """Tracks device-memory usage against the device's capacity."""

    def __init__(self, capacity_bytes: int, label: str = "") -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_bytes
        self.used = 0
        self.label = label or "gpu"
        self.peak = 0
        self.alloc_count = 0

    def allocate(
        self,
        shape,
        dtype,
        node_id: int,
        device_id: int,
        name: str = "",
        fill=None,
    ) -> DeviceBuffer:
        """Allocate a buffer; raises :class:`GpuOutOfMemory` if over.

        The capacity check runs on the requested geometry *before* any
        host-side backing store exists, so an over-capacity request
        (e.g. a simulated 1 TB allocation) raises cleanly instead of
        exhausting host memory in ``np.zeros``.
        """
        dims = (
            (operator.index(shape),)
            if not hasattr(shape, "__iter__")
            else tuple(operator.index(s) for s in shape)
        )
        if any(d < 0 for d in dims):
            raise ValueError(f"negative dimension in shape {dims}")
        nbytes = math.prod(dims) * np.dtype(dtype).itemsize
        if self.used + nbytes > self.capacity:
            raise GpuOutOfMemory(
                f"{self.label}: requested {nbytes} B with "
                f"{self.capacity - self.used} B free "
                f"(capacity {self.capacity} B)"
            )
        arr = np.zeros(dims, dtype=dtype)
        if fill is not None:
            arr[...] = fill
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        self.alloc_count += 1
        return DeviceBuffer(
            arr,
            node_id=node_id,
            device_id=device_id,
            name=name or f"{self.label}.buf{self.alloc_count}",
            allocator=self,
        )

    def _release(self, nbytes: int) -> None:
        self.used -= nbytes
        if self.used < 0:  # pragma: no cover - defensive
            raise RuntimeError(f"{self.label}: allocator underflow")

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used
