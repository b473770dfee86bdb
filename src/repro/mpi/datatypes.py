"""Reduction operators and payload helpers for the simulated MPI."""

from __future__ import annotations

import enum
from typing import Optional, Union

import numpy as np

from ..hw.memory import HostBuffer

__all__ = ["ReduceOp", "AdoptBuf", "payload_array", "snapshot"]

Payload = Union[np.ndarray, HostBuffer, int, None]


class AdoptBuf:
    """A staging receive buffer the matcher may *adopt into*.

    Schedule engines hand one of these to a receive whose target is a
    collective-private staging slot that downstream steps only ever
    read (recursive-doubling packs, combine temporaries, Bruck
    rotations).  When the matched message's payload array is private —
    the sender made a defensive copy, or marked the send ``donate`` —
    the receive *rebinds* :attr:`arr` to the in-flight array instead of
    memcpying it, eliding the delivery copy entirely.  The fallback
    array is only allocated when adoption is impossible.
    """

    __slots__ = ("arr", "nbytes", "dtype")

    def __init__(self, nbytes: int, dtype=np.uint8) -> None:
        self.arr: Optional[np.ndarray] = None
        self.nbytes = int(nbytes)
        self.dtype = np.dtype(dtype)

    def array(self) -> np.ndarray:
        """The received array (allocated on first use if nothing was
        adopted)."""
        if self.arr is None:
            self.arr = np.zeros(self.nbytes // self.dtype.itemsize,
                                dtype=self.dtype)
        return self.arr

    def adopt(self, data: np.ndarray) -> bool:
        """Rebind to ``data`` if it is layout-compatible; False = the
        caller must fall back to a delivery copy."""
        if data.nbytes != self.nbytes or not data.flags.c_contiguous:
            return False
        if data.dtype != self.dtype or data.ndim != 1:
            try:
                data = data.reshape(-1).view(self.dtype)
            except (ValueError, TypeError):  # pragma: no cover - defensive
                return False
        self.arr = data
        return True


class ReduceOp(enum.Enum):
    """MPI reduction operations (the subset the apps use).

    ``REPLACE`` exists for one-sided ``accumulate`` (MPI_REPLACE): it
    turns an accumulate into an element-wise overwrite that still
    honours the per-origin ordering guarantee.  Two-sided reductions
    must not use it (which rank's contribution "wins" would be
    schedule-dependent).
    """

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"
    LAND = "land"
    LOR = "lor"
    BAND = "band"
    BOR = "bor"
    REPLACE = "replace"

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ``a OP b`` (never in place)."""
        if self is ReduceOp.REPLACE:
            return b.copy()
        if self is ReduceOp.SUM:
            return a + b
        if self is ReduceOp.PROD:
            return a * b
        if self is ReduceOp.MAX:
            return np.maximum(a, b)
        if self is ReduceOp.MIN:
            return np.minimum(a, b)
        if self is ReduceOp.LAND:
            return np.logical_and(a, b).astype(a.dtype)
        if self is ReduceOp.LOR:
            return np.logical_or(a, b).astype(a.dtype)
        if self is ReduceOp.BAND:
            return a & b
        if self is ReduceOp.BOR:
            return a | b
        raise NotImplementedError(self)  # pragma: no cover


def payload_array(obj: Payload) -> Optional[np.ndarray]:
    """The ndarray behind a payload, or None for timing-only payloads."""
    if obj is None or isinstance(obj, (int, np.integer)):
        return None
    if isinstance(obj, HostBuffer):
        return obj.data
    if isinstance(obj, AdoptBuf):
        return obj.array()
    if isinstance(obj, np.ndarray):
        return obj
    raise TypeError(f"unsupported payload type {type(obj)}")


def snapshot(obj: Payload, copy: bool = True) -> Optional[np.ndarray]:
    """Copy payload contents at send time (MPI buffered semantics).

    ``copy=False`` elides the defensive copy and ships the array
    itself.  Only safe when the caller *proves* the buffer cannot be
    mutated between injection and delivery — schedule steps marked
    ``alias_ok`` (fresh builder-local staging arrays, rebound
    accumulators) qualify; user-owned buffers never do.
    """
    arr = payload_array(obj)
    if arr is None:
        return None
    return arr.copy() if copy else arr
