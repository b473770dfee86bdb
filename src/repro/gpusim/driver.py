"""Host-side driver API: memcpy and kernel launch (the CUDA-driver analogue).

All functions are generators to be driven from host-thread processes.
They move real bytes and charge PCIe/device time.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence, Union

import numpy as np

from ..hw.memory import HostBuffer, as_bytes_view, land_bytes
from ..sim.core import Event, us
from .device import GpuDevice
from .errors import InvalidMemorySpace
from .kernel import KernelFn, KernelHandle, LaunchConfig, launch_kernel
from .memory import DeviceBuffer

__all__ = ["memcpy_h2d", "memcpy_d2h", "memcpy_d2d", "launch"]

HostLike = Union[np.ndarray, HostBuffer]


def _host_view(obj: HostLike) -> np.ndarray:
    if isinstance(obj, DeviceBuffer):
        raise InvalidMemorySpace(f"{obj!r} is device memory, host expected")
    return as_bytes_view(obj)


def _device_view(device: GpuDevice, obj: DeviceBuffer) -> np.ndarray:
    if not isinstance(obj, DeviceBuffer):
        raise InvalidMemorySpace(f"{obj!r} is not device memory")
    if not device.owns(obj):
        raise InvalidMemorySpace(
            f"{obj!r} does not live on {device.label}"
        )
    return obj.bytes_view()


def _count(nbytes: Optional[int], sview: np.ndarray, dview: np.ndarray) -> int:
    """Bytes a copy moves: ``nbytes``, or as many as both ends hold."""
    n = int(nbytes) if nbytes is not None else min(sview.size, dview.size)
    if n > dview.size or n > sview.size:
        raise ValueError(f"copy of {n} B exceeds endpoint sizes")
    return n


def memcpy_h2d(
    device: GpuDevice,
    dst: DeviceBuffer,
    src: HostLike,
    nbytes: Optional[int] = None,
) -> Generator[Event, Any, int]:
    """Host-to-device copy over PCIe; returns bytes moved."""
    dview = _device_view(device, dst)
    sview = _host_view(src)
    n = _count(nbytes, sview, dview)
    yield from device.pcie.write(n)
    land_bytes(dview, sview[:n])
    return n


def memcpy_d2h(
    device: GpuDevice,
    dst: HostLike,
    src: DeviceBuffer,
    nbytes: Optional[int] = None,
) -> Generator[Event, Any, int]:
    """Device-to-host copy over PCIe; returns bytes moved."""
    sview = _device_view(device, src)
    dview = _host_view(dst)
    n = _count(nbytes, sview, dview)
    yield from device.pcie.read(n)
    land_bytes(dview, sview[:n])
    return n


def memcpy_d2d(
    device: GpuDevice,
    dst: DeviceBuffer,
    src: DeviceBuffer,
    nbytes: Optional[int] = None,
) -> Generator[Event, Any, int]:
    """Device-to-device copy within one GPU (device memory bandwidth)."""
    dview = _device_view(device, dst)
    sview = _device_view(device, src)
    n = _count(nbytes, sview, dview)
    # Read + write through device memory: 2n bytes of traffic.
    t = 2.0 * n / (device.params.mem_bw_GBps * 1e9)
    if t > 0:
        yield device.sim.timeout(t)
    land_bytes(dview, sview[:n])
    return n


def launch(
    device: GpuDevice,
    fn: KernelFn,
    config: LaunchConfig,
    args: Sequence[Any] = (),
    name: str = "",
    comm_factory=None,
) -> Generator[Event, Any, KernelHandle]:
    """Launch a kernel from a host thread (charges launch overhead)."""
    yield device.sim.timeout(us(device.params.kernel_launch_us))
    handle = launch_kernel(
        device, fn, config, args=args, name=name, comm_factory=comm_factory
    )
    return handle
