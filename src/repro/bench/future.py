"""Future-hardware projection (paper §5.2 "Looking Forward" and §7).

"Several things are necessary: A method for signaling the CPU from the
GPU, a direct connection to the NIC, a direct GPU-to-GPU connection via
PCI-e, and buffers in system memory so the GPU may push data.  We
believe these additions would put DCGN on par with MPI while preserving
its advantage of a higher-level, more flexible interface."

This module tests that prediction inside the model: it re-runs the
Figure-6 GPU:GPU send with the two future-hardware switches enabled and
reports how far the gap to MPI closes.
"""

from __future__ import annotations

from ..apps import micro
from .ablations import dcgn_params
from .harness import Table, fmt_time

__all__ = ["future_hw_table"]


def future_hw_table(seed: int = 0) -> Table:
    """GPU:GPU send latency under the paper's predicted hardware."""
    t = Table(
        "Future hardware — GPU:GPU sends vs MPI (paper §7 prediction)",
        ["Configuration", "0 B", "64 kB", "1 MB", "0 B vs MPI"],
    )
    sizes = (0, 64 * 1024, 1 << 20)
    mpi = [micro.mpi_send_time(n, iters=4, seed=seed) for n in sizes]
    t.add(
        "MVAPICH2 (CPU:CPU)",
        *[fmt_time(x) for x in mpi],
        "1.00×",
    )
    rows = [
        ("DCGN 2009 (polling + host bounce)", "2009", False, False),
        ("+ GPU signals CPU", "signaling", True, False),
        ("+ direct NIC path", "direct NIC", False, True),
        ("+ both (the paper's §7 world)", "both", True, True),
    ]
    vs_mpi = {}
    for label, key, sig, direct in rows:
        params = dcgn_params(
            future_gpu_signaling=sig, future_gpu_direct=direct
        )
        times = [
            micro.dcgn_send_time(
                n, "gpu", "gpu", iters=4, params=params, seed=seed
            )
            for n in sizes
        ]
        vs_mpi[key] = times[0] / mpi[0]
        t.add(
            label,
            *[fmt_time(x) for x in times],
            f"{vs_mpi[key]:.1f}×",
        )
        t.record(f"{key} 0B/MPI", vs_mpi[key],
                 band=(None, 60.0) if key == "both" else None)
    # Signaling alone removes the polling wait (the dominant stage);
    # both switches bring 0-byte sends down to the order of DCGN's own
    # CPU:CPU path ("on par" next to hundreds of ×).
    t.record("signaling/2009 0B", vs_mpi["signaling"] / vs_mpi["2009"],
             band=(None, 0.5))
    t.record("both/2009 0B", vs_mpi["both"] / vs_mpi["2009"],
             band=(None, 0.35))
    t.note(
        "With signaling + a direct NIC path the 0-byte multiplier falls "
        "from hundreds to tens — 'on par with MPI' relative to the "
        "polling architecture, exactly the trajectory NVSHMEM/GPUDirect "
        "later followed."
    )
    return t
