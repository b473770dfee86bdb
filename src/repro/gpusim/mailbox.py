"""Slot mailboxes: the device-memory rendezvous between kernels and host.

This is the heart of how DCGN sources communication from a GPU
(paper §3.2.3): GPU kernels "set regions of GPU memory that are monitored
by a GPU-kernel thread.  When the memory is noticed, the request is
obtained via cudaMemcpyAsync, handled, and the appropriate memory is set
on the GPU to flag the GPU kernel, telling it to continue execution."

The mailbox object lives in simulated device memory.  Time costs:

* device side — posting a request is a device-memory write (negligible);
  waiting on the completion flag is a spin loop with
  ``gpu_spin_check_us`` detection granularity;
* host side — *noticing* requests costs a PCIe probe of the mailbox
  region; fetching descriptors costs a PCIe read; completing a request
  costs a PCIe write.  Those are charged by the caller (the DCGN
  GPU-kernel thread) through :class:`~repro.hw.pcie.PcieLink`, because
  batching policy (one probe covering all slots) is a host-side decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..sim.core import Event, Simulator, us

__all__ = ["MailboxRequest", "SlotMailboxes"]


@dataclass
class MailboxRequest:
    """A communication request descriptor written by a GPU kernel."""

    slot: int
    op: str  #: "send" | "recv" | "barrier" | "bcast" | "reduce" | ...
    args: Dict[str, Any] = field(default_factory=dict)
    #: Set by the host when the request has been fully serviced.
    done: Optional[Event] = None
    #: Result payload delivered back to the kernel (e.g. CommStatus).
    result: Any = None
    #: Simulated time the kernel posted the request.
    posted_at: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MailboxRequest slot={self.slot} op={self.op}>"


class SlotMailboxes:
    """Per-kernel-launch mailbox array, one logical cell per slot."""

    def __init__(
        self,
        sim: Simulator,
        n_slots: int,
        spin_check_us: float,
        desc_bytes: int,
        notify=None,
    ) -> None:
        if n_slots < 1:
            raise ValueError("need at least one slot")
        self.sim = sim
        self.n_slots = n_slots
        self.spin_check_us = spin_check_us
        self.desc_bytes = desc_bytes
        #: Requests posted but not yet picked up by the host.
        self._pending: List[MailboxRequest] = []
        #: Total requests ever posted (accounting).
        self.posted_count = 0
        #: Optional callable invoked on every post — the "GPU signals the
        #: CPU" future-hardware hook (paper §5.2 Looking Forward).
        self.notify = notify

    # -- device side -----------------------------------------------------
    def post(
        self, slot: int, op: str, **args: Any
    ) -> Generator[Event, Any, MailboxRequest]:
        """Kernel-side: write a request into this slot's mailbox cell.

        Returns the request object; the kernel should then ``yield from``
        :meth:`wait` on it.
        """
        if not (0 <= slot < self.n_slots):
            raise ValueError(f"slot {slot} out of range [0,{self.n_slots})")
        req = MailboxRequest(
            slot=slot,
            op=op,
            args=args,
            done=self.sim.event(name=f"mbox.done(slot{slot},{op})"),
            posted_at=self.sim.now,
        )
        self._pending.append(req)
        self.posted_count += 1
        # A global-memory write by the kernel: sub-microsecond; charge the
        # device-side spin granularity once as the write+fence cost.
        yield self.sim.timeout(us(self.spin_check_us))
        if self.notify is not None:
            self.notify()
        return req

    def wait(
        self, req: MailboxRequest
    ) -> Generator[Event, Any, Any]:
        """Kernel-side: spin on the request's completion flag.

        The host flips the flag with a PCIe write; the device notices it
        within one spin-check period.
        """
        yield req.done
        yield self.sim.timeout(us(self.spin_check_us))
        return req.result

    # -- host side ---------------------------------------------------------
    def region_bytes(self) -> int:
        """Size of the mailbox region a host poll must read."""
        return self.n_slots * self.desc_bytes

    def harvest(self) -> List[MailboxRequest]:
        """Host-side: take all currently posted, un-harvested requests.

        The caller has already paid the PCIe probe/read cost.
        """
        out, self._pending = self._pending, []
        return out

    def has_pending(self) -> bool:
        """Host-side cheap check (used only by tests/diagnostics)."""
        return bool(self._pending)

    def complete(self, req: MailboxRequest, result: Any = None) -> None:
        """Host-side: flag the request complete (after the PCIe write)."""
        req.result = result
        req.done.succeed(result)
