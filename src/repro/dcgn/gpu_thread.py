"""The GPU-kernel thread: launch, poll, relay, complete (paper §3.2.3).

"DCGN threads that control a GPU execute kernels on the GPU, monitor the
GPU for communication requests, transfer memory between the CPU and GPU,
and funnel communication requests from GPU kernels to the communication
thread."

The polling loop is the paper's sleep-based polling system.  One
iteration:

1. sleep per the polling policy on one reusable
   :class:`~repro.sim.sync.Wake`: the timer, the completion signal, the
   node *kick* (host-side request activity, adaptive policy only) and,
   with future GPU signaling, a mailbox post — whichever fires first
   ends the sleep, and the losing signal waits are withdrawn;
2. PCIe **probe** of the mailbox region (status flags);
3. if requests are posted: PCIe **read** of the descriptors, then for
   payload-bearing requests a PCIe read of the payload, then relay into
   the comm thread's work queue;
4. for each in-flight request whose completion fired: PCIe **write** of
   the result payload (receives) and of the completion flag.

This is exactly the "three separate communications with the source GPU"
of §5.2 that make GPU-sourced messaging expensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..gpusim.device import GpuDevice
from ..gpusim.kernel import BlockContext, KernelHandle, LaunchConfig, launch_kernel
from ..gpusim.mailbox import MailboxRequest, SlotMailboxes
from ..gpusim.memory import DeviceBuffer
from ..hw.memory import as_bytes_view, land_bytes, snapshot_head
from ..sim.core import Event, Simulator, us
from ..sim.sync import Signal, Wake
from .comm_thread import CommThread
from .api import GpuCommApi
from .polling import PollPolicy, make_policy
from .ranks import RankMap
from .requests import CommRequest

__all__ = ["GpuKernelThread"]

#: Bytes written over PCIe to flip one completion flag.
_FLAG_BYTES = 8


@dataclass(eq=False)
class _Inflight:
    """A harvested mailbox request awaiting comm-thread completion
    (compared by identity: its request carries payload arrays)."""

    mbox: SlotMailboxes
    mreq: MailboxRequest
    creq: CommRequest
    #: Device buffer to write results into (recv/bcast/allreduce).
    dbuf: Optional[DeviceBuffer]


class GpuKernelThread:
    """Host thread owning one GPU of a DCGN job."""

    def __init__(
        self,
        sim: Simulator,
        comm: CommThread,
        device: GpuDevice,
        rankmap: RankMap,
        gpu_index: int,
        slots: int,
        kick: Signal,
        policy: Optional[PollPolicy] = None,
    ) -> None:
        self.sim = sim
        self.comm = comm
        self.device = device
        self.rankmap = rankmap
        self.gpu_index = gpu_index
        self.slots = slots
        self.kick = kick
        self.params = comm.params
        self.policy = policy if policy is not None else make_policy(
            self.params.dcgn
        )
        self.name = f"dcgn.gpu{device.node_id}.{gpu_index}"
        self._mailboxes: List[SlotMailboxes] = []
        self._handles: List[KernelHandle] = []
        self._inflight: List[_Inflight] = []
        #: (gid, vrank) → next collective sequence number of this GPU's
        #: slots (persists across launches).
        self.coll_seqs: Dict[Tuple[int, int], int] = {}
        self._shutdown = False
        #: Fired when the comm thread completes one of our in-flight
        #: requests (paper §3.2.2: the comm thread "signals CPU- and
        #: GPU-controlling threads as communications complete").
        self._completion_sig = Signal(sim, name=f"{self.name}.comp")
        #: Fired on kernel launches and shutdown so a fully idle thread
        #: can block instead of burning poll ticks.
        self._activity_sig = Signal(sim, name=f"{self.name}.act")
        #: Polling-load accounting (ablation A1).
        self.polls = 0
        self.empty_polls = 0
        self.proc = sim.process(self._run(), name=self.name)

    # -- host-side API ------------------------------------------------------
    def launch(
        self,
        fn,
        config: Optional[LaunchConfig] = None,
        args: tuple = (),
        name: str = "",
    ) -> Generator[Event, Any, KernelHandle]:
        """Launch a communicating kernel on this GPU.

        Must be driven from a simulated host process (the runtime does
        this); charges the kernel-launch overhead.
        """
        cfg = config if config is not None else LaunchConfig(
            grid_blocks=self.slots
        )
        notify = None
        if self.params.dcgn.future_gpu_signaling:
            # Future hardware: the GPU raises an interrupt-like signal on
            # every mailbox post, waking the poller immediately.
            notify = self._activity_sig.fire
        mbox = SlotMailboxes(
            self.sim,
            n_slots=self.slots,
            spin_check_us=self.params.dcgn.gpu_spin_check_us,
            desc_bytes=self.params.dcgn.mailbox_desc_bytes,
            notify=notify,
        )
        self._mailboxes.append(mbox)

        def comm_factory(block_ctx: BlockContext) -> GpuCommApi:
            return GpuCommApi(block_ctx, mbox, self)

        yield self.sim.timeout(us(self.device.params.kernel_launch_us))
        handle = launch_kernel(
            self.device,
            fn,
            cfg,
            args=args,
            name=name or f"{self.name}.kernel",
            comm_factory=comm_factory,
        )
        self._handles.append(handle)
        self._activity_sig.fire()
        return handle

    def shutdown(self) -> None:
        """Exit the polling loop once all work has drained."""
        self._shutdown = True
        self._activity_sig.fire()

    @property
    def busy(self) -> bool:
        """True while kernels are running or requests are in flight."""
        return bool(self._inflight) or any(
            not h.finished for h in self._handles
        )

    def describe_state(self) -> str:
        """Diagnostics for the runtime watchdog."""
        parts = [h.describe_blocked() for h in self._handles if not h.finished]
        parts.append(f"{len(self._inflight)} in-flight requests")
        return f"{self.name}: " + "; ".join(parts)

    # -- polling loop ------------------------------------------------------
    def _run(self):
        # Threads start at a deterministic pseudo-random phase of the
        # polling period (real pollers are never synchronized); this is
        # what makes detection latency behave like U(0, interval) and the
        # multi-GPU barrier cost grow with the max over pollers.
        phase = float(
            self.device.rng.stream(f"{self.name}.phase").uniform(
                0.0, us(self.params.dcgn.gpu_poll_interval_us)
            )
        )
        comp, act = self._completion_sig, self._activity_sig
        kick = (self.kick,) if self.policy.supports_kick else ()
        wake = Wake(self.sim)
        if phase > 0:
            if kick:
                if (yield wake.arm(phase, kick)) is self.kick:
                    self.policy.kicked()
            else:
                yield self.sim.timeout(phase)
        # Future hardware: a mailbox post interrupts the sleep too.
        tick = (comp,) + kick + (
            (act,) if self.params.dcgn.future_gpu_signaling else ()
        )
        while True:
            src = yield wake.arm(us(self.policy.next_delay_us()), tick)
            if src is self.kick:
                self.policy.kicked()
            elif src is act:
                yield self.sim.timeout(
                    us(self.params.cpu.thread_signal_us)
                )
                found = yield from self._poll_once()
                self.policy.observe(found)
                if self._shutdown and not self.busy:
                    break
                continue
            elif src is comp:
                # Signalled completion: handle write-backs immediately
                # (thread wake-up cost), skip the mailbox probe.
                yield self.sim.timeout(
                    us(self.params.cpu.thread_signal_us)
                )
                yield from self._handle_completions()
                if self._shutdown and not self.busy:
                    break
                continue
            if self._shutdown and not self.busy:
                break
            if not self.busy:
                # Fully idle: block until a launch / kick / completion /
                # shutdown instead of burning empty poll ticks.
                self.policy.observe(False)
                yield wake.arm(None, (act, comp) + kick)
                if self._shutdown and not self.busy:
                    break
                continue
            found = yield from self._poll_once()
            self.policy.observe(found)
        self._prune()

    def _handle_completions(self) -> Generator[Event, Any, bool]:
        """Write back results for completed in-flight requests."""
        found = False
        for entry in [e for e in self._inflight if e.creq.done.triggered]:
            self._inflight.remove(entry)
            yield from self._complete(entry)
            found = True
        self._prune()
        return found

    def _poll_once(self) -> Generator[Event, Any, bool]:
        """One full poll: probe, harvest, relay, complete."""
        self.polls += 1
        found = False
        # 1. Probe the mailbox status region.
        yield from self.device.pcie.probe()
        spans = self.sim.spans
        if spans is not None:
            spans.instant(
                self.sim.now, "poll", "dcgn.poll", self.name,
                attrs={"node": self.device.node_id},
            )
        pending = any(m.has_pending() for m in self._mailboxes)
        if pending:
            # 2. Read all descriptor regions in one transaction.
            region = sum(m.region_bytes() for m in self._mailboxes)
            yield from self.device.pcie.read(region)
            for mbox in list(self._mailboxes):
                for mreq in mbox.harvest():
                    yield from self._ingest(mbox, mreq)
                    found = True
        # 3. Handle any completions that raced with this poll.
        done_now = yield from self._handle_completions()
        found = found or done_now
        if not found:
            self.empty_polls += 1
        return found

    def _ingest(
        self, mbox: SlotMailboxes, mreq: MailboxRequest
    ) -> Generator[Event, Any, None]:
        """Relay a posted request: charge the PCIe payload read,
        snapshot the payload, enqueue for the comm thread."""
        plan = mreq.args["plan"]
        creq = plan.req
        if plan.payload is not None:
            if not self.params.dcgn.future_gpu_direct:
                yield from self.device.pcie.read(plan.payload_nbytes)
            # else: future hardware — the GPU pushes payload bytes
            # straight toward the NIC; no host-bounce PCIe charge.
            creq.data = snapshot_head(plan.payload.data,
                                      plan.payload_nbytes)
        creq.done = self.sim.event(name=f"{self.name}.creq")
        creq.mark(self.sim, "posted", self.name, mreq.posted_at)
        creq.mark(self.sim, "harvested", self.name)
        self._inflight.append(_Inflight(mbox, mreq, creq, plan.result))
        creq.done.add_callback(lambda _e: self._completion_sig.fire())
        yield from self.comm.enqueue_from_gpu_thread(creq)
        creq.mark(self.sim, "enqueued", self.name)

    def _complete(self, entry: _Inflight) -> Generator[Event, Any, None]:
        """Write results back to the device and release the kernel."""
        creq = entry.creq
        if entry.dbuf is not None and creq.data is not None:
            # Payload write (recv / bcast non-root / allreduce result /
            # gather root / scatter piece).
            data = as_bytes_view(creq.data)
            if creq.op != "gather":
                # A gather root's result is the whole group's
                # contribution set, not one chunk.
                data = data[: min(creq.status.nbytes, creq.nbytes)]
            if not self.params.dcgn.future_gpu_direct:
                yield from self.device.pcie.write(data.size)
            # else: future hardware — incoming payloads land in device
            # memory directly from the NIC.
            land_bytes(entry.dbuf.bytes_view(), data)
        # Completion flag write.
        yield from self.device.pcie.write(_FLAG_BYTES)
        creq.mark(self.sim, "written_back", self.name)
        entry.mbox.complete(entry.mreq, result=creq.status)

    def _prune(self) -> None:
        self._handles = [h for h in self._handles if not h.finished]
        if not self._handles:
            # Keep mailboxes of running kernels only; finished launches
            # can't post anymore.
            self._mailboxes = [m for m in self._mailboxes if m.has_pending()]
