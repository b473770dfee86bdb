"""Pinned event order of the exact kernel.

A :class:`DigestSimulator` hashes every popped ``(time, priority,
name)`` entry in pop order.  Two small exact programs are pinned by that
digest and the number of events popped: an MPI program touching every
two-sided protocol path plus one PSCW epoch, and a DCGN send and
barrier.  A refactor that keeps the simulated machine's behaviour keeps
both literals; any reordered, retimed, renamed, added or dropped event
changes them.

The digest does not depend on the interpreter's hash seed (event names
carry ranks and peers, never object ids).  DCGN request ids, which some
event names carry, are numbered per runtime, so the DCGN program names
its events alike however many ran before it in the process.
"""

import hashlib

import numpy as np

from repro.dcgn import DcgnConfig, DcgnRuntime
from repro.hw import ClusterSpec, build_cluster, paper_cluster
from repro.mpi import ANY_SOURCE, MpiJob
from repro.sim import Simulator


class DigestSimulator(Simulator):
    """A :class:`Simulator` that hashes each popped heap entry.

    Overrides the kernel's one pop hook (the method
    :class:`~repro.sim.explore.ExploringSimulator` also overrides), so
    the tie-break and therefore the event order are the base kernel's.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.digest = hashlib.sha256()
        self.popped = 0

    def _pop_next(self):
        entry = self._heap.pop()
        t, priority, _seq, event = entry
        self.digest.update(repr((t, priority, event.name)).encode())
        self.popped += 1
        return entry


#: Payload lengths in float64 elements: 512 B (eager) and 64 KB
#: (rendezvous at the default 16 KB eager threshold).
SMALL, BIG = 64, 8192


def mpi_program():
    """4 exact ranks on 4 nodes: eager and rendezvous send/recv,
    ``ANY_SOURCE`` receives, a rendezvous-size allreduce and bcast, and
    one PSCW epoch.  Returns (digest, events popped, data digest)."""
    sim = DigestSimulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
    job = MpiJob(cluster, [0, 1, 2, 3])
    checks = []

    def prog(ctx):
        r = ctx.rank
        small = np.full(SMALL, r + 1.0)
        big = np.full(BIG, r + 1.0)
        if r == 0:
            yield from ctx.send(small, dest=1, tag=1)
            yield from ctx.send(big, dest=1, tag=2)
        elif r == 1:
            yield from ctx.recv(small, source=0, tag=1)
            yield from ctx.recv(big, source=0, tag=2)
            checks.append(float(small.sum() + big.sum()))
        if r in (2, 3):
            yield from ctx.send(big if r == 2 else small, dest=0, tag=3)
        elif r == 0:
            for _ in range(2):
                buf = np.zeros(BIG)
                st = yield from ctx.recv(buf, source=ANY_SOURCE, tag=3)
                checks.append((st.source, float(buf.sum())))
        out = np.zeros(BIG)
        yield from ctx.allreduce(big, out)
        checks.append(float(out[0]))
        yield from ctx.bcast(big, root=2)
        checks.append(float(big[-1]))
        win = yield from ctx.win_allocate(SMALL)
        if r == 1:
            yield from win.post([0])
            yield from win.wait_sync()
            checks.append(float(win.local.sum()))
        elif r == 0:
            yield from win.start([1])
            yield from win.put(1, np.full(SMALL, 9.0))
            yield from win.complete()
        yield from win.free()

    job.start(prog)
    job.run()
    return sim.digest.hexdigest(), sim.popped, repr(checks)


def dcgn_program():
    """2-node DCGN: one CPU rank per node, a 4 kB send and a barrier.
    Returns (digest, events popped, completion times)."""
    sim = DigestSimulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    rt = DcgnRuntime(cluster, DcgnConfig.homogeneous(2, cpu_threads=1))
    marks = {}

    def kern(ctx):
        buf = np.full(512, float(ctx.rank))
        if ctx.rank == 0:
            yield from ctx.send(1, buf)
        else:
            yield from ctx.recv(0, buf)
            assert (buf == 0.0).all()
        yield from ctx.barrier()
        marks[ctx.rank] = ctx.sim.now

    rt.launch_cpu(kern)
    rt.run(max_time=1.0)
    return sim.digest.hexdigest(), sim.popped, sorted(marks.items())


def test_mpi_event_order_is_pinned():
    assert mpi_program() == MPI_EXPECTED


def test_dcgn_event_order_is_pinned():
    assert dcgn_program() == DCGN_EXPECTED


def test_dcgn_event_order_repeats_in_one_process():
    """Request ids are numbered per runtime: a second run in the same
    interpreter names its events as the first did."""
    assert dcgn_program() == dcgn_program() == DCGN_EXPECTED


def test_digest_simulator_changes_no_event():
    """The hook observes only: the plain kernel pops as many events."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=2, gpus_per_node=0))
    job = MpiJob(cluster, [0, 1])

    def prog(ctx):
        buf = np.zeros(BIG)
        if ctx.rank == 0:
            yield from ctx.send(buf, dest=1)
        else:
            yield from ctx.recv(buf, source=0)

    job.start(prog)
    job.run()
    twin = DigestSimulator()
    cluster = build_cluster(twin, ClusterSpec(nodes=2, gpus_per_node=0))
    job = MpiJob(cluster, [0, 1])
    job.start(prog)
    job.run()
    assert twin.popped == sim.stats.events_popped == twin.stats.events_popped


# Captured at the commit that introduced this file.
MPI_EXPECTED = (
    "461e7dee072bc42decef807adabb1955804788de614f396295d9ba3d08c19c48",
    553,
    "[8256.0, (2, 24576.0), (3, 256.0), 9.0, 9.0, 9.0, 9.0, 3.0, 3.0, 3.0,"
    " 3.0, 576.0]",
)
DCGN_EXPECTED = (
    "1c4825777fe08a81d5a78f981564c9e19b9e80cfa8e89093e7d39a0534fde86a",
    108,
    [(0, 8.38e-05), (1, 8.38e-05)],
)
