"""Golden DCGN timings: exact simulated seconds, pinned with ``==``.

The exact backend is byte-stable, so a refactor of the DCGN kernel API
or its transports must leave every one of these times unchanged — not
merely their ordering, which is all the shape tests in
``test_dcgn_timing.py`` check.  The values were captured before the
CPU and GPU kernel APIs were merged into one op table; regenerate them
only for a deliberate model change, with::

    PYTHONPATH=src python -c "import tests.test_dcgn_golden as g; g.dump()"
"""

import numpy as np
import pytest

from repro.apps import micro
from repro.apps.cannon import CannonConfig, run_dcgn as cannon_dcgn
from repro.apps.nbody import NBodyConfig, run_dcgn as nbody_dcgn
from repro.bench.calibration import TABLE1_PAPER
from repro.dcgn import DcgnConfig, DcgnRuntime
from repro.gpusim import LaunchConfig
from repro.hw import build_cluster, paper_cluster
from repro.sim import Simulator

KB = 1024
MB = 1024 * 1024


def table1_row(i):
    """Table 1 row ``i``: DCGN barrier seconds at the CPU/GPU ranks."""
    row = TABLE1_PAPER[i]
    marks = micro.dcgn_barrier_time(
        row.nodes, row.cpus_per_node, row.gpus_per_node, iters=3
    )
    return tuple(sorted(marks.items()))


def fig6_point(nbytes, src, dst):
    """One Fig 6 DCGN one-way send time."""
    return micro.dcgn_send_time(nbytes, src, dst, iters=3)


def fig7_point(kind):
    """Fig 7: 8-rank DCGN broadcast of 8 kB over 4 nodes."""
    return micro.dcgn_bcast_time(8 * KB, kind, iters=2)


def group_allreduce():
    """A declared mixed CPU+GPU group allreduce, then a group barrier;
    each rank's completion times (data checked against numpy)."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    cfg = DcgnConfig.homogeneous(
        2, cpu_threads=1, gpus=1, slots_per_gpu=1,
        slot_groups={"mixed": [0, 1, 2, 3], "pair": [1, 2]},
    )
    rt = DcgnRuntime(cluster, cfg)
    out = {}

    def cpu_kern(ctx):
        grp = ctx.group("mixed")
        send = np.full(64, ctx.rank + 1, dtype=np.int64)
        recv = np.zeros(64, dtype=np.int64)
        yield from grp.allreduce(send, recv)
        assert (recv == 10).all()
        t1 = ctx.sim.now
        if ctx.rank == 2:
            yield from ctx.group("pair").barrier()
        out[ctx.rank] = (t1, ctx.sim.now)

    def gpu_kern(kctx):
        comm = kctx.comm
        rank = comm.rank(0)
        buf = kctx.device.alloc((64,), dtype="int64", name="b")
        buf.data[...] = rank + 1
        yield from comm.group("mixed").allreduce(0, buf)
        assert (buf.data == 10).all()
        t1 = kctx.sim.now
        if rank == 1:
            yield from comm.group("pair").barrier(0)
        out[rank] = (t1, kctx.sim.now)
        buf.free()

    rt.launch_cpu(cpu_kern)
    rt.launch_gpu(gpu_kern, config=LaunchConfig(grid_blocks=1))
    rt.run(max_time=60.0)
    return tuple(out[r] for r in sorted(out))


def gpu_put_get():
    """GPU-sourced one-sided put to the right neighbour, a barrier, a
    get of the own region; per-rank times after each step."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    cfg = DcgnConfig.homogeneous(
        2, cpu_threads=0, gpus=1, slots_per_gpu=1, windows={"halo": 8}
    )
    rt = DcgnRuntime(cluster, cfg)
    out = {}

    def kern(kctx):
        comm = kctx.comm
        me = comm.rank(0)
        dev = kctx.device
        src = dev.alloc(8, fill=float(me) + 1.0)
        yield from comm.put(0, "halo", (me + 1) % comm.size, src)
        t_put = kctx.sim.now
        yield from comm.barrier(0)
        t_bar = kctx.sim.now
        dst = dev.alloc(8)
        yield from comm.get(0, "halo", me, dst)
        assert (dst.data == float((me - 1) % comm.size) + 1.0).all()
        out[me] = (t_put, t_bar, kctx.sim.now)
        src.free()
        dst.free()

    rt.launch_gpu(kern)
    rt.run(max_time=60.0)
    return tuple(out[r] for r in sorted(out))


def cpu_mix():
    """Every CPU op family on 2 nodes x 2 threads: sendrecv ring,
    rooted reduce/gather/scatter, a nonblocking allreduce overlapped
    with compute, and one-sided put/accumulate/get."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    cfg = DcgnConfig.homogeneous(2, cpu_threads=2, windows={"w": 4})
    rt = DcgnRuntime(cluster, cfg)
    out = {}

    def kern(ctx):
        me, n = ctx.rank, ctx.size
        times = []
        send = np.full(32, me + 1.0)
        recv = np.zeros(32)
        yield from ctx.sendrecv((me + 1) % n, send, (me - 1) % n, recv)
        assert (recv == (me - 1) % n + 1.0).all()
        times.append(ctx.sim.now)
        red = np.zeros(32) if me == 1 else None
        yield from ctx.reduce(1, send, red, op="max")
        times.append(ctx.sim.now)
        full = np.zeros(32 * n) if me == 0 else None
        yield from ctx.gather(0, send, full)
        back = np.zeros(32)
        yield from ctx.scatter(0, back, full)
        assert (back == me + 1.0).all()
        times.append(ctx.sim.now)
        total = np.zeros(32)
        h = yield from ctx.iallreduce(send, total)
        yield from ctx.compute(5e-6)
        yield from h.wait()
        assert (total == n * (n + 1) / 2).all()
        times.append(ctx.sim.now)
        yield from ctx.put("w", (me + 1) % n, np.full(2, me + 1.0))
        yield from ctx.accumulate("w", 0, np.ones(4), op="sum")
        yield from ctx.barrier()
        got = np.zeros(4)
        yield from ctx.get("w", me, got)
        times.append(ctx.sim.now)
        out[me] = tuple(times)

    rt.launch_cpu(kern)
    rt.run(max_time=60.0)
    return tuple(out[r] for r in sorted(out))


def gpu_mix():
    """GPU slot ops on 2 nodes x 2 slots: fused sendrecv, gather and
    scatter, a nonblocking broadcast and allreduce, and accumulate."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    cfg = DcgnConfig.homogeneous(
        2, cpu_threads=0, gpus=1, slots_per_gpu=2, windows={"w": 4}
    )
    rt = DcgnRuntime(cluster, cfg)
    out = {}

    def kern(kctx):
        comm = kctx.comm
        slot = kctx.block_idx
        me, n = comm.rank(slot), comm.size
        dev = kctx.device
        times = []
        a = dev.alloc(16, fill=float(me))
        b = dev.alloc(16)
        yield from comm.sendrecv(slot, (me + 1) % n, a, (me - 1) % n, b)
        assert (b.data == float((me - 1) % n)).all()
        times.append(kctx.sim.now)
        full = dev.alloc(16 * n) if me == 0 else None
        yield from comm.gather(slot, 0, a, full)
        yield from comm.scatter(slot, 0, b, full)
        assert (b.data == float(me)).all()
        times.append(kctx.sim.now)
        h1 = yield from comm.ibroadcast(slot, 1, b)
        yield from h1.wait()
        h2 = yield from comm.iallreduce(slot, b)
        yield from kctx.compute(seconds=3e-6)
        yield from h2.wait()
        assert (b.data == float(n)).all()
        times.append(kctx.sim.now)
        yield from comm.accumulate(slot, "w", 0, dev.alloc(4, fill=1.0))
        yield from comm.barrier(slot)
        times.append(kctx.sim.now)
        out[me] = tuple(times)

    rt.launch_gpu(kern)
    rt.run(max_time=60.0)
    assert (rt.window("w").region(0) == 4.0).all()
    return tuple(out[r] for r in sorted(out))


def cannon_step(overlap):
    """A 2x2 DCGN Cannon multiply (one rotation step), blocking or
    overlapped; the app verifies C against numpy."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=4, gpus_per_node=1))
    return cannon_dcgn(
        cluster, CannonConfig(n=256, grid=2), overlap=overlap
    ).elapsed


def nbody_overlap():
    """DCGN n-body on 4 GPUs with every per-step broadcast issued
    nonblockingly (many same-shaped requests in flight per GPU); the
    app verifies the physics against its reference integrator."""
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=4, gpus_per_node=1))
    return nbody_dcgn(
        cluster, NBodyConfig(n_bodies=256, steps=2), overlap=True
    ).elapsed


SCENARIOS = {
    **{f"table1[{i}]": (table1_row, (i,)) for i in range(len(TABLE1_PAPER))},
    **{
        f"fig6[{n}B {s}:{d}]": (fig6_point, (n, s, d))
        for n in (0, MB)
        for s, d in (("cpu", "cpu"), ("gpu", "gpu"), ("cpu", "gpu"))
    },
    "fig7[cpu]": (fig7_point, ("cpu",)),
    "fig7[gpu]": (fig7_point, ("gpu",)),
    "group_allreduce": (group_allreduce, ()),
    "gpu_put_get": (gpu_put_get, ()),
    "cpu_mix": (cpu_mix, ()),
    "gpu_mix": (gpu_mix, ()),
    "cannon[blocking]": (cannon_step, (False,)),
    "cannon[overlap]": (cannon_step, (True,)),
    "nbody[overlap]": (nbody_overlap, ()),
}

GOLDEN = {
    'table1[0]': (('cpu', 4.19000000000001e-05),),
    'table1[1]': (('gpu', 0.00027849295053008057),),
    'table1[2]': (('cpu', 6.856666666666684e-05), ('gpu', 7.104133333333329e-05)),
    'table1[3]': (('cpu', 6.856666666666684e-05), ('gpu', 7.104133333333329e-05)),
    'table1[4]': (('cpu', 4.19000000000001e-05),),
    'table1[5]': (('gpu', 0.00030654457157185746),),
    'table1[6]': (('cpu', 8.856666666666689e-05), ('gpu', 9.00413333333335e-05)),
    'table1[7]': (('cpu', 4.19000000000001e-05),),
    'table1[8]': (('gpu', 0.00030714645562982847),),
    'table1[9]': (('cpu', 8.856666666666689e-05), ('gpu', 9.00413333333335e-05)),
    'fig6[0B cpu:cpu]': 4.69e-05,
    'fig6[0B gpu:gpu]': 0.0003749999999999999,
    'fig6[0B cpu:gpu]': 8.69e-05,
    'fig6[1048576B cpu:cpu]': 0.0009618999999999999,
    'fig6[1048576B gpu:gpu]': 0.0020250000000000008,
    'fig6[1048576B cpu:gpu]': 0.0016668999999999998,
    'fig7[cpu]': 4.19e-05,
    'fig7[gpu]': 0.0002765435562299034,
    'group_allreduce': ((0.0001019, 0.0001019), (0.00012461610210783982, 0.00022704010210783978), (0.0001019, 0.00020379999999999997), (0.00012461610210783982, 0.00012461610210783982)),
    'gpu_put_get': ((0.0004040639098875616, 0.0006616337147155721, 0.0010530790480489055), (0.0005726684577985761, 0.0006616337147155721, 0.0007661366686022651)),
    'cpu_mix': ((4.23e-05, 8.42e-05, 0.000148, 0.00017490000000000002, 0.0003025000000000001), (6.23e-05, 8.419999999999999e-05, 0.000148, 0.00017490000000000002, 0.0003025000000000001), (4.23e-05, 8.42e-05, 0.00014799999999999997, 0.0001749, 0.00032250000000000003), (4.23e-05, 8.42e-05, 0.00014799999999999997, 0.0001749, 0.00032250000000000003)),
    'gpu_mix': ((0.0006211215182569083, 0.001011690826745521, 0.0013119252366834094, 0.0015230371704308215), (0.00047862256587595585, 0.0009836454934121876, 0.001283879903350076, 0.0015090345037641548), (0.0006282191101607067, 0.0009836454934121876, 0.001283879903350076, 0.0015090345037641548), (0.00073775244349404, 0.001011690826745521, 0.0013119252366834094, 0.0015230371704308215)),
    'cannon[blocking]': 0.0015340010118504702,
    'cannon[overlap]': 0.0010840010118504703,
    'nbody[overlap]': 0.0009814393668894851,
}


def dump():
    """Print the current values in GOLDEN's literal form."""
    for name, (fn, args) in SCENARIOS.items():
        print(f"    {name!r}: {fn(*args)!r},")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_dcgn_time(name):
    fn, args = SCENARIOS[name]
    assert fn(*args) == GOLDEN[name]


GPU_STAGES = {"posted", "harvested", "enqueued", "written_back"}
CPU_STAGES = {"issued", "enqueued", "returned"}


@pytest.fixture()
def recorders(monkeypatch):
    """Attach a span recorder to every simulator the scenario builds."""
    made = []
    init = Simulator.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.attach_spans())

    monkeypatch.setattr(Simulator, "__init__", traced_init)
    return made


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_dcgn_time_traced(name, recorders):
    """Recording spans is timing-passive: every golden time is
    unchanged, and the recorder holds each request's lifecycle stages
    plus the GPU threads' poll ticks."""
    fn, args = SCENARIOS[name]
    assert fn(*args) == GOLDEN[name]
    assert recorders
    spans = [s for rec in recorders for s in rec.spans]
    stages = {s.name for s in spans if s.category == "dcgn.req"}
    assert {"picked", "completed"} <= stages
    gpu_polls = [
        s for s in spans
        if s.category == "dcgn.poll" and s.track.startswith("dcgn.gpu")
    ]
    if "posted" in stages:
        assert GPU_STAGES <= stages
        assert gpu_polls
    else:
        assert CPU_STAGES <= stages
        assert not gpu_polls
