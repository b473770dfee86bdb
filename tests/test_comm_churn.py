"""Leak-free job churn: repeated setup/teardown on one long-lived cluster.

The serving scheduler builds and retires whole jobs for as long as the
cluster is up, so teardown must actually drop the heavy per-communicator
state — matching stores, schedule engine, autotune results, window and
split bookkeeping.  Before ``Communicator.release`` existed, a retired
*world* communicator could never be freed at all (``MPI_Comm_free``
rightly refuses the world at rank level), so every ``MpiJob`` /
``DcgnRuntime`` churned on one cluster leaked its engine.  These tests
pin the fix with weakrefs: after teardown, nothing but the caller keeps
a retired job's communicator or engine alive.
"""

import gc
import types
import weakref

import numpy as np
import pytest

from repro.dcgn import DcgnConfig, DcgnRuntime
from repro.hw import ClusterSpec, TopologySpec, build_cluster, paper_cluster
from repro.mpi import MpiError, MpiJob
from repro.mpi.algorithms import autotune
from repro.mpi.algorithms.schedule import Schedule
from repro.mpi.communicator import Communicator, MpiContext
from repro.sim import Simulator

KB = 1024


def _allreduce_program(ctx):
    buf = np.full(256, float(ctx.rank))
    out = np.zeros(256)
    yield from ctx.allreduce(buf, out)
    return float(out[0])


class TestWorldRelease:
    def test_release_frees_world_state(self):
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
        job = MpiJob(cluster, list(range(4)))
        job.start(_allreduce_program)
        sim.run()
        comm = job.comm
        engine_ref = weakref.ref(comm.engine)
        job.shutdown()
        assert comm._freed
        with pytest.raises(MpiError):
            comm.ctx(0)
        comm_ref = weakref.ref(comm)
        del comm, job
        gc.collect()
        assert comm_ref() is None, "released world communicator leaked"
        assert engine_ref() is None, "released schedule engine leaked"

    def test_release_refuses_inflight_traffic(self):
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=2, gpus_per_node=0))
        job = MpiJob(cluster, [0, 1])

        def sender(ctx):
            yield from ctx.send(np.zeros(64 * KB), dest=1, tag=7)

        def receiver(ctx):
            buf = np.zeros(64 * KB)
            yield from ctx.recv(buf, source=0, tag=7)

        job.start(sender, ranks=[0])
        job.start(receiver, ranks=[1])
        # Step into the transfer, then try to tear down mid-flight.
        sim.run(until=1e-7)
        with pytest.raises(MpiError):
            job.comm.release()
        sim.run()
        job.shutdown()
        assert job.comm._freed

    def test_shutdown_is_idempotent(self):
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=2, gpus_per_node=0))
        job = MpiJob(cluster, [0, 1])
        job.start(_allreduce_program)
        sim.run()
        job.shutdown()
        job.shutdown()  # second call is a no-op, not an error
        assert job.comm._freed


class TestMpiJobChurn:
    def test_churn_leaves_no_live_communicators(self):
        """N sequential jobs on one cluster: all N worlds collectable."""
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
        refs = []
        for i in range(8):
            job = MpiJob(cluster, list(range(4)))
            job.start(_allreduce_program)
            sim.run()
            assert all(v == sum(range(4)) for v in (p.value for p in job._procs))
            refs.append(
                (weakref.ref(job.comm), weakref.ref(job.comm.engine))
            )
            job.shutdown()
            del job
        gc.collect()
        for i, (comm_ref, engine_ref) in enumerate(refs):
            assert comm_ref() is None, f"job {i} communicator leaked"
            assert engine_ref() is None, f"job {i} engine leaked"

    def test_churn_keeps_autotune_cache_bounded(self):
        """Same fabric shape every time -> one cache entry, not N."""
        sim = Simulator()
        topo = TopologySpec(kind="fattree", pod_size=4, oversubscription=2.0)
        cluster = build_cluster(
            sim, ClusterSpec(nodes=8, gpus_per_node=0, topology=topo)
        )
        sizes = set()
        for _ in range(6):
            job = MpiJob(cluster, list(range(8)))
            job.start(_allreduce_program)
            sim.run()
            job.shutdown()
            sizes.add(len(autotune._CACHE))
        assert len(sizes) == 1, (
            f"autotune cache grew across identical churns: {sizes}"
        )

    def test_derived_comm_bookkeeping_cleared(self):
        """Split-built sub-communicators die with the released world."""
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=4, gpus_per_node=0))
        job = MpiJob(cluster, list(range(4)))

        def program(ctx):
            sub = yield from ctx.split(color=ctx.rank % 2, key=ctx.rank)
            buf = np.full(8, float(sub.rank))
            out = np.zeros(8)
            yield from sub.allreduce(buf, out)
            return float(out[0])

        job.start(program)
        sim.run()
        comm = job.comm
        sub_refs = [
            weakref.ref(c) for c in comm._split_built.values()
        ] if comm._split_built else []
        job.shutdown()
        assert comm._split_built == {}
        del job, comm
        gc.collect()
        for r in sub_refs:
            assert r() is None, "split-derived communicator leaked"


def _analytic_job(n=4):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=n, gpus_per_node=0))
    return sim, MpiJob(cluster, list(range(n)), backend="analytic")


def _repeated_allreduce(refs=None, calls=3):
    def program(ctx):
        for _ in range(calls):
            buf = np.full(256, float(ctx.rank))
            out = np.zeros(256)
            if refs is not None:
                refs.extend((weakref.ref(buf), weakref.ref(out)))
            yield from ctx.allreduce(buf, out)
    return program


class TestPlanLifetime:
    """Retained fast-path plans hold structure only, and die with the
    last communicator engine that uses them."""

    def test_plans_keep_no_payloads_or_contexts(self):
        # The tape's index and constant arrays are the only arrays a
        # plan may hold.
        sim, job = _analytic_job()
        refs = []
        job.start(_repeated_allreduce(refs, calls=4))
        sim.run()
        plans = list(job.comm.engine._held)
        assert plans and all(p.levels for p in plans)
        gc.collect()
        assert all(r() is None for r in refs), "a plan kept a payload alive"
        own = {id(getattr(p, name)) for p in plans for name in (
            "ins", "rel", "a", "b", "legs", "step_node", "step_fin",
            "step_round", "rank_fin")}
        seen, stack = set(), list(plans)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or id(obj) in own or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (
                np.ndarray, MpiContext, Communicator, Schedule,
                types.FunctionType,
            )), f"plan references a {type(obj).__name__}"
            stack.extend(gc.get_referents(obj))

    def test_release_drops_plans(self):
        sim, job = _analytic_job()
        job.start(_repeated_allreduce())
        sim.run()
        refs = [weakref.ref(p) for p in job.comm.engine._held]
        assert refs
        job.shutdown()
        gc.collect()
        assert all(r() is None for r in refs), "released engine's plan leaked"

    def test_free_drops_plans(self):
        sim, job = _analytic_job()
        refs = []

        def program(ctx):
            sub = yield from ctx.split(color=ctx.rank % 2, key=ctx.rank)
            yield from _repeated_allreduce()(sub)
            if sub.rank == 0:
                refs.extend(
                    weakref.ref(p) for p in sub.comm.engine._held
                )
            yield from sub.free()

        job.start(program)
        sim.run()
        assert len(refs) == 2
        gc.collect()
        assert all(r() is None for r in refs), "freed engine's plan leaked"

    def test_shared_plan_lives_with_its_last_user(self):
        # Two jobs of one structure on one fabric share the plan: it
        # outlives the first job's release and dies with the second's.
        sim = Simulator()
        cluster = build_cluster(sim, ClusterSpec(nodes=8, gpus_per_node=0))
        jobs = [MpiJob(cluster, list(range(lo, lo + 4)), backend="analytic")
                for lo in (0, 4)]
        for job in jobs:
            job.start(_repeated_allreduce())
        sim.run()
        (plan,) = jobs[0].comm.engine._held
        assert jobs[1].comm.engine._held == {plan}
        assert sim.stats.fastpath_collectives == 6
        assert sim.stats.fastpath_sched_cache_hits == 5
        ref = weakref.ref(plan)
        del plan
        jobs[0].shutdown()
        gc.collect()
        assert ref() is not None, "a shared plan died with its first user"
        assert list(cluster.topology.plans.values()) == [ref()]
        jobs[1].shutdown()
        gc.collect()
        assert ref() is None, "released engines' shared plan leaked"
        assert not cluster.topology.plans


class TestDcgnChurn:
    def test_dcgn_runtime_churn(self):
        """Repeated DCGN jobs (groups + windows) leave no live comms."""
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=2, gpus_per_node=0))

        def kernel(ctx):
            out = np.zeros(4)
            yield from ctx.allreduce(np.full(4, float(ctx.rank)), out)
            return float(out[0])

        refs = []
        for i in range(4):
            cfg = DcgnConfig.homogeneous(
                2,
                cpu_threads=2,
                slot_groups={"left": [0, 1]},
                windows={"w": 4},
            )
            rt = DcgnRuntime(cluster, cfg)
            rt.launch_cpu(kernel)
            # max_time is an absolute sim deadline; the shared clock
            # keeps advancing across churned jobs.
            rt.run(max_time=sim.now + 10.0)
            refs.append(weakref.ref(rt.node_comm))
            refs.extend(
                weakref.ref(info.subcomm)
                for gid, info in rt.groups._infos.items()
                if info.subcomm is not rt.node_comm
            )
            rt.shutdown()
            assert rt.node_comm._freed
            del rt
        gc.collect()
        for i, r in enumerate(refs):
            assert r() is None, f"DCGN communicator {i} leaked"
