"""Checks of the perf benchmark itself, at tiny sizes (a few seconds).

They run the workload, child and layer-tracing functions in-process;
the full benchmark is ``benchmarks/perf/run.py``.
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run as bench  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, CollectivesExact, Jacobi  # noqa: E402


def tiny_collectives(seed=3):
    return CollectivesExact(
        seed, ranks=4,
        sweep=(("allreduce", 1024), ("bcast", 1024), ("alltoall", 1024),
               ("barrier", 0)),
    )


def test_every_repro_module_maps_to_a_layer():
    root = layers._repro_root()
    modules = []
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                modules.append(layers.module_of_file(
                    os.path.join(dirpath, f), root))
    assert len(modules) > 100
    # The package root holds only metadata.
    unmapped = [m for m in modules
                if m != "repro" and layers.layer_of(m) == "other"]
    assert unmapped == []
    assert layers.layer_of("numpy.core") == "other"
    assert layers.layer_of("repro.sim.tracing") == "obs"


def _references():
    """Identity of every reference the tracer may replace."""
    from repro.hw.topology.base import Topology
    from repro.sim.core import Simulator

    refs = {}

    def walk(path, d, depth):
        for key, value in d.items():
            if isinstance(key, str) and key.startswith("__"):
                continue
            refs[path + (key,)] = id(value)
            if isinstance(value, dict) and depth:
                walk(path + (key,), value, depth - 1)
            elif isinstance(value, types.FunctionType) and value.__closure__:
                for i, cell in enumerate(value.__closure__):
                    try:
                        refs[path + (key, "cell", i)] = id(cell.cell_contents)
                    except ValueError:
                        pass

    for name, module in sorted(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            walk((name,), vars(module), 2)
    refs["Simulator.__init__"] = id(Simulator.__dict__["__init__"])
    for attr in ("wire_time", "account"):
        refs[f"Topology.{attr}"] = id(Topology.__dict__[attr])
    return refs


def test_wrappers_restore_every_reference():
    import repro.mpi.algorithms.selector as selector
    from repro.hw.topology.base import Topology

    before = _references()
    ring = selector.SCHEDULES["allreduce"]["ring"]
    wire_time = Topology.__dict__["wire_time"]
    tracer = layers.Tracer().install()
    try:
        assert selector.SCHEDULES["allreduce"]["ring"] is not ring
        assert Topology.__dict__["wire_time"] is not wire_time
        blocking_ring = selector.ALGORITHMS["allreduce"]["ring"]
        assert ring not in [c.cell_contents
                            for c in blocking_ring.__closure__]
    finally:
        tracer.remove()
    assert _references() == before


def test_traced_run_matches_untraced_and_shares_sum_to_one():
    traced = child.run(tiny_collectives(), seconds=0.4, trace=True)
    plain = child.run(tiny_collectives(), seconds=0.1, trace=False)
    assert traced["failed"] == 0 and plain["failed"] == 0
    assert traced["digest"] == plain["digest"]
    got = traced["layers"]
    assert got["trace.samples"][0] > 0
    shares = [got[f"{l}.share"][0] for l in layers.LAYERS]
    assert abs(sum(shares) - 1.0) <= 0.01
    assert got["mpi.algorithms.builds"][0] > 0

    # The workload and metric names (and units) are the declared ones.
    assert set(bench.WORKLOADS) == set(WORKLOADS)
    declared = {m["name"] for m in bench.BENCHMARK["end_to_end"]}
    assert set(bench.end_to_end(plain, [plain["setup_s"]])) == declared
    per_layer = {m["name"]: m["unit"] for m in bench.BENCHMARK["per_layer"]}
    assert {k: v[1] for k, v in got.items()} == per_layer


def test_corrupted_expected_value_counts_as_failure():
    wl = Jacobi(seed=1, p=4, iters=2, cols=8)
    assert child.run_rep(wl.rep()).failed == 0
    wl._want += 1.0
    rep = child.run_rep(wl.rep())
    assert rep.failed == rep.units > 0
    # A repetition whose simulated outputs differ from the reference.
    wl = tiny_collectives()
    reps = child.measure(wl, 0.0, ref="not-the-digest")
    assert [r.failed for r in reps] == [r.units for r in reps]
