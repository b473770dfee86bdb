"""Tests for hardware models: params, memory, PCIe, interconnect, cluster."""

import numpy as np
import pytest

from repro.hw import (
    KB,
    MB,
    ClusterSpec,
    HostBuffer,
    FlatSwitch,
    HWParams,
    MemcpyEngine,
    PcieLink,
    build_cluster,
    nbytes_of,
    paper_cluster,
    single_node,
)
from repro.hw.memory import land_bytes
from repro.hw.params import IbParams, PcieParams
from repro.sim import Simulator, us


class TestParams:
    def test_paper_cluster_shape(self):
        spec = paper_cluster()
        assert spec.nodes == 4
        assert spec.cores_per_node == 4
        assert spec.gpus_per_node == 2

    def test_single_node(self):
        spec = single_node(gpus=1)
        assert spec.nodes == 1
        assert spec.gpus_per_node == 1

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(cores_per_node=0)
        with pytest.raises(ValueError):
            ClusterSpec(gpus_per_node=-1)

    def test_with_updates_functionally(self):
        p = HWParams()
        p2 = p.with_(jitter_us=5.0)
        assert p.jitter_us == 0.0
        assert p2.jitter_us == 5.0
        assert p2.cpu is p.cpu

    def test_units(self):
        assert KB == 1024
        assert MB == 1024 * 1024


class TestHostBuffer:
    def test_wraps_array(self):
        arr = np.arange(10, dtype=np.int32)
        buf = HostBuffer(arr, node_id=0)
        assert buf.nbytes == 40
        assert buf.dtype == np.int32

    def test_land_bytes_into_host_buffer(self):
        buf = HostBuffer(np.zeros(4, dtype=np.int32), node_id=0)
        assert land_bytes(buf, np.array([1, 2, 3, 4], dtype=np.int32)) == 16
        assert list(buf.data) == [1, 2, 3, 4]

    def test_land_bytes_rejects_an_oversized_payload(self):
        buf = HostBuffer(np.zeros(2, dtype=np.int32), node_id=0)
        with pytest.raises(ValueError, match="exceeds buffer"):
            land_bytes(buf, np.zeros(3, dtype=np.int32))

    def test_non_contiguous_rejected(self):
        arr = np.zeros((4, 4))[:, ::2]
        with pytest.raises(ValueError):
            HostBuffer(arr, node_id=0)

    def test_non_array_rejected(self):
        with pytest.raises(TypeError):
            HostBuffer([1, 2, 3], node_id=0)  # type: ignore[arg-type]

    def test_nbytes_of(self):
        assert nbytes_of(100) == 100
        assert nbytes_of(np.zeros(3, dtype=np.float64)) == 24
        assert nbytes_of(HostBuffer(np.zeros(3), node_id=0)) == 24
        with pytest.raises(TypeError):
            nbytes_of("x")  # type: ignore[arg-type]


class TestMemcpyEngine:
    def test_copy_moves_data_and_time(self):
        sim = Simulator()
        eng = MemcpyEngine(sim, lat_us=1.0, bw_GBps=1.0)
        dst = np.zeros(1024, dtype=np.uint8)
        src = np.full(1024, 7, dtype=np.uint8)

        def proc():
            yield from eng.copy(dst, src)

        sim.process(proc())
        sim.run()
        assert np.all(dst == 7)
        # 1 µs latency + 1024/1e9 s
        assert sim.now == pytest.approx(us(1.0) + 1024 / 1e9)

    def test_time_only_copy(self):
        sim = Simulator()
        eng = MemcpyEngine(sim, lat_us=1.0, bw_GBps=1.0)

        def proc():
            n = yield from eng.copy(None, None, nbytes=2048)
            return n

        p = sim.process(proc())
        sim.run()
        assert p.value == 2048
        assert sim.now > 0

    def test_copy_requires_size_info(self):
        sim = Simulator()
        eng = MemcpyEngine(sim, lat_us=1.0, bw_GBps=1.0)

        def proc():
            yield from eng.copy(None, None)

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()


class TestPcieLink:
    def test_write_and_read_times(self):
        sim = Simulator()
        link = PcieLink(sim, PcieParams(lat_us=10.0, bw_GBps=1.0))
        assert link.write_time(0) == pytest.approx(us(10.0))
        assert link.read_time(10**9) == pytest.approx(us(10.0) + 1.0)

    def test_directions_are_independent(self):
        sim = Simulator()
        link = PcieLink(sim, PcieParams(lat_us=10.0, bw_GBps=1.0))
        done = []

        def writer():
            yield from link.write(10**6)
            done.append(("w", sim.now))

        def reader():
            yield from link.read(10**6)
            done.append(("r", sim.now))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        tw = dict(done)["w"]
        tr = dict(done)["r"]
        # Full duplex: both finish at the same time.
        assert tw == pytest.approx(tr)

    def test_same_direction_serializes(self):
        sim = Simulator()
        link = PcieLink(sim, PcieParams(lat_us=0.0, bw_GBps=1.0))
        done = []

        def writer(i):
            yield from link.write(10**6)
            done.append(sim.now)

        sim.process(writer(0))
        sim.process(writer(1))
        sim.run()
        assert done[0] == pytest.approx(1e-3)
        assert done[1] == pytest.approx(2e-3)

    def test_probe_counts_and_costs(self):
        sim = Simulator()
        link = PcieLink(sim, PcieParams(lat_us=10.0, bw_GBps=1.0, probe_lat_us=5.0))

        def proc():
            yield from link.probe()
            yield from link.probe()

        sim.process(proc())
        sim.run()
        assert link.probe_count == 2
        assert sim.now == pytest.approx(us(10.0))


class TestInterconnect:
    def _net(self, n=4, **kw):
        sim = Simulator()
        params = IbParams(**kw) if kw else IbParams()
        return sim, FlatSwitch(sim, n, params)

    def test_internode_latency(self):
        sim, net = self._net(lat_us=2.0, bw_GBps=1.0)

        def proc():
            t = yield from net.transfer(0, 1, 0)
            return t

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(us(2.0))

    def test_internode_bandwidth_term(self):
        sim, net = self._net(lat_us=2.0, bw_GBps=1.0)

        def proc():
            t = yield from net.transfer(0, 1, 10**6)
            return t

        p = sim.process(proc())
        sim.run()
        assert p.value == pytest.approx(us(2.0) + 1e-3)

    def test_intra_node_is_cheaper(self):
        sim, net = self._net(lat_us=2.0, bw_GBps=1.0, intra_lat_us=0.5, intra_bw_GBps=4.0)

        def proc():
            t_local = yield from net.transfer(0, 0, 10**6)
            t_remote = yield from net.transfer(0, 1, 10**6)
            return t_local, t_remote

        p = sim.process(proc())
        sim.run()
        t_local, t_remote = p.value
        assert t_local < t_remote

    def test_sender_nic_contention(self):
        sim, net = self._net(lat_us=0.0, bw_GBps=1.0)
        done = []

        def sender(dst):
            yield from net.transfer(0, dst, 10**6)
            done.append(sim.now)

        sim.process(sender(1))
        sim.process(sender(2))
        sim.run()
        # Same source NIC: second transfer waits for the first.
        assert done[1] >= done[0] + 0.9e-3

    def test_distinct_pairs_parallel(self):
        sim, net = self._net(lat_us=0.0, bw_GBps=1.0)
        done = []

        def sender(src, dst):
            yield from net.transfer(src, dst, 10**6)
            done.append(sim.now)

        sim.process(sender(0, 1))
        sim.process(sender(2, 3))
        sim.run()
        assert done[0] == pytest.approx(done[1])

    def test_bad_node_rejected(self):
        sim, net = self._net()

        def proc():
            yield from net.transfer(0, 99, 0)

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()


class TestCluster:
    def test_build_paper_cluster(self):
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster())
        assert cluster.n_nodes == 4
        assert cluster.total_gpus == 8
        assert cluster.gpu(1, 0).node_id == 1
        assert cluster.gpu(3, 1).device_id == 1

    def test_node_alloc(self):
        sim = Simulator()
        cluster = build_cluster(sim, single_node())
        buf = cluster.nodes[0].alloc(16, dtype=np.int32, fill=3)
        assert buf.node_id == 0
        assert np.all(buf.data == 3)

    def test_node_wrap(self):
        sim = Simulator()
        cluster = build_cluster(sim, single_node())
        arr = np.arange(5)
        buf = cluster.nodes[0].wrap(arr)
        assert buf.nbytes == arr.nbytes
