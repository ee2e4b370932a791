"""Unit tests for the network, disk, and CPU models."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.cpu import CpuModel, CpuParams, SimCpu
from repro.sim.disk import DiskModel, DiskParams, SimDisk
from repro.sim.network import NetworkParams, Switch


class TestNetworkModel:
    def test_wire_time_includes_frame_overhead(self):
        params = NetworkParams()
        expected = 1e6 * 1.06 / (100e6 / 8)
        assert params.wire_time(1_000_000) == pytest.approx(expected)

    def test_idle_transfer_costs_exactly_its_pipeline(self):
        """On an idle switch a transfer pays both NIC channels, the
        fabric and the fixed latency, nothing else."""
        sim = Simulator()
        switch = Switch(sim)
        a, b = switch.attach("a"), switch.attach("b")
        sim.run_process(switch.transfer(a, b, 1_000_000))
        params = NetworkParams()
        assert sim.now == pytest.approx(
            2 * params.wire_time(1_000_000)
            + 1_000_000 / params.fabric_bandwidth_bytes_per_s
            + params.per_message_latency_s)

    def test_transfer_time_scales_with_size(self):
        def elapsed(size):
            sim = Simulator()
            switch = Switch(sim)
            a, b = switch.attach("a"), switch.attach("b")
            sim.run_process(switch.transfer(a, b, size))
            return sim.now

        assert elapsed(2_000_000) > 1.8 * elapsed(1_000_000)

    def test_sender_nic_serializes_two_flows(self):
        sim = Simulator()
        switch = Switch(sim)
        a, b, c = (switch.attach(name) for name in "abc")

        def proc():
            one = sim.process(switch.transfer(a, b, 1_000_000))
            two = sim.process(switch.transfer(a, c, 1_000_000))
            yield sim.all_of([one, two])

        sim.run_process(proc())
        # Two 1 MB sends through one NIC take ~2x one send.
        assert sim.now > 2 * NetworkParams().wire_time(1_000_000)

    def test_duplicate_attach_rejected(self):
        switch = Switch(Simulator())
        switch.attach("a")
        with pytest.raises(SimulationError):
            switch.attach("a")


class TestDiskModel:
    def test_sequential_1mb_near_paper_bound(self):
        """The paper's stated server upper bound: 10.3 MB/s on 1 MB writes."""
        model = DiskModel()
        bandwidth = model.sequential_bandwidth(1 << 20) / 1e6
        assert 10.0 <= bandwidth <= 11.0

    def test_seek_costs_more_than_sequential(self):
        model = DiskModel()
        assert (model.access_time(4096, sequential=False)
                > 10 * model.access_time(4096, sequential=True))

    def test_nearby_cheaper_than_far(self):
        model = DiskModel()
        assert (model.access_time(4096, sequential=False, nearby=True)
                < model.access_time(4096, sequential=False, nearby=False))

    def test_simdisk_classifies_consecutive_as_sequential(self):
        sim = Simulator()
        disk = SimDisk(sim)

        def one_seek_then_sequential():
            yield from disk.access(1 << 20, position=5.0)
            yield from disk.access(1 << 20, position=6.0)

        sim.run_process(one_seek_then_sequential())
        sequential_pair = sim.now

        sim2 = Simulator()
        disk2 = SimDisk(sim2)

        def two_seeks():
            yield from disk2.access(1 << 20, position=5.0)
            yield from disk2.access(1 << 20, position=50.0)

        sim2.run_process(two_seeks())
        assert sim2.now > sequential_pair

    def test_simdisk_serializes_on_arm(self):
        sim = Simulator()
        disk = SimDisk(sim)

        def both():
            one = sim.process(disk.access(1 << 20, 0.0))
            two = sim.process(disk.access(1 << 20, 1.0))
            yield sim.all_of([one, two])

        sim.run_process(both())
        assert sim.now >= 2 * (1 << 20) / DiskParams().media_bandwidth_bytes_per_s

    def test_byte_accounting(self):
        sim = Simulator()
        disk = SimDisk(sim)

        def proc():
            yield from disk.access(1000, 0.0, write=True)
            yield from disk.access(500, 1.0, write=False)

        sim.run_process(proc())
        assert disk.bytes_written == 1000
        assert disk.bytes_read == 500
        assert disk.requests == 2


class TestCpuModel:
    def test_costs_scale_linearly(self):
        model = CpuModel()
        fixed = model.send_cost(0)
        assert model.send_cost(2000) - fixed == pytest.approx(
            2 * (model.send_cost(1000) - fixed))

    def test_send_cost_has_fixed_part(self):
        model = CpuModel()
        assert model.send_cost(0) == pytest.approx(
            CpuParams().per_rpc_overhead_s)

    def test_simcpu_serializes_and_tracks_utilization(self):
        sim = Simulator()
        cpu = SimCpu(sim)
        ends = []

        def worker():
            yield from cpu.compute(1.0)
            ends.append(sim.now)

        for _ in range(2):
            sim.process(worker())
        sim.run()
        assert ends == [1.0, 2.0]

    def test_zero_compute_is_free(self):
        sim = Simulator()
        cpu = SimCpu(sim)

        def worker():
            yield from cpu.compute(0.0)
            return sim.now

        assert sim.run_process(worker()) == 0.0
