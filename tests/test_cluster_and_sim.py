"""Tests for cluster assembly, the SimTransport, and failure injection."""

import pytest

from repro import errors
from repro.cluster import (
    ClusterConfig,
    FailureInjector,
    SimCluster,
    SimClientDriver,
    build_local_cluster,
)
from repro.rpc import messages as m

SVC = 4


class TestLocalCluster:
    def test_servers_named_canonically(self, cluster4):
        assert sorted(cluster4.servers) == ["s0", "s1", "s2", "s3"]

    def test_stripe_group_subset(self, cluster4):
        group = cluster4.stripe_group(["s0", "s2"])
        assert group == ("s0", "s2")

    def test_config_validation(self):
        with pytest.raises(errors.ConfigError):
            ClusterConfig(num_servers=0)
        with pytest.raises(errors.ConfigError):
            ClusterConfig(num_clients=0)


class TestFailureInjector:
    def test_crash_and_restart(self, cluster4):
        injector = FailureInjector(cluster4)
        injector.crash_server("s1")
        assert injector.alive_servers() == ["s0", "s2", "s3"]
        injector.restart_server("s1")
        assert len(injector.alive_servers()) == 4

    def test_wipe_discards_data(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC, b"data")
        log.flush().wait()
        injector = FailureInjector(cluster4)
        injector.wipe_server("s0")
        injector.restart_server("s0")
        assert cluster4.servers["s0"].list_fids() == []


class TestSimTransport:
    def test_operations_take_simulated_time(self):
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        transport = cluster.make_transport(0)

        def workload():
            response = yield transport.submit_many([(
                "s0", m.StoreRequest(fid=1, data=b"x" * 100000,
                                     principal="c"))])[0]
            return response.value

        slot = cluster.sim.run_process(workload())
        assert slot == 0
        assert cluster.sim.now > 0.005  # network + disk time elapsed

    def test_functional_effect_matches_local(self):
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        transport = cluster.make_transport(0)

        def workload():
            yield transport.submit_many(
                [("s0", m.StoreRequest(fid=9, data=b"abc"))])[0]
            response = yield transport.submit_many(
                [("s0", m.RetrieveRequest(fid=9))])[0]
            return response.payload

        assert cluster.sim.run_process(workload()) == b"abc"

    def test_submit_failure_propagates(self):
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        transport = cluster.make_transport(0)

        def workload():
            with pytest.raises(errors.FragmentNotFoundError):
                yield transport.submit_many(
                    [("s0", m.RetrieveRequest(fid=404))])[0]
            return True

        assert cluster.sim.run_process(workload())

    def test_deferred_mode_accumulates_time(self):
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        transport = cluster.make_transport(0)
        future = transport.submit_many(
            [("s0", m.StoreRequest(fid=1, data=b"y" * 50000))])[0]
        assert future.triggered and future.ok
        assert transport.take_deferred_time() > 0
        assert transport.take_deferred_time() == 0.0

    @pytest.mark.usefixtures("two_second_allowance")
    def test_call_priced_like_a_simulated_process(self):
        """One cost model: an operation called outside a run is charged
        exactly what the same operation takes as a process in a run."""
        request = m.StoreRequest(fid=1, data=b"q" * (1 << 20))
        called = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        transport = called.make_transport(0)
        transport.call("s0", request)
        call_s = transport.take_deferred_time()

        driven = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        in_run = driven.make_transport(0)

        def workload():
            yield in_run.submit_many([("s0", request)])[0]

        driven.sim.run_process(workload())
        assert call_s > 0
        assert call_s == driven.sim.now
        assert in_run.take_deferred_time() == 0.0

    @pytest.mark.usefixtures("two_second_allowance")
    def test_sim_futures_resolve_outside_a_run(self):
        """Outside a run every future comes back resolved; inside one a
        submitted operation is a process the driver yields on."""
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        transport = cluster.make_transport(0)
        assert transport.submit_is_synchronous
        idle = transport.submit_many(
            [("s0", m.StoreRequest(fid=1, data=b"idle"))])[0]
        assert idle.triggered and idle.ok
        before = cluster.sim.now
        assert before > 0

        def workload():
            assert not transport.submit_is_synchronous
            future = transport.submit_many(
                [("s0", m.RetrieveRequest(fid=1))])[0]
            assert not future.triggered
            response = yield future
            return bytes(response.payload)

        assert cluster.sim.run_process(workload()) == b"idle"
        assert cluster.sim.now > before

    def test_more_servers_absorb_multi_client_load_faster(self):
        """Pipelining/contention (§2.1.2): with two offered client
        streams, two servers' disks drain the fragments faster than one
        server's single disk."""
        from repro.util.fids import make_fid

        def elapsed(nservers):
            cluster = SimCluster(ClusterConfig(num_servers=nservers,
                                               num_clients=2))
            data = b"z" * (1 << 20)
            processes = []
            for client in range(2):
                transport = cluster.make_transport(client)

                def workload(transport=transport, client=client):
                    futures = transport.submit_many([(
                        cluster.config.server_id(i % nservers),
                        m.StoreRequest(fid=make_fid(client + 1, 10 + i),
                                       data=data))
                        for i in range(4)])
                    yield cluster.sim.all_of(futures)

                processes.append(cluster.sim.process(workload()))
            cluster.sim.run()
            return cluster.sim.now

        assert elapsed(2) < elapsed(1) * 0.9


class TestSimClientDriver:
    def test_write_blocks_returns_totals(self):
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        driver = SimClientDriver(cluster, 0)
        process = cluster.sim.process(driver.write_blocks(200, 4096))
        cluster.sim.run()
        useful, raw = process.value
        assert useful == 200 * 4096
        assert raw > useful  # parity + headers

    def test_data_actually_stored_on_servers(self):
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        driver = SimClientDriver(cluster, 0)
        process = cluster.sim.process(driver.write_blocks(100, 4096))
        cluster.sim.run()
        assert sum(node.server.bytes_stored
                   for node in cluster.server_nodes.values()) >= 100 * 4096

    def test_two_drivers_share_cluster(self):
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=2))
        drivers = [SimClientDriver(cluster, i) for i in range(2)]
        processes = [cluster.sim.process(d.write_blocks(100, 4096))
                     for d in drivers]
        cluster.sim.run()
        for process in processes:
            assert process.value[0] == 100 * 4096

    def test_disk_utilization_reported(self):
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        driver = SimClientDriver(cluster, 0)
        cluster.sim.process(driver.write_blocks(500, 4096))
        cluster.sim.run()
        written = {server_id: node.disk.bytes_written
                   for server_id, node in cluster.server_nodes.items()}
        assert set(written) == {"s0", "s1"}
        assert all(value > 0 for value in written.values())


class TestInjectorStateTracking:
    """The injector's crashed-server ledger must track ground truth
    (the servers' own availability), however a server went down."""

    def test_is_crashed_follows_injector_actions(self, cluster4):
        injector = FailureInjector(cluster4)
        assert not injector.is_crashed("s1")
        injector.crash_server("s1")
        assert injector.is_crashed("s1")
        assert injector.crashed == ["s1"]
        injector.restart_server("s1")
        assert not injector.is_crashed("s1")
        assert injector.crashed == []

    def test_is_crashed_syncs_with_direct_crash(self, cluster4):
        """A test (or a scheduled sim crash) may call server.crash()
        behind the injector's back; the ledger must not report the
        server as alive."""
        injector = FailureInjector(cluster4)
        cluster4.servers["s2"].crash()
        assert injector.is_crashed("s2")
        assert "s2" in injector.crashed
        cluster4.servers["s2"].restart()
        assert not injector.is_crashed("s2")
        assert "s2" not in injector.crashed

    def test_double_crash_not_double_tracked(self, cluster4):
        injector = FailureInjector(cluster4)
        injector.crash_server("s0")
        cluster4.servers["s0"].crash()
        injector.crash_server("s0")
        injector.is_crashed("s0")
        assert injector.crashed == ["s0"]

    def test_wipe_tracks_as_crashed(self, cluster4):
        injector = FailureInjector(cluster4)
        injector.wipe_server("s3")
        assert injector.is_crashed("s3")
        assert injector.alive_servers() == ["s0", "s1", "s2"]
        injector.restart_server("s3")
        assert not injector.is_crashed("s3")
        assert len(injector.alive_servers()) == 4

    def test_alive_servers_is_sorted_ground_truth(self, cluster4):
        injector = FailureInjector(cluster4)
        # Down a server without telling the injector at all.
        cluster4.servers["s1"].crash()
        assert injector.alive_servers() == ["s0", "s2", "s3"]
