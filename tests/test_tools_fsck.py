"""Tests for the fsck scrubber and repair tool."""

from collections import Counter

import pytest

from repro.log.fragment import Fragment
from repro.rpc import messages as m
from repro.rpc.transport import TransportWrapper
from repro.server import ServerConfig, StorageServer
from repro.tools.fsck import check_client_log, repair_client_log

SVC = 6


@pytest.fixture
def populated(cluster4):
    log = cluster4.make_log(client_id=1)
    payloads = {i: bytes([i + 1]) * 22000 for i in range(12)}
    addresses = {i: log.write_block(SVC, data)
                 for i, data in payloads.items()}
    log.flush().wait()
    return log, payloads, addresses


def tear_last_two(cluster):
    """Delete the last two members of some stripe everywhere; returns
    the stripe's header (read before the tear)."""
    some_server = cluster.servers["s0"]
    fid = some_server.list_fids()[0]
    header = Fragment.decode(some_server.retrieve(fid)).header
    for victim_fid in header.sibling_fids()[-2:]:
        for server in cluster.servers.values():
            if server.holds(victim_fid):
                server.delete(victim_fid)
    return header


class CountingTransport(TransportWrapper):
    """Counts the requests it passes on, by message class, and collects
    the principals they carry."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.sent = Counter()
        self.principals = set()

    def call(self, server_id, request):
        self.sent[type(request)] += 1
        self.principals.add(request.principal)
        return self.inner.call(server_id, request)


class TestCheck:
    def test_intact_log_is_healthy(self, cluster4, populated):
        report = check_client_log(cluster4.transport, 1)
        assert report.healthy
        assert report.fragments_checked > 0
        assert all(s.parity_valid for s in report.stripes)
        assert "healthy" in report.summary()

    def test_missing_fragment_degrades_stripe(self, cluster4, populated):
        victim = cluster4.servers["s1"]
        doomed = victim.list_fids()[0]
        victim.delete(doomed)
        report = check_client_log(cluster4.transport, 1)
        degraded = report.by_status("degraded")
        assert len(degraded) == 1
        assert degraded[0].missing == [doomed]

    def test_corrupt_fragment_detected(self, cluster4, populated):
        victim = cluster4.servers["s2"]
        fid = victim.list_fids()[0]
        slot = victim.slots.slot_of(fid)
        image = bytearray(victim.backend.read_slot(slot))
        image[500] ^= 0xFF
        image[5] ^= 0xFF  # also break the header checksum
        victim.backend.write_slot(slot, bytes(image))
        report = check_client_log(cluster4.transport, 1)
        assert any(fid in s.corrupt for s in report.stripes)
        assert not report.healthy

    def test_two_missing_members_is_lost(self, cluster4, populated):
        fids = []
        from repro.log.fragment import Fragment

        # Delete two members of the SAME stripe.
        some_server = cluster4.servers["s0"]
        fid = some_server.list_fids()[0]
        header = Fragment.decode(some_server.retrieve(fid)).header
        victims = header.sibling_fids()[:2]
        for victim_fid in victims:
            for server in cluster4.servers.values():
                if server.holds(victim_fid):
                    server.delete(victim_fid)
        report = check_client_log(cluster4.transport, 1)
        assert report.by_status("lost")

    def test_parity_mismatch_flagged(self, cluster4, populated):
        """Silent data corruption that keeps checksums valid (a re-stored
        wrong fragment) is caught by the parity cross-check."""
        from repro.log.fragment import Fragment, FragmentBuilder

        victim = cluster4.servers["s1"]
        fid = next(f for f in victim.list_fids()
                   if not Fragment.decode(victim.retrieve(f)).header.is_parity)
        old = Fragment.decode(victim.retrieve(fid))
        builder = FragmentBuilder(fid, 1, 1 << 16)
        builder.add_block(SVC, b"forged!" * 100)
        forged = builder.seal(old.header.stripe_base_fid,
                              old.header.stripe_width,
                              old.header.stripe_index,
                              old.header.parity_index,
                              old.header.servers)
        victim.delete(fid)
        victim.store(fid, forged.encode())
        report = check_client_log(cluster4.transport, 1)
        assert any(s.parity_valid is False for s in report.stripes)

    def test_per_client_scoping(self, cluster4, populated):
        other = cluster4.make_log(client_id=2)
        other.write_block(SVC, b"other-client")
        other.flush().wait()
        report1 = check_client_log(cluster4.transport, 1)
        report2 = check_client_log(cluster4.transport, 2)
        assert report1.client_id == 1
        assert report2.fragments_checked < report1.fragments_checked


class TestRepair:
    def test_missing_fragments_restored(self, cluster4, populated):
        log, payloads, addresses = populated
        lost = sorted(cluster4.servers["s3"].list_fids())
        cluster4.servers["s3"].crash()
        spare = StorageServer(ServerConfig("spare", fragment_size=1 << 16))
        cluster4.transport.add_server(spare)
        restored = repair_client_log(cluster4.transport, 1, "spare")
        assert restored == len(lost)
        report = check_client_log(cluster4.transport, 1)
        assert report.healthy
        # And the data is still byte-identical.
        fresh = cluster4.make_log(client_id=1)
        for i, addr in addresses.items():
            assert fresh.read(addr) == payloads[i]

    def test_corrupt_fragment_rebuilt(self, cluster4, populated):
        victim = cluster4.servers["s2"]
        fid = victim.list_fids()[0]
        slot = victim.slots.slot_of(fid)
        image = bytearray(victim.backend.read_slot(slot))
        image[5] ^= 0xFF
        victim.backend.write_slot(slot, bytes(image))
        restored = repair_client_log(cluster4.transport, 1, "s2")
        assert restored >= 1
        assert check_client_log(cluster4.transport, 1).healthy

    def test_repair_noop_on_healthy_log(self, cluster4, populated):
        assert repair_client_log(cluster4.transport, 1, "s0") == 0


@pytest.mark.usefixtures("two_second_allowance")
class TestOneRepairPath:
    """fsck repair lists the cluster once and stores every fragment it
    writes through the one verified store."""

    def test_one_listing_request_per_server(self, cluster4, populated):
        victim = cluster4.servers["s1"]
        victim.delete(victim.list_fids()[0])
        counting = CountingTransport(cluster4.transport)
        assert repair_client_log(counting, 1, "s1") == 1
        assert counting.sent[m.ListFidsRequest] == len(cluster4.servers)
        # The caller's principal (here the default "") reaches every RPC.
        assert counting.principals == {""}
        assert check_client_log(cluster4.transport, 1).healthy

    def test_torn_completion_is_verified(self, cluster4, populated,
                                         monkeypatch):
        header = tear_last_two(cluster4)
        first = header.sibling_fids()[-2]
        completer = cluster4.servers[header.servers[
            first - header.stripe_base_fid]]
        write_slot = completer.backend.write_slot
        monkeypatch.setattr(
            completer.backend, "write_slot",
            lambda slot, data: write_slot(slot, data[:len(data) // 2]))
        assert repair_client_log(cluster4.transport, 1, "s0") == 0
        # The bad copy is not left behind: the stripe is still torn, and
        # repair completes it once the server stores whole images.
        assert len(check_client_log(cluster4.transport, 1)
                   .by_status("torn")) == 1
        monkeypatch.undo()
        assert repair_client_log(cluster4.transport, 1, "s0") == 2
        assert check_client_log(cluster4.transport, 1).healthy

    def test_rebuilds_take_stripes_from_the_scrub(self, monkeypatch):
        """The scrub's headers fill the daemon's stripe table: no
        rebuild broadcasts or probes for its stripe."""
        from repro.cluster import build_local_cluster
        from repro.log.reconstruct import Reconstructor

        cluster = build_local_cluster(num_servers=5, fragment_size=1 << 16,
                                      server_slots=512)
        log = cluster.make_log(client_id=1, group=cluster.stripe_group(
            ["s0", "s1", "s2", "s3"]))
        for i in range(12):
            log.write_block(SVC, bytes([i + 1]) * 22000)
        log.flush().wait()
        lost = cluster.servers["s1"].list_fids()
        cluster.servers["s1"].crash()
        probes = []
        real = Reconstructor._probe_stripe

        def probe(self, fid):
            probes.append(fid)
            return real(self, fid)

        monkeypatch.setattr(Reconstructor, "_probe_stripe", probe)
        counting = CountingTransport(cluster.transport)
        assert repair_client_log(counting, 1, "s4") == len(lost)
        assert counting.sent[m.HoldsRequest] == 0
        assert probes == []
        assert sorted(cluster.servers["s4"].list_fids()) == sorted(lost)
        assert check_client_log(cluster.transport, 1).healthy


class TestServerCache:
    def test_cache_serves_hits(self):
        server = StorageServer(ServerConfig("c", fragment_size=1 << 16,
                                            cache_fragments=4))
        server.store(1, b"cached-bytes")
        server.retrieve(1)
        assert server.last_disk_spans == []  # write-through insert
        assert server.cache_hits >= 1

    def test_cache_disabled_by_default(self, server):
        server.store(1, b"x")
        server.retrieve(1)
        assert server.last_disk_spans

    def test_lru_bound(self):
        server = StorageServer(ServerConfig("c", fragment_size=1 << 16,
                                            cache_fragments=2))
        for fid in (1, 2, 3):
            server.store(fid, b"%d" % fid)
        server.retrieve(1)   # evicted: must come from the backend
        assert server.last_disk_spans
        server.retrieve(1)   # now cached again
        assert server.last_disk_spans == []

    def test_cache_cleared_on_crash(self):
        server = StorageServer(ServerConfig("c", fragment_size=1 << 16,
                                            cache_fragments=4))
        server.store(1, b"x")
        server.crash()
        server.restart()
        server.retrieve(1)
        assert server.last_disk_spans

    def test_delete_invalidates(self):
        server = StorageServer(ServerConfig("c", fragment_size=1 << 16,
                                            cache_fragments=4))
        server.store(1, b"x")
        server.delete(1)
        server.store(1, b"y")  # same fid, fresh contents
        assert server.retrieve(1) == b"y"

    def test_sim_read_faster_with_server_cache(self):
        """The paper's prediction: server fragment caching would
        'greatly improve' repeated reads."""
        from repro.cluster import ClusterConfig, SimCluster
        from repro.rpc import messages as m

        def run(cache):
            cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
            node = cluster.server_nodes["s0"]
            object.__setattr__(node.server.config, "cache_fragments",
                               8 if cache else 0)
            node.server.store(1, b"z" * (1 << 20))
            transport = cluster.make_transport(0)

            def reads():
                for _ in range(10):
                    yield transport.submit_many(
                        [("s0", m.RetrieveRequest(fid=1))])[0]

            cluster.sim.run_process(reads())
            return cluster.sim.now

        # The disk stage vanishes on hits; protocol/network costs remain,
        # so the win is real but bounded.
        assert run(cache=True) < 0.85 * run(cache=False)


class TestClusterStatus:
    def _populate(self, cluster):
        log = cluster.make_log(client_id=1)
        for i in range(8):
            log.write_block(SVC, bytes([i]) * 20000)
        log.checkpoint(SVC, b"cp").wait()
        other = cluster.make_log(client_id=2)
        other.write_block(SVC, b"two")
        other.flush().wait()
        return log

    def test_collect_counts_fragments_per_client(self, cluster4):
        from repro.tools.status import collect_status

        self._populate(cluster4)
        status = collect_status(cluster4)
        assert status.client_ids == [1, 2]
        assert status.total_fragments == sum(
            s.slots_used for s in status.servers)
        assert any(s.newest_marked_fid for s in status.servers)

    def test_down_server_reported(self, cluster4):
        from repro.tools.status import collect_status

        self._populate(cluster4)
        cluster4.servers["s1"].crash()
        status = collect_status(cluster4)
        down = [s for s in status.servers if not s.available]
        assert [s.server_id for s in down] == ["s1"]

    def test_balance_near_one_after_rotation(self, cluster4):
        from repro.tools.status import collect_status

        log = cluster4.make_log(client_id=1)
        for _ in range(60):
            log.write_block(SVC, b"r" * 30000)
        log.flush().wait()
        status = collect_status(cluster4)
        assert status.imbalance() <= 1.5

    def test_format_renders_all_servers(self, cluster4):
        from repro.tools.status import collect_status, format_status

        self._populate(cluster4)
        cluster4.servers["s3"].crash()
        text = format_status(collect_status(cluster4))
        for server_id in ("s0", "s1", "s2", "s3"):
            assert server_id in text
        assert "DOWN" in text
        assert "balance" in text

    def test_works_on_sim_cluster(self):
        from repro.cluster import ClusterConfig, SimCluster, SimClientDriver
        from repro.tools.status import collect_status

        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        driver = SimClientDriver(cluster, 0)
        cluster.sim.process(driver.write_blocks(50, 4096))
        cluster.sim.run()
        status = collect_status(cluster)
        assert status.total_fragments > 0


class TestParityLayouts:
    """fsck status and repair across m=0 and m=2 stripe layouts.

    Regression tests for the coding-engine refactor: stripe health is
    judged against the stripe's actual parity budget (``parity_count``
    from the header geometry), not a hardwired single-parity rule, and
    repair can spread a multi-erasure stripe over several targets.
    """

    def _populate(self, cluster, **overrides):
        log = cluster.make_log(client_id=1, **overrides)
        payloads = {i: bytes([(i * 13 + 1) % 256]) * 22000
                    for i in range(12)}
        addresses = {i: log.write_block(SVC, data)
                     for i, data in payloads.items()}
        log.flush().wait()
        return log, payloads, addresses

    def _stripe_members(self, cluster, server_id):
        """Some full stripe's member fids, via a surviving header."""
        from repro.log.fragment import Fragment

        server = cluster.servers[server_id]
        fid = server.list_fids()[0]
        header = Fragment.decode(server.retrieve(fid)).header
        return header.sibling_fids()

    def _delete_everywhere(self, cluster, fids):
        for doomed in fids:
            for server in cluster.servers.values():
                if server.holds(doomed):
                    server.delete(doomed)

    def test_m0_single_loss_is_lost_not_degraded(self):
        """With no parity members, every loss is final — the old
        ``bad <= 1`` rule would have called this recoverable."""
        from repro.cluster import build_local_cluster

        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 16,
                                      server_slots=512)
        self._populate(cluster, parity_fragments=0)
        healthy = check_client_log(cluster.transport, 1)
        assert healthy.healthy
        assert all(s.parity_count == 0 for s in healthy.stripes)
        victim = cluster.servers["s1"]
        doomed = victim.list_fids()[0]
        victim.delete(doomed)
        report = check_client_log(cluster.transport, 1)
        assert not report.by_status("degraded")
        lost = report.by_status("lost")
        assert len(lost) == 1
        assert lost[0].missing == [doomed]

    def test_m2_degraded_until_third_loss(self):
        """An m=2 stripe absorbs two losses; the third makes it lost."""
        from repro.cluster import build_local_cluster

        cluster = build_local_cluster(num_servers=5, fragment_size=1 << 16,
                                      server_slots=512)
        self._populate(cluster, parity_fragments=2, coding="rs")
        members = self._stripe_members(cluster, "s0")
        assert len(members) == 5
        for losses, expected in ((1, "degraded"), (2, "degraded"),
                                 (3, "lost")):
            self._delete_everywhere(cluster, members[:losses])
            report = check_client_log(cluster.transport, 1)
            assert all(s.parity_count == 2 for s in report.stripes)
            wounded = [s for s in report.stripes
                       if s.base_fid == members[0]]
            assert len(wounded) == 1
            assert wounded[0].status == expected, \
                "%d losses -> %s" % (losses, wounded[0].status)

    def test_m2_repair_round_robins_over_target_list(self):
        """A doubly-degraded stripe's rebuilt pair lands on distinct
        targets, and the repaired log is fully healthy and readable."""
        from repro.cluster import build_local_cluster

        cluster = build_local_cluster(num_servers=5, fragment_size=1 << 16,
                                      server_slots=512)
        log, payloads, addresses = self._populate(
            cluster, parity_fragments=2, coding="rs")
        members = self._stripe_members(cluster, "s0")
        self._delete_everywhere(cluster, members[:2])
        for spare_id in ("spare_a", "spare_b"):
            cluster.transport.add_server(StorageServer(ServerConfig(
                spare_id, fragment_size=1 << 16)))
        restored = repair_client_log(cluster.transport, 1,
                                     ["spare_a", "spare_b"])
        assert restored == 2
        homes = set()
        for fid in members[:2]:
            holders = [sid for sid in ("spare_a", "spare_b")
                       if cluster.transport.servers[sid].holds(fid)]
            assert len(holders) == 1
            homes.add(holders[0])
        assert homes == {"spare_a", "spare_b"}
        assert check_client_log(cluster.transport, 1).healthy
        fresh = cluster.make_log(client_id=1, parity_fragments=2,
                                 coding="rs")
        for i, addr in addresses.items():
            assert fresh.read(addr) == payloads[i]


class TestTornTail:
    """A stripe whose missing members are an exact suffix is a torn
    client-crash tail: present prefix durable, missing suffix never
    stored. It is repairable by seal-completion even when the losses
    exceed parity."""

    def test_suffix_missing_is_torn_not_lost(self, cluster4, populated):
        doomed = tear_last_two(cluster4).sibling_fids()[-2:]
        report = check_client_log(cluster4.transport, 1)
        torn = report.by_status("torn")
        assert len(torn) == 1
        assert torn[0].missing == sorted(doomed)
        assert not report.by_status("lost")
        assert not report.healthy
        assert report.repairable
        assert "torn" in report.summary()

    def test_torn_stripe_seal_completed_to_healthy(self, cluster4,
                                                   populated):
        doomed = tear_last_two(cluster4).sibling_fids()[-2:]
        restored = repair_client_log(cluster4.transport, 1, "s0")
        assert restored == len(doomed)
        after = check_client_log(cluster4.transport, 1)
        assert after.healthy, after.summary()

    def test_prefix_missing_stays_lost(self, cluster4, populated):
        """Missing members that are NOT a pure suffix cannot be a torn
        tail — a crash dispatches stores in stripe order — so beyond
        parity they are honest data loss."""
        from repro.log.fragment import Fragment

        some_server = cluster4.servers["s0"]
        fid = some_server.list_fids()[0]
        header = Fragment.decode(some_server.retrieve(fid)).header
        for victim_fid in header.sibling_fids()[:2]:
            for server in cluster4.servers.values():
                if server.holds(victim_fid):
                    server.delete(victim_fid)
        report = check_client_log(cluster4.transport, 1)
        assert report.by_status("lost")
        assert not report.by_status("torn")
        assert not report.repairable
