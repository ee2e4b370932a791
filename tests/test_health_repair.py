"""Tests for the background repair daemon (``repro.health.repair``)."""

import pytest

from repro import errors
from repro.bench.ablations import ablate_repair
from repro.cluster import build_local_cluster
from repro.health import RepairDaemon
from repro.health.repair import THROTTLE_BYTES_PER_S
from repro.log.fragment import Fragment
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.services.cleaner import CleanerService
from repro.services.logical_disk import LogicalDiskService
from repro.tools.fsck import check_client_log

SVC = 3
SMALL_FRAGMENT = 1 << 16


@pytest.fixture
def cluster5():
    """Five servers: a four-wide stripe group (s0..s3) plus spare s4."""
    return build_local_cluster(num_servers=5, fragment_size=SMALL_FRAGMENT,
                               server_slots=512)


def written_group(cluster, blocks=10, size=25000):
    """Write blocks over s0..s3, leaving s4 empty as the replacement."""
    group = cluster.stripe_group(["s0", "s1", "s2", "s3"])
    log = cluster.make_log(client_id=1, group=group)
    payloads = [bytes([i + 1]) * size for i in range(blocks)]
    addresses = [log.write_block(SVC, payload) for payload in payloads]
    log.flush().wait()
    return log, payloads, addresses


def kill_and_daemon(cluster, log, victim="s1", **daemon_kwargs):
    lost = cluster.servers[victim].list_fids()
    cluster.servers[victim].crash()
    daemon = RepairDaemon(cluster.transport, client_id=1, replacement="s4",
                          locations=log.locations, **daemon_kwargs)
    return lost, daemon


class TestDiscovery:
    def test_finds_exactly_the_lost_fragments(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        assert lost
        found = daemon.discover()
        assert sorted(found) == sorted(lost)
        assert sorted(daemon.pending) == sorted(lost)

    def test_discovery_without_location_hint_still_works(self, cluster5):
        # A daemon with a cold cache must find the losses purely from
        # the inventory sweep (listing + header shapes + broadcast).
        log, _payloads, _addresses = written_group(cluster5)
        lost = cluster5.servers["s1"].list_fids()
        cluster5.servers["s1"].crash()
        daemon = RepairDaemon(cluster5.transport, client_id=1,
                              replacement="s4")
        assert sorted(daemon.discover()) == sorted(lost)

    def test_nothing_to_do_when_cluster_is_whole(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        daemon = RepairDaemon(cluster5.transport, client_id=1,
                              replacement="s4", locations=log.locations)
        assert daemon.discover() == []
        assert daemon.done

    def test_discovery_is_idempotent(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        daemon.discover()
        assert daemon.discover() == []
        assert sorted(daemon.pending) == sorted(lost)


class TestRepair:
    def test_rematerializes_everything_onto_replacement(self, cluster5):
        log, payloads, addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        repaired = daemon.run()
        assert repaired == len(lost)
        assert daemon.done
        spare = cluster5.servers["s4"]
        assert sorted(spare.list_fids()) == sorted(lost)
        # Every repaired image parses and passes its payload checksum.
        for fid in lost:
            Fragment.decode(spare.retrieve(fid), verify_crc=True)
        # With the victim still down, fsck sees full redundancy again.
        report = check_client_log(cluster5.transport, 1)
        assert report.healthy
        assert report.by_status("degraded") == []
        # And the data itself survives, read through a fresh client.
        fresh = cluster5.make_log(
            client_id=1, group=cluster5.stripe_group(["s0", "s2", "s3",
                                                      "s4"]))
        assert [fresh.read(addr) for addr in addresses] == payloads

    def test_rebuilt_images_held_stay_bounded(self, cluster5):
        # The daemon's reconstructor lives for the whole repair; its
        # cache of rebuilt images must not grow with the dead server's
        # data (a whole stripe's worth at most).
        from repro.log.fragment import MAX_STRIPE_WIDTH

        log, _payloads, _addresses = written_group(cluster5, blocks=200)
        lost, daemon = kill_and_daemon(cluster5, log)
        assert daemon.run() == len(lost) > MAX_STRIPE_WIDTH
        assert daemon.reconstructor.reconstructions == len(lost)
        assert 0 < len(daemon.reconstructor.cache) <= MAX_STRIPE_WIDTH

    def test_location_cache_updated_to_replacement(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        daemon.run()
        for fid in lost:
            assert log.locations.get(fid) == "s4"
        survivors = [fid for sid in ("s0", "s2", "s3")
                     for fid in cluster5.servers[sid].list_fids()]
        assert "s1" not in {log.locations.get(fid) for fid in survivors}

    def test_step_respects_batch_size(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        daemon.discover()
        assert daemon.step(max_fragments=2) == min(2, len(lost))
        assert len(daemon.pending) == len(lost) - min(2, len(lost))

    def test_throttle_charges_repair_bandwidth(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        daemon.run()
        assert daemon.bytes_repaired > 0
        assert daemon.throttle_charged_s == pytest.approx(
            daemon.bytes_repaired / float(THROTTLE_BYTES_PER_S))

    def test_marked_flag_preserved_through_repair(self, cluster5):
        group = cluster5.stripe_group(["s0", "s1", "s2", "s3"])
        stack = cluster5.make_stack(client_id=1, group=group)
        disk = stack.push(LogicalDiskService(SVC))
        for block in range(8):
            disk.write(block, bytes([block + 1]) * 20000)
        stack.checkpoint_all()
        # Find a server holding a marked (checkpoint) fragment and kill it.
        victim, marked_fids = None, []
        for sid in ("s0", "s1", "s2", "s3"):
            server = cluster5.servers[sid]
            marked_fids = [fid for fid in server.list_fids()
                           if server.fragment_info(fid).marked]
            if marked_fids:
                victim = sid
                break
        assert victim is not None
        lost, daemon = kill_and_daemon(cluster5, stack.log, victim=victim)
        daemon.run()
        spare = cluster5.servers["s4"]
        for fid in marked_fids:
            assert spare.fragment_info(fid).marked


class TestResume:
    def test_progress_roundtrip_skips_completed_work(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        daemon.discover()
        daemon.step(max_fragments=1)  # repair exactly one, then "crash"
        snapshot = daemon.progress()
        assert len(snapshot["completed"]) == 1

        successor = RepairDaemon(cluster5.transport, client_id=1,
                                 replacement="s4", locations=log.locations,
                                 resume=snapshot)
        successor.discover()
        assert sorted(successor.pending) == sorted(
            set(lost) - set(snapshot["completed"]))
        successor.run()
        # Every lost fragment was stored exactly once across both
        # daemons: the successor never re-sent completed work.
        assert cluster5.servers["s4"].store_ops == len(lost)
        assert check_client_log(cluster5.transport, 1).healthy

    def test_interrupted_repair_already_on_target_is_accepted(self, cluster5):
        # A predecessor that crashed *after* storing but *before*
        # recording progress: the fragment is already on the target
        # with identical bytes. rebuild_to_server must treat that as
        # success (idempotent), not an error.
        log, _payloads, _addresses = written_group(cluster5)
        lost, daemon = kill_and_daemon(cluster5, log)
        fid = sorted(lost)[0]
        rec = Reconstructor(cluster5.transport, "client-1",
                            locations=log.locations)
        image = rec.rebuild_to_server(fid, "s4")
        assert rec.rebuild_to_server(fid, "s4") == image
        daemon.run()
        assert check_client_log(cluster5.transport, 1).healthy


class TestRebuildToServer:
    def test_conflicting_stale_copy_replaced_whole(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost = cluster5.servers["s1"].list_fids()
        fid = sorted(lost)[0]
        # Plant different bytes under the same fid on the target first.
        cluster5.transport.call("s4", m.StoreRequest(
            fid=fid, data=b"stale" * 100, principal="client-1"))
        cluster5.servers["s1"].crash()
        rec = Reconstructor(cluster5.transport, "client-1",
                            locations=log.locations)
        image = rec.rebuild_to_server(fid, "s4")
        assert bytes(cluster5.servers["s4"].retrieve(fid)) == image
        Fragment.decode(image, verify_crc=True)

    def test_read_back_mismatch_raises(self, cluster5):
        log, _payloads, _addresses = written_group(cluster5)
        lost = cluster5.servers["s1"].list_fids()
        fid = sorted(lost)[0]
        cluster5.servers["s1"].crash()
        rec = Reconstructor(cluster5.transport, "client-1",
                            locations=log.locations)
        image = rec.rebuild_to_server(fid, "s4")
        with pytest.raises(errors.ReconstructionError):
            rec._verify_read_back(fid, "s4", image + b"tampered")


class TestCleanerCoordination:
    def test_held_stripes_are_not_cleaning_candidates(self, cluster4):
        from tests.test_services_cleaner import churn_stack

        stack, cleaner, _disk, _contents = churn_stack(cluster4)
        stack.checkpoint_all()
        candidates = cleaner.candidate_stripes()
        assert candidates
        cleaner.hold_for_repair([c.base_fid for c in candidates])
        assert cleaner.candidate_stripes() == []
        cleaner.release_repair_hold([c.base_fid for c in candidates])
        assert [c.base_fid for c in cleaner.candidate_stripes()] == \
            [c.base_fid for c in candidates]

    def test_daemon_holds_and_releases_through_repair(self, cluster5):
        class RecordingCleaner:
            def __init__(self):
                self.held, self.released = set(), set()

            def hold_for_repair(self, bases):
                self.held.update(bases)

            def release_repair_hold(self, bases):
                self.released.update(bases)

        log, _payloads, _addresses = written_group(cluster5)
        recorder = RecordingCleaner()
        lost, daemon = kill_and_daemon(cluster5, log, cleaner=recorder)
        daemon.discover()
        assert recorder.held  # stripes under repair are on hold
        assert not recorder.released
        daemon.run()
        assert recorder.released == recorder.held  # all released at the end


@pytest.mark.usefixtures("two_second_allowance")
class TestRepairBills:
    """No clocks: repairing a killed server on the simulated testbed
    costs exactly this many RPCs, by verb, and this many bytes fetched
    per byte rebuilt (``python -m repro.bench`` prints the times)."""

    def test_width4_xor_one_down(self):
        repair = ablate_repair()
        assert repair["fragments"] == 3
        assert repair["rpcs"] == {
            "HoldsRequest": 5, "ListFidsRequest": 5,
            "PreallocateRequest": 3, "RetrieveRequest": 21,
            "StoreRequest": 3}
        assert repair["fetched_per_rebuilt"] == 4.014

    def test_rs42_two_down(self):
        repair = ablate_repair(num_servers=6, parity=2, coding="rs")
        assert repair["fragments"] == 6
        assert repair["rpcs"] == {
            "HoldsRequest": 8, "ListFidsRequest": 8,
            "PreallocateRequest": 6, "RetrieveRequest": 33,
            "StoreRequest": 6}
        assert repair["fetched_per_rebuilt"] == 3.005
