"""Tests for checkpoint discovery, rollforward, and the log reader."""

from collections import Counter

import pytest

from repro.chaos.crashpoints import ClientCrash, CrashInjector
from repro.chaos.harness import build_client
from repro.chaos.runner import run_cleaner_churn
from repro.cluster import build_local_cluster
from repro.cluster.failures import FailureInjector
from repro.errors import SwarmError
from repro.log.config import LogConfig
from repro.log.fragment import HEADER_SIZE
from repro.log.location import LocationCache, take_census
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.log.records import RecordType
from repro.log.recovery import (
    find_newest_marked_fid,
    recover_service_state,
)
from repro.placement import Placement
from repro.rpc import messages as m
from repro.rpc.transport import TransportWrapper
from repro.services.base import Service
from repro.services.cleaner import CleanerService
from repro.services.logical_disk import LogicalDiskService
from repro.services.stack import ServiceStack
from repro.util.fids import make_fid

SVC_A, SVC_B = 11, 12


def _holder_of(cluster, fid):
    """The server currently storing ``fid``."""
    return next(sid for sid, server in cluster.servers.items()
                if server.holds(fid))


class Notes(Service):
    """A record-only service; it ignores checkpoint demands."""

    def __init__(self, service_id):
        super().__init__(service_id)
        self.notes = []

    def note(self, text):
        self.stack.write_record(self, RecordType.USER_BASE, text)

    def on_checkpoint_demand(self):
        pass

    def restore(self, state, records):
        self.notes = [bytes(r.payload) for r in records
                      if r.rtype == RecordType.USER_BASE]


class Recording(TransportWrapper):
    """Keeps every plan scattered and every request sent."""

    def __init__(self, inner):
        super().__init__(inner)
        self.plans = []
        self.requests = []

    def call(self, server_id, request):
        self.requests.append(request)
        return self.inner.call(server_id, request)

    def submit_many(self, plan):
        plan = list(plan)
        self.plans.append([request for _server_id, request in plan])
        return super().submit_many(plan)


class TestLogReader:
    def test_fragments_in_fid_order(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for i in range(10):
            log.write_block(SVC_A, bytes([i]) * 30000)
        log.flush().wait()
        reader = LogReader(Reconstructor(cluster4.transport, "client-1"))
        fids = [f.fid for f in reader.fragments_from(make_fid(1, 1))]
        assert fids == sorted(fids)
        assert len(fids) >= 5

    def test_stops_at_end_of_log(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC_A, b"only")
        log.flush().wait()
        reader = LogReader(Reconstructor(cluster4.transport, "client-1"))
        fragments = list(reader.fragments_from(make_fid(1, 1)))
        assert 1 <= len(fragments) <= 2

    def test_reads_through_failed_server(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for i in range(10):
            log.write_block(SVC_A, bytes([i]) * 30000)
        log.flush().wait()
        cluster4.servers["s0"].crash()
        reader = LogReader(Reconstructor(cluster4.transport, "client-1"))
        fragments = list(reader.fragments_from(make_fid(1, 1)))
        data_fragments = [f for f in fragments if not f.header.is_parity]
        blocks = sum(1 for f in data_fragments for item in f.items()
                     if item.record is None)
        assert blocks == 10


class TestTornTail:
    """A client that dies mid-scatter leaves a stripe whose stores
    landed as a prefix; rollforward passes it, and a hole too."""

    def test_scan_stops_at_a_hole_but_passes_a_torn_tail(
            self, two_second_allowance):
        for member in (1, 2):
            cluster = build_local_cluster(num_servers=4,
                                          fragment_size=1 << 12,
                                          server_slots=512)
            log = cluster.make_log(client_id=1)
            for i in range(20):
                log.write_block(SVC_A, bytes([i]) * 1500)
            log.flush().wait()
            start = make_fid(1, 1)
            healthy = [f.fid for f in LogReader(Reconstructor(
                cluster.transport)).fragments_from(start)]
            width = 4
            base = start + width  # the second stripe
            doomed = (base + member, base + width - 1)
            for fid in doomed:
                cluster.transport.call(_holder_of(cluster, fid),
                                       m.DeleteRequest(fid=fid))
            fids = [f.fid for f in LogReader(Reconstructor(
                cluster.transport), max_inflight=4).fragments_from(start)]
            # Member 2 and the parity are an unreadable suffix; member
            # 1 and the parity a hole, with member 2 surviving. The
            # census lists the later stripes, so the scan skips either.
            assert fids == [fid for fid in healthy if fid not in doomed]

    def test_torn_tail_does_not_hide_later_writes(self,
                                                  two_second_allowance):
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 12,
                                      server_slots=512)

        def client(**log_kwargs):
            return build_client(
                cluster.transport,
                Placement(sorted(cluster.servers), stripe_width=4),
                LogConfig(client_id=1, fragment_size=1 << 12), **log_kwargs)

        injector = CrashInjector()
        doomed = client(crash_injector=injector)
        for block in range(12):
            doomed.disk.write(block, bytes([block]) * 1000)
        doomed.stack.checkpoint_all()
        # Die before the second store of the next stripe: only its
        # first member lands.
        injector.point = "scatter_dispatch"
        injector.occurrence = injector.hits["scatter_dispatch"] + 2
        with pytest.raises(ClientCrash):
            for block in range(12, 40):
                doomed.disk.write(block, bytes([block]) * 1000)
            doomed.stack.flush().wait()
        successor = client()
        successor.stack.recover_all()
        acked = {block: bytes([block]) * 1000 for block in range(100, 110)}
        for block, data in acked.items():
            successor.disk.write(block, data)
        successor.stack.flush().wait()
        third = client()
        third.stack.recover_all()
        missing = [block for block in acked if not third.disk.exists(block)]
        assert missing == []
        assert all(third.disk.read(block) == data
                   for block, data in acked.items())


class TestCheckpointDiscovery:
    def test_find_newest_marked(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.checkpoint(SVC_A, b"first").wait()
        log.write_block(SVC_A, b"pad" * 1000)
        log.checkpoint(SVC_A, b"second").wait()
        newest = find_newest_marked_fid(cluster4.transport, 1)
        assert newest > 0
        reader = LogReader(Reconstructor(cluster4.transport, "client-1"))
        fragment = reader.read_fragment(newest)
        payloads = [r.payload for r in fragment.records()
                    if r.rtype == RecordType.CHECKPOINT]
        assert b"second" in payloads

    def test_no_checkpoints_returns_zero(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC_A, b"data")
        log.flush().wait()
        assert find_newest_marked_fid(cluster4.transport, 1) == 0

    def test_discovery_raises_on_total_partition(self, cluster4):
        """With every server unreachable, discovery must fail loudly —
        silently returning 0 would replay an empty head as an empty log
        and quietly lose everything after the last checkpoint."""
        log = cluster4.make_log(client_id=1)
        log.checkpoint(SVC_A, b"cp").wait()
        for server in cluster4.servers.values():
            server.crash()
        with pytest.raises(SwarmError, match="none of .* answered"):
            find_newest_marked_fid(cluster4.transport, 1)

    def test_per_client_isolation(self, cluster4):
        log1 = cluster4.make_log(client_id=1)
        log2 = cluster4.make_log(client_id=2)
        log1.checkpoint(SVC_A, b"c1").wait()
        log2.checkpoint(SVC_A, b"c2").wait()
        fid1 = find_newest_marked_fid(cluster4.transport, 1)
        fid2 = find_newest_marked_fid(cluster4.transport, 2)
        from repro.util.fids import fid_client

        assert fid_client(fid1) == 1
        assert fid_client(fid2) == 2


class TestRecovery:
    def test_checkpoint_plus_tail_records(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC_A, b"before")           # obsoleted by ckpt
        log.checkpoint(SVC_A, b"the-state").wait()
        log.write_block(SVC_A, b"after-1")
        log.write_block(SVC_A, b"after-2")
        log.flush().wait()
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        assert recovered.checkpoint_state == b"the-state"
        creates = [r for r in recovered.records
                   if r.rtype == RecordType.CREATE]
        assert len(creates) == 2

    def test_no_checkpoint_replays_from_head(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC_A, b"one")
        log.write_block(SVC_A, b"two")
        log.flush().wait()
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        assert recovered.checkpoint_state is None
        assert len([r for r in recovered.records
                    if r.rtype == RecordType.CREATE]) == 2

    def test_records_in_lsn_order(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for i in range(40):
            log.write_record(SVC_A, RecordType.USER_BASE, b"%d" % i)
        log.flush().wait()
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        lsns = [r.lsn for r in recovered.records]
        assert lsns == sorted(lsns)

    def test_services_recover_independently(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.checkpoint(SVC_A, b"A").wait()
        log.write_record(SVC_B, RecordType.USER_BASE, b"b-rec")
        log.checkpoint(SVC_B, b"B").wait()
        log.write_record(SVC_A, RecordType.USER_BASE, b"a-rec")
        log.flush().wait()
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False, SVC_B: False}).services
        rec_a, rec_b = recovered[SVC_A], recovered[SVC_B]
        assert rec_a.checkpoint_state == b"A"
        assert rec_b.checkpoint_state == b"B"
        assert [r.payload for r in rec_a.records
                if r.rtype == RecordType.USER_BASE] == [b"a-rec"]
        # B's record predates B's checkpoint, so it must NOT replay.
        assert [r.payload for r in rec_b.records
                if r.rtype == RecordType.USER_BASE] == []

    def test_old_service_checkpoint_still_found_via_table(self, cluster4):
        """SVC_A checkpoints once, then only SVC_B checkpoints; A's
        checkpoint must still be reachable from the newest marked
        fragment's checkpoint table."""
        log = cluster4.make_log(client_id=1)
        log.checkpoint(SVC_A, b"a-old").wait()
        for i in range(5):
            log.write_block(SVC_B, bytes([i]) * 20000)
            log.checkpoint(SVC_B, b"b-%d" % i).wait()
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        assert recovered.checkpoint_state == b"a-old"

    def test_highest_fid_and_lsn_reported(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.checkpoint(SVC_A, b"x").wait()
        record = log.write_record(SVC_A, RecordType.USER_BASE, b"tail")
        log.flush().wait()
        recovered = recover_service_state(cluster4.transport, 1,
                                          {SVC_A: False})
        assert recovered.highest_lsn >= record.lsn
        assert recovered.highest_fid > 0

    def test_adopted_state_prevents_fid_collisions(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC_A, b"first-life")
        log.checkpoint(SVC_A, b"cp").wait()
        recovered = recover_service_state(cluster4.transport, 1,
                                          {SVC_A: False})
        fresh = cluster4.make_log(client_id=1)
        fresh.adopt_recovered_state(recovered.highest_fid,
                                    recovered.highest_lsn,
                                    recovered.checkpoint_table)
        addr = fresh.write_block(SVC_A, b"second-life")
        fresh.flush().wait()  # would FragmentExists on collision
        assert fresh.read(addr) == b"second-life"

    def test_recovery_with_server_down_uses_parity(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for i in range(8):
            log.write_block(SVC_A, bytes([i]) * 25000)
        log.checkpoint(SVC_A, b"cp").wait()
        log.write_block(SVC_A, b"tail-block")
        log.flush().wait()
        cluster4.servers["s2"].crash()
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        assert recovered.checkpoint_state == b"cp"

    def test_unflushed_tail_lost_after_crash(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.checkpoint(SVC_A, b"cp").wait()
        log.write_block(SVC_A, b"never-flushed")  # client crashes here
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        creates = [r for r in recovered.records
                   if r.rtype == RecordType.CREATE]
        assert creates == []

    def test_recover_twice_is_identical(self, cluster4):
        """Recovery is idempotent: recovering the same untouched log
        twice yields structurally identical RecoveredState — every
        field, every record, in the same order."""
        log = cluster4.make_log(client_id=1)
        for i in range(6):
            log.write_block(SVC_A, bytes([i + 1]) * 9000)
        log.checkpoint(SVC_A, b"cp").wait()
        log.write_record(SVC_A, RecordType.USER_BASE, b"tail")
        log.flush().wait()
        first = recover_service_state(cluster4.transport, 1, {SVC_A: False})
        second = recover_service_state(cluster4.transport, 1, {SVC_A: False})
        assert first == second

    def test_checkpoint_table_via_parity_reconstruction(self, cluster4):
        """The newest marked fragment's holder answers the last-marked
        query (its fragment map survived) but serves a torn image;
        loading the checkpoint table must fall through to parity
        reconstruction rather than give up or trust garbage."""
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC_A, b"x" * 20000)
        log.checkpoint(SVC_A, b"golden").wait()
        marked = find_newest_marked_fid(cluster4.transport, 1)
        holder = _holder_of(cluster4, marked)
        FailureInjector(cluster4).tear_fragment(holder, marked,
                                                keep_fraction=0.4)
        # Discovery still names the torn fragment...
        assert find_newest_marked_fid(cluster4.transport, 1) == marked
        # ...and recovery still reaches the checkpoint through parity.
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        assert recovered.checkpoint_state == b"golden"

    def test_unreadable_checkpoint_entry_falls_back_to_scan(self, cluster4):
        """A checkpoint table naming a checkpoint whose fragment is
        gone beyond reconstruction: trusting the entry's LSN would skip
        every record up to it. Recovery must drop the entry and replay
        from the head instead."""
        log = cluster4.make_log(client_id=1)
        log.write_record(SVC_A, RecordType.USER_BASE, b"early")
        log.flush().wait()
        log.checkpoint(SVC_A, b"a-state").wait()
        log.write_block(SVC_B, b"pad" * 4000)
        log.checkpoint(SVC_B, b"b-state").wait()
        ckpt_fid = log.checkpoint_table[SVC_A][0].fid
        reader = LogReader(Reconstructor(cluster4.transport, "client-1"))
        header = reader.read_fragment(ckpt_fid).header
        sibling = next(f for f in header.sibling_fids() if f != ckpt_fid)
        injector = FailureInjector(cluster4)
        for doomed in (ckpt_fid, sibling):
            injector.tear_fragment(_holder_of(cluster4, doomed), doomed,
                                   keep_fraction=0.3)
        recovered = recover_service_state(
            cluster4.transport, 1, {SVC_A: False}).services[SVC_A]
        # The named checkpoint could not be read back: no state adopted,
        # no LSN trusted — and the pre-checkpoint record replays.
        assert recovered.checkpoint_state is None
        payloads = [r.payload for r in recovered.records
                    if r.rtype == RecordType.USER_BASE]
        assert b"early" in payloads


class TestCensus:
    """Recovery lists the log before it reads it: one census, one
    checkpoint discovery and one scan, however many services."""

    def test_one_census_one_discovery_one_scan(self, cluster4,
                                               two_second_allowance):
        def stack_of(transport=None):
            stack = cluster4.make_stack(client_id=1, transport=transport)
            disk = stack.push(LogicalDiskService(2))
            return stack, disk, stack.push(Notes(3)), stack.push(Notes(4))

        stack, disk, notes, more_notes = stack_of()
        for block in range(12):
            disk.write(block, bytes([block]) * 20000)
        notes.note(b"before")
        stack.checkpoint_all()
        for block in range(12, 20):
            disk.write(block, bytes([block]) * 20000)
        more_notes.note(b"after")
        stack.flush().wait()
        recording = Recording(cluster4.transport)
        fresh, _disk, _notes, fresh_notes = stack_of(recording)
        fresh.recover_all()
        assert fresh_notes.notes == [b"after"]

        def scatters(kind):
            return [plan for plan in recording.plans
                    if all(isinstance(r, kind) for r in plan)]

        census = take_census(cluster4.transport, 1, "client-1",
                             LocationCache(cluster4.transport))
        assert len(scatters(m.LastMarkedRequest)) == 1
        assert len(scatters(m.ListFidsRequest)) == 1
        headers = [plan for plan in scatters(m.RetrieveRequest)
                   if plan[0].length == HEADER_SIZE]
        assert len(headers) == 1
        assert sorted(r.fid for r in headers[0]) == sorted(census.placements)
        assert not any(isinstance(r, m.HoldsRequest)
                       for r in recording.requests)
        # Discovery reads the newest marked fragment and each service's
        # checkpoint and hands them to the scan: each data member from
        # the oldest checkpoint on is read once, and no parity member.
        table = stack.log.checkpoint_table
        start = min(addr.fid for addr, _lsn in table.values())
        data_members = [fid for base, header in census.stripes.items()
                        for fid in range(base, base + header.parity_index)]
        expected = Counter(fid for fid in data_members if fid >= start)
        discovered = {find_newest_marked_fid(cluster4.transport, 1)}
        discovered.update(addr.fid for addr, _lsn in table.values())
        assert discovered <= set(expected)
        whole_reads = Counter(r.fid for r in recording.requests
                              if isinstance(r, m.RetrieveRequest)
                              and r.length == -1)
        assert whole_reads == expected

    def test_lost_stripe_head_never_makes_a_successor_reuse_fids(
            self, two_second_allowance):
        """A stripe whose first member and parity are lost cannot be
        read, but the census lists its survivor: the successor's fid
        counter passes it, and its acked writes survive the next
        recovery."""
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 12,
                                      server_slots=512)

        def client():
            return build_client(
                cluster.transport,
                Placement(sorted(cluster.servers), stripe_width=4),
                LogConfig(client_id=1, fragment_size=1 << 12))

        first = client()
        for block in range(12):
            first.disk.write(block, bytes([block]) * 1000)
        first.stack.checkpoint_all()
        for block in range(12, 24):
            first.disk.write(block, bytes([block]) * 1000)
        first.stack.flush().wait()
        stripes = take_census(cluster.transport, 1, "client-1",
                              LocationCache(cluster.transport)).stripes
        base = max(base for base, header in stripes.items()
                   if header.stripe_width == 4)
        for fid in (base, base + 3):
            cluster.transport.call(_holder_of(cluster, fid),
                                   m.DeleteRequest(fid=fid))
        successor = client()
        successor.stack.recover_all()
        acked = {block: bytes([block]) * 1000 for block in range(100, 110)}
        for block, data in acked.items():
            successor.disk.write(block, data)
        successor.stack.flush().wait()
        third = client()
        third.stack.recover_all()
        stored = Counter(fid for server in cluster.servers.values()
                         for fid in server.list_fids())
        assert [fid for fid, count in stored.items() if count > 1] == []
        assert {block: third.disk.read(block) for block in acked} == acked

    def test_uncheckpointed_service_recovers_past_a_cleaned_hole(
            self, two_second_allowance):
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 12,
                                      server_slots=1024)

        def stack_of():
            stack = cluster.make_stack(client_id=1)
            cleaner = stack.push(CleanerService(1, utilization_threshold=0.9))
            disk = stack.push(LogicalDiskService(2))
            return stack, cleaner, disk, stack.push(Notes(3))

        stack, cleaner, disk, notes = stack_of()
        notes.note(b"n-early")
        for block in range(12):
            disk.write(block, bytes([block]) * 900)
        for round_no in range(16):
            disk.write(50, bytes([round_no]) * 900)
            disk.write(51, bytes([round_no]) * 900)
        stack.flush().wait()
        # Only the cleaner and the disk checkpoint; the notes are
        # cleaned past "at their own peril", but not lost.
        stack.checkpoint(cleaner).wait()
        stack.checkpoint(disk).wait()
        cleaner.clean(target_stripes=4)
        assert cleaner.stripes_cleaned == 4
        notes.note(b"n-late")
        stack.flush().wait()
        fresh, _cleaner, _disk, fresh_notes = stack_of()
        fresh.recover_all()
        assert fresh_notes.notes == [b"n-early", b"n-late"]

    def test_fresh_cleaner_churn_recovery_broadcasts_nothing(
            self, monkeypatch, two_second_allowance):
        """The census places every fragment the scan reads, and the
        scan never probes past the log's end."""
        broadcasts = []
        recover_all = ServiceStack.recover_all

        def counted(stack):
            before = stack.log.locations.broadcasts
            recover_all(stack)
            broadcasts.append(stack.log.locations.broadcasts - before)

        monkeypatch.setattr(ServiceStack, "recover_all", counted)
        report = run_cleaner_churn(101)
        assert report.ok, report.problems
        assert broadcasts == [0]
