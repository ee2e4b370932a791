"""Unit/integration tests for the log layer."""

import pytest

from repro import errors
from repro.log import LogConfig, LogLayer
from repro.log.address import BlockAddress, fid_seq
from repro.log.records import RecordType
from repro.rpc import messages as m

SVC = 7
FRAG = 1 << 16


class TestAppends:
    def test_address_resolves_immediately_and_after_flush(self, log4):
        addr = log4.write_block(SVC, b"hello-swarm")
        assert log4.read(addr) == b"hello-swarm"  # from the write buffer
        log4.flush().wait()
        assert log4.read(addr) == b"hello-swarm"  # from the servers

    def test_useful_bytes_counted(self, log4):
        log4.write_block(SVC, b"x" * 1000)
        log4.write_block(SVC, b"y" * 500)
        assert log4.useful_bytes_written == 1500

    def test_block_too_large(self, log4):
        with pytest.raises(errors.LogError):
            log4.write_block(SVC, b"z" * (FRAG + 1))

    def test_max_block_size_accepted(self, log4):
        size = log4.max_block_size()
        addr = log4.write_block(SVC, b"m" * size)
        log4.flush().wait()
        assert len(log4.read(addr)) == size

    def test_records_get_increasing_lsns(self, log4):
        first = log4.write_record(SVC, RecordType.USER_BASE, b"a")
        second = log4.write_record(SVC, RecordType.USER_BASE, b"b")
        assert second.lsn > first.lsn

    def test_blocks_spill_into_next_fragment(self, log4):
        chunk = b"q" * 20000
        addresses = [log4.write_block(SVC, chunk) for _ in range(10)]
        fids = {addr.fid for addr in addresses}
        assert len(fids) > 1
        log4.flush().wait()
        for addr in addresses:
            assert log4.read(addr) == chunk


class TestStriping:
    def test_full_stripe_has_parity_on_distinct_servers(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for _ in range(12):
            log.write_block(SVC, b"f" * 30000)
        log.flush().wait()
        # Every stored fragment names its stripe in its header; check
        # parity placement by asking servers what they hold.
        held = {sid: server.list_fids()
                for sid, server in cluster4.servers.items()}
        total = sum(len(fids) for fids in held.values())
        assert total == len(set(fid for fids in held.values()
                                for fid in fids)), "fragment stored twice"
        assert log.stripes_written >= 2

    def test_raw_exceeds_useful_due_to_parity(self, log4):
        for _ in range(12):
            log4.write_block(SVC, b"f" * 30000)
        log4.flush().wait()
        assert log4.raw_bytes_written > log4.useful_bytes_written * 4 / 3.5

    def test_consecutive_fids_within_stripe(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for _ in range(12):
            log.write_block(SVC, b"f" * 30000)
        log.flush().wait()
        from repro.log.fragment import Fragment

        for sid, server in cluster4.servers.items():
            for fid in server.list_fids():
                fragment = Fragment.decode(server.retrieve(fid))
                header = fragment.header
                assert (header.stripe_base_fid <= fid
                        < header.stripe_base_fid + header.stripe_width)
                assert header.servers[fid - header.stripe_base_fid] == sid

    def test_single_server_group_writes_without_parity(self, cluster4):
        group = ("s0",)
        log = LogLayer(cluster4.transport, group,
                       LogConfig(client_id=2, fragment_size=FRAG))
        addr = log.write_block(SVC, b"solo")
        log.flush().wait()
        assert log.read(addr) == b"solo"
        assert log.raw_bytes_written < 2 * FRAG

    def test_flush_emits_short_stripe(self, cluster4):
        log = cluster4.make_log(client_id=1)
        addr = log.write_block(SVC, b"tiny")
        ticket = log.flush()
        ticket.wait()
        # one data fragment + one parity fragment
        assert ticket.fragment_count == 2
        assert log.read(addr) == b"tiny"

    def test_empty_flush_is_empty(self, log4):
        ticket = log4.flush()
        ticket.wait()
        assert ticket.fragment_count == 0

    def test_rotation_balances_servers(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for _ in range(60):
            log.write_block(SVC, b"r" * 30000)
        log.flush().wait()
        counts = [len(server.list_fids())
                  for server in cluster4.servers.values()]
        assert max(counts) - min(counts) <= 3


class TestDeleteAndUsage:
    def test_usage_listener_events(self, log4):
        events = []
        log4.add_usage_listener(
            lambda e, a, s, owner, info: events.append((e, s, owner)))
        addr = log4.write_block(SVC, b"watched")
        log4.delete_block(addr, SVC)
        assert events == [("create", 7, SVC), ("delete", 7, SVC)]

    def test_delete_writes_record(self, log4):
        addr = log4.write_block(SVC, b"dying")
        record = log4.delete_block(addr, SVC)
        assert record.rtype == RecordType.DELETE

    def test_delete_stripe_removes_fragments(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC, b"gone")
        ticket = log.flush()
        ticket.wait()
        fids = [fid for server in cluster4.servers.values()
                for fid in server.list_fids()]
        base = min(fids)
        log.delete_fids([base, base + 1])
        assert all(not server.list_fids()
                   for server in cluster4.servers.values())


class TestCheckpoints:
    def test_checkpoint_marks_exactly_one_fragment(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC, b"pre")
        log.checkpoint(SVC, b"state-1").wait()
        marked = [server.last_marked(1)
                  for server in cluster4.servers.values()]
        assert sum(1 for fid in marked if fid) == 1

    def test_checkpoint_table_updated(self, log4):
        log4.checkpoint(SVC, b"s1").wait()
        table = log4.checkpoint_table
        assert SVC in table
        addr, lsn = table[SVC]
        assert lsn > 0

    def test_two_services_both_in_table(self, log4):
        log4.checkpoint(5, b"five").wait()
        log4.checkpoint(6, b"six").wait()
        assert set(log4.checkpoint_table) == {5, 6}

    def test_newest_marked_moves_forward(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.checkpoint(SVC, b"one").wait()
        first = max(server.last_marked(1)
                    for server in cluster4.servers.values())
        log.write_block(SVC, b"between")
        log.checkpoint(SVC, b"two").wait()
        second = max(server.last_marked(1)
                     for server in cluster4.servers.values())
        assert second > first


class TestReads:
    def test_read_range_across_servers(self, log4):
        addr = log4.write_block(SVC, b"0123456789" * 100)
        log4.flush().wait()
        data = log4.read_range(addr.fid, addr.offset + 10, 10)
        assert data == b"0123456789"

    def test_read_after_locate_via_broadcast(self, cluster4):
        writer = cluster4.make_log(client_id=1)
        addr = writer.write_block(SVC, b"shared-data")
        writer.flush().wait()
        # A different log layer instance has no location cache.
        reader = cluster4.make_log(client_id=1)
        assert reader.read(addr) == b"shared-data"

    def test_read_with_server_down_reconstructs(self, cluster4):
        log = cluster4.make_log(client_id=1)
        addresses = [log.write_block(SVC, bytes([i]) * 25000)
                     for i in range(12)]
        log.flush().wait()
        cluster4.servers["s2"].crash()
        for i, addr in enumerate(addresses):
            assert log.read(addr) == bytes([i]) * 25000

    def test_short_read_detected(self, log4):
        addr = log4.write_block(SVC, b"abc")
        log4.flush().wait()
        bogus = BlockAddress(addr.fid, addr.offset, 2)
        assert log4.read(bogus) == b"ab"

    def test_read_returns_owned_bytes(self, log4):
        """Service boundary: callers get bytes, never borrowed views."""
        addr = log4.write_block(SVC, b"own-me")
        log4.flush().wait()
        assert type(log4.read(addr)) is bytes

    def test_failed_read_evicts_stale_location(self, cluster4):
        log = cluster4.make_log(client_id=1)
        addresses = [log.write_block(SVC, bytes([i]) * 25000)
                     for i in range(12)]
        log.flush().wait()
        stale = [a for a in addresses if log.known_location(a.fid) == "s1"]
        assert stale  # rotation places some data on every server
        cluster4.servers["s1"].crash()
        evictions_before = log.locations.evictions
        for i, addr in enumerate(addresses):
            assert log.read(addr) == bytes([i]) * 25000
        # Every placement pointing at the dead server was dropped, so
        # later reads go straight to reconstruction instead of retrying
        # the stale mapping.
        assert log.locations.evictions > evictions_before
        for addr in stale:
            assert log.known_location(addr.fid) != "s1"


    def test_programming_error_in_transport_is_not_a_degraded_read(
            self, cluster4):
        """Only protocol errors fall back to parity; a bug propagates."""
        class BuggyOnce(type(cluster4.transport)):
            armed = False

            def call(self, server_id, request):
                if self.armed and isinstance(request, m.RetrieveRequest):
                    self.armed = False  # parity could still rebuild it
                    raise TypeError("transport bug")
                return super().call(server_id, request)

        transport = BuggyOnce(cluster4.servers)
        log = cluster4.make_log(client_id=1, transport=transport)
        addr = log.write_block(SVC, b"x" * 100)
        log.flush().wait()
        for read in (lambda: log.read_range(addr.fid, addr.offset, 10),
                     lambda: log.read_fragment(addr.fid)):
            transport.armed = True
            with pytest.raises(TypeError, match="transport bug"):
                read()


class TestFlowControlSurface:
    def test_pending_events_exposed(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for _ in range(12):
            log.write_block(SVC, b"f" * 30000)
        # Stripes already dispatched show up before flush.
        assert len(log.pending_events()) > 0
        ticket = log.flush()
        assert log.pending_events() == []
        ticket.wait()

    def test_ticket_wait_raises_store_failure(self, cluster4):
        log = cluster4.make_log(client_id=1)
        log.write_block(SVC, b"x")
        for server in cluster4.servers.values():
            server.crash()
        ticket = log.flush()
        with pytest.raises(errors.SwarmError):
            ticket.wait()


class TestDegradedWritesAndReform:
    def test_flush_with_one_server_down_is_degraded_but_readable(self, cluster4):
        log = cluster4.make_log(client_id=1)
        cluster4.servers["s2"].crash()
        addresses = [log.write_block(SVC, bytes([i]) * 25000)
                     for i in range(12)]
        ticket = log.flush()
        with pytest.raises(errors.SwarmError):
            ticket.wait()                       # strict mode raises
        ticket.wait(allow_degraded=True)        # tolerant mode accepts
        assert ticket.failures()                # ...but reports the losses
        for i, addr in enumerate(addresses):
            assert log.read(addr) == bytes([i]) * 25000

    def test_reform_group_avoids_dead_server(self, cluster4):
        log = cluster4.make_log(client_id=1)
        cluster4.servers["s2"].crash()
        log.reform_group(("s0", "s1", "s3"))
        addr = log.write_block(SVC, b"after-reform" * 1000)
        ticket = log.flush()
        ticket.wait()                           # clean: no dead member
        assert not ticket.failures()
        assert log.read(addr) == b"after-reform" * 1000

    def test_pre_reform_data_still_readable_after_reform(self, cluster4):
        log = cluster4.make_log(client_id=1)
        old = [log.write_block(SVC, bytes([i]) * 20000) for i in range(8)]
        log.flush().wait()
        cluster4.servers["s1"].crash()
        log.reform_group(("s0", "s2", "s3"))
        new = log.write_block(SVC, b"fresh")
        log.flush().wait()
        for i, addr in enumerate(old):
            assert log.read(addr) == bytes([i]) * 20000
        assert log.read(new) == b"fresh"


class TestAdaptiveGroupCommit:
    """Group commit drains a record batch by size, and on flush."""

    def test_size_threshold_still_drains_without_timeout(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for _ in range(80):
            log.write_record(SVC, RecordType.USER_BASE, b"r" * 100)
        assert log.group_commit_batches >= 1

    def test_flush_drains_batch_and_records_survive(self, cluster4):
        log = cluster4.make_log(client_id=1)
        first = log.write_record(SVC, RecordType.USER_BASE, b"alpha")
        second = log.write_record(SVC, RecordType.USER_BASE, b"beta")
        log.flush().wait()                        # flush drains, then ships
        assert log.buffered_records() == 0
        assert second.lsn > first.lsn
