"""Windowed read pipeline: bounded read-ahead, batched multi-range
retrieves, and the cleaner's pipelined harvest.

Covers the read-side pipelining contract end to end:

* the reader's bounded in-flight window — identical record streams at
  any window depth, degraded fragments mid-window falling back to
  parity, window retrieves never masking programming errors, and
  recovery scoring each failed prefetch on the health monitor once (in
  the retry layer);
* ``LogLayer.read_ranges`` — one ``MultiRetrieveRequest`` per server,
  builder-served unflushed ranges, per-range reconstruction fallback,
  ``None`` for genuinely missing fragments;
* ``LogicalDiskService.read_many`` — the scattered-small-read path;
* retry re-scatter of multi-range retrieves — only the dropped
  operations are retried, per seed;
* the cleaner's batched harvest — one flush fence per batch, and an
  unreadable stripe skipped rather than deleted;
* the exact retrieve bill (RPCs, payload bytes) of a windowed scan, a
  batched scattered read and a cleaning pass — deterministic counts, so
  any drift is a protocol change;
* the acceptance bound: on the simulated testbed a windowed sequential
  scan beats the serial one (overlap ratio below 1.0).

Seeds come from ``CHAOS_SEEDS`` (comma-separated), matching the chaos
property suite.
"""

import os
import struct

import pytest

from repro import errors
from repro.bench.ablations import ablate_read_window
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.chaos.transport import FaultyTransport
from repro.cluster import build_local_cluster
from repro.health import HealthMonitor
from repro.log.config import LogConfig
from repro.log.fragment import HEADER_SIZE
from repro.log.layer import LogLayer
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc.retry import RetryPolicy, RetryingTransport
from repro.services.cleaner import CleanerService
from repro.services.logical_disk import LogicalDiskService
from repro.services.stack import ServiceStack
from repro.util.fids import make_fid

SEEDS = [int(s) for s in
         os.environ.get("CHAOS_SEEDS", "101,202,303").split(",") if s.strip()]

DROP_ALL_SPEC = FaultSpec(drop_request=1.0, drop_response=0.0, delay=0.0,
                          duplicate=0.0, torn_store=0.0, bit_flip=0.0)


def _cluster(num_servers=4, fragment_size=1 << 12):
    """Small fragments so a modest workload spans several stripes."""
    return build_local_cluster(num_servers=num_servers,
                               fragment_size=fragment_size,
                               server_slots=512)


def _seeded_log(cluster, blocks=30, block_size=1500):
    """A flushed log whose blocks span multiple stripes."""
    log = cluster.make_log(client_id=1)
    written = []
    for i in range(blocks):
        data = bytes([(i * 7 + 3) % 256]) * (block_size + 11 * (i % 5))
        addr = log.write_block(2, data, struct.pack(">I", i))
        written.append((addr, data))
    log.flush().wait()
    return log, written


def _reader(cluster, log, **kwargs):
    """A fresh reader (own placement cache) over the cluster."""
    return LogReader(Reconstructor(cluster.transport, log.config.principal),
                     **kwargs)


def _record_stream(reader):
    return [(r.lsn, bytes(r.payload))
            for fragment in reader.fragments_from(make_fid(1, 1))
            for r in fragment.records()]


def _retrieve_ops(cluster):
    return sum(server.retrieve_ops for server in cluster.servers.values())


class _FakeFuture:
    """A pre-triggered completion with a chosen outcome."""

    def __init__(self, exception=None, value=None):
        self.triggered = True
        self.exception = exception
        self.value = value
        self.ok = exception is None


def _churn_stack(cluster, rounds=6, files=40, threshold=0.95, cold=8):
    """Overwrite the same blocks repeatedly so early stripes die.

    A handful of ``cold`` blocks written first and never overwritten
    keep the earliest stripes *partially* live — the batch-harvest
    tests need eligible stripes with blocks to move, not just pure
    garbage.
    """
    stack = cluster.make_stack(client_id=1)
    cleaner = stack.push(CleanerService(1, utilization_threshold=threshold))
    disk = stack.push(LogicalDiskService(2))
    contents = {}
    for i in range(cold):
        data = bytes([201 + i % 5]) * (3000 + 97 * i)
        disk.write(1000 + i, data)
        contents[1000 + i] = data
    for round_no in range(rounds):
        for block in range(files):
            data = bytes([round_no * 17 + block % 7]) * (2000 + 41 * block)
            disk.write(block, data)
            contents[block] = data
    return stack, cleaner, disk, contents


# ----------------------------------------------------------------------
# The bounded read-ahead window
# ----------------------------------------------------------------------

class TestReadWindow:
    def test_zero_window_is_a_config_error(self, cluster4):
        with pytest.raises(errors.ConfigError):
            LogReader(Reconstructor(cluster4.transport), max_inflight=0)
        with pytest.raises(errors.ConfigError):
            LogConfig(client_id=1, fragment_size=1 << 16,
                      max_inflight_reads=0)

    def test_windowed_scan_matches_serial(self):
        cluster = _cluster()
        log, _written = _seeded_log(cluster)
        serial = _record_stream(_reader(cluster, log, max_inflight=1))
        assert serial, "workload produced no records"
        for window in (2, 4, 16):
            windowed = _record_stream(
                _reader(cluster, log, max_inflight=window))
            assert windowed == serial, "window=%d diverged" % window

    def test_windowed_fragments_arrive_in_fid_order(self):
        cluster = _cluster()
        log, _written = _seeded_log(cluster)
        reader = _reader(cluster, log, max_inflight=4)
        fragments = list(reader.fragments_from(make_fid(1, 1)))
        # Every data member of every stripe, in fid order; parity
        # members hold no records and are not read.
        data_members = sorted(
            fid for f in fragments for fid in f.header.sibling_fids()
            if fid < f.header.stripe_base_fid + f.header.parity_index)
        assert [f.header.fid for f in fragments] == \
            sorted(set(data_members))
        assert len(fragments) >= 6, "workload should span several stripes"

    def test_degraded_fragment_mid_window_recovers_via_parity(self):
        cluster = _cluster()
        log, _written = _seeded_log(cluster)
        expected = _record_stream(_reader(cluster, log, max_inflight=1))
        victim = sorted(cluster.servers)[1]
        cluster.servers[victim].crash()
        assert _record_stream(_reader(cluster, log, max_inflight=4)) == \
            expected

    def test_abandoned_window_reraises_programming_errors(self,
                                                          monkeypatch):
        # A window retrieve that fails with a programming error (not a
        # protocol error) must escape the scan, never read as a miss.
        cluster = _cluster()
        log, _written = _seeded_log(cluster)
        doomed = make_fid(1, 1) + 1
        submit_many = cluster.transport.submit_many

        def failing_submit_many(plan):
            return [_FakeFuture(exception=ValueError("boom"))
                    if getattr(request, "fid", None) == doomed else future
                    for (_server_id, request), future
                    in zip(plan, submit_many(plan))]

        monkeypatch.setattr(cluster.transport, "submit_many",
                            failing_submit_many)
        stream = _reader(cluster, log, max_inflight=4).fragments_from(
            make_fid(1, 1))
        with pytest.raises(ValueError):
            list(stream)

    def test_recovery_scores_each_failed_prefetch_once(self):
        # recover_all reads through the log's retrying transport, which
        # already scores every attempt on the client's monitor; the
        # reader must not score a failed prefetch a second time.
        cluster = _cluster()
        stack = ServiceStack(cluster.make_log(client_id=1))
        disk = stack.push(LogicalDiskService(2))
        for block in range(40):
            disk.write(block, bytes([block]) * 900)
        stack.flush().wait()
        cluster.servers["s2"].crash()
        monitor = HealthMonitor(seed=1)
        log = LogLayer(cluster.transport, cluster.fleet(),
                       LogConfig(client_id=1,
                                 fragment_size=cluster.config.fragment_size),
                       retry_policy=RetryPolicy(seed=1, max_attempts=1),
                       health_monitor=monitor)
        fresh = ServiceStack(log)
        fresh.push(LogicalDiskService(2))
        fresh.recover_all()
        per_server = log.transport.health_report()["servers"]
        assert per_server["s2"]["failures"] > 0
        assert monitor.health_report()["observations"] == sum(
            stats["successes"] + stats["failures"]
            for stats in per_server.values())


# ----------------------------------------------------------------------
# Batched multi-range reads
# ----------------------------------------------------------------------

class TestReadRanges:
    def test_matches_single_range_reads(self):
        cluster = _cluster()
        log, written = _seeded_log(cluster)
        ranges = [(addr.fid, addr.offset, addr.length)
                  for addr, _data in written]
        batched = log.read_ranges(ranges)
        assert batched == [data for _addr, data in written]
        assert batched == [log.read_range(*r) for r in ranges]

    def test_one_multi_retrieve_per_server(self):
        cluster = _cluster()
        log, written = _seeded_log(cluster)
        ranges = [(addr.fid, addr.offset, addr.length)
                  for addr, _data in written]
        before = _retrieve_ops(cluster)
        log.read_ranges(ranges)
        delta = _retrieve_ops(cluster) - before
        assert 1 <= delta <= len(cluster.servers), (
            "%d ranges cost %d retrieve RPCs; batching should cap the "
            "cost at the stripe width" % (len(ranges), delta))

    def test_unflushed_ranges_come_from_the_builders(self):
        cluster = _cluster()
        log = cluster.make_log(client_id=1)
        data = b"\x5a" * 500
        addr = log.write_block(2, data)
        before = _retrieve_ops(cluster)
        assert log.read_ranges([(addr.fid, addr.offset, addr.length)]) == \
            [data]
        assert _retrieve_ops(cluster) == before

    def test_degraded_ranges_fall_back_per_range(self):
        cluster = _cluster()
        log, written = _seeded_log(cluster)
        victim = sorted(cluster.servers)[1]
        cluster.servers[victim].crash()
        ranges = [(addr.fid, addr.offset, addr.length)
                  for addr, _data in written]
        assert log.read_ranges(ranges) == [data for _addr, data in written]

    def test_missing_fragment_yields_none(self):
        cluster = _cluster()
        log, written = _seeded_log(cluster)
        addr = written[0][0]
        results = log.read_ranges([
            (addr.fid, addr.offset, addr.length),
            (make_fid(1, 4000), 0, 8),
        ])
        assert results == [written[0][1], None]


class TestLogicalDiskReadMany:
    def test_matches_single_reads_and_batches(self, cluster4):
        stack = cluster4.make_stack(client_id=1)
        disk = stack.push(LogicalDiskService(2))
        contents = {}
        for block in range(24):
            data = bytes([block % 13 + 1]) * (1200 + 31 * block)
            disk.write(block, data)
            contents[block] = data
        stack.flush().wait()
        before = _retrieve_ops(cluster4)
        batch = disk.read_many(list(range(24)))
        delta = _retrieve_ops(cluster4) - before
        assert batch == [contents[block] for block in range(24)]
        assert delta <= len(cluster4.servers)
        assert batch == [disk.read(block) for block in range(24)]

    def test_unwritten_block_raises(self, cluster4):
        stack = cluster4.make_stack(client_id=1)
        disk = stack.push(LogicalDiskService(2))
        disk.write(0, b"present")
        stack.flush().wait()
        with pytest.raises(errors.ServiceError):
            disk.read_many([0, 99])


# ----------------------------------------------------------------------
# Double-erasure degraded reads (m = 2 Reed–Solomon stripes)
# ----------------------------------------------------------------------

def _seeded_rs_log(cluster, blocks=30, block_size=1500):
    """A flushed m=2 Reed–Solomon log spanning multiple stripes."""
    log = cluster.make_log(client_id=1, parity_fragments=2, coding="rs")
    written = []
    for i in range(blocks):
        data = bytes([(i * 7 + 3) % 256]) * (block_size + 11 * (i % 5))
        addr = log.write_block(2, data, struct.pack(">I", i))
        written.append((addr, data))
    log.flush().wait()
    return log, written


class TestDoubleErasureReads:
    def test_windowed_scan_with_two_erasures_matches_healthy(self):
        """Two dead servers mid-window: same records as a healthy scan."""
        cluster = _cluster(num_servers=5)
        log, _written = _seeded_rs_log(cluster)
        healthy = _record_stream(_reader(cluster, log, max_inflight=1))
        assert healthy, "workload produced no records"
        for victim in ("s1", "s3"):
            cluster.servers[victim].crash()
        assert _record_stream(_reader(cluster, log, max_inflight=4)) == \
            healthy

    def test_read_ranges_falls_back_per_range_with_two_erasures(self):
        cluster = _cluster(num_servers=5)
        log, written = _seeded_rs_log(cluster)
        for victim in ("s1", "s3"):
            cluster.servers[victim].crash()
        ranges = [(addr.fid, addr.offset, addr.length)
                  for addr, _data in written]
        assert log.read_ranges(ranges) == [data for _addr, data in written]

    def test_three_erasures_at_m2_are_unrecoverable(self):
        cluster = _cluster(num_servers=5)
        log, written = _seeded_rs_log(cluster)
        for victim in ("s1", "s2", "s3"):
            cluster.servers[victim].crash()
            log.locations.evict_server(victim)
        with pytest.raises(errors.UnrecoverableError):
            for addr, _data in written:
                log.read(addr)


# ----------------------------------------------------------------------
# Retry re-scatter of multi-range retrieves
# ----------------------------------------------------------------------

class TestMultiRetrieveRetry:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_only_dropped_batches_are_rescattered(self, seed):
        cluster = _cluster()
        log, written = _seeded_log(cluster)
        by_server = {}
        for addr, _data in written:
            server_id = log.locations.get(addr.fid)
            assert server_id is not None
            by_server.setdefault(server_id, []).append(
                (addr.fid, addr.offset, addr.length))
        plan = [(server_id, m.MultiRetrieveRequest(
            ranges=tuple(ranges), principal=log.config.principal))
            for server_id, ranges in sorted(by_server.items())]
        faulty = FaultyTransport(cluster.transport,
                                 FaultPlan(seed, DROP_ALL_SPEC))
        retrying = RetryingTransport(faulty, RetryPolicy(
            max_attempts=6, jitter=0.0, seed=seed))
        victim = faulty.plan.current_victim
        futures = retrying.submit_many(plan)
        assert all(f.ok for f in futures), \
            "seed=%d: retried multi-retrieve scatter left failures" % seed
        for (server_id, request), future in zip(plan, futures):
            expected = b"".join(
                data for addr, data in written
                if (addr.fid, addr.offset, addr.length) in request.ranges)
            assert bytes(future.value.payload) == expected
            assert future.value.value == len(request.ranges)
        # Only the victim's batch burned retries; the healthy batches
        # were not re-sent (the re-scatter is per failed operation).
        assert retrying.retries > 0
        assert retrying.exhausted == 0
        for server_id, stats in retrying.per_server.items():
            if server_id != victim:
                assert stats["retries"] == 0, \
                    "seed=%d: healthy server %s was re-scattered" \
                    % (seed, server_id)


# ----------------------------------------------------------------------
# The cleaner's pipelined harvest
# ----------------------------------------------------------------------

class TestCleanerPipelinedReads:
    def test_one_flush_fence_per_batch(self, cluster4, monkeypatch):
        stack, cleaner, disk, contents = _churn_stack(cluster4)
        stack.checkpoint_all()
        flushes = []
        real_flush = stack.log.flush

        def counting_flush(*args, **kwargs):
            flushes.append(1)
            return real_flush(*args, **kwargs)

        monkeypatch.setattr(stack.log, "flush", counting_flush)
        moved = cleaner.clean(target_stripes=1 << 20)
        assert moved > 0
        assert cleaner.stripes_cleaned >= 2
        assert len(flushes) == 1, (
            "cleaning %d stripes issued %d flush fences; the batch "
            "should pay exactly one" % (cleaner.stripes_cleaned,
                                        len(flushes)))
        for block, data in contents.items():
            assert disk.read(block) == data

    def test_unreadable_stripe_is_skipped_not_deleted(self, cluster4,
                                                      monkeypatch):
        stack, cleaner, disk, contents = _churn_stack(cluster4)
        stack.checkpoint_all()
        candidates = cleaner.candidate_stripes()
        target = next(c for c in candidates if c.live_bytes > 0)
        doomed = set(range(target.base_fid, target.base_fid + target.width))
        real_read_ranges = stack.log.read_ranges

        def failing_read_ranges(ranges):
            results = real_read_ranges(ranges)
            # Header peeks stay readable so stripe selection is
            # unchanged; only the live-block harvest fails.
            return [None if (fid in doomed and
                             not (offset == 0 and length == HEADER_SIZE))
                    else image
                    for (fid, offset, length), image in zip(ranges, results)]

        monkeypatch.setattr(stack.log, "read_ranges", failing_read_ranges)
        cleaner.clean(target_stripes=len(candidates))
        # The unreadable stripe was neither counted nor deleted...
        assert doomed & set(cleaner._total), \
            "unreadable stripe was forgotten by the cleaner"
        assert cleaner.stripes_cleaned < len(candidates)
        # ...and every live block is still readable.
        monkeypatch.setattr(stack.log, "read_ranges", real_read_ranges)
        for block, data in contents.items():
            assert disk.read(block) == data


# ----------------------------------------------------------------------
# Exact retrieve bills of three fixed read paths
# ----------------------------------------------------------------------

def _retrieve_bill(cluster):
    """(retrieve RPCs answered, payload bytes shipped) across the fleet."""
    servers = cluster.servers.values()
    return (sum(server.retrieve_ops for server in servers),
            sum(server.bytes_retrieved for server in servers))


def _bill_since(cluster, before):
    rpcs, shipped = _retrieve_bill(cluster)
    return (rpcs - before[0], shipped - before[1])


class TestRetrieveBills:
    """No clocks anywhere: a fixed workload on a fresh functional
    cluster costs exactly this many retrieve RPCs and bytes."""

    def test_sequential_scan(self):
        # The whole log, read-ahead window open.
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 14,
                                      server_slots=2048)
        log = cluster.make_log(client_id=1)
        payload = b"\x42" * 1024
        for _ in range(96):
            log.write_block(1, payload)
        log.flush().wait()
        before = _retrieve_bill(cluster)
        reader = LogReader(Reconstructor(
            cluster.transport, log.config.principal,
            locations=log.locations), max_inflight=4)
        for _ in reader.fragments_from(make_fid(1, 1)):
            pass
        # The census (one header per listed fid) and the data members;
        # no parity member and no probe past the last stripe.
        assert _bill_since(cluster, before) == (17, 109154)

    def test_scattered_read(self):
        # Small reads batched into one multi-range RPC per server.
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 14,
                                      server_slots=2048)
        stack = cluster.make_stack(client_id=1)
        disk = stack.push(LogicalDiskService(2))
        for block in range(48):
            disk.write(block, bytes([block % 256]) * (512 + 16 * block))
        stack.flush().wait()
        before = _retrieve_bill(cluster)
        disk.read_many(list(range(48)))
        assert _bill_since(cluster, before) == (3, 42624)

    def test_cleaner_pass(self):
        # Batched header reads plus the live harvest.
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 14,
                                      server_slots=4096)
        stack = cluster.make_stack(client_id=1)
        cleaner = stack.push(CleanerService(1, utilization_threshold=0.95))
        disk = stack.push(LogicalDiskService(2))
        for round_no in range(4):
            for block in range(16):
                disk.write(block,
                           bytes([(round_no * 31 + block) % 256]) * 1536)
        stack.flush().wait()
        stack.checkpoint_all()
        before = _retrieve_bill(cluster)
        cleaner.clean(target_stripes=1 << 20)
        assert _bill_since(cluster, before) == (7, 13972)


# ----------------------------------------------------------------------
# Acceptance: the windowed scan beats the serial one
# ----------------------------------------------------------------------

class TestReadOverlapBound:
    def test_windowed_scan_overlaps_on_the_testbed(self):
        metrics = ablate_read_window(fragment_size=1 << 16, stripes=2)
        assert metrics["serial_read_mb_s"] > 0
        assert metrics["sequential_read_mb_s"] > metrics["serial_read_mb_s"]
        assert metrics["overlap_ratio"] < 1.0, (
            "windowed scan cost %.3f× the serial scan; the read-ahead "
            "window should overlap retrieves" % metrics["overlap_ratio"])
