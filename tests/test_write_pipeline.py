"""Tests for the pipelined write path.

Covers the four write-path behaviors: scattered stripe stores
(``submit_many`` plans), incremental parity (stored parity must equal
the one-shot oracle), write-behind (stripe close never waits on its
stores), and group commit of small records — plus the late-failure
accounting that rides the flush ticket, and the acceptance bound that
on the simulated testbed pipelined stripe stores beat their serial
sum.
"""

import pytest

from repro import errors
from repro.bench.ablations import ablate_write_pipeline
from repro.log.config import LogConfig
from repro.log.fragment import Fragment, HEADER_SIZE
from repro.log.layer import LogLayer
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.log.records import RecordType
from repro.log.stripe import parity_of
from repro.util.fids import make_fid

SVC = 7
FRAG = 1 << 16


def stored_fragments(cluster):
    """All stored images across the cluster, decoded, keyed by fid."""
    out = {}
    for server in cluster.servers.values():
        for fid in server.list_fids():
            image = bytes(server.retrieve(fid))
            out[fid] = (Fragment.decode(image), image)
    return out


def assert_stored_parity_matches_oracle(cluster):
    """For every parity-bearing stripe on the servers, the parity
    member's payload must equal the XOR of its data members' images."""
    by_fid = stored_fragments(cluster)
    stripes = {}
    for fid, (fragment, image) in by_fid.items():
        stripes.setdefault(fragment.header.stripe_base_fid, []).append(
            (fid, fragment, image))
    checked = 0
    for base, members in stripes.items():
        members.sort()
        parity = [(f, img) for _fid, f, img in members if f.header.is_parity]
        if not parity:
            continue
        data_images = [img for _fid, f, img in members
                       if not f.header.is_parity]
        assert len(parity) == 1
        want = parity_of(data_images)
        assert parity[0][1][HEADER_SIZE:] == want
        checked += 1
    return checked


class TestIncrementalParity:
    def test_stored_parity_matches_oracle_across_stripes(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for i in range(10):
            log.write_block(SVC, bytes([i + 1]) * 30000)
        log.write_block(SVC, b"tail")  # partial tail stripe
        log.flush().wait()
        assert log.stripes_written >= 2
        assert assert_stored_parity_matches_oracle(cluster4) >= 2

    def test_parity_correct_with_records_mixed_in(self, cluster4):
        log = cluster4.make_log(client_id=1)
        for i in range(8):
            log.write_block(SVC, bytes([i + 1]) * 30000)
            log.write_record(SVC, RecordType.USER_BASE, b"r" * (i + 1))
        log.flush().wait()
        assert assert_stored_parity_matches_oracle(cluster4) >= 1

    def test_single_server_group_skips_parity(self, cluster4):
        log = LogLayer(cluster4.transport, ("s0",),
                       LogConfig(client_id=2, fragment_size=FRAG))
        addr = log.write_block(SVC, b"solo" * 2000)
        log.flush().wait()
        assert log.read(addr) == b"solo" * 2000

    def test_parity_correct_after_mid_stripe_reform(self, cluster4):
        log = cluster4.make_log(client_id=1)
        addrs = [log.write_block(SVC, b"a" * 30000)]
        log.reform_group(("s1", "s2", "s3"))
        for _ in range(6):
            addrs.append(log.write_block(SVC, b"b" * 30000))
        log.flush().wait()
        for addr in addrs:
            assert log.read(addr)
        assert assert_stored_parity_matches_oracle(cluster4) >= 1

    def test_xor_cost_accounting_is_byte_exact(self, cluster4):
        """The incremental accumulator must charge exactly what the
        one-shot XOR charged: the sum of the data images' lengths."""
        costs = {}
        log = LogLayer(cluster4.transport, cluster4.stripe_group(),
                       LogConfig(client_id=1, fragment_size=FRAG),
                       cost_hook=lambda k, n: costs.__setitem__(
                           k, costs.get(k, 0) + n))
        for i in range(10):
            log.write_block(SVC, bytes([i + 1]) * 30000)
        log.flush().wait()
        data_bytes = sum(
            len(image) for _f, (frag, image) in stored_fragments(cluster4).items()
            if not frag.header.is_parity)
        assert costs["xor"] == data_bytes


# ----------------------------------------------------------------------
# A manual transport: futures resolve only when the test says so, which
# is the only way to watch the write-behind window from outside a
# simulator.
# ----------------------------------------------------------------------


class ManualFuture:
    def __init__(self):
        self.triggered = False
        self.value = None
        self.exception = None

    @property
    def ok(self):
        return self.triggered and self.exception is None

    def add_callback(self, callback):
        pass

    def resolve(self, value=None, exception=None):
        self.triggered = True
        self.value = value
        self.exception = exception


class ManualTransport:
    """Hands out futures that resolve only when a test resolves them,
    like a simulator's processes seen from inside a running run."""

    submit_is_synchronous = False

    def __init__(self):
        self.plans = []
        self.futures = []

    def submit(self, server_id, request):
        future = ManualFuture()
        self.futures.append(future)
        return future

    def submit_many(self, plan):
        plan = list(plan)
        self.plans.append(plan)
        return [self.submit(server_id, request)
                for server_id, request in plan]

    def call(self, server_id, request):
        raise NotImplementedError


def manual_log(transport, **overrides):
    config = dict(client_id=1, fragment_size=1 << 12)
    config.update(overrides)
    return LogLayer(transport, ("s0", "s1", "s2", "s3"),
                    LogConfig(**config))


def fill_stripes(log, stripes):
    """Append blocks until exactly ``stripes`` stripes have closed."""
    while log.stripes_written < stripes:
        log.write_block(SVC, b"w" * (1 << 11))


class TestWriteBehindWindow:
    def test_stores_travel_as_one_plan_per_stripe(self):
        transport = ManualTransport()
        log = manual_log(transport)
        fill_stripes(log, 2)
        assert len(transport.plans) == 2
        assert all(len(plan) == 4 for plan in transport.plans)

    def test_pipeline_stores_off_submits_individually(self):
        transport = ManualTransport()
        log = manual_log(transport, pipeline_stores=False)
        fill_stripes(log, 2)
        assert transport.plans == []
        assert len(transport.futures) == 8

    def test_window_is_advisory_when_it_cannot_block(self):
        """Unresolved stores (the in-sim case) never block stripe close:
        the window is enforced by the simulated driver instead."""
        transport = ManualTransport()
        log = manual_log(transport)
        fill_stripes(log, 3)
        assert log.inflight_stripes() == 3
        oldest = log.oldest_inflight_events()
        assert oldest and all(not e.triggered for e in oldest)
        for future in transport.futures:
            future.resolve(value=None)
        assert log.inflight_stripes() == 0
        assert log.oldest_inflight_events() == []

    def test_flush_ticket_covers_all_inflight_stripes(self):
        transport = ManualTransport()
        log = manual_log(transport)
        fill_stripes(log, 3)
        ticket = log.flush()
        assert ticket.fragment_count == len(transport.futures)


class TestGroupCommit:
    def make_log(self, cluster4, threshold=512):
        return LogLayer(cluster4.transport, cluster4.stripe_group(),
                        LogConfig(client_id=1, fragment_size=FRAG,
                                  group_commit_bytes=threshold))

    def test_small_records_coalesce_until_threshold(self, cluster4):
        log = self.make_log(cluster4, threshold=512)
        for _ in range(4):
            log.write_record(SVC, RecordType.USER_BASE, b"x" * 32)
        assert log.buffered_records() == 4
        for _ in range(8):
            log.write_record(SVC, RecordType.USER_BASE, b"x" * 32)
        assert log.buffered_records() < 12
        assert log.group_commit_batches == 1
        assert log.records_coalesced >= 8

    def test_block_append_drains_buffer_first(self, cluster4):
        log = self.make_log(cluster4)
        log.write_record(SVC, RecordType.USER_BASE, b"small")
        assert log.buffered_records() == 1
        log.write_block(SVC, b"block")
        assert log.buffered_records() == 0

    def test_flush_drains_buffer(self, cluster4):
        log = self.make_log(cluster4)
        record = log.write_record(SVC, RecordType.USER_BASE, b"buffered")
        ticket = log.flush()
        ticket.wait()
        assert log.buffered_records() == 0
        reader = LogReader(Reconstructor(cluster4.transport, "client-1"))
        stored = [r for f in reader.fragments_from(make_fid(1, 1))
                  for r in f.records() if r.rtype == RecordType.USER_BASE]
        assert [r.lsn for r in stored] == [record.lsn]

    def test_large_record_bypasses_buffer(self, cluster4):
        log = self.make_log(cluster4, threshold=64)
        log.write_record(SVC, RecordType.USER_BASE, b"y" * 100)
        assert log.buffered_records() == 0

    def test_zero_threshold_disables_group_commit(self, cluster4):
        log = self.make_log(cluster4, threshold=0)
        log.write_record(SVC, RecordType.USER_BASE, b"z")
        assert log.buffered_records() == 0
        assert log.group_commit_batches == 0

    def test_log_stays_in_lsn_order_on_disk(self, cluster4):
        """Coalescing must never reorder the physical log: records and
        blocks interleaved in any pattern land in strict LSN order."""
        log = self.make_log(cluster4, threshold=256)
        lsns = []
        for i in range(6):
            lsns.append(log.write_record(SVC, RecordType.USER_BASE,
                                         bytes([i])).lsn)
            if i % 2:
                log.write_block(SVC, b"b" * 5000)
        log.flush().wait()
        reader = LogReader(Reconstructor(cluster4.transport, "client-1"))
        stored = [r.lsn for f in reader.fragments_from(make_fid(1, 1))
                  for r in f.records()]
        assert stored == sorted(stored)
        assert [l for l in stored if l in lsns] == lsns

    def test_lsns_assigned_at_write_time(self, cluster4):
        log = self.make_log(cluster4)
        first = log.write_record(SVC, RecordType.USER_BASE, b"a")
        second = log.write_record(SVC, RecordType.USER_BASE, b"b")
        assert second.lsn == first.lsn + 1


class TestLateFailureAccounting:
    """Store failures that only surface when the futures resolve must
    land in the layer's failure counters (and the failure detector),
    not vanish."""

    def run_one_failing_stripe(self, monitor=None):
        transport = ManualTransport()
        log = manual_log(transport)
        if monitor is not None:
            log.monitor = monitor
        fill_stripes(log, 1)
        ticket = log.flush()
        bad_server, _request = transport.plans[0][1]
        for i, future in enumerate(transport.futures):
            if i == 1:
                future.resolve(exception=errors.ServerUnavailableError("down"))
            else:
                future.resolve(value=None)
        return log, ticket, bad_server

    def test_ticket_failures_feed_counters(self):
        log, ticket, bad_server = self.run_one_failing_stripe()
        assert log.failures() == {}  # not yet observed
        failures = ticket.failures()
        assert len(failures) == 1
        assert log.failures()[bad_server]["stores"] == 1

    def test_failures_counted_exactly_once(self):
        log, ticket, bad_server = self.run_one_failing_stripe()
        ticket.failures()
        ticket.failures()
        with pytest.raises(errors.ServerUnavailableError):
            ticket.wait()
        assert log.failures()[bad_server]["stores"] == 1

    def test_wait_observes_before_raising(self):
        log, ticket, bad_server = self.run_one_failing_stripe()
        with pytest.raises(errors.ServerUnavailableError):
            ticket.wait()
        assert log.failures()[bad_server]["stores"] == 1

    def test_monitor_fed_on_late_failure(self):
        observed = []

        class FakeMonitor:
            def observe(self, server_id, ok):
                observed.append((server_id, ok))

        log, ticket, bad_server = self.run_one_failing_stripe(FakeMonitor())
        ticket.failures()
        assert observed == [(bad_server, False)]

    def test_clean_stripe_counts_nothing(self):
        transport = ManualTransport()
        log = manual_log(transport)
        fill_stripes(log, 1)
        ticket = log.flush()
        for future in transport.futures:
            future.resolve(value=None)
        ticket.wait()
        assert ticket.failures() == []
        assert log.failures() == {}


# ----------------------------------------------------------------------
# Acceptance: pipelined stripe stores beat the serial ones
# ----------------------------------------------------------------------

class TestWriteOverlapBound:
    def test_pipelined_stores_overlap_on_the_testbed(self):
        metrics = ablate_write_pipeline(fragment_size=FRAG, stripes=2)
        assert metrics["serial_flush_ms"] > 0
        assert metrics["overlap_ratio"] < 1.0, (
            "pipelined stripe stores cost %.3f× the serial ones; a "
            "stripe's stores should travel as one overlapped scatter"
            % metrics["overlap_ratio"])
