"""Tests for the pipelined write path.

Covers the four write-path behaviors: scattered stripe stores
(``submit_many`` plans), incremental parity (stored parity must equal
the one-shot oracle), write-behind (stripe close never waits on its
stores), and group commit of small records — plus the scoring of store
outcomes that resolve late (the retry layer counts each one once, per
server, and feeds it to the failure detector as it resolves; the flush
ticket only reports), and the acceptance bound that on the simulated
testbed pipelined stripe stores beat their serial sum.
"""

import pytest

from repro import errors
from repro.bench.ablations import ablate_write_pipeline
from repro.cluster import ClusterConfig, SimCluster, build_local_cluster
from repro.health import HealthMonitor
from repro.log import layer as layer_module
from repro.log.config import LogConfig
from repro.log.fragment import Fragment, FragmentBuilder, HEADER_SIZE
from repro.log.layer import LogLayer
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.log.records import RecordType
from repro.log.stripe import parity_of, parity_of_fast
from repro.rpc.retry import RetryPolicy
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
        self.callbacks = []

    @property
    def ok(self):
        return self.triggered and self.exception is None

    def add_callback(self, callback):
        if self.triggered:
            callback(self)
        else:
            self.callbacks.append(callback)

    def resolve(self, value=None, exception=None):
        self.triggered = True
        self.value = value
        self.exception = exception
        for callback in self.callbacks:
            callback(self)


class ManualTransport:
    """Hands out futures that resolve only when a test resolves them,
    like a simulator's processes seen from inside a running run."""

    submit_is_synchronous = False

    def __init__(self):
        self.plans = []
        self.futures = []

    def server_ids(self):
        return ["s0", "s1", "s2", "s3"]

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


def manual_log(transport, retry_policy=None, health_monitor=None,
               **overrides):
    config = dict(client_id=1, fragment_size=1 << 12)
    config.update(overrides)
    return LogLayer(transport, ("s0", "s1", "s2", "s3"),
                    LogConfig(**config), retry_policy=retry_policy,
                    health_monitor=health_monitor)


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
        the simulated driver's flow-control window bounds them instead."""
        transport = ManualTransport()
        log = manual_log(transport)
        fill_stripes(log, 3)
        assert log.inflight_stripes() == 3
        assert all(not future.triggered for future in transport.futures)
        for future in transport.futures:
            future.resolve(value=None)
        assert log.inflight_stripes() == 0

    def test_flush_ticket_covers_all_inflight_stripes(self):
        transport = ManualTransport()
        log = manual_log(transport)
        fill_stripes(log, 3)
        ticket = log.flush()
        assert ticket.fragment_count == len(transport.futures)

    def test_finished_stripes_leave_the_window(self):
        """On the local plane every store resolves at once, so each
        stripe close drops the tickets before it: the window holds at
        most the newest stripe, however many were written."""
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 12)
        log = cluster.make_log(client_id=1)
        fill_stripes(log, 45)
        log.flush().wait()
        assert log.stripes_written >= 45
        assert len(log._inflight) <= 1


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
    """Store outcomes that only surface when the futures resolve are
    counted once, per server, by the retry layer and fed to the failure
    detector as each future resolves; the flush ticket only reports
    them."""

    def scored_log(self, monitor=None):
        transport = ManualTransport()
        log = manual_log(transport, retry_policy=RetryPolicy(),
                         health_monitor=monitor)
        fill_stripes(log, 1)
        return transport, log, log.flush()

    @staticmethod
    def resolve_all(transport, failing_index=None):
        for i, future in enumerate(transport.futures):
            if i == failing_index:
                future.resolve(exception=errors.ServerUnavailableError("down"))
            else:
                future.resolve(value=None)

    @staticmethod
    def per_server(log):
        return log.health_report()["transport"]["servers"]

    def test_ticket_failures_feed_counters(self):
        transport, log, ticket = self.scored_log()
        bad_server, _request = transport.plans[0][1]
        assert all(stats["failures"] == 0  # nothing resolved yet
                   for stats in self.per_server(log).values())
        self.resolve_all(transport, failing_index=1)
        assert len(ticket.failures()) == 1
        assert self.per_server(log)[bad_server]["failures"] == 1

    def test_wait_observes_before_raising(self):
        monitor = HealthMonitor()
        transport, log, ticket = self.scored_log(monitor)
        bad_server, _request = transport.plans[0][1]
        self.resolve_all(transport, failing_index=1)
        with pytest.raises(errors.ServerUnavailableError):
            ticket.wait()
        assert self.per_server(log)[bad_server]["failures"] == 1
        assert monitor.health_report()["observations"] == len(
            transport.futures)

    def test_ticket_reports_failure_and_wait_raises(self):
        transport, _log, ticket = self.scored_log()
        self.resolve_all(transport, failing_index=1)
        failures = ticket.failures()
        assert len(failures) == 1
        assert isinstance(failures[0], errors.ServerUnavailableError)
        with pytest.raises(errors.ServerUnavailableError):
            ticket.wait()
        ticket.wait(allow_degraded=True)

    def test_failures_counted_exactly_once(self):
        transport, log, ticket = self.scored_log()
        bad_server, _request = transport.plans[0][1]
        self.resolve_all(transport, failing_index=1)
        ticket.failures()
        ticket.failures()
        with pytest.raises(errors.ServerUnavailableError):
            ticket.wait()
        per_server = self.per_server(log)
        assert per_server[bad_server]["failures"] == 1
        assert sum(stats["successes"] + stats["failures"]
                   for stats in per_server.values()) == len(transport.futures)

    def test_monitor_fed_on_late_failure(self):
        monitor = HealthMonitor()
        transport, _log, _ticket = self.scored_log(monitor)
        bad_server, _request = transport.plans[0][1]
        for seen, future in enumerate(transport.futures):
            # Fed as each store resolves, not when the ticket is read.
            assert monitor.health_report()["observations"] == seen
            if seen == 1:
                future.resolve(exception=errors.ServerUnavailableError("down"))
            else:
                future.resolve(value=None)
        report = monitor.health_report()
        assert report["observations"] == len(transport.futures)
        assert [sid for sid, state in report["servers"].items()
                if state["ewma"] > 0] == [bad_server]

    def test_clean_stripe_counts_nothing(self):
        transport, log, ticket = self.scored_log()
        self.resolve_all(transport)
        ticket.wait()
        assert ticket.failures() == []
        per_server = self.per_server(log)
        assert all(stats["failures"] == 0 for stats in per_server.values())
        assert sum(stats["successes"]
                   for stats in per_server.values()) == len(transport.futures)

    def test_every_simulated_store_is_scored_once(self, two_second_allowance):
        """Inside a running simulation the stores skip the retry loop,
        yet each outcome, success or failure, reaches the per-server
        counts and the failure detector exactly once — here with a
        server crashing halfway through the writes."""
        cluster = SimCluster(ClusterConfig(num_servers=4, num_clients=1,
                                           fragment_size=FRAG))
        monitor = HealthMonitor(seed=1)
        log = LogLayer(cluster.make_transport(0), cluster.fleet(),
                       LogConfig(client_id=1, fragment_size=FRAG),
                       retry_policy=RetryPolicy(seed=1),
                       health_monitor=monitor)
        sim = cluster.sim

        def keep_failures_in_their_stores(events):
            # A waiter keeps a failed store inside its process instead
            # of sim.run() re-raising it.
            for event in events:
                event.add_callback(lambda _event: None)

        def writer():
            waited = 0
            for i in range(400):
                log.write_block(SVC, b"s" * 4000)
                pending = log.pending_events()
                keep_failures_in_their_stores(pending[waited:])
                waited = len(pending)
                if i == 200:
                    cluster.crash_server("s2")
                if i % 16 == 15:
                    yield sim.timeout(0.01)
            ticket = log.flush()
            keep_failures_in_their_stores(ticket.events[waited:])
            return ticket.events

        process = sim.process(writer())
        sim.run()
        stores = process.value
        failed = [event for event in stores if event.exception is not None]
        per_server = log.health_report()["transport"]["servers"]
        assert failed and all(isinstance(event.exception,
                                         errors.ServerUnavailableError)
                              for event in failed)
        assert monitor.health_report()["observations"] == len(stores)
        assert sum(stats["successes"] + stats["failures"]
                   for stats in per_server.values()) == len(stores)
        assert per_server["s2"]["failures"] == len(failed) == sum(
            stats["failures"] for stats in per_server.values())


# ----------------------------------------------------------------------
# Recycled fragment buffers
# ----------------------------------------------------------------------

def recycling_log(fragment_size):
    cluster = build_local_cluster(num_servers=4, fragment_size=fragment_size,
                                  server_slots=512)
    return cluster, cluster.make_log(client_id=1)


class TestBufferRecycling:
    @pytest.mark.usefixtures("two_second_allowance")
    def test_sync_writes_reuse_a_stripe_of_buffers(self, monkeypatch):
        """Each flush seals the open fragment, so every small sync write
        opens a builder; after a warm-up flush each one builds in a
        sealed builder's buffer instead of allocating 1 MiB."""
        _cluster, log = recycling_log(1 << 20)
        log.write_block(SVC, b"warm-up" * 512)
        log.flush().wait()
        buffers, fresh = {}, []  # id -> buffer; per builder: allocated?

        class Recording(FragmentBuilder):
            def __init__(self, fid, client_id, capacity, buffer=None):
                fresh.append(buffer is None)
                super().__init__(fid, client_id, capacity, buffer)
                buffers[id(self._buf)] = self._buf

        monkeypatch.setattr(layer_module, "FragmentBuilder", Recording)
        bound = log.placement.max_data_fragments()
        for i in range(100):
            log.write_block(SVC, bytes([i]) * 4096)
            log.flush().wait()
            assert len(buffers) <= bound
        assert len(fresh) == 100
        assert not any(fresh)

    @pytest.mark.usefixtures("two_second_allowance")
    def test_stale_bytes_never_reach_an_image(self, monkeypatch):
        """A near-full fragment of 0xFF leaves its buffer dirty for the
        next, short one, and for a fragment that fills short of its
        capacity and folds into a two-member stripe's parity early.
        Every stored image, parity included, matches a log that builds
        each fragment in a zeroed buffer."""
        largest = FragmentBuilder.max_block_size(FRAG)

        def run(cluster, log):
            log.write_block(SVC, b"\xff" * (largest - 200))
            log.flush().wait()
            log.write_block(SVC, b"small")
            log.flush().wait()
            log.write_block(SVC, b"\x01" * (largest * 3 // 5))
            log.write_block(SVC, b"\x02" * (largest * 3 // 5))
            log.flush().wait()
            return stored_fragments(cluster)

        reused = run(*recycling_log(FRAG))
        monkeypatch.setattr(LogLayer, "_recycle_buffers",
                            lambda self, builders: None)
        fresh = run(*recycling_log(FRAG))
        assert sorted(reused) == sorted(fresh)
        assert len(reused) == 7  # stripes of 1, 1 and 2 data members
        for fid, (_fragment, image) in reused.items():
            assert image == fresh[fid][1]
            Fragment.decode(image, verify_payload=True)
        stripes = {}
        for fid, (fragment, image) in sorted(reused.items()):
            stripes.setdefault(fragment.header.stripe_base_fid, []).append(
                (fragment, image))
        for members in stripes.values():
            data = [img for f, img in members if not f.header.is_parity]
            (parity,) = [img for f, img in members if f.header.is_parity]
            assert parity[HEADER_SIZE:] == parity_of_fast(data)

    @pytest.mark.usefixtures("two_second_allowance")
    def test_peeked_bytes_survive_buffer_reuse(self):
        _cluster, log = recycling_log(FRAG)
        address = log.write_block(SVC, b"\xaa" * 1000)
        builder = log._building[-1]
        buffer = builder._buf
        peeked = builder.peek_range(address.offset, address.length)
        log.flush().wait()
        log.write_block(SVC, b"\x55" * 5000)  # over the same offsets
        reused = log._building[-1]._buf is buffer
        assert reused
        assert peeked == b"\xaa" * 1000
        assert log.read_range(address.fid, address.offset,
                              address.length) == b"\xaa" * 1000


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
