"""Tests for the chaos engine: fault plans, the faulty transport, the
retry layer, and checksum-verified degraded reads."""

import pytest

from repro import errors
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.chaos.transport import FaultyTransport
from repro.cluster import (
    ClusterConfig,
    FailureInjector,
    SimCluster,
    build_local_cluster,
)
from repro.log.fragment import Fragment, HEADER_SIZE
from repro.rpc import RetryPolicy, RetryingTransport, messages as m
from repro.rpc.completion import capture
from repro.rpc.retry import charge_delay
from repro.rpc.transport import TransportWrapper

SVC = 3


def full_spec(**overrides):
    """A spec with one fault forced on (rate 1) and the rest off."""
    base = dict(drop_request=0.0, drop_response=0.0, delay=0.0,
                duplicate=0.0, torn_store=0.0, bit_flip=0.0,
                victim_window=10 ** 9, max_consecutive=3)
    base.update(overrides)
    return FaultSpec(**base)


def store(transport, fid, data=b"payload", **kwargs):
    return transport.call("s0", m.StoreRequest(fid=fid, data=data, **kwargs))


class FlakyTransport(TransportWrapper):
    """Raises a transient error for the first ``failures`` calls."""

    def __init__(self, inner, failures):
        super().__init__(inner)
        self.failures = failures
        self.calls = 0

    def call(self, server_id, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise errors.ServerUnavailableError("flaky")
        return self.inner.call(server_id, request)


class ScriptedStores(TransportWrapper):
    """Faults the n-th store as ``script[n]`` says; all else is clean."""

    def __init__(self, inner, script):
        super().__init__(inner)
        self.script = list(script)

    def call(self, server_id, request):
        fault = None
        if isinstance(request, m.StoreRequest) and self.script:
            fault = self.script.pop(0)
        if fault == "torn":
            self.inner.call(server_id, FaultyTransport._torn_copy(request))
            raise errors.ServerUnavailableError("torn mid-write")
        response = self.inner.call(server_id, request)
        if fault == "lost reply":
            raise errors.ServerUnavailableError("reply lost")
        return response


class RecordingMonitor:
    """The three hooks the retry layer feeds, kept as a list."""

    def __init__(self):
        self.seen = []

    def attach(self, transport):
        pass

    def observe(self, server_id, ok):
        self.seen.append((server_id, ok))

    def note_exhausted(self, server_id):
        self.seen.append((server_id, "exhausted"))


class TestFaultPlan:
    def test_same_seed_same_decisions(self, cluster4):
        requests = [m.StoreRequest(fid=i, data=b"x") for i in range(1, 40)] \
            + [m.RetrieveRequest(fid=i) for i in range(1, 40)]
        servers = sorted(cluster4.servers)

        def schedule(seed):
            plan = FaultPlan(seed)
            plan.attach(servers)
            events = []
            for i, request in enumerate(requests):
                events.append(plan.decide(servers[i % len(servers)], request))
            return plan.durable_victim, events

        assert schedule(7) == schedule(7)

    def test_different_seeds_diverge(self, cluster4):
        servers = sorted(cluster4.servers)
        histories = []
        for seed in range(20):
            plan = FaultPlan(seed, full_spec(drop_request=0.5))
            plan.attach(servers)
            for i in range(50):
                plan.decide(servers[i % 4], m.RetrieveRequest(fid=i + 1))
            histories.append(tuple(plan.history))
        assert len(set(histories)) > 1

    def test_consecutive_budget_forces_clean_call(self):
        plan = FaultPlan(1, full_spec(drop_request=1.0, max_consecutive=2))
        plan.attach(["s0"])
        kinds = [plan.decide("s0", m.RetrieveRequest(fid=1)) for _ in range(9)]
        pattern = [e.kind if e else None for e in kinds]
        # Never more than two faults in a row.
        assert pattern == ["drop_request", "drop_request", None] * 3

    def test_victim_rotates(self):
        plan = FaultPlan(3, full_spec(drop_request=1.0, victim_window=4,
                                      max_consecutive=10 ** 9))
        plan.attach(["s0", "s1", "s2"])
        seen = []
        for _ in range(12):
            seen.append(plan.current_victim)
            plan.decide(plan.current_victim, m.RetrieveRequest(fid=1))
        assert seen == ["s0"] * 4 + ["s1"] * 4 + ["s2"] * 4

    def test_wire_faults_spare_non_victims(self):
        plan = FaultPlan(3, full_spec(drop_request=1.0, victim_window=10 ** 9))
        plan.attach(["s0", "s1"])
        other = "s1" if plan.current_victim == "s0" else "s0"
        non_durable = [sid for sid in ("s0", "s1")
                       if sid != plan.durable_victim]
        for sid in non_durable:
            if sid == plan.current_victim:
                continue
            assert plan.decide(sid, m.RetrieveRequest(fid=1)) is None
        assert plan.decide(plan.current_victim,
                           m.RetrieveRequest(fid=1)) is not None
        assert other is not None  # silence lint: both servers exercised

    def test_durable_faults_confined_to_one_server(self):
        plan = FaultPlan(11, full_spec(torn_store=1.0, bit_flip=1.0,
                                       max_consecutive=10 ** 9))
        plan.attach(["s0", "s1", "s2", "s3"])
        for i in range(40):
            sid = "s%d" % (i % 4)
            plan.decide(sid, m.StoreRequest(fid=100 + i, data=b"x"))
            plan.decide(sid, m.RetrieveRequest(fid=100 + i))
        assert {e.server_id for e in plan.history} == {plan.durable_victim}

    def test_fid_never_torn_twice(self):
        plan = FaultPlan(5, full_spec(torn_store=1.0,
                                      pinned_victim="s0",
                                      max_consecutive=10 ** 9))
        plan.attach(["s0"])
        kinds = [plan.decide("s0", m.StoreRequest(fid=9, data=b"x"))
                 for _ in range(3)]
        assert [e.kind if e else None for e in kinds] == \
            ["torn_store", None, None]

    def test_stop_disables_faults(self):
        plan = FaultPlan(2, full_spec(drop_request=1.0))
        plan.attach(["s0"])
        assert plan.decide("s0", m.RetrieveRequest(fid=1)) is not None
        plan.stop()
        assert not plan.active
        assert all(plan.decide("s0", m.RetrieveRequest(fid=1)) is None
                   for _ in range(10))

    def test_non_faultable_requests_pass_clean(self):
        plan = FaultPlan(2, full_spec(drop_request=1.0))
        plan.attach(["s0"])
        assert plan.decide("s0", m.CreateAclRequest(readers=(),
                                                    writers=())) is None

    def test_spec_validation(self):
        with pytest.raises(errors.ConfigError):
            FaultSpec(drop_request=1.5).validate()
        with pytest.raises(errors.ConfigError):
            FaultSpec(drop_request=0.6, drop_response=0.6).validate()
        with pytest.raises(errors.ConfigError):
            FaultPlan(1, FaultSpec(pinned_victim="nope")).attach(["s0"])


class TestFaultyTransport:
    def plan_transport(self, cluster, **spec_overrides):
        plan = FaultPlan(1, full_spec(pinned_victim="s0", **spec_overrides))
        return plan, FaultyTransport(cluster.transport, plan)

    def test_drop_request_never_reaches_server(self, cluster4):
        plan, faulty = self.plan_transport(cluster4, drop_request=1.0)
        with pytest.raises(errors.ServerUnavailableError):
            store(faulty, 1)
        assert cluster4.servers[plan.current_victim].store_ops == 0

    def test_drop_response_executes_then_fails(self, cluster4):
        plan, faulty = self.plan_transport(cluster4, drop_response=1.0)
        victim = plan.current_victim
        with pytest.raises(errors.ServerUnavailableError):
            faulty.call(victim, m.StoreRequest(fid=1, data=b"committed"))
        # The store went through: the classic lost-reply hazard.
        assert bytes(cluster4.servers[victim].retrieve(1)) == b"committed"

    def test_torn_store_leaves_durable_prefix(self, cluster4):
        plan, faulty = self.plan_transport(cluster4, torn_store=1.0)
        data = bytes(range(256)) * 4
        with pytest.raises(errors.ServerUnavailableError):
            store(faulty, 1, data)
        committed = bytes(cluster4.servers["s0"].retrieve(1))
        assert committed == data[:len(data) // 2]

    def test_duplicate_discards_second_outcome(self, cluster4):
        plan, faulty = self.plan_transport(cluster4, duplicate=1.0,
                                           max_consecutive=1)
        victim = plan.current_victim
        response = faulty.call(victim, m.StoreRequest(fid=1, data=b"x"))
        assert response.value == 0  # first delivery's slot
        # Write-once semantics absorbed the duplicate.
        assert cluster4.servers[victim].store_ops == 1

    def test_bit_flip_changes_exactly_one_bit(self, cluster4):
        data = b"\x00" * 500
        cluster4.servers["s0"].store(10, data)
        plan, faulty = self.plan_transport(cluster4, bit_flip=1.0,
                                           max_consecutive=10 ** 9)
        flipped = bytes(faulty.call("s0", m.RetrieveRequest(fid=10)).payload)
        assert len(flipped) == len(data)
        delta = sum(bin(a ^ b).count("1") for a, b in zip(flipped, data))
        assert delta == 1

    def test_delay_charges_simulated_clock(self):
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        inner = cluster.make_transport(0)
        plan = FaultPlan(1, full_spec(delay=1.0, delay_s=0.5,
                                      max_consecutive=10 ** 9,
                                      pinned_victim="s0"))
        faulty = FaultyTransport(inner, plan)
        faulty.call("s0", m.StoreRequest(fid=1, data=b"x"))
        assert inner.take_deferred_time() >= 0.5

    def test_submit_intercepted_when_synchronous(self, cluster4):
        plan, faulty = self.plan_transport(cluster4, drop_request=1.0)
        future = faulty.submit_many(
            [(plan.current_victim, m.StoreRequest(fid=1, data=b"x"))])[0]
        assert future.triggered and not future.ok
        assert isinstance(future.exception, errors.ServerUnavailableError)

    def test_single_op_plan_in_a_running_simulation_is_faulted(self):
        """A single asynchronous operation is a one-op plan, faulted on
        a running simulation's process path like on every other plane;
        the process yields the completion the fault resolved."""
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        plan = FaultPlan(1, full_spec(drop_request=1.0, pinned_victim="s0"))
        faulty = FaultyTransport(cluster.make_transport(0), plan)

        def workload():
            assert not faulty.submit_is_synchronous
            with pytest.raises(errors.ServerUnavailableError):
                yield faulty.submit_many(
                    [("s0", m.StoreRequest(fid=1, data=b"x"))])[0]
            return True

        assert cluster.sim.run_process(workload())
        assert faulty.faults_applied == 1
        assert not cluster.server_nodes["s0"].server.holds(1)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=2.0,
                             max_backoff_s=0.05, jitter=0.0)
        assert policy.backoff_for(1) == pytest.approx(0.01)
        assert policy.backoff_for(2) == pytest.approx(0.02)
        assert policy.backoff_for(4) == pytest.approx(0.05)  # capped

    def test_jitter_is_seeded(self):
        first = [RetryPolicy(seed=9).backoff_for(n) for n in range(1, 6)]
        second = [RetryPolicy(seed=9).backoff_for(n) for n in range(1, 6)]
        other = [RetryPolicy(seed=10).backoff_for(n) for n in range(1, 6)]
        assert first == second
        assert first != other

    def test_validation(self):
        with pytest.raises(errors.ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(errors.ConfigError):
            RetryPolicy(jitter=1.5)


class TestRetryingTransport:
    def test_transient_failures_retried(self, cluster4):
        flaky = FlakyTransport(cluster4.transport, failures=3)
        retrying = RetryingTransport(flaky, RetryPolicy(max_attempts=5))
        assert store(retrying, 1).value == 0
        assert retrying.retries == 3

    def test_exhaustion_raises_last_error(self, cluster4):
        flaky = FlakyTransport(cluster4.transport, failures=100)
        retrying = RetryingTransport(flaky, RetryPolicy(max_attempts=4))
        with pytest.raises(errors.ServerUnavailableError):
            store(retrying, 1)
        assert retrying.exhausted == 1
        assert flaky.calls == 4

    def test_deadline_stops_retrying(self, cluster4):
        flaky = FlakyTransport(cluster4.transport, failures=100)
        retrying = RetryingTransport(
            flaky, RetryPolicy(max_attempts=50, base_backoff_s=1.0,
                               max_backoff_s=8.0, jitter=0.0,
                               deadline_s=2.5))
        with pytest.raises(errors.ServerUnavailableError):
            store(retrying, 1)
        assert flaky.calls <= 4

    def test_non_transient_error_immediate(self, cluster4):
        retrying = RetryingTransport(cluster4.transport, RetryPolicy())
        with pytest.raises(errors.FragmentNotFoundError):
            retrying.call("s0", m.RetrieveRequest(fid=404))
        assert retrying.retries == 0

    def test_lost_reply_store_resolved_as_success(self, cluster4):
        plan = FaultPlan(1, full_spec(drop_response=1.0, max_consecutive=1,
                                      pinned_victim="s0"))
        faulty = FaultyTransport(cluster4.transport, plan)
        retrying = RetryingTransport(faulty, RetryPolicy(max_attempts=5))
        victim = plan.current_victim
        retrying.call(victim, m.StoreRequest(fid=1, data=b"once"))
        assert retrying.ambiguous_resolutions == 1
        assert bytes(cluster4.servers[victim].retrieve(1)) == b"once"

    def test_torn_store_read_repaired(self, cluster4):
        plan = FaultPlan(1, full_spec(torn_store=1.0, max_consecutive=2,
                                      pinned_victim="s0"))
        faulty = FaultyTransport(cluster4.transport, plan)
        retrying = RetryingTransport(faulty, RetryPolicy(max_attempts=5))
        data = bytes(range(256)) * 4
        retrying.call("s0", m.StoreRequest(fid=1, data=data))
        # The torn prefix was detected, deleted, and re-stored whole.
        assert bytes(cluster4.servers["s0"].retrieve(1)) == data
        assert retrying.ambiguous_resolutions == 1

    def test_retried_delete_is_idempotent(self, cluster4):
        cluster4.servers["s0"].store(1, b"x")
        plan = FaultPlan(1, full_spec(drop_response=1.0, max_consecutive=1,
                                      pinned_victim="s0"))
        faulty = FaultyTransport(cluster4.transport, plan)
        retrying = RetryingTransport(faulty, RetryPolicy(max_attempts=5))
        retrying.call(plan.current_victim, m.DeleteRequest(fid=1))
        assert not cluster4.servers[plan.current_victim].holds(1)

    @pytest.mark.parametrize("entry", ["call", "submit_many"])
    def test_lost_reply_on_the_repairing_restore_is_success(
            self, cluster4, entry):
        # torn -> retry collides -> probe differs -> delete -> re-store,
        # whose reply is lost -> its retry collides with *itself*. The
        # bytes are fully committed; the store must not report "exists".
        scripted = ScriptedStores(cluster4.transport,
                                  ["torn", None, "lost reply"])
        retrying = RetryingTransport(scripted, RetryPolicy(max_attempts=5))
        data = bytes(range(256)) * 4
        request = m.StoreRequest(fid=1, data=data)
        if entry == "call":
            retrying.call("s0", request)
        else:
            assert retrying.submit_many([("s0", request)])[0].ok
        assert scripted.script == []
        assert bytes(cluster4.servers["s0"].retrieve(1)) == data
        assert retrying.ambiguous_resolutions == 1

    def test_lost_delete_reply_inside_a_resolution_still_deleted(
            self, cluster4):
        # Resolving a torn store deletes the damaged fragment with
        # exists-resolution switched off; that must not switch off the
        # delete's own idempotence when *its* reply is lost.
        class LoseDeleteReply(TransportWrapper):
            lost = 0

            def call(self, server_id, request):
                response = self.inner.call(server_id, request)
                if isinstance(request, m.DeleteRequest) and not self.lost:
                    self.lost += 1
                    raise errors.ServerUnavailableError("reply lost")
                return response

        data = bytes(range(256)) * 4
        cluster4.servers["s0"].store(1, data[:100])  # the torn prefix
        lossy = LoseDeleteReply(cluster4.transport)
        retrying = RetryingTransport(lossy, RetryPolicy(max_attempts=5))
        resolved = retrying._resolve_already_exists(
            "s0", m.StoreRequest(fid=1, data=data))
        assert resolved is not None and lossy.lost == 1
        assert bytes(cluster4.servers["s0"].retrieve(1)) == data
        assert retrying.ambiguous_resolutions == 1  # the delete's
        assert retrying.retries == 1

    @pytest.mark.parametrize("seed", [7, 101, 202, 555, 4242])
    def test_call_and_single_op_scatter_retry_identically(self, seed):
        # One retry loop: the same fault schedule gives the same
        # outcomes, counters and failure-detector feed whichever entry
        # point carried the operation.
        spec = FaultSpec(drop_request=0.3, drop_response=0.3, delay=0.0,
                         duplicate=0.1, torn_store=0.5, bit_flip=0.0,
                         pinned_victim="s0", max_consecutive=4)
        ops = []
        for fid in range(1, 9):
            ops += [m.PreallocateRequest(fid=fid),
                    m.StoreRequest(fid=fid, data=bytes([fid]) * 64),
                    m.RetrieveRequest(fid=fid),
                    m.StoreRequest(fid=fid, data=b"collides"),
                    m.DeleteRequest(fid=fid),
                    m.DeleteRequest(fid=fid)]

        def run(through_scatter):
            cluster = build_local_cluster(num_servers=1)
            monitor = RecordingMonitor()
            retrying = RetryingTransport(
                FaultyTransport(cluster.transport, FaultPlan(seed, spec)),
                RetryPolicy(max_attempts=3, seed=seed), monitor=monitor)
            outcomes = []
            for op in ops:
                if through_scatter:
                    future = retrying.submit_many([("s0", op)])[0]
                else:
                    future = capture(retrying.call, "s0", op)
                outcomes.append(
                    (type(future.exception), future.ok
                     and (future.value.value, bytes(future.value.payload))))
            return outcomes, retrying.health_report(), monitor.seen

        via_call, via_scatter = run(False), run(True)
        assert via_call == via_scatter
        totals = via_call[1]["totals"]
        assert totals["retries"] and totals["ambiguous_resolutions"]

    def test_genuine_duplicate_store_still_errors(self, cluster4):
        retrying = RetryingTransport(cluster4.transport, RetryPolicy())
        store(retrying, 1, b"first")
        # A first-attempt FragmentExists is a real caller bug, not an
        # ambiguous retry; it must surface.
        with pytest.raises(errors.FragmentExistsError):
            store(retrying, 1, b"second")

    def test_backoff_charged_to_sim_ledger(self):
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        inner = cluster.make_transport(0)
        flaky = FlakyTransport(inner, failures=2)
        retrying = RetryingTransport(
            flaky, RetryPolicy(max_attempts=5, base_backoff_s=0.1,
                               jitter=0.0))
        retrying.call("s0", m.StoreRequest(fid=1, data=b"x"))
        # 0.1 + 0.2 of backoff plus the op's own modeled time.
        assert inner.take_deferred_time() >= 0.3

    def test_faulted_scatter_in_a_running_simulation_is_scored(self):
        """A fault decided at submit time comes back as a completed
        future among the simulator's processes; both are scored."""
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        plan = FaultPlan(1, full_spec(drop_request=1.0,
                                      max_consecutive=10 ** 9,
                                      pinned_victim="s0"))
        retrying = RetryingTransport(
            FaultyTransport(cluster.make_transport(0), plan), RetryPolicy())

        def workload():
            futures = retrying.submit_many(
                [(sid, m.HoldsRequest(fids=())) for sid in ("s0", "s1")])
            yield futures[1]
            return futures

        dropped, answered = cluster.sim.run_process(workload())
        assert isinstance(dropped.exception, errors.ServerUnavailableError)
        assert answered.ok
        assert retrying.per_server["s0"]["failures"] == 1
        assert retrying.per_server["s1"]["successes"] == 1

    def test_charge_delay_walks_wrapper_chain(self):
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        inner = cluster.make_transport(0)
        plan = FaultPlan(1, full_spec())
        faulty = FaultyTransport(inner, plan)
        assert charge_delay(faulty, 0.25)
        assert inner.deferred_time >= 0.25

    def test_charge_delay_timeless_transport(self, cluster4):
        assert not charge_delay(cluster4.transport, 0.25)


class TestInjectorPrimitives:
    def written_holder(self, cluster):
        """Write one block and return a (server_id, fid) that holds it."""
        log = cluster.make_log(client_id=1)
        log.write_block(SVC, b"k" * 30000)
        log.flush().wait()
        for sid in sorted(cluster.servers):
            fids = sorted(cluster.servers[sid].list_fids())
            if fids:
                return sid, fids[0]
        raise AssertionError("no server holds a fragment after flush")

    def test_corrupt_fragment_flips_served_bytes(self, cluster4):
        sid, fid = self.written_holder(cluster4)
        server = cluster4.servers[sid]
        before = bytes(server.retrieve(fid))
        FailureInjector(cluster4).corrupt_fragment(
            sid, fid, bit_index=8 * HEADER_SIZE)
        after = bytes(server.retrieve(fid))
        assert before != after
        assert len(before) == len(after)
        with pytest.raises(errors.CorruptFragmentError):
            Fragment.decode(after, verify_crc=True)

    def test_corrupt_fragment_busts_server_cache(self, cluster4):
        sid, fid = self.written_holder(cluster4)
        server = cluster4.servers[sid]
        server.retrieve(fid)  # populate the volatile cache
        FailureInjector(cluster4).corrupt_fragment(sid, fid)
        # The damaged bytes, not the stale cached image, are served.
        with pytest.raises(errors.CorruptFragmentError):
            Fragment.decode(bytes(server.retrieve(fid)), verify_crc=True)

    def test_tear_fragment_truncates(self, cluster4):
        sid, fid = self.written_holder(cluster4)
        server = cluster4.servers[sid]
        full = len(bytes(server.retrieve(fid)))
        FailureInjector(cluster4).tear_fragment(sid, fid, keep_fraction=0.25)
        torn = bytes(server.retrieve(fid))
        assert len(torn) == full // 4
        with pytest.raises(errors.CorruptFragmentError):
            Fragment.decode(torn, verify_crc=True)

    def test_damage_requires_existing_fragment(self, cluster4):
        injector = FailureInjector(cluster4)
        with pytest.raises(errors.FragmentNotFoundError):
            injector.corrupt_fragment("s0", 12345)
        with pytest.raises(errors.FragmentNotFoundError):
            injector.tear_fragment("s0", 12345)

    def test_tear_fraction_validated(self, cluster4):
        injector = FailureInjector(cluster4)
        with pytest.raises(ValueError):
            injector.tear_fragment("s0", 1, keep_fraction=1.0)


class TestVerifiedDegradedReads:
    def test_corrupt_read_falls_back_to_parity(self, cluster4):
        log = cluster4.make_log(client_id=1, verify_reads=True)
        payload = b"v" * 30000
        addr = log.write_block(SVC, payload)
        log.flush().wait()
        holder = log.known_location(addr.fid)
        FailureInjector(cluster4).corrupt_fragment(
            holder, addr.fid, bit_index=8 * HEADER_SIZE + 1)
        assert log.read(addr) == payload

    def test_corruption_evicts_location_cache(self, cluster4):
        log = cluster4.make_log(client_id=1, verify_reads=True)
        addr = log.write_block(SVC, b"w" * 30000)
        log.flush().wait()
        holder = log.known_location(addr.fid)
        assert holder is not None
        FailureInjector(cluster4).corrupt_fragment(holder, addr.fid)
        log.read(addr)
        evictions = log.locations.evictions
        assert evictions >= 1

    def test_unverified_log_serves_corrupt_bytes(self, cluster4):
        """Without verify_reads the old fast path is unchanged — the
        checksum is only checked when asked (perf-neutral default)."""
        log = cluster4.make_log(client_id=1)
        payload = b"u" * 30000
        addr = log.write_block(SVC, payload)
        log.flush().wait()
        FailureInjector(cluster4).corrupt_fragment(
            log.known_location(addr.fid), addr.fid,
            bit_index=8 * (HEADER_SIZE + 100))
        assert log.read(addr) != payload

    def test_reader_verify_falls_back(self, cluster4):
        from repro.log.reader import LogReader
        from repro.log.reconstruct import Reconstructor

        log = cluster4.make_log(client_id=1)
        addr = log.write_block(SVC, b"r" * 30000)
        log.flush().wait()
        FailureInjector(cluster4).corrupt_fragment(
            log.known_location(addr.fid), addr.fid,
            bit_index=8 * HEADER_SIZE + 2)
        reader = LogReader(Reconstructor(cluster4.transport, "client-1",
                                         verify=True))
        fragment = reader.read_fragment(addr.fid)
        assert fragment is not None
        Fragment.decode(fragment.encode(), verify_crc=True)
