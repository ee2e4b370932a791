"""Tests for the failure detector (``repro.health.monitor``)."""

import pytest

from repro import errors
from repro.chaos.plan import FaultSpec
from repro.cluster import build_local_cluster
from repro.health import (
    DEAD,
    HEALTHY,
    HealthMonitor,
    PROBATION,
    SUSPECT,
)
from repro.health.monitor import (DEAD_CONSECUTIVE, EWMA_ALPHA,
                                  SUSPECT_CONSECUTIVE)
from repro.log.config import LogConfig
from repro.log.layer import LogLayer
from repro.rpc import messages as m
from repro.rpc.retry import RetryingTransport, RetryPolicy, wrap_transport


class FakeProbeChannel:
    """Just enough transport for attach() + probe(): a server list and a
    set of currently-down servers."""

    def __init__(self, servers=("s0", "s1", "s2"), down=()):
        self._servers = list(servers)
        self.down = set(down)
        self.probed = []

    def server_ids(self):
        return list(self._servers)

    def probe(self, server_id):
        self.probed.append(server_id)
        if server_id in self.down:
            raise errors.ServerUnavailableError(
                "server %s is down" % server_id)


def fail(monitor, server_id, times=1):
    for _ in range(times):
        monitor.observe(server_id, ok=False)


class TestStateMachine:
    def test_starts_healthy_and_stays_healthy_on_success(self):
        monitor = HealthMonitor()
        assert monitor.status("s0") == HEALTHY
        for _ in range(20):
            monitor.observe("s0", ok=True)
        assert monitor.status("s0") == HEALTHY
        assert monitor.is_usable("s0")

    def test_consecutive_failures_suspect_then_dead(self):
        monitor = HealthMonitor()
        fail(monitor, "s0", times=3)
        # EWMA after three straight failures is 1 - 0.7^3 ≈ 0.657 ≥ 0.5.
        assert monitor.status("s0") == SUSPECT
        assert monitor.is_usable("s0")  # suspect still takes traffic
        fail(monitor, "s0", times=3)
        assert monitor.status("s0") == DEAD
        assert not monitor.is_usable("s0")

    def test_one_success_resets_the_consecutive_count(self):
        monitor = HealthMonitor()
        fail(monitor, "s0", times=2)
        monitor.observe("s0", ok=True)
        fail(monitor, "s0", times=2)
        assert monitor.status("s0") == HEALTHY

    def test_chaos_burst_bound_never_kills_a_live_server(self):
        # The chaos plan forces a clean call after 3 consecutive faults
        # per server, so a *live* server's worst case is endless
        # (3 failures, 1 success) cycles. The detector may suspect it,
        # but must never declare it dead — that is the safety half of
        # the detection argument (the liveness half: a crashed server
        # fails everything and crosses DEAD_CONSECUTIVE=6 quickly).
        monitor = HealthMonitor()
        for _ in range(50):
            fail(monitor, "s0", times=3)
            monitor.observe("s0", ok=True)
            assert monitor.status("s0") != DEAD

    def test_two_retry_exhaustions_prove_dead(self):
        monitor = HealthMonitor()
        monitor.note_exhausted("s0")
        assert monitor.status("s0") != DEAD
        monitor.note_exhausted("s0")
        assert monitor.status("s0") == DEAD

    def test_success_between_exhaustions_resets_them(self):
        monitor = HealthMonitor()
        monitor.note_exhausted("s0")
        monitor.observe("s0", ok=True)
        monitor.note_exhausted("s0")
        assert monitor.status("s0") != DEAD

    def test_transitions_recorded_and_hooks_fired(self):
        monitor = HealthMonitor()
        seen = []
        monitor.on_transition(lambda sid, old, new: seen.append((sid, old,
                                                                 new)))
        fail(monitor, "s0", times=6)
        assert seen == [("s0", HEALTHY, SUSPECT), ("s0", SUSPECT, DEAD)]
        assert monitor.transitions == seen

    def test_readmission_needs_three_probe_successes(self):
        channel = FakeProbeChannel(down={"s0"})
        monitor = HealthMonitor()
        monitor.attach(channel)
        fail(monitor, "s0", times=6)
        assert monitor.status("s0") == DEAD
        assert not monitor.probe("s0")  # still down: verdict confirmed
        assert monitor.status("s0") == DEAD
        channel.down.clear()  # server comes back
        assert monitor.probe("s0")
        assert monitor.status("s0") == PROBATION
        assert not monitor.is_usable("s0")  # not yet trusted with data
        monitor.probe("s0")
        assert monitor.status("s0") == PROBATION
        monitor.probe("s0")
        assert monitor.status("s0") == HEALTHY

    def test_probation_failure_demotes_to_dead(self):
        channel = FakeProbeChannel(down={"s0"})
        monitor = HealthMonitor()
        monitor.attach(channel)
        fail(monitor, "s0", times=6)
        channel.down.clear()
        monitor.probe("s0")
        assert monitor.status("s0") == PROBATION
        channel.down.add("s0")  # flaps right back down
        monitor.probe("s0")
        assert monitor.status("s0") == DEAD

    def test_automatic_probe_fires_on_the_interval(self):
        channel = FakeProbeChannel(down={"s0"})
        monitor = HealthMonitor()
        monitor.attach(channel)
        fail(monitor, "s0", times=6)          # observations 1..6
        channel.probed.clear()
        monitor.observe("s1", ok=True)        # 7
        assert channel.probed == []
        monitor.observe("s1", ok=True)        # 8 → probe the one suspect
        assert channel.probed == ["s0"]

    def test_probes_are_seeded_deterministic(self):
        def run():
            channel = FakeProbeChannel(down={"s0", "s1"})
            monitor = HealthMonitor(seed=7)
            monitor.attach(channel)
            fail(monitor, "s0", times=6)
            fail(monitor, "s1", times=6)
            for _ in range(24):
                monitor.observe("s2", ok=True)
            return channel.probed

        assert run() == run()

    def test_config_validation(self):
        assert 0 < EWMA_ALPHA <= 1
        assert SUSPECT_CONSECUTIVE <= DEAD_CONSECUTIVE
        # The thresholds' rationale: a chaos fault burst never reaches
        # DEAD_CONSECUTIVE, so only an unreachable server is declared dead.
        assert FaultSpec().max_consecutive < DEAD_CONSECUTIVE

    def test_health_report_shape(self):
        monitor = HealthMonitor()
        fail(monitor, "s0", times=6)
        monitor.observe("s1", ok=True)
        report = monitor.health_report()
        assert report["observations"] == 7
        assert report["servers"]["s0"]["status"] == DEAD
        assert report["servers"]["s0"]["consecutive_failures"] == 6
        assert report["servers"]["s1"]["status"] == HEALTHY
        assert report["servers"]["s1"]["consecutive_failures"] == 0
        assert ("s0", SUSPECT, DEAD) in report["transitions"]


class TestRetryIntegration:
    def test_monitor_without_policy_is_rejected(self, cluster4):
        with pytest.raises(errors.ConfigError):
            wrap_transport(cluster4.transport, None,
                           monitor=HealthMonitor())

    def test_crashed_server_declared_dead_from_exhaustions(self, cluster4):
        monitor = HealthMonitor(seed=1)
        transport = RetryingTransport(
            cluster4.transport,
            RetryPolicy(max_attempts=3, base_backoff_s=0.0, seed=1),
            monitor=monitor)
        cluster4.servers["s2"].crash()
        for _ in range(2):
            with pytest.raises(errors.ServerUnavailableError):
                transport.call("s2", m.HoldsRequest(fids=()))
        assert monitor.status("s2") == DEAD
        # Live servers meanwhile accumulate successes, not suspicion.
        transport.call("s0", m.HoldsRequest(fids=()))
        assert monitor.status("s0") == HEALTHY

    def test_transport_health_report_counts_per_server(self, cluster4):
        monitor = HealthMonitor(seed=1)
        transport = RetryingTransport(
            cluster4.transport,
            RetryPolicy(max_attempts=2, base_backoff_s=0.0, seed=1),
            monitor=monitor)
        transport.call("s0", m.HoldsRequest(fids=()))
        cluster4.servers["s1"].crash()
        with pytest.raises(errors.ServerUnavailableError):
            transport.call("s1", m.HoldsRequest(fids=()))
        report = transport.health_report()
        assert report["servers"]["s0"]["successes"] == 1
        assert report["servers"]["s1"]["exhausted"] == 1
        assert report["servers"]["s1"]["failures"] >= 2  # every attempt
        assert report["totals"]["exhausted"] == 1

    def test_log_layer_health_report_merges_all_layers(self, cluster4):
        monitor = HealthMonitor(seed=3)
        log = LogLayer(cluster4.transport, cluster4.stripe_group(),
                       LogConfig(client_id=1,
                                 fragment_size=cluster4.config.fragment_size),
                       retry_policy=RetryPolicy(seed=3),
                       health_monitor=monitor)
        log.write_block(9, b"x" * 4000)
        log.flush().wait()
        report = log.health_report()
        assert report["log"]["stripes_written"] == log.stripes_written
        assert "transitions" in report["monitor"]
        # Every outcome is counted once, by the retry layer, and the
        # monitor saw each of them.
        per_server = report["transport"]["servers"]
        assert all(stats["failures"] == 0 for stats in per_server.values())
        assert report["monitor"]["observations"] == sum(
            stats["successes"] for stats in per_server.values()) > 0
