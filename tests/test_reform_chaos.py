"""Automatic stripe-group reform under chaos (self-healing write path).

Covers the reform half of the self-healing loop: a member dies while
writes are in flight under an adversarial fault schedule, the failure
detector declares it dead from RPC outcomes alone, and the log layer
reforms onto the spare — with every write that raced the reform landing
safely on the new group.

The multi-failure section exercises the same loop at ``m = 2``: two
members crash *simultaneously*, the group reforms onto two spares, the
repair daemon re-materializes every lost fragment onto *distinct*
spares, and fsck reports full health with both victims still down —
replayed bit-identically per ``CHAOS_SEEDS`` seed.
"""

import os
import random

import pytest

from repro import errors
from repro.chaos.plan import (
    FaultPlan,
    FaultSpec,
    choose_kill_victims,
)
from repro.chaos.harness import replay
from repro.chaos.runner import run_kill_server
from repro.chaos.transport import FaultyTransport
from repro.cluster import build_local_cluster
from repro.cluster.failures import FailureInjector
from repro.health import HealthMonitor, RepairDaemon
from repro.log.config import LogConfig
from repro.log.layer import LogLayer
from repro.rpc.retry import RetryPolicy
from repro.services.logical_disk import LogicalDiskService
from repro.tools.fsck import check_client_log

SVC = 3
FRAGMENT = 1 << 12

SEEDS = [int(s) for s in
         os.environ.get("CHAOS_SEEDS", "101,202,303").split(",") if s.strip()]


def healing_log(cluster, plan=None, seed=5):
    """A log over s0..s3 with s4 as spare, detector attached, chaos on."""
    transport = cluster.transport
    if plan is not None:
        transport = FaultyTransport(transport, plan)
    monitor = HealthMonitor(seed=seed)
    log = LogLayer(transport, cluster.stripe_group(["s0", "s1", "s2",
                                                    "s3"]),
                   LogConfig(client_id=1, fragment_size=FRAGMENT,
                             spare_servers=("s4",)),
                   retry_policy=RetryPolicy(seed=seed), verify_reads=True,
                   health_monitor=monitor)
    return log, monitor


def drive_until_reform(cluster, log, victim, max_rounds=30):
    """Write/flush in small degraded rounds until auto-reform happens."""
    payloads = {}
    block = 0
    for round_no in range(max_rounds):
        for _ in range(3):
            data = bytes([round_no + 1, block % 251]) * 700
            payloads[block] = log.write_block(SVC, data), data
            block += 1
        log.flush().wait(allow_degraded=True)
        if log.reforms:
            return payloads
    raise AssertionError("no automatic reform after %d rounds" % max_rounds)


class TestAutoReform:
    def test_dead_member_replaced_by_spare_under_chaos(self):
        cluster = build_local_cluster(num_servers=5, fragment_size=FRAGMENT,
                                      server_slots=512)
        victim = choose_kill_victims(5, ["s0", "s1", "s2", "s3"])[0]
        plan = FaultPlan(5, FaultSpec(pinned_victim=victim))
        log, monitor = healing_log(cluster, plan=plan)
        injector = FailureInjector(cluster)

        # Healthy prologue, then the crash.
        before = {}
        for block in range(4):
            data = bytes([9, block]) * 800
            before[block] = (log.write_block(SVC, data), data)
        log.flush().wait(allow_degraded=True)
        injector.crash_server(victim)

        racing = drive_until_reform(cluster, log, victim)
        reform = log.reforms[0]
        assert reform["departed"] == victim
        assert reform["replacement"] == "s4"
        assert victim not in log.group.servers
        assert "s4" in log.group.servers
        assert monitor.status(victim) == "dead"

        # Writes after the reform land on the new group only.
        after = {}
        for block in range(100, 106):
            data = bytes([13, block % 251]) * 800
            after[block] = (log.write_block(SVC, data), data)
        log.flush().wait()  # no member is dead now: full success required
        plan.stop()
        for addr, _data in after.values():
            assert log.locations.get(addr.fid) != victim
        assert cluster.servers["s4"].list_fids()  # spare took real data

        # Everything written before, during, and after the reform reads
        # back intact (pre-crash stripes through parity).
        for addr, data in list(before.values()) + list(racing.values()) \
                + list(after.values()):
            assert log.read(addr) == data

    def test_departed_placements_evicted_from_cache(self):
        cluster = build_local_cluster(num_servers=5, fragment_size=FRAGMENT,
                                      server_slots=512)
        log, monitor = healing_log(cluster)
        injector = FailureInjector(cluster)
        for block in range(6):
            log.write_block(SVC, bytes([block + 1]) * 900)
        log.flush().wait()
        held = cluster.servers["s2"].list_fids()
        assert any(log.locations.get(fid) == "s2" for fid in held)
        injector.crash_server("s2")
        drive_until_reform(cluster, log, "s2")
        assert all(log.locations.get(fid) != "s2" for fid in held)

    def test_fids_stay_unique_across_reform(self):
        # The stripe-number rotation carries on over the new group;
        # fid allocation must never collide with pre-reform stripes.
        cluster = build_local_cluster(num_servers=5, fragment_size=FRAGMENT,
                                      server_slots=512)
        log, _monitor = healing_log(cluster)
        injector = FailureInjector(cluster)
        for block in range(6):
            log.write_block(SVC, bytes([block + 1]) * 900)
        log.flush().wait()
        injector.crash_server("s3")
        drive_until_reform(cluster, log, "s3")
        for block in range(50, 58):
            log.write_block(SVC, bytes([block % 251]) * 900)
        log.flush().wait()
        placements = {}
        for sid, server in cluster.servers.items():
            if sid == "s3":
                continue
            for fid in server.list_fids():
                assert fid not in placements, \
                    "fid %d on both %s and %s" % (fid, placements[fid], sid)
                placements[fid] = sid

    def test_no_spare_shrinks_the_group(self):
        cluster = build_local_cluster(num_servers=4, fragment_size=FRAGMENT,
                                      server_slots=512)
        monitor = HealthMonitor(seed=2)
        log = LogLayer(cluster.transport, cluster.stripe_group(),
                       LogConfig(client_id=1, fragment_size=FRAGMENT),
                       retry_policy=RetryPolicy(seed=2),
                       health_monitor=monitor)
        injector = FailureInjector(cluster)
        for block in range(4):
            log.write_block(SVC, bytes([block + 1]) * 900)
        log.flush().wait()
        injector.crash_server("s1")
        drive_until_reform(cluster, log, "s1")
        assert log.group.servers == ("s0", "s2", "s3")
        assert log.reforms[0]["replacement"] is None

    def test_unusable_spare_is_skipped(self):
        cluster = build_local_cluster(num_servers=5, fragment_size=FRAGMENT,
                                      server_slots=512)
        log, monitor = healing_log(cluster)
        injector = FailureInjector(cluster)
        for block in range(4):
            log.write_block(SVC, bytes([block + 1]) * 900)
        log.flush().wait()
        # The spare dies first (by verdict), then a member dies: the
        # reform must not draft a spare that is itself dead.
        injector.crash_server("s4")
        for _ in range(6):
            monitor.observe("s4", ok=False)
        assert monitor.status("s4") == "dead"
        injector.crash_server("s0")
        drive_until_reform(cluster, log, "s0")
        assert log.group.servers == ("s1", "s2", "s3")
        assert log.reforms[0]["replacement"] is None

    def test_manual_reform_still_works_unmonitored(self):
        # The pre-existing escape hatch keeps working without any
        # detector attached.
        cluster = build_local_cluster(num_servers=5, fragment_size=FRAGMENT,
                                      server_slots=512)
        log = cluster.make_log(client_id=1,
                               group=cluster.stripe_group(["s0", "s1", "s2",
                                                           "s3"]))
        for block in range(4):
            log.write_block(SVC, bytes([block + 1]) * 900)
        log.flush().wait()
        log.reform_group(("s0", "s1", "s2", "s4"))
        assert log.reforms == []  # manual path records no verdict
        for block in range(10, 14):
            log.write_block(SVC, bytes([block]) * 900)
        log.flush().wait()
        assert cluster.servers["s4"].list_fids()


    def test_fresh_client_resumes_the_reformed_group(self):
        """A reform survives a client restart: a successor built from
        the *configured* group rolls the view history forward from the
        log instead of striping onto the dead member again."""
        cluster = build_local_cluster(num_servers=5, fragment_size=FRAGMENT,
                                      server_slots=512)
        configured = ("s0", "s1", "s2", "s3")
        stack = cluster.make_stack(1, group=configured)
        disk = stack.push(LogicalDiskService(SVC))
        for block in range(12):
            disk.write(block, bytes([block + 1]) * 900)
        stack.flush().wait()
        cluster.servers["s3"].crash()
        stack.log.reform_group(("s0", "s1", "s2", "s4"))
        for block in range(12, 20):
            disk.write(block, bytes([block + 1]) * 900)
        stack.checkpoint(disk).wait()

        fresh = cluster.make_stack(1, group=configured)
        fresh_disk = fresh.push(LogicalDiskService(SVC))
        fresh.recover_all()
        assert fresh.log.group.servers == ("s0", "s1", "s2", "s4")
        for block in range(20, 32):
            fresh_disk.write(block, bytes([block + 1]) * 900)
        ticket = fresh.flush()
        ticket.wait()
        assert not ticket.failures()
        for block in range(32):
            assert fresh_disk.read(block) == bytes([block + 1]) * 900


class TestMultiFailure:
    """Two simultaneous kills against an m=2 Reed–Solomon group."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_double_kill_self_heals_and_replays(self, seed):
        """The full scenario at victims=2, twice, bit-identical.

        ``run_kill_server`` itself asserts the hard invariants (auto
        reform away from both victims, spares drafted, mid-run reads
        match the oracle, fsck fully healthy with both victims still
        down, fresh-client recovery equals the oracle); this test adds
        the determinism property on top.
        """
        first, second, identical = replay(run_kill_server, seed, victims=2)
        assert first.ok, "seed %d: %s" % (seed, "; ".join(first.problems))
        assert second.ok, "seed %d: %s" % (seed, "; ".join(second.problems))
        assert identical, \
            "seed %d: double-kill run did not replay bit-identically" % seed
        assert first.stats["victims_killed"] == 2
        assert first.stats["fragments_repaired"] > 0

    def test_unrecoverable_double_kill_is_reported_not_raised(self):
        """Two kills against *single* parity cannot be survived; the
        scenario must say so in its report — seed line, fault history
        and wire stats included — instead of escaping with a bare
        ``UnrecoverableError``. Programming errors still propagate."""
        report = run_kill_server(
            101, victims=2,
            log_overrides={"coding": "xor", "parity_fragments": 1})
        assert not report.ok
        assert any("UnrecoverableError" in p for p in report.problems)
        assert report.fault_history
        assert report.stats["retries"] > 0
        assert "seed=101" in report.summary()
        with pytest.raises(ValueError):
            run_kill_server(101, ops=[("write", 1)])

    def test_choose_kill_victims_deterministic_and_distinct(self):
        candidates = ["s3", "s0", "s2", "s1", "s4"]
        picks = choose_kill_victims(9, candidates, 2)
        assert picks == choose_kill_victims(9, list(reversed(candidates)), 2)
        assert len(set(picks)) == 2
        assert all(p in candidates for p in picks)
        # count=1 reproduces the historical single-victim draw.
        assert choose_kill_victims(9, candidates, 1) \
            == [random.Random(9 ^ 0xD1ED).choice(sorted(candidates))]
        with pytest.raises(errors.ConfigError):
            choose_kill_victims(9, candidates, 6)

    def test_double_repair_lands_on_distinct_spares(self):
        """A stripe's two rebuilt members must not share a server.

        Deterministic (no chaos transport): write an m=2 log over
        s0..s4, crash two members, repair with two replacements, then
        check per stripe that the lost pair went to different spares —
        and that fsck is fully healthy with both victims still down.
        """
        cluster = build_local_cluster(num_servers=7, fragment_size=FRAGMENT,
                                      server_slots=512)
        group = cluster.stripe_group(["s0", "s1", "s2", "s3", "s4"])
        log = cluster.make_log(client_id=1, group=group,
                               parity_fragments=2, coding="rs")
        for block in range(30):
            log.write_block(SVC, bytes([(block * 7 + 3) % 256]) * 900)
        log.flush().wait()

        injector = FailureInjector(cluster)
        for victim in ("s1", "s3"):
            injector.crash_server(victim)
            log.locations.evict_server(victim)
        before = check_client_log(cluster.transport, 1)
        doubly_degraded = [f for f in before.by_status("degraded")
                           if len(f.missing) == 2]
        assert doubly_degraded, "no stripe lost members to both victims"
        assert not before.by_status("lost")

        daemon = RepairDaemon(cluster.transport, 1,
                              replacement=["s5", "s6"],
                              locations=log.locations)
        repaired = daemon.run()
        assert repaired > 0
        for finding in doubly_degraded:
            homes = {daemon.locations.get(fid) for fid in finding.missing}
            assert homes <= {"s5", "s6"} and len(homes) == 2, \
                "stripe %d lost pair landed on %r" % (finding.base_fid,
                                                      homes)
        after = check_client_log(cluster.transport, 1)
        assert after.healthy, after.summary()
