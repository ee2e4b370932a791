"""Placement-layer tests: reallocation-free scale-out.

Covers the :mod:`repro.placement` policies themselves (view history,
rotation stability, validation), their integration with the log layer
(grow/shrink mid-stream, view-history persistence and rollforward
recovery), the bounded location cache, the multi-client chaos
scenarios at 64 and 256 servers, and what scale-out costs: the exact
store bill of a view change and flat throughput as the fleet grows.
"""

import pytest

from repro.bench.ablations import ablate_fleet_scaling
from repro.chaos.harness import replay
from repro.chaos.runner import run_chaos, run_kill_server
from repro.cluster.cluster import build_local_cluster
from repro.errors import ConfigError
from repro.log.config import LogConfig
from repro.log.fragment import MAX_STRIPE_WIDTH
from repro.log.layer import LogLayer
from repro.log.location import LocationCache
from repro.log.stripe import StripeGroup, StripeLayout
from repro.placement import (
    SequentialCheckingPlacement,
    StaticPlacement,
    decode_views,
    encode_views,
)
from repro.services.logical_disk import LogicalDiskService
from repro.services.stack import ServiceStack

SERVICE_DISK = 17


def _fleet(n):
    return tuple("s%d" % i for i in range(n))


# ---------------------------------------------------------------------------
# Policy geometry and view history
# ---------------------------------------------------------------------------


class TestSequentialPolicy:
    def test_grow_moves_no_preexisting_stripe(self):
        """The tentpole property: growing 16 -> 64 servers changes the
        placement of zero stripes written before the view change."""
        fleet = _fleet(64)
        policy = SequentialCheckingPlacement(fleet, stripe_width=8,
                                             view_servers=fleet[:16])
        before = [policy.servers_for_stripe(n, 8) for n in range(100)]
        policy.grow(fleet[16:], first_stripe=100)
        assert policy.view_epoch == 1
        assert len(policy.current_servers()) == 64
        after = [policy.servers_for_stripe(n, 8) for n in range(100)]
        assert before == after
        # Stripes after the change rotate over the grown view.
        wide = policy.servers_for_stripe(150, 8)
        assert set(wide) - set(fleet[:16])

    def test_view_for_stripe_across_epochs(self):
        fleet = _fleet(32)
        policy = SequentialCheckingPlacement(fleet, stripe_width=4,
                                             view_servers=fleet[:8])
        policy.grow(fleet[8:16], first_stripe=10)
        policy.shrink(fleet[:2], first_stripe=20)
        assert policy.view_for_stripe(5).epoch == 0
        assert policy.view_for_stripe(15).epoch == 1
        assert policy.view_for_stripe(25).epoch == 2
        assert policy.view_for_stripe(10).epoch == 1
        # Epoch-0 placements still resolve after two later epochs.
        assert (policy.servers_for_stripe(3, 4)
                == tuple(fleet[(3 + i) % 8] for i in range(4)))

    def test_rotation_formula(self):
        fleet = _fleet(16)
        policy = SequentialCheckingPlacement(fleet, stripe_width=8)
        for n in (0, 5, 15, 99):
            assert (policy.servers_for_stripe(n, 8)
                    == tuple(fleet[(n + i) % 16] for i in range(8)))

    def test_width_independent_of_fleet_size(self):
        # A 256-server fleet still stripes at MAX_STRIPE_WIDTH at most.
        policy = SequentialCheckingPlacement(_fleet(256), stripe_width=8)
        assert policy.max_data_fragments() == 7
        assert len(policy.servers_for_stripe(0, 8)) == 8

    def test_width_over_limit_is_clear_error(self):
        with pytest.raises(ConfigError) as err:
            SequentialCheckingPlacement(_fleet(64),
                                        stripe_width=MAX_STRIPE_WIDTH + 1)
        assert "independent of the fleet size" in str(err.value)

    def test_group_over_limit_points_at_placement(self):
        with pytest.raises(ConfigError) as err:
            StripeGroup(_fleet(MAX_STRIPE_WIDTH + 1))
        assert "SequentialCheckingPlacement" in str(err.value)

    def test_width_wider_than_view(self):
        with pytest.raises(ConfigError):
            SequentialCheckingPlacement(_fleet(16), stripe_width=8,
                                        view_servers=_fleet(4))

    def test_shrink_below_width_refused(self):
        policy = SequentialCheckingPlacement(_fleet(8), stripe_width=8)
        with pytest.raises(ConfigError) as err:
            policy.shrink(("s0",), first_stripe=10)
        assert "shrink below the stripe width" in str(err.value)

    def test_first_stripe_must_not_regress(self):
        policy = SequentialCheckingPlacement(_fleet(16), stripe_width=4)
        policy.grow((), first_stripe=10)  # no-op grow, no new epoch
        policy.change_view(_fleet(16)[:8], first_stripe=10)
        with pytest.raises(ConfigError):
            policy.change_view(_fleet(16), first_stripe=5)

    def test_encode_decode_roundtrip(self):
        fleet = _fleet(64)
        policy = SequentialCheckingPlacement(fleet, stripe_width=8,
                                             view_servers=fleet[:16])
        policy.grow(fleet[16:], first_stripe=7)
        payload = policy.encode_views()
        assert tuple(decode_views(payload)) == policy.views()
        assert (tuple(decode_views(encode_views(policy.views())))
                == policy.views())

    def test_adopt_views_newest_epoch_wins(self):
        fleet = _fleet(16)
        a = SequentialCheckingPlacement(fleet, stripe_width=4)
        b = SequentialCheckingPlacement(fleet, stripe_width=4)
        a.grow((), first_stripe=0)
        b.change_view(fleet[:8], first_stripe=9)
        assert a.adopt_views(b.views())
        assert a.views() == b.views()
        # Stale history (lower newest epoch) is ignored.
        fresh = SequentialCheckingPlacement(fleet, stripe_width=4)
        assert not b.adopt_views(fresh.views())
        assert b.view_epoch == 1

    def test_plan_reform_prefers_spares(self):
        fleet = _fleet(10)
        policy = SequentialCheckingPlacement(
            fleet, stripe_width=4, spare_servers=fleet[8:],
            view_servers=fleet[:8])
        new_servers, replacement, kept = policy.plan_reform("s3")
        assert not kept
        assert replacement == "s8"
        assert "s3" not in new_servers
        assert "s8" in new_servers

    def test_plan_reform_shrinks_without_spares(self):
        fleet = _fleet(6)
        policy = SequentialCheckingPlacement(fleet, stripe_width=4)
        new_servers, replacement, kept = policy.plan_reform("s1")
        assert not kept and replacement is None
        assert "s1" not in new_servers and len(new_servers) == 5

    def test_plan_reform_keeps_group_at_width_floor(self):
        policy = SequentialCheckingPlacement(_fleet(4), stripe_width=4)
        new_servers, replacement, kept = policy.plan_reform("s0")
        assert kept and new_servers is None and replacement is None


class TestStaticPlacement:
    def test_bit_identical_to_stripe_layout(self):
        group = StripeGroup(_fleet(5))
        layout = StripeLayout(group, parity_fragments=1)
        policy = StaticPlacement(group, parity_fragments=1)
        assert policy.group.servers == group.servers
        for n in range(12):
            for width in range(2, 6):
                assert (policy.servers_for_stripe(n, width)
                        == layout.servers_for_stripe(n, width))
                assert policy.parity_index(width) == layout.parity_index(width)
        assert policy.max_data_fragments() == layout.max_data_fragments()
        for cid in range(7):
            assert policy.initial_stripe_number(cid) == cid % 5

    def test_no_view_persistence(self):
        policy = StaticPlacement(StripeGroup(_fleet(4)))
        assert not policy.persist_views
        assert policy.resets_rotation


# ---------------------------------------------------------------------------
# Bounded location cache
# ---------------------------------------------------------------------------


class TestLocationCacheLRU:
    def test_bound_and_eviction_order(self):
        cache = LocationCache(transport=None, max_entries=4)
        for fid in range(6):
            cache.record(fid, "s%d" % fid)
        assert len(cache) == 4
        assert cache.lru_evictions == 2
        assert cache.get(0) is None and cache.get(1) is None
        assert cache.get(5) == "s5"

    def test_get_refreshes_recency(self):
        cache = LocationCache(transport=None, max_entries=2)
        cache.record(1, "a")
        cache.record(2, "b")
        assert cache.get(1) == "a"   # 1 becomes most recent
        cache.record(3, "c")          # evicts 2, not 1
        assert cache.get(2) is None
        assert cache.get(1) == "a"

    def test_unbounded_by_default(self):
        cache = LocationCache(transport=None)
        for fid in range(100):
            cache.record(fid, "s")
        assert len(cache) == 100 and cache.lru_evictions == 0

    def test_stats_keys(self):
        cache = LocationCache(transport=None, max_entries=8)
        stats = cache.stats()
        for key in ("entries", "max_entries", "hits", "misses",
                    "broadcasts", "evictions", "lru_evictions"):
            assert key in stats

    def test_counter_reaches_health_report(self):
        cluster = build_local_cluster(num_servers=4, fragment_size=4096)
        log = cluster.make_log(1, location_cache_entries=3)
        stack = ServiceStack(log)
        disk = stack.push(LogicalDiskService(SERVICE_DISK))
        for block in range(24):
            disk.write(block, b"x" * 900)
        stack.flush().wait()
        locations = log.health_report()["log"]["locations"]
        assert locations["max_entries"] == 3
        assert locations["entries"] <= 3
        assert locations["lru_evictions"] > 0


# ---------------------------------------------------------------------------
# Log-layer integration: grow/shrink mid-stream, recovery rollforward
# ---------------------------------------------------------------------------


def _write_blocks(disk, start, count, size=700):
    for block in range(start, start + count):
        disk.write(block, bytes([block % 251]) * size)


def _check_blocks(disk, start, count, size=700):
    for block in range(start, start + count):
        assert disk.read(block) == bytes([block % 251]) * size


class TestLogLayerScaleOut:
    def _stack(self, cluster, view, **overrides):
        group = cluster.make_placement(stripe_width=4, view_servers=view)
        log = cluster.make_log(1, group=group, **overrides)
        stack = ServiceStack(log)
        disk = stack.push(LogicalDiskService(SERVICE_DISK))
        return log, stack, disk

    def test_grow_mid_stream_zero_movement(self):
        cluster = build_local_cluster(num_servers=64, fragment_size=4096)
        fleet = cluster.fleet()
        log, stack, disk = self._stack(cluster, fleet[:16])
        _write_blocks(disk, 0, 10)
        stack.flush().wait()
        grown_at = log.next_stripe_number
        assert grown_at > 0
        placed_before = [log.placement.servers_for_stripe(n, 4)
                         for n in range(grown_at)]
        log.grow_fleet(fleet[16:])
        assert log.placement.view_epoch == 1
        _write_blocks(disk, 10, 10)
        stack.flush().wait()
        # Zero movement: every pre-grow stripe resolves identically.
        assert placed_before == [log.placement.servers_for_stripe(n, 4)
                                 for n in range(grown_at)]
        _check_blocks(disk, 0, 20)

    def test_grow_with_write_behind_inflight(self):
        """View bump while the write-behind window holds unflushed
        stripes: in-flight stripes keep their epoch-0 placement."""
        cluster = build_local_cluster(num_servers=32, fragment_size=4096)
        fleet = cluster.fleet()
        log, stack, disk = self._stack(cluster, fleet[:8],
                                       max_inflight_stripes=4,
                                       group_commit_bytes=0)
        # No flush: stripes seal and dispatch as fragments fill.
        _write_blocks(disk, 0, 12)
        assert log.next_stripe_number > 0
        log.grow_fleet(fleet[8:])
        _write_blocks(disk, 12, 12)
        stack.flush().wait()
        _check_blocks(disk, 0, 24)
        views = log.placement.views()
        assert len(views) == 2
        assert views[1].first_stripe > 0

    def test_shrink_keeps_old_stripes_readable(self):
        cluster = build_local_cluster(num_servers=16, fragment_size=4096)
        fleet = cluster.fleet()
        log, stack, disk = self._stack(cluster, fleet)
        _write_blocks(disk, 0, 10)
        stack.flush().wait()
        log.shrink_fleet(fleet[:4])
        assert log.placement.view_epoch == 1
        assert len(log.group.servers) == 12
        _write_blocks(disk, 10, 6)
        stack.flush().wait()
        # Blocks striped onto the removed (still alive) servers remain
        # readable through the view history.
        _check_blocks(disk, 0, 16)

    def test_shrink_below_width_refused_through_layer(self):
        cluster = build_local_cluster(num_servers=8, fragment_size=4096)
        fleet = cluster.fleet()
        group = cluster.make_placement(stripe_width=8)
        log = cluster.make_log(1, group=group)
        with pytest.raises(ConfigError):
            log.shrink_fleet(fleet[:4])

    def test_recovery_rolls_view_history_forward(self):
        """A stripe written under epoch 0 is read by a fresh client
        after two subsequent epochs: the view history must come back
        from the log (checkpoint + rollforward), not from luck."""
        cluster = build_local_cluster(num_servers=64, fragment_size=4096)
        fleet = cluster.fleet()
        log, stack, disk = self._stack(cluster, fleet[:8])
        _write_blocks(disk, 0, 8)
        stack.flush().wait()
        log.grow_fleet(fleet[8:32])          # epoch 1
        _write_blocks(disk, 8, 8)
        stack.flush().wait()
        log.grow_fleet(fleet[32:])           # epoch 2
        _write_blocks(disk, 16, 8)
        stack.checkpoint(disk).wait()
        assert log.placement.view_epoch == 2

        fresh_group = cluster.make_placement(stripe_width=4,
                                             view_servers=fleet[:8])
        fresh_log = cluster.make_log(1, group=fresh_group)
        fresh_stack = ServiceStack(fresh_log)
        fresh_disk = fresh_stack.push(LogicalDiskService(SERVICE_DISK))
        fresh_stack.recover_all()
        assert fresh_log.placement.view_epoch == 2
        assert fresh_log.placement.views() == log.placement.views()
        _check_blocks(fresh_disk, 0, 24)
        # And the recovered client keeps appending under the new view.
        _write_blocks(fresh_disk, 24, 4)
        fresh_stack.flush().wait()
        _check_blocks(fresh_disk, 24, 4)

    def test_static_default_unchanged_for_small_fleets(self):
        cluster = build_local_cluster(num_servers=4, fragment_size=4096)
        log = cluster.make_log(1)
        assert log.placement.kind == "static"
        assert log.group.servers == tuple(cluster.fleet())

    def test_view_change_bill_is_one_metadata_stripe(self):
        """Growing 16 -> 64 after a fixed workload costs exactly the
        VIEW_CHANGE record's own stripe — nothing already written moves,
        so this is the whole data-movement bill."""
        cluster = build_local_cluster(num_servers=64, fragment_size=1 << 14,
                                      server_slots=2048)
        fleet = cluster.fleet()
        group = cluster.make_placement(stripe_width=8,
                                       view_servers=fleet[:16])
        log = cluster.make_log(client_id=1, group=group)
        payload = b"\x9c" * 1024
        for _ in range(96):
            log.write_block(1, payload)
        log.flush().wait()

        def store_bill():
            servers = cluster.servers.values()
            return (sum(server.store_ops for server in servers),
                    sum(server.bytes_stored for server in servers))

        rpcs_before, bytes_before = store_bill()
        log.grow_fleet(fleet[16:])
        log.flush().wait()
        rpcs, stored = store_bill()
        assert (rpcs - rpcs_before, stored - bytes_before) == (2, 2156)


# ---------------------------------------------------------------------------
# Acceptance: a bigger fleet costs no throughput, clients overlap
# ---------------------------------------------------------------------------


class TestFleetScalingBound:
    @pytest.fixture(scope="class")
    def scaling(self):
        return ablate_fleet_scaling(blocks=250)

    @pytest.mark.parametrize("servers", [64, 256])
    def test_throughput_holds_as_the_fleet_grows(self, scaling, servers):
        efficiency = scaling["servers=%d" % servers] / scaling["servers=16"]
        assert efficiency >= 0.95, (
            "4 clients striping width-8 over %d servers reach %.3f of "
            "their 16-server throughput" % (servers, efficiency))

    def test_concurrent_clients_beat_serial_rounds(self, scaling):
        assert scaling["client_overlap_ratio"] < 1.0


# ---------------------------------------------------------------------------
# Chaos at scale: multi-client, big fleets, replay determinism
# ---------------------------------------------------------------------------


class TestChaosAtScale:
    def test_two_client_replay_determinism(self):
        first, second, identical = replay(run_chaos, 31, num_clients=2)
        assert first.ok, first.problems
        assert identical

    def test_kill_server_64_sequential(self):
        report = run_kill_server(101, num_servers=64, num_clients=2)
        assert report.ok, report.problems
        assert report.stats["clients"] == 2
        assert report.stats["fragments_repaired"] > 0

    def test_kill_server_256_four_clients_replays(self):
        # The view payload for 256 servers needs roomier fragments; the
        # bounded location cache keeps per-client memory flat.
        first, second, identical = replay(
            run_kill_server, 202, num_servers=256, num_clients=4, fragment_size=1 << 14,
            log_overrides={"location_cache_entries": 512})
        assert first.ok, first.problems
        assert identical
        assert first.stats["victims_killed"] == 1

    def test_single_client_static_digest_unchanged(self):
        # The multi-client refactor must not perturb single-client
        # runs: same seed, same digest as a direct replay.
        first, second, identical = replay(run_chaos, 7)
        assert first.ok and identical
        assert first.stats["clients"] == 1
