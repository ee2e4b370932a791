"""Placement-layer tests: reallocation-free scale-out.

Covers the :mod:`repro.placement` policies themselves (view history,
rotation stability, validation), their integration with the log layer
(grow/shrink mid-stream, view-history persistence and rollforward
recovery), the bounded location cache, the multi-client chaos
scenarios at 64 and 256 servers, and what scale-out costs: the exact
store bill of a view change and flat throughput as the fleet grows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.ablations import ablate_fleet_scaling
from repro.chaos.harness import replay
from repro.chaos.runner import run_chaos, run_kill_server
from repro.cluster.cluster import build_local_cluster
from repro.errors import ConfigError
from repro.log.config import LogConfig
from repro.log.fragment import MAX_STRIPE_WIDTH
from repro.log.layer import LogLayer
from repro.log.location import LocationCache
from repro.log.recovery import recover_service_state
from repro.placement import (
    Placement,
    PlacementView,
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
    """The one :class:`Placement`: a view history keyed by stripe number."""

    def test_grow_moves_no_preexisting_stripe(self):
        """The tentpole property: growing 16 -> 64 servers changes the
        placement of zero stripes written before the view change."""
        fleet = _fleet(64)
        policy = Placement(fleet[:16], stripe_width=8)
        before = [policy.servers_for_stripe(n, 8) for n in range(100)]
        policy.change_view(fleet, first_stripe=100)
        assert policy.view_epoch == 1
        assert policy.group.size == 64
        after = [policy.servers_for_stripe(n, 8) for n in range(100)]
        assert before == after
        # Stripes after the change rotate over the grown view.
        wide = policy.servers_for_stripe(150, 8)
        assert set(wide) - set(fleet[:16])

    def test_view_for_stripe_across_epochs(self):
        fleet = _fleet(32)
        policy = Placement(fleet[:8], stripe_width=4)
        policy.change_view(fleet[:16], first_stripe=10)
        policy.change_view(fleet[2:16], first_stripe=20)
        assert policy.view_for_stripe(5).epoch == 0
        assert policy.view_for_stripe(15).epoch == 1
        assert policy.view_for_stripe(25).epoch == 2
        assert policy.view_for_stripe(10).epoch == 1
        # Epoch-0 placements still resolve after two later epochs.
        assert policy.servers_for_stripe(3, 4) == ("s3", "s4", "s5", "s6")
        assert policy.servers_for_stripe(7, 4) == ("s7", "s0", "s1", "s2")

    def test_rotation_formula(self):
        policy = Placement(_fleet(5))
        assert policy.width == 5 and policy.parity_fragments == 1
        assert policy.servers_for_stripe(0, 5) == ("s0", "s1", "s2", "s3",
                                                   "s4")
        assert policy.servers_for_stripe(3, 5) == ("s3", "s4", "s0", "s1",
                                                   "s2")
        assert policy.servers_for_stripe(9, 2) == ("s4", "s0")
        assert [policy.initial_stripe_number(cid)
                for cid in range(7)] == [0, 1, 2, 3, 4, 0, 1]
        wide = Placement(_fleet(16), stripe_width=8)
        assert wide.servers_for_stripe(99, 8) == (
            "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10")
        # The rotation carries on across a view change: stripe 12 sits
        # at slot 12 % 4 of the new view, not back at slot 0.
        policy.change_view(("s0", "s1", "s2", "s4"), first_stripe=12)
        assert policy.servers_for_stripe(12, 4) == ("s0", "s1", "s2", "s4")
        assert policy.servers_for_stripe(13, 4) == ("s1", "s2", "s4", "s0")

    def test_width_independent_of_fleet_size(self):
        # A 256-server view still stripes at MAX_STRIPE_WIDTH at most.
        policy = Placement(_fleet(256), stripe_width=8)
        assert policy.max_data_fragments() == 7
        assert len(policy.servers_for_stripe(0, 8)) == 8
        # A 17-server view is legal and stripes 16 wide.
        policy = Placement(_fleet(MAX_STRIPE_WIDTH + 1))
        assert policy.width == MAX_STRIPE_WIDTH
        assert len(policy.servers_for_stripe(5, policy.width)) == 16

    def test_width_over_limit_is_clear_error(self):
        with pytest.raises(ConfigError) as err:
            Placement(_fleet(64), stripe_width=MAX_STRIPE_WIDTH + 1)
        assert "independent of the view size" in str(err.value)
        with pytest.raises(ConfigError):
            Placement(_fleet(4), stripe_width=0)

    def test_width_wider_than_view(self):
        # The width narrows to the view, and widens again when it grows.
        policy = Placement(_fleet(4), stripe_width=8)
        assert (policy.width, policy.parity_fragments) == (4, 1)
        assert policy.max_data_fragments() == 3
        policy.change_view(_fleet(16), first_stripe=3)
        assert (policy.width, policy.max_data_fragments()) == (8, 7)

    def test_shrink_narrows_width_to_the_floor(self):
        policy = Placement(_fleet(8), stripe_width=8)
        policy.change_view(_fleet(3), first_stripe=10)
        assert (policy.width, policy.max_data_fragments()) == (3, 2)
        with pytest.raises(ConfigError) as err:
            policy.change_view(("s0",), first_stripe=11)
        assert "below the floor of 2" in str(err.value)
        # The floor keeps the *configured* parity: m = 2 needs 3 servers.
        rs = Placement(_fleet(8), parity_fragments=2)
        assert rs.floor == 3
        with pytest.raises(ConfigError):
            rs.change_view(_fleet(2), first_stripe=1)

    def test_first_stripe_must_not_regress(self):
        policy = Placement(_fleet(16), stripe_width=4)
        policy.change_view(_fleet(16)[:8], first_stripe=10)
        with pytest.raises(ConfigError):
            policy.change_view(_fleet(16), first_stripe=5)

    def test_encode_decode_roundtrip(self):
        fleet = _fleet(64)
        policy = Placement(fleet[:16], stripe_width=8)
        policy.change_view(fleet, first_stripe=7)
        payload = policy.encode_views()
        assert tuple(decode_views(payload)) == policy.views()
        assert (tuple(decode_views(encode_views(policy.views())))
                == policy.views())

    def test_adopt_views_newest_epoch_wins(self):
        fleet = _fleet(16)
        a = Placement(fleet, stripe_width=4)
        b = Placement(fleet, stripe_width=4)
        a.change_view(fleet, first_stripe=0)
        b.change_view(fleet[:8], first_stripe=9)
        assert a.adopt_views(b.views())
        assert a.views() == b.views()
        # Stale history (lower newest epoch) is ignored.
        fresh = Placement(fleet, stripe_width=4)
        assert not b.adopt_views(fresh.views())
        assert b.view_epoch == 1

    def test_plan_reform_prefers_spares(self):
        fleet = _fleet(10)
        policy = Placement(fleet[:8], stripe_width=4,
                           spare_servers=fleet[8:])
        new_servers, replacement, kept = policy.plan_reform("s3")
        assert not kept
        assert replacement == "s8"
        assert new_servers == ("s0", "s1", "s2", "s8", "s4", "s5", "s6",
                               "s7")
        assert policy.spares_remaining() == ["s9"]

    def test_plan_reform_shrinks_without_spares(self):
        policy = Placement(_fleet(6), stripe_width=4)
        new_servers, replacement, kept = policy.plan_reform("s1")
        assert not kept and replacement is None
        assert "s1" not in new_servers and len(new_servers) == 5

    def test_plan_reform_keeps_group_at_width_floor(self):
        # The floor is max(2, m + 1): one data member plus full parity.
        policy = Placement(_fleet(2))
        new_servers, replacement, kept = policy.plan_reform("s0")
        assert kept and new_servers is None and replacement is None
        rs = Placement(_fleet(3), parity_fragments=2)
        assert rs.plan_reform("s1") == (None, None, True)
        # Above the floor the view shrinks and the width narrows with it.
        narrow = Placement(_fleet(4), stripe_width=4)
        assert narrow.plan_reform("s0") == (("s1", "s2", "s3"), None, False)


class TestStaticPlacement:
    """A placement that never changes view is the paper's static layout."""

    def test_bit_identical_to_stripe_layout(self):
        # The static stripe layout, written out: member i of stripe k on
        # servers[(k + i) % size], m clamped to size - 1, the parity
        # members last, and each client's rotation starting at its id.
        for size in range(1, MAX_STRIPE_WIDTH + 1):
            servers = _fleet(size)
            for m in range(4):
                policy = Placement(servers, parity_fragments=m)
                parity = min(m, size - 1)
                assert policy.group.servers == servers
                assert policy.parity_fragments == parity
                assert policy.max_data_fragments() == max(1, size - parity)
                for k in range(2 * size + 3):
                    for width in range(1, size + 1):
                        assert policy.servers_for_stripe(k, width) == tuple(
                            servers[(k + i) % size] for i in range(width))
                for data in range(1, size - parity + 1):
                    width = policy.width_for(data)
                    assert width == data + parity
                    assert width - policy.parity_fragments == data
                for cid in range(7):
                    assert policy.initial_stripe_number(cid) == cid % size


_FLEET = _fleet(40)


@st.composite
def _placement_scripts(draw):
    """A placement's arguments plus up to eight steps, each placing 0-3
    stripes and then trying one view change at the next stripe."""
    parity = draw(st.integers(0, 3))
    size = draw(st.integers(max(2, parity + 1), 20))
    spares = draw(st.lists(st.sampled_from(_FLEET[size:]), unique=True,
                           max_size=3))
    step = st.tuples(st.sampled_from(["grow", "shrink", "reform", "change"]),
                     st.integers(0, 3), st.integers(1, 6),
                     st.randoms(use_true_random=False))
    return (_FLEET[:size], parity, tuple(spares),
            draw(st.integers(1, MAX_STRIPE_WIDTH)), draw(st.integers(0, 9)),
            draw(st.lists(step, max_size=8)))


class TestPlacementProperty:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_placement_scripts())
    def test_view_history_invariants(self, script):
        """After every step: already-placed stripes never move, members
        are distinct, width and parity stay in bounds, no view is below
        the floor, and the encoded history adopted by a fresh placement
        reproduces every placement."""
        servers, parity, spares, stripe_width, client_id, steps = script
        policy = Placement(servers, parity, spares, stripe_width)
        placed = {}
        cursor = policy.initial_stripe_number(client_id)

        def check():
            assert policy.width <= MAX_STRIPE_WIDTH
            assert policy.parity_fragments <= policy.width - 1
            assert all(view.size >= policy.floor for view in policy.views())
            fresh = Placement(servers, parity, spares, stripe_width)
            assert fresh.adopt_views(decode_views(encode_views(
                policy.views())))
            for number, members in placed.items():
                assert len(set(members)) == len(members)
                assert policy.servers_for_stripe(number, len(members)) \
                    == members
                assert fresh.servers_for_stripe(number, len(members)) \
                    == members

        for op, stripes, count, rnd in steps:
            for _ in range(stripes):
                ndata = rnd.randint(1, policy.max_data_fragments())
                placed[cursor] = policy.servers_for_stripe(
                    cursor, policy.width_for(ndata))
                cursor += 1
            current = policy.group.servers
            if op == "grow":
                extra = [sid for sid in _FLEET if sid not in current]
                target = current + tuple(extra[:count])
            elif op == "shrink":
                target = current[:max(1, len(current) - count)]
            elif op == "change":
                target = tuple(rnd.sample(_FLEET, count + 1))
            else:
                target, _spare, kept = policy.plan_reform(
                    current[count % len(current)])
                if kept:
                    assert len(current) - 1 < policy.floor
                    check()
                    continue
            if len(target) < policy.floor:
                with pytest.raises(ConfigError):
                    policy.change_view(target, first_stripe=cursor)
            else:
                policy.change_view(target, first_stripe=cursor)
            check()


# ---------------------------------------------------------------------------
# Location cache
# ---------------------------------------------------------------------------


class TestLocationCacheLRU:
    def test_unbounded_by_default(self):
        cache = LocationCache(transport=None)
        for fid in range(100):
            cache.record(fid, "s")
        assert len(cache) == 100 and cache.evictions == 0

    def test_stats_keys(self):
        cache = LocationCache(transport=None)
        assert sorted(cache.stats()) == ["broadcasts", "entries",
                                         "evictions", "hits", "misses"]

    def test_counter_reaches_health_report(self):
        cluster = build_local_cluster(num_servers=4, fragment_size=4096)
        log = cluster.make_log(1)
        stack = ServiceStack(log)
        disk = stack.push(LogicalDiskService(SERVICE_DISK))
        for block in range(24):
            disk.write(block, b"x" * 900)
        stack.flush().wait()
        locations = log.health_report()["log"]["locations"]
        assert locations == log.locations.stats()
        assert locations["entries"] == len(log.locations) > 0


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
    def _stack(self, cluster, view, stripe_width=4, **overrides):
        group = cluster.make_placement(stripe_width=stripe_width,
                                       view_servers=view)
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

    def test_shrink_narrows_width_through_layer(self):
        cluster = build_local_cluster(num_servers=8, fragment_size=4096)
        fleet = cluster.fleet()
        log, stack, disk = self._stack(cluster, fleet, stripe_width=8)
        _write_blocks(disk, 0, 12)
        stack.flush().wait()
        held = {sid: len(cluster.servers[sid].list_fids())
                for sid in fleet[:5]}
        log.shrink_fleet(fleet[:5])
        assert (log.placement.width, log.placement.parity_fragments) == (3, 1)
        _write_blocks(disk, 12, 12)
        stack.flush().wait()
        # The five removed servers take no new fragment.
        assert all(len(cluster.servers[sid].list_fids()) == count
                   for sid, count in held.items())
        _check_blocks(disk, 0, 24)
        with pytest.raises(ConfigError):
            log.shrink_fleet(fleet[5:7])

    def test_shrink_below_the_open_stripe_defers_the_view(self):
        """A view too narrow for the data members already buffered in
        the open stripe starts one stripe later: the open stripe closes
        under the view it was filled for, and nothing buffered is lost."""
        cluster = build_local_cluster(num_servers=8, fragment_size=4096)
        fleet = cluster.fleet()
        log, stack, disk = self._stack(cluster, fleet, stripe_width=8)
        _write_blocks(disk, 0, 24)
        assert log.stripes_written == 0
        open_stripe = log.next_stripe_number
        log.shrink_fleet(fleet[:5])
        assert log.placement.group.first_stripe == open_stripe + 1
        assert log.placement.max_data_fragments() == 2
        log.grow_fleet(fleet[3:5])           # joins the pending view
        assert [view.first_stripe for view in log.placement.views()] \
            == [0, open_stripe + 1]
        ticket = stack.flush()
        ticket.wait()
        assert not ticket.failures()
        _write_blocks(disk, 24, 12)
        stack.flush().wait()
        _check_blocks(disk, 0, 36)

    def test_reform_below_the_open_stripe_stays_recoverable(self):
        """Reforming away from a dead member while the open stripe holds
        a full complement of data members: that stripe closes degraded
        on the old view (parity covers the lost member) and every later
        stripe avoids the dead server."""
        cluster = build_local_cluster(num_servers=4, fragment_size=4096)
        log = cluster.make_log(1)
        stack = ServiceStack(log)
        disk = stack.push(LogicalDiskService(SERVICE_DISK))
        _write_blocks(disk, 0, 10)           # three data fragments
        assert log.stripes_written == 0
        cluster.servers["s3"].crash()
        log.reform_group(("s0", "s1", "s2"))
        ticket = stack.flush()
        ticket.wait(allow_degraded=True)
        assert len(ticket.failures()) == 1
        _write_blocks(disk, 10, 12)
        ticket = stack.flush()
        ticket.wait()
        assert not ticket.failures()
        _check_blocks(disk, 0, 22)

    def test_spares_named_in_one_place(self):
        cluster = build_local_cluster(num_servers=5, fragment_size=4096)
        with pytest.raises(ConfigError):
            cluster.make_log(1, group=Placement(_fleet(4),
                                                spare_servers=("s4",)),
                             spare_servers=("s3",))
        log = cluster.make_log(1, group=Placement(_fleet(4),
                                                  spare_servers=("s4",)),
                               spare_servers=("s4",))
        assert log.placement.spare_servers == ("s4",)

    def test_parity_change_mid_stripe_reencodes(self):
        """Growing a view below the parity floor raises the parity count
        mid-stripe: the open stripe is encoded whole at close with the
        new count, so it carries every parity member it declares."""
        cluster = build_local_cluster(num_servers=3, fragment_size=4096)
        log = cluster.make_log(1, group=("s0", "s1"), parity_fragments=2,
                               coding="rs")
        assert log.placement.parity_fragments == 1
        addr = log.write_block(1, b"\x01" * 700)
        log.grow_fleet(("s2",))
        assert log.placement.parity_fragments == 2
        ticket = log.flush()
        ticket.wait()
        assert ticket.fragment_count == 3
        assert log.read(addr) == b"\x01" * 700

    def test_history_written_iff_epoch_positive(self):
        """A log whose view never changed carries no view history, so
        its bytes are what a plain stripe group always wrote; the first
        change starts persisting it, next to every later checkpoint."""
        cluster = build_local_cluster(num_servers=6, fragment_size=4096)
        fleet = cluster.fleet()
        log, stack, disk = self._stack(cluster, fleet[:4])
        _write_blocks(disk, 0, 6)
        stack.checkpoint(disk).wait()
        assert log.placement.view_epoch == 0
        recovered = recover_service_state(cluster.transport, 1, SERVICE_DISK)
        assert recovered.view_payload is None
        log.grow_fleet(fleet[4:])
        _write_blocks(disk, 6, 6)
        stack.checkpoint(disk).wait()
        recovered = recover_service_state(cluster.transport, 1, SERVICE_DISK)
        assert tuple(decode_views(recovered.view_payload)) \
            == log.placement.views()

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
        assert log.placement.views() == (PlacementView(0, 0, cluster.fleet()),)
        assert (log.placement.width, log.placement.parity_fragments) == (4, 1)

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
        # The view payload for 256 servers needs roomier fragments.
        first, second, identical = replay(
            run_kill_server, 202, num_servers=256, num_clients=4,
            fragment_size=1 << 14)
        assert first.ok, first.problems
        assert identical
        assert first.stats["victims_killed"] == 1

    def test_single_client_static_digest_unchanged(self):
        # The multi-client refactor must not perturb single-client
        # runs: same seed, same digest as a direct replay.
        first, second, identical = replay(run_chaos, 7)
        assert first.ok and identical
        assert first.stats["clients"] == 1
