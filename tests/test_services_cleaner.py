"""Tests for the log cleaner."""

from repro import errors
from repro.rpc import messages as m
from repro.rpc.completion import CompletedFuture
from repro.services.cleaner import CleanerService
from repro.services.logical_disk import LogicalDiskService


def churn_stack(cluster, rounds=6, files=40, threshold=0.6, **log_overrides):
    """Overwrite the same blocks repeatedly so early stripes die.

    Sized to span several stripes before the first checkpoint, so the
    cleaner has genuinely old, mostly-dead stripes to work with.
    Extra keyword arguments (``parity_fragments``, ``coding``, ...)
    configure the underlying log.
    """
    stack = cluster.make_stack(client_id=1, **log_overrides)
    cleaner = stack.push(CleanerService(1, utilization_threshold=threshold))
    disk = stack.push(LogicalDiskService(2))
    contents = {}
    for round_no in range(rounds):
        for block in range(files):
            data = bytes([round_no * 17 + block % 7]) * (2000 + 41 * block)
            disk.write(block, data)
            contents[block] = data
    return stack, cleaner, disk, contents


def used_slots(cluster):
    return sum(len(server.slots) for server in cluster.servers.values())


class TestAccounting:
    def test_utilization_drops_with_overwrites(self, cluster4):
        stack, cleaner, disk, _contents = churn_stack(cluster4)
        stack.flush().wait()
        # Early fragments must be mostly dead by now.
        fids = sorted(cleaner._total)
        early = fids[0]
        assert cleaner._live[early] / cleaner._total[early] < 0.5

    def test_no_cleaning_without_checkpoints(self, cluster4):
        stack, cleaner, disk, _contents = churn_stack(cluster4)
        stack.flush().wait()
        assert cleaner.candidate_stripes() == []

    def test_candidates_sorted_by_utilization(self, cluster4):
        stack, cleaner, disk, _contents = churn_stack(cluster4)
        stack.checkpoint_all()
        candidates = cleaner.candidate_stripes()
        assert candidates
        utils = [c.utilization for c in candidates]
        assert utils == sorted(utils)


class TestCleaning:
    def test_cleaning_reclaims_slots_and_preserves_data(self, cluster4):
        stack, cleaner, disk, contents = churn_stack(cluster4)
        stack.checkpoint_all()
        before = used_slots(cluster4)
        moved = cleaner.clean(target_stripes=100)
        after = used_slots(cluster4)
        assert cleaner.stripes_cleaned > 0
        assert after < before
        for block, data in contents.items():
            assert disk.read(block) == data

    def test_fence_accepts_a_store_left_unresolved(self, cluster4,
                                                   monkeypatch):
        """A fence store whose outcome the retry layer could not resolve
        (``FragmentExistsError`` after a lost reply) leaves its stripe
        recoverable through parity: the clean completes and every block
        reads back."""
        stack, cleaner, disk, contents = churn_stack(cluster4, rounds=2,
                                                     threshold=0.95)
        stack.checkpoint_all()
        transport = stack.log.transport
        real_submit_many = transport.submit_many
        unresolved = []

        def first_store_unresolved(plan):
            plan = list(plan)
            index = next((i for i, (_sid, request) in enumerate(plan)
                          if isinstance(request, m.StoreRequest)), None)
            if unresolved or index is None:
                return real_submit_many(plan)
            fid = plan[index][1].fid
            unresolved.append(fid)
            futures = list(real_submit_many(plan[:index] + plan[index + 1:]))
            futures.insert(index, CompletedFuture(exception=(
                errors.FragmentExistsError("fragment %d already stored"
                                           % fid))))
            return futures

        monkeypatch.setattr(transport, "submit_many", first_store_unresolved)
        assert cleaner.clean(target_stripes=100) > 0
        assert unresolved and cleaner.stripes_cleaned > 0
        monkeypatch.undo()
        for block, data in contents.items():
            assert disk.read(block) == data

    def test_owners_notified_of_moves(self, cluster4):
        stack, cleaner, disk, contents = churn_stack(cluster4)
        stack.checkpoint_all()
        old_map = dict(disk._map)
        moved = cleaner.clean(target_stripes=100)
        if moved:
            assert disk._map != old_map  # pointers were updated

    def test_cleaned_data_survives_client_crash(self, cluster4):
        stack, cleaner, disk, contents = churn_stack(cluster4)
        stack.checkpoint_all()
        cleaner.clean(target_stripes=100)
        stack.checkpoint_all()  # persist post-move metadata

        stack2 = cluster4.make_stack(client_id=1)
        stack2.push(CleanerService(1))
        disk2 = stack2.push(LogicalDiskService(2))
        stack2.recover_all()
        for block, data in contents.items():
            assert disk2.read(block) == data

    def test_moves_replayed_without_final_checkpoint(self, cluster4):
        """Crash right after cleaning: the relocated blocks' CREATE
        records replay and repoint the owners' metadata."""
        stack, cleaner, disk, contents = churn_stack(cluster4)
        stack.checkpoint_all()
        cleaner.clean(target_stripes=100)
        stack.flush().wait()   # moves durable, but no new checkpoint

        stack2 = cluster4.make_stack(client_id=1)
        stack2.push(CleanerService(1))
        disk2 = stack2.push(LogicalDiskService(2))
        stack2.recover_all()
        for block, data in contents.items():
            assert disk2.read(block) == data

    def test_never_cleans_stripes_newer_than_oldest_checkpoint(self, cluster4):
        stack, cleaner, disk, _contents = churn_stack(cluster4)
        stack.checkpoint_all()
        min_ckpt = min(lsn for _addr, lsn in
                       stack.log.checkpoint_table.values())
        for candidate in cleaner.candidate_stripes():
            assert candidate.max_lsn < min_ckpt

    def test_demand_checkpoints_unblocks_cleaning(self, cluster4):
        stack, cleaner, disk, contents = churn_stack(cluster4)
        stack.flush().wait()
        # No checkpoints yet -> clean() must demand them, then proceed.
        assert cleaner.candidate_stripes() == []
        moved = cleaner.clean(target_stripes=50)
        assert cleaner.stripes_cleaned > 0
        for block, data in contents.items():
            assert disk.read(block) == data

    def test_cleaner_state_recovers_by_rollforward(self, cluster4):
        stack, cleaner, disk, _contents = churn_stack(cluster4)
        stack.checkpoint_all()
        live_before = dict(cleaner._live)

        stack2 = cluster4.make_stack(client_id=1)
        cleaner2 = stack2.push(CleanerService(1))
        stack2.push(LogicalDiskService(2))
        stack2.recover_all()
        # Utilization estimates must agree for the fragments both saw.
        for fid, live in live_before.items():
            assert cleaner2._live.get(fid, 0) == live

    def test_cleaning_idempotent_when_nothing_dead(self, cluster2):
        stack = cluster2.make_stack(client_id=1)
        cleaner = stack.push(CleanerService(1, utilization_threshold=0.5))
        disk = stack.push(LogicalDiskService(2))
        for block in range(10):
            disk.write(block, bytes([block]) * 2000)  # no overwrites
        stack.checkpoint_all()
        cleaner.clean(target_stripes=10)
        for block in range(10):
            assert disk.read(block) == bytes([block]) * 2000


class TestSpilledCreationRecords:
    def test_clean_block_whose_record_spilled(self, cluster4):
        """Regression: a near-fragment-sized block forces its CREATE
        record into the next fragment; cleaning must still repoint the
        owner via the lookahead path."""
        stack = cluster4.make_stack(client_id=1)
        cleaner = stack.push(CleanerService(1, utilization_threshold=0.99))
        disk = stack.push(LogicalDiskService(2))
        big = disk.stack.log.max_block_size()
        # Live near-max block (record spills), plus dead churn around it.
        disk.write(0, b"K" * big)
        for round_no in range(3):
            for block in range(1, 25):
                disk.write(block, bytes([round_no]) * 3000)
        survivors = {0: b"K" * big}
        survivors.update({block: bytes([2]) * 3000
                          for block in range(1, 25)})
        stack.checkpoint_all()
        cleaner.clean(target_stripes=100)
        for block, data in survivors.items():
            assert disk.read(block) == data, block

    def test_small_blocks_colocate_with_records(self, cluster4):
        """Normal-sized blocks land in the same fragment as their
        CREATE record (the cleaner's fast path)."""
        from repro.log.fragment import Fragment
        from repro.log.records import RecordType, SERVICE_LOG_LAYER

        log = cluster4.make_log(client_id=1)
        for index in range(40):
            log.write_block(9, bytes([index]) * 2500)
        log.flush().wait()
        for server in cluster4.servers.values():
            for fid in server.list_fids():
                fragment = Fragment.decode(server.retrieve(fid))
                if fragment.header.is_parity:
                    continue
                blocks = set()
                covered = set()
                for item in fragment.items():
                    if item.record is None:
                        blocks.add(item.data_offset)
                    elif (item.record.service_id == SERVICE_LOG_LAYER
                          and item.record.rtype == RecordType.CREATE):
                        from repro.log.records import (
                            decode_record_payload_block,
                        )

                        addr, _o, _i = decode_record_payload_block(
                            item.record.payload)
                        if addr.fid == fid:
                            covered.add(addr.offset)
                assert blocks <= covered


class TestParityLayouts:
    """Cleaning must not bake in the one-parity-member assumption.

    Regression tests for the coding-engine refactor: the cleaner's
    stripe accounting and whole-stripe deletes have to be driven by
    the header's ``parity_index`` (first of ``m`` parity members, or
    none at all), not by a hardwired ``width - 1``.
    """

    def _assert_stripes_fully_reclaimed(self, cluster, cleaner):
        """Every cleaned stripe's members — parity included — are gone."""
        held = {fid for server in cluster.servers.values()
                for fid in server.list_fids()}
        cleaned = cleaner.stripes_cleaned
        assert cleaned > 0
        # _forget_stripe dropped the cleaned bases from tracking, so
        # recompute the doomed set from what deletion left behind: no
        # fid below the lowest surviving tracked fid may linger.
        if cleaner._total:
            floor = min(cleaner._total)
            assert not [fid for fid in held if fid < floor]

    def test_cleaning_m2_rs_layout(self):
        from repro.cluster import build_local_cluster

        cluster = build_local_cluster(num_servers=5,
                                      fragment_size=1 << 16,
                                      server_slots=512)
        stack, cleaner, disk, contents = churn_stack(
            cluster, parity_fragments=2, coding="rs")
        stack.checkpoint_all()
        before = used_slots(cluster)
        cleaner.clean(target_stripes=100)
        assert cleaner.stripes_cleaned > 0
        assert used_slots(cluster) < before
        for block, data in contents.items():
            assert disk.read(block) == data
        self._assert_stripes_fully_reclaimed(cluster, cleaner)

    def test_cleaning_m0_layout(self):
        """No parity at all: stripes still clean, and deleting a
        stripe removes exactly its data members (there is nothing
        else)."""
        from repro.cluster import build_local_cluster

        cluster = build_local_cluster(num_servers=4,
                                      fragment_size=1 << 16,
                                      server_slots=512)
        stack, cleaner, disk, contents = churn_stack(
            cluster, parity_fragments=0)
        stack.checkpoint_all()
        before = used_slots(cluster)
        cleaner.clean(target_stripes=100)
        assert cleaner.stripes_cleaned > 0
        assert used_slots(cluster) < before
        for block, data in contents.items():
            assert disk.read(block) == data
        self._assert_stripes_fully_reclaimed(cluster, cleaner)

    def test_m2_utilization_counts_data_members_only(self):
        """Both parity members are excluded from stripe accounting:
        a stripe whose data is fully dead reports zero utilization
        even though its two parity fragments physically exist."""
        from repro.cluster import build_local_cluster

        cluster = build_local_cluster(num_servers=5,
                                      fragment_size=1 << 16,
                                      server_slots=512)
        stack, cleaner, disk, _contents = churn_stack(
            cluster, parity_fragments=2, coding="rs")
        stack.checkpoint_all()
        candidates = cleaner.candidate_stripes()
        assert candidates
        deadest = candidates[0]
        assert deadest.width == 5
        assert deadest.utilization < 0.5
        # Parity fids never enter the live/total ledgers.
        from repro.log.fragment import Fragment

        for server in cluster.servers.values():
            for fid in server.list_fids():
                header = Fragment.decode(server.retrieve(fid)).header
                if header.is_parity:
                    assert fid not in cleaner._total
                    assert fid not in cleaner._live
