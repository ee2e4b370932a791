"""Unit tests for the storage server: slots, backends, ops, atomicity."""

import pytest

from repro import errors
from repro.server.acl import AclStore
from repro.server.backend import FileBackend, MemoryBackend
from repro.server.config import ServerConfig
from repro.server.server import StorageServer
from repro.server.slots import SlotTable

FRAG = 1 << 16


class TestBackends:
    def test_memory_round_trip(self):
        backend = MemoryBackend()
        backend.write_slot(3, b"abc")
        assert backend.read_slot(3) == b"abc"
        backend.clear_slot(3)
        assert backend.read_slot(3) is None

    def test_memory_metadata(self):
        backend = MemoryBackend()
        assert backend.load_metadata("m") is None
        backend.save_metadata("m", b"{}")
        assert backend.load_metadata("m") == b"{}"

    def test_file_backend_round_trip(self, tmp_path):
        backend = FileBackend(str(tmp_path / "srv"))
        backend.write_slot(0, b"durable")
        backend.save_metadata("map", b"[1,2]")
        # A different instance over the same directory sees the data.
        again = FileBackend(str(tmp_path / "srv"))
        assert again.read_slot(0) == b"durable"
        assert again.load_metadata("map") == b"[1,2]"

    def test_file_backend_clear(self, tmp_path):
        backend = FileBackend(str(tmp_path / "srv"))
        backend.write_slot(1, b"x")
        backend.clear_slot(1)
        backend.clear_slot(1)  # idempotent
        assert backend.read_slot(1) is None


class TestSlotTable:
    def _table(self, slots=4):
        return SlotTable(MemoryBackend(), slots)

    def test_allocate_lowest_first(self):
        table = self._table()
        assert table.allocate(10, 5, False) == 0
        assert table.allocate(11, 5, False) == 1

    def test_release_reuses_lowest(self):
        table = self._table()
        for fid in (10, 11, 12):
            table.allocate(fid, 1, False)
        table.release(10)
        table.release(11)
        assert table.allocate(13, 1, False) == 0
        assert table.allocate(14, 1, False) == 1

    def test_out_of_slots(self):
        table = self._table(slots=2)
        table.allocate(1, 0, False)
        table.allocate(2, 0, False)
        with pytest.raises(errors.OutOfSlotsError):
            table.allocate(3, 0, False)

    def test_reserve_abort_returns_slot(self):
        table = self._table(slots=1)
        slot = table.reserve()
        table.abort_reservation(slot)
        assert table.allocate(5, 0, False) == slot

    def test_persistence_across_reload(self):
        backend = MemoryBackend()
        table = SlotTable(backend, 8)
        table.allocate(100, 7, True)
        table.allocate(101, 9, False)
        reloaded = SlotTable(backend, 8)
        assert reloaded.slot_of(100) == 0
        assert reloaded.slot_of(101) == 1
        assert reloaded.newest_marked_fid() == 100
        # Fresh allocations do not collide with reloaded ones.
        assert reloaded.allocate(102, 1, False) == 2

    def test_reserved_but_uncommitted_slot_reclaimed_on_reload(self):
        """A crash between data write and map commit must lose the slot
        reservation, not leak it — the atomic-store guarantee."""
        backend = MemoryBackend()
        table = SlotTable(backend, 2)
        table.allocate(1, 0, False)
        table.reserve()  # crash here: never committed
        reloaded = SlotTable(backend, 2)
        assert reloaded.allocate(2, 0, False) == 1

    def test_newest_marked_filters_by_client(self):
        from repro.util.fids import make_fid

        table = self._table(slots=8)
        table.allocate(make_fid(1, 5), 0, True)
        table.allocate(make_fid(2, 9), 0, True)
        assert table.newest_marked_fid() == make_fid(2, 9)
        assert table.newest_marked_fid(1) == make_fid(1, 5)
        assert table.newest_marked_fid(3) == 0


class TestServerOps:
    def test_store_retrieve_whole_and_range(self, server):
        server.store(5, b"0123456789")
        assert server.retrieve(5) == b"0123456789"
        assert server.retrieve(5, 3, 4) == b"3456"

    def test_store_is_write_once(self, server):
        server.store(5, b"first")
        with pytest.raises(errors.FragmentExistsError):
            server.store(5, b"second")

    def test_oversized_fragment_rejected(self, server):
        too_big = b"x" * (server.config.slot_size + 1)
        with pytest.raises(errors.BadRequestError):
            server.store(1, too_big)

    def test_retrieve_missing(self, server):
        with pytest.raises(errors.FragmentNotFoundError):
            server.retrieve(404)

    def test_retrieve_bad_range(self, server):
        server.store(1, b"abc")
        with pytest.raises(errors.BadRequestError):
            server.retrieve(1, 2, 5)

    def test_delete_frees_slot_for_reuse(self, server):
        server.store(1, b"a")
        server.delete(1)
        with pytest.raises(errors.FragmentNotFoundError):
            server.retrieve(1)
        server.store(2, b"b")
        assert server.fragment_info(2).slot == 0

    def test_preallocate_then_store(self, server):
        slot = server.preallocate(9)
        assert not server.holds(9)  # reserved, not readable
        assert server.store(9, b"late data") == slot
        assert server.retrieve(9) == b"late data"

    def test_preallocate_existing_rejected(self, server):
        server.store(9, b"x")
        with pytest.raises(errors.FragmentExistsError):
            server.preallocate(9)

    def test_last_marked(self, server):
        server.store(1, b"a", marked=False)
        server.store(2, b"b", marked=True)
        server.store(3, b"c", marked=True)
        server.store(4, b"d", marked=False)
        assert server.last_marked() == 3

    def test_holds(self, server):
        server.store(1, b"a")
        assert server.holds(1)
        assert not server.holds(2)

    def test_stats_accumulate(self, server):
        server.store(1, b"abcd")
        server.retrieve(1, 0, 2)
        assert server.bytes_stored == 4
        assert server.bytes_retrieved == 2
        assert server.store_ops == 1 and server.retrieve_ops == 1


class TestServerCrash:
    def test_crashed_server_refuses_everything(self, server):
        server.store(1, b"a")
        server.crash()
        for call in (lambda: server.retrieve(1), lambda: server.store(2, b"b"),
                     lambda: server.last_marked(), lambda: server.holds(1)):
            with pytest.raises(errors.ServerUnavailableError):
                call()

    def test_restart_recovers_durable_state(self, server):
        server.store(1, b"persist", marked=True)
        server.crash()
        server.restart()
        assert server.retrieve(1) == b"persist"
        assert server.last_marked() == 1

    def test_preallocation_survives_restart(self, server):
        """The preallocated flag is durable: after a restart the slot is
        still reserved for the fid, not a phantom stored fragment."""
        slot = server.preallocate(5)
        server.crash()
        server.restart()
        assert not server.holds(5)
        assert server.holds_many([5]) == []
        with pytest.raises(errors.FragmentNotFoundError):
            server.retrieve(5)
        assert server.store(5, b"filled later") == slot
        assert server.retrieve(5) == b"filled later"

    def test_atomic_store_on_backend_failure(self, server):
        """If the slot write dies mid-way, the fragment must not exist
        and the slot must not leak."""

        class ExplodingBackend(MemoryBackend):
            def __init__(self):
                super().__init__()
                self.explode = False

            def write_slot(self, slot, data):
                if self.explode:
                    raise IOError("head crash")
                super().write_slot(slot, data)

        backend = ExplodingBackend()
        victim = StorageServer(ServerConfig("s", fragment_size=FRAG,
                                            total_slots=2), backend)
        victim.store(1, b"ok")
        backend.explode = True
        with pytest.raises(IOError):
            victim.store(2, b"doomed")
        backend.explode = False
        assert not victim.holds(2)
        # The reserved slot was returned: both remaining stores fit.
        victim.store(3, b"fits")
        assert victim.retrieve(3) == b"fits"


class TestServerWithFileBackend:
    def test_full_durability_cycle(self, tmp_path):
        backend = FileBackend(str(tmp_path / "disk"))
        server = StorageServer(ServerConfig("s", fragment_size=FRAG,
                                            total_slots=16), backend)
        server.store(11, b"alpha", marked=True)
        server.store(12, b"beta")
        server.delete(12)
        # Simulate a full process restart over the same directory.
        reborn = StorageServer(ServerConfig("s", fragment_size=FRAG,
                                            total_slots=16),
                               FileBackend(str(tmp_path / "disk")))
        assert reborn.retrieve(11) == b"alpha"
        assert reborn.last_marked() == 11
        assert not reborn.holds(12)


class TestAcls:
    def test_untagged_data_is_world_accessible(self, secure_server):
        secure_server.store(1, b"public")
        assert secure_server.retrieve(1, principal="anyone") == b"public"

    def test_tagged_range_enforced(self, secure_server):
        aid = secure_server.create_acl(readers={"alice"}, writers={"alice"})
        secure_server.store(1, b"secret+public", acl_ranges=[(0, 6, aid)])
        assert secure_server.retrieve(1, 7, 6, principal="bob") == b"public"
        with pytest.raises(errors.AccessDeniedError):
            secure_server.retrieve(1, 0, 6, principal="bob")
        assert secure_server.retrieve(1, 0, 6, principal="alice") == b"secret"

    def test_membership_change_opens_access(self, secure_server):
        aid = secure_server.create_acl(readers={"alice"}, writers=set())
        secure_server.store(1, b"data", acl_ranges=[(0, 4, aid)])
        secure_server.modify_acl(aid, readers={"alice", "bob"})
        assert secure_server.retrieve(1, principal="bob") == b"data"

    def test_wildcard_member(self, secure_server):
        aid = secure_server.create_acl(readers={"*"}, writers=set())
        secure_server.store(1, b"data", acl_ranges=[(0, 4, aid)])
        assert secure_server.retrieve(1, principal="whoever") == b"data"

    def test_deleted_acl_fails_closed(self, secure_server):
        aid = secure_server.create_acl(readers={"alice"}, writers=set())
        secure_server.store(1, b"data", acl_ranges=[(0, 4, aid)])
        secure_server.delete_acl(aid)
        with pytest.raises(errors.AccessDeniedError):
            secure_server.retrieve(1, principal="alice")

    def test_overlapping_ranges_rejected(self, secure_server):
        aid = secure_server.create_acl(readers=set(), writers=set())
        with pytest.raises(errors.BadRequestError):
            secure_server.store(1, b"abcdef",
                                acl_ranges=[(0, 4, aid), (2, 6, aid)])

    def test_range_outside_fragment_rejected(self, secure_server):
        aid = secure_server.create_acl(readers=set(), writers=set())
        with pytest.raises(errors.BadRequestError):
            secure_server.store(1, b"ab", acl_ranges=[(0, 10, aid)])

    def test_delete_requires_write_permission(self, secure_server):
        aid = secure_server.create_acl(readers={"*"}, writers={"owner"})
        secure_server.store(1, b"data", acl_ranges=[(0, 4, aid)])
        with pytest.raises(errors.AccessDeniedError):
            secure_server.delete(1, principal="bob")
        secure_server.delete(1, principal="owner")

    def test_modify_missing_acl(self, secure_server):
        with pytest.raises(errors.AclNotFoundError):
            secure_server.modify_acl(999, readers=set())

    def test_acls_survive_restart(self, secure_server):
        aid = secure_server.create_acl(readers={"alice"}, writers=set())
        secure_server.store(1, b"data", acl_ranges=[(0, 4, aid)])
        secure_server.crash()
        secure_server.restart()
        assert secure_server.retrieve(1, principal="alice") == b"data"
        with pytest.raises(errors.AccessDeniedError):
            secure_server.retrieve(1, principal="eve")

    def test_dump_load_round_trip(self):
        store = AclStore()
        aid = store.create_acl({"a"}, {"b"})
        clone = AclStore.load(store.dump())
        assert clone.get(aid).readers == {"a"}
        assert clone.get(aid).writers == {"b"}
        # The id counter survives: no reuse after reload.
        assert clone.create_acl(set(), set()) == aid + 1

    def test_enforcement_off_by_default(self, server):
        server.store(1, b"data", acl_ranges=[(0, 4, 12345)])
        assert server.retrieve(1, principal="anyone") == b"data"
