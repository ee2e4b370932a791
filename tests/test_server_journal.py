"""The storage server's fragment-map journal.

A commit or release appends one fixed-layout record; a restart replays
the newest snapshot plus the journal; past a threshold the map is
snapshotted and the journal truncated. These tests pin the record
bytes, cover the crash cases (torn tail, crash between snapshot and
truncation, corruption before the tail), pin the per-commit cost and the
compaction schedule, and check the reloaded table against the live one
over seeded operation sequences.
"""

import os
import random
import struct
import zlib

import pytest

from repro import errors
from repro.server import slots as slots_module
from repro.server.backend import FileBackend, MemoryBackend
from repro.server.config import ServerConfig
from repro.server.server import StorageServer
from repro.server.slots import SlotTable
from repro.util.fids import make_fid

KEY = "fragment_map"
JOURNAL_FILE = "journal_fragment_map.log"
FRAME = 4          # FileBackend's length prefix
PLAIN_RECORD = 26  # a record without ACL ranges


class CountingBackend(MemoryBackend):
    """Records the size of every journal append and counts snapshots."""

    def __init__(self):
        super().__init__()
        self.appended = []
        self.snapshots = 0

    def append_metadata(self, key, record):
        self.appended.append(len(record))
        super().append_metadata(key, record)

    def save_metadata(self, key, payload):
        if key == KEY:
            self.snapshots += 1
        super().save_metadata(key, payload)


def _entries(table):
    return {fid: table.info_of(fid) for fid in table.fids()}


def _state(table):
    """Entries, the order free slots would be handed out, newest marked."""
    free = (sorted(table._free_heap)
            + list(range(table._next_fresh, table._total_slots)))
    marked = [table.newest_marked_fid(client) for client in (-1, 0, 1, 2)]
    return _entries(table), free, marked


def _garble(backend, index):
    """Flip the bits of one byte (inside the fid) of journal record ``index``."""
    records = backend.load_journal(KEY)
    damaged = bytearray(records[index])
    damaged[3] ^= 0xFF
    records[index] = bytes(damaged)
    backend.truncate_journal(KEY)
    for record in records:
        backend.append_metadata(KEY, record)


# ---------------------------------------------------------------------------
# Golden records
# ---------------------------------------------------------------------------

#: (what is journalled, the exact bytes of the last record appended).
GOLDEN = [
    (lambda table: table.commit(make_fid(3, 9), 7, 48, True,
                                [(0, 16, 2), (16, 32, 5)]),
     "01010000030000000009000000070000003000000002"
     "000000000000001000000000000000020000001000000020"
     "0000000000000005566f7b69"),
    (lambda table: table.commit(78, 2, 0, False, [], preallocated=True),
     "0102000000000000004e000000020000000000000000325861c0"),
    (lambda table: (table.commit(77, 5, 10, False), table.release(77)),
     "0200000000000000004d0000000000000000000000007cd889b5"),
]


@pytest.mark.parametrize(
    "journal, record", GOLDEN,
    ids=["commit_with_acl_ranges", "preallocate_commit", "release"])
def test_record_is_pinned(journal, record):
    backend = MemoryBackend()
    journal(SlotTable(backend, 16))
    assert backend.load_journal(KEY)[-1].hex() == record


@pytest.mark.parametrize("make", [lambda tmp: MemoryBackend(),
                                  lambda tmp: FileBackend(str(tmp / "disk"))],
                         ids=["memory", "file"])
def test_journal_round_trip(make, tmp_path):
    backend = make(tmp_path)
    assert backend.load_journal("j") == []
    for record in (b"a", b"", b"\x00" * 300):
        backend.append_metadata("j", record)
    assert backend.load_journal("j") == [b"a", b"", b"\x00" * 300]
    backend.truncate_journal("j")
    assert backend.load_journal("j") == []


# ---------------------------------------------------------------------------
# Crash consistency
# ---------------------------------------------------------------------------


class TestTornTail:
    """A crash mid-append tears the last record: it is dropped on reload
    and its slot reclaimed — the atomic-store rule of
    ``test_reserved_but_uncommitted_slot_reclaimed_on_reload``."""

    @pytest.mark.parametrize("cut", [5, 20, FRAME + PLAIN_RECORD - 2],
                             ids=["mid_record", "mid_header",
                                  "mid_length_prefix"])
    def test_truncated_file_record(self, tmp_path, cut):
        directory = str(tmp_path / "disk")
        table = SlotTable(FileBackend(directory), 8)
        table.allocate(1, 10, False)
        table.allocate(2, 10, True)
        path = os.path.join(directory, JOURNAL_FILE)
        os.truncate(path, os.path.getsize(path) - cut)
        reloaded = SlotTable(FileBackend(directory), 8)
        assert list(reloaded.fids()) == [1]
        assert reloaded.newest_marked_fid() == 0
        assert reloaded.allocate(3, 10, False) == 1
        # The torn bytes are gone, so the record appended after them
        # replays too.
        assert _state(SlotTable(FileBackend(directory), 8)) == _state(reloaded)

    def test_garbled_memory_record(self):
        backend = MemoryBackend()
        table = SlotTable(backend, 8)
        table.allocate(1, 10, False)
        table.allocate(2, 10, True)
        _garble(backend, -1)
        reloaded = SlotTable(backend, 8)
        assert list(reloaded.fids()) == [1]
        assert reloaded.allocate(3, 10, False) == 1
        assert _state(SlotTable(backend, 8)) == _state(reloaded)


class TestCorruptionBeforeTheTail:
    """Only the last record can be torn; damage anywhere else raises and
    is never skipped."""

    @pytest.mark.parametrize("index", [0, 1], ids=["first", "middle"])
    def test_garbled_memory_record_raises(self, index):
        backend = MemoryBackend()
        table = SlotTable(backend, 8)
        for fid in (1, 2, 3):
            table.allocate(fid, 10, False)
        _garble(backend, index)
        with pytest.raises(errors.CorruptMetadataError):
            SlotTable(backend, 8)

    @pytest.mark.parametrize("offset, damage", [
        (FRAME + PLAIN_RECORD + FRAME + 3, b"\xff"),
        # A prefix claiming the rest of the file makes the records after
        # it one long "last record" — longer than its header says, which
        # no torn append leaves.
        (FRAME + PLAIN_RECORD, struct.pack(">I", 1 << 20)),
    ], ids=["record_bytes", "length_prefix"])
    def test_damaged_file_record_raises(self, tmp_path, offset, damage):
        directory = str(tmp_path / "disk")
        table = SlotTable(FileBackend(directory), 8)
        for fid in (1, 2, 3):
            table.allocate(fid, 10, False)
        with open(os.path.join(directory, JOURNAL_FILE), "r+b") as handle:
            handle.seek(offset)
            handle.write(damage)
        with pytest.raises(errors.CorruptMetadataError):
            SlotTable(FileBackend(directory), 8)

    def test_intact_record_of_unknown_op_raises_even_last(self):
        backend = MemoryBackend()
        SlotTable(backend, 8).allocate(1, 10, False)
        body = struct.pack(">BBQIII", 3, 0, 1, 0, 0, 0)
        backend.append_metadata(KEY, body + struct.pack(">I", zlib.crc32(body)))
        with pytest.raises(errors.CorruptMetadataError):
            SlotTable(backend, 8)


def test_crash_between_snapshot_and_truncation(monkeypatch):
    """The new snapshot plus the whole old journal reload to exactly the
    map the crashed table held."""
    monkeypatch.setattr(slots_module, "COMPACT_MIN_RECORDS", 8)

    class Crash(Exception):
        pass

    class CrashBeforeTruncate(MemoryBackend):
        def truncate_journal(self, key):
            raise Crash()

    backend = CrashBeforeTruncate()
    table = SlotTable(backend, 32)
    with pytest.raises(Crash):
        for fid in range(1, 100):
            table.allocate(fid, fid, fid % 3 == 0, [(0, fid, fid)])
            if fid % 3 == 1:
                table.release(fid)
    assert backend.load_metadata(KEY) is not None
    assert len(backend.load_journal(KEY)) > 8     # all of the old journal
    assert _state(SlotTable(backend, 32)) == _state(table)


# ---------------------------------------------------------------------------
# Exact costs
# ---------------------------------------------------------------------------


class TestJournalCost:
    def test_bytes_per_commit_do_not_grow_with_the_map(self):
        backend = CountingBackend()
        table = SlotTable(backend, 2048)
        for fid in range(1, 1001):
            table.allocate(fid, 4096, False)
        assert backend.snapshots == 0     # a growing map never compacts
        assert backend.appended[9] == backend.appended[999] == PLAIN_RECORD
        assert set(backend.appended) == {PLAIN_RECORD}

    def test_compactions_for_a_fixed_churn(self):
        backend = CountingBackend()
        table = SlotTable(backend, 4)
        for fid in range(1, 3001):
            table.allocate(fid, 1, False)
            table.release(fid)
        # 6,000 records with at most one live entry: one compaction per
        # COMPACT_MIN_RECORDS + 1 = 1,025 records.
        assert backend.snapshots == 5
        assert len(backend.load_journal(KEY)) == 6000 - 5 * 1025

    def test_compaction_period_follows_the_live_count(self):
        backend = CountingBackend()
        table = SlotTable(backend, 4096)
        for fid in range(1, 1501):
            table.allocate(fid, 1, False)
        for fid in range(1501, 2501):
            table.allocate(fid, 1, False)
            table.release(fid)
        # With 1,500 live entries the limit is 3,000 records: the 751st
        # release brings the journal to 3,002 and compacts it; the next
        # 249 allocate/release pairs stay in the journal.
        assert backend.snapshots == 1
        assert len(backend.load_journal(KEY)) == 2 * 249


# ---------------------------------------------------------------------------
# Model test: a reloaded table equals the live one
# ---------------------------------------------------------------------------


def _drive(server, rng, steps):
    """Seeded store / preallocate / delete / crash+restart sequence; after
    every restart the reloaded table must equal the one that crashed."""
    stored, reserved = [], []
    restarts = 0
    for seq in range(1, steps + 1):
        fid = make_fid(rng.randrange(3), seq)
        roll = rng.random()
        if roll < 0.06:
            before = _state(server.slots)
            server.crash()
            server.restart()
            assert _state(server.slots) == before
            restarts += 1
        elif roll < 0.20 and reserved:
            fid = reserved.pop(rng.randrange(len(reserved)))
            server.store(fid, b"p" * rng.randrange(1, 40),
                         marked=rng.random() < 0.3)
            stored.append(fid)
        elif roll < 0.30:
            server.preallocate(fid)
            reserved.append(fid)
        elif stored and (roll < 0.60 or len(stored) > 10):
            # A small map keeps 2 x live entries small: compaction is frequent.
            server.delete(stored.pop(rng.randrange(len(stored))))
        else:
            data = b"d" * rng.randrange(2, 40)
            ranges = ([(0, len(data) // 2, rng.randrange(1, 1 << 40))]
                      if rng.random() < 0.3 else None)
            server.store(fid, data, marked=rng.random() < 0.3,
                         acl_ranges=ranges)
            stored.append(fid)
    return restarts


def _server(backend):
    return StorageServer(ServerConfig("s", fragment_size=1 << 12,
                                      total_slots=512), backend)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_model_memory_backend(monkeypatch, seed):
    monkeypatch.setattr(slots_module, "COMPACT_MIN_RECORDS", 4)
    backend = CountingBackend()
    assert _drive(_server(backend), random.Random(seed), 400) >= 20
    assert backend.snapshots >= 15


def test_model_file_backend(monkeypatch, tmp_path):
    monkeypatch.setattr(slots_module, "COMPACT_MIN_RECORDS", 4)
    backend = FileBackend(str(tmp_path / "disk"))
    assert _drive(_server(backend), random.Random(5), 150) >= 10
    assert backend.load_metadata(KEY) is not None   # compaction ran
