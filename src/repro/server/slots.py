"""Slot allocation and the on-disk fragment map.

The server divides its disk into fragment-sized slots, one per fragment,
and maintains an FID→slot mapping (the *fragment map*). The map lives in
memory; durably it is a snapshot plus an append-only journal of every
mutation since, both kept by the storage backend, and a restart rebuilds
it by replaying the journal over the snapshot.

A journal record is one ``struct`` layout for both operations: op,
flags (marked, preallocated), fid, slot, length, the number of ACL
ranges, that many ``(start, end, aid)`` ranges, and a CRC-32 of all of
it. A commit record sets its fid's whole entry and a release record
removes it, so replaying a journal over a snapshot newer than the
journal's start gives the same map as over the older one: each fid ends
at its last record either way, and fids the journal never names are
the same in both snapshots.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from typing import Dict, Iterator, List, Optional

from repro.errors import CorruptMetadataError, OutOfSlotsError
from repro.util.fids import fid_client
from repro.server.backend import (
    StorageBackend,
    decode_fragment_map,
    encode_fragment_map,
)

_MAP_KEY = "fragment_map"

#: The journal is compacted into a fresh snapshot once it holds more
#: than ``max(COMPACT_MIN_RECORDS, 2 * live entries)`` records: each
#: mutation costs O(1) amortized, and a restart replays at most about
#: twice as many records as the map has entries.
COMPACT_MIN_RECORDS = 1024

_HEAD = struct.Struct(">BBQIII")  # op, flags, fid, slot, length, #ranges
_RANGE = struct.Struct(">IIQ")    # ACL range (start, end, aid)
_CRC = struct.Struct(">I")
_COMMIT, _RELEASE = 1, 2
_MARKED, _PREALLOCATED = 1, 2


def _entry(slot: int, length: int, marked: bool, acl_ranges=(),
           preallocated: bool = False) -> dict:
    return {"slot": slot, "length": length, "marked": bool(marked),
            "acl_ranges": [tuple(r) for r in acl_ranges or ()],
            "preallocated": bool(preallocated)}


def _sealed(body: bytes) -> bytes:
    return body + _CRC.pack(zlib.crc32(body))


def _commit_record(fid: int, entry: dict) -> bytes:
    ranges = entry["acl_ranges"]
    flags = ((_MARKED if entry["marked"] else 0)
             | (_PREALLOCATED if entry["preallocated"] else 0))
    body = _HEAD.pack(_COMMIT, flags, fid, entry["slot"], entry["length"],
                      len(ranges))
    if ranges:
        body += b"".join(_RANGE.pack(*r) for r in ranges)
    return _sealed(body)


def _release_record(fid: int) -> bytes:
    return _sealed(_HEAD.pack(_RELEASE, 0, fid, 0, 0, 0))


def _record_size(record: bytes) -> int:
    """Size the record's header gives it; the header must be whole."""
    count = _HEAD.unpack_from(record)[5]
    return _HEAD.size + count * _RANGE.size + _CRC.size


def _replay(record: bytes, mapping: Dict[int, dict]) -> None:
    """Apply one journal record to ``mapping``; ValueError if ``record``
    is not exactly one record with a good CRC."""
    if len(record) < _HEAD.size or len(record) != _record_size(record):
        raise ValueError("%d bytes" % len(record))
    end = len(record) - _CRC.size
    if _CRC.unpack_from(record, end)[0] != zlib.crc32(record[:end]):
        raise ValueError("bad CRC")
    op, flags, fid, slot, length, count = _HEAD.unpack_from(record)
    if op == _COMMIT:
        ranges = [_RANGE.unpack_from(record, _HEAD.size + i * _RANGE.size)
                  for i in range(count)]
        mapping[fid] = _entry(slot, length, flags & _MARKED, ranges,
                              flags & _PREALLOCATED)
    elif op == _RELEASE:
        mapping.pop(fid, None)
    else:
        # Intact, so not torn: written by a format this code predates.
        raise CorruptMetadataError("fragment-map journal op %d unknown" % op)


def _torn(record: bytes) -> bool:
    """Whether an invalid *last* record can be a torn append.

    A crash mid-append leaves a prefix of the record, or garbage in its
    last sectors — never bytes past the end its header gives. Those mean
    a damaged length prefix swallowed the records after it.
    """
    return len(record) < _HEAD.size or len(record) <= _record_size(record)


class SlotTable:
    """Allocates slots and maps FIDs to them.

    Allocation hands out the lowest free slot; freed slots are reused.
    Every mutation is durably appended to the map's journal before it
    takes effect, keeping the map consistent with at-most-one in-flight
    fragment — which is what makes the server's store operation atomic:
    the fragment data is written to its slot first, and only then does
    the map commit make it visible. The whole map is rewritten only when
    the journal is compacted.
    """

    def __init__(self, backend: StorageBackend, total_slots: int) -> None:
        self._backend = backend
        self._total_slots = total_slots
        self._fid_to_slot: Dict[int, dict] = {}
        self._journal_records = 0
        self._load()
        self._used_slots = {info["slot"] for info in self._fid_to_slot.values()}
        self._next_fresh = max(self._used_slots) + 1 if self._used_slots else 0
        self._free_heap = [slot for slot in range(self._next_fresh)
                           if slot not in self._used_slots]
        heapq.heapify(self._free_heap)

    def _load(self) -> None:
        """Rebuild the map: the snapshot, then the journal over it.

        A torn last record — the commit of a store that never returned —
        is dropped, so its slot is free again, and the map is compacted
        at once so that no later record lands behind the torn bytes.
        Any other invalid record raises.
        """
        payload = self._backend.load_metadata(_MAP_KEY)
        if payload is not None:
            self._fid_to_slot = {fid: _entry(**info) for fid, info
                                 in decode_fragment_map(payload).items()}
        records = self._backend.load_journal(_MAP_KEY)
        self._journal_records = len(records)
        for index, record in enumerate(records):
            try:
                _replay(record, self._fid_to_slot)
            except ValueError as exc:
                if index < len(records) - 1 or not _torn(record):
                    raise CorruptMetadataError(
                        "fragment-map journal record %d of %d: %s"
                        % (index + 1, len(records), exc)) from None
                self._compact()

    def _compact(self) -> None:
        """Snapshot the whole map, then empty the journal. A crash in
        between leaves the new snapshot and the whole old journal, whose
        replay gives the same map (see the module docstring)."""
        self._backend.save_metadata(_MAP_KEY,
                                    encode_fragment_map(self._fid_to_slot))
        self._backend.truncate_journal(_MAP_KEY)
        self._journal_records = 0

    def _journalled(self) -> None:
        """Count one appended record; compact once the journal is due."""
        self._journal_records += 1
        if self._journal_records > max(COMPACT_MIN_RECORDS,
                                       2 * len(self._fid_to_slot)):
            self._compact()

    # -- queries -----------------------------------------------------------

    def __contains__(self, fid: int) -> bool:
        return fid in self._fid_to_slot

    def __len__(self) -> int:
        return len(self._fid_to_slot)

    def slot_of(self, fid: int) -> Optional[int]:
        """Slot holding ``fid``, or None."""
        info = self._fid_to_slot.get(fid)
        return None if info is None else info["slot"]

    def info_of(self, fid: int) -> Optional[dict]:
        """Full map entry for ``fid`` (slot, length, marked, acl ranges,
        preallocated). Read-only: only :meth:`commit` changes an entry,
        so every change is persisted."""
        return self._fid_to_slot.get(fid)

    def fids(self) -> Iterator[int]:
        """Iterate all stored FIDs."""
        return iter(list(self._fid_to_slot))

    def newest_marked_fid(self, client_id: int = -1) -> int:
        """Largest FID stored with the *marked* flag, or 0 if none.

        This is the server-side half of checkpoint discovery: clients
        store checkpoints in marked fragments and ask each server in
        their stripe group for its newest one. ``client_id`` >= 0
        restricts the search to FIDs that client allocated.
        """
        marked: List[int] = [
            fid for fid, info in self._fid_to_slot.items()
            if info.get("marked")
            and (client_id < 0 or fid_client(fid) == client_id)
        ]
        return max(marked) if marked else 0

    # -- mutations ----------------------------------------------------------

    def reserve(self) -> int:
        """Take the lowest free slot *without* persisting anything.

        First half of the atomic store protocol: the server writes the
        fragment data into the reserved slot, then calls :meth:`commit`.
        A crash in between leaves the slot unreferenced (and reclaimable
        on restart), so a partially stored fragment is never visible.
        """
        slot = self._lowest_free_slot()
        self._used_slots.add(slot)
        return slot

    def commit(self, fid: int, slot: int, length: int, marked: bool,
               acl_ranges: Optional[list] = None,
               preallocated: bool = False) -> None:
        """Publish ``fid`` → ``slot`` in the persistent fragment map.

        ``preallocated`` marks a slot reserved for ``fid`` whose contents
        a later store supplies; it is persisted with the entry.
        """
        entry = _entry(slot, length, marked, acl_ranges, preallocated)
        self._backend.append_metadata(_MAP_KEY, _commit_record(fid, entry))
        self._fid_to_slot[fid] = entry
        self._journalled()

    def abort_reservation(self, slot: int) -> None:
        """Return a reserved-but-uncommitted slot to the free pool."""
        if slot in self._used_slots:
            self._used_slots.discard(slot)
            heapq.heappush(self._free_heap, slot)

    def allocate(self, fid: int, length: int, marked: bool,
                 acl_ranges: Optional[list] = None) -> int:
        """Reserve and commit in one step (non-crash-critical callers)."""
        slot = self.reserve()
        self.commit(fid, slot, length, marked, acl_ranges)
        return slot

    def release(self, fid: int) -> Optional[int]:
        """Unbind ``fid``; return its former slot (None if absent)."""
        info = self._fid_to_slot.get(fid)
        if info is None:
            return None
        self._backend.append_metadata(_MAP_KEY, _release_record(fid))
        del self._fid_to_slot[fid]
        self._used_slots.discard(info["slot"])
        heapq.heappush(self._free_heap, info["slot"])
        self._journalled()
        return info["slot"]

    def _lowest_free_slot(self) -> int:
        if self._free_heap:
            return heapq.heappop(self._free_heap)
        if self._next_fresh < self._total_slots:
            slot = self._next_fresh
            self._next_fresh += 1
            return slot
        raise OutOfSlotsError("no free fragment slots")
