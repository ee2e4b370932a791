"""The storage server proper.

Implements exactly the fragment operations §2.4 lists: storing data in a
fragment, retrieving data from a fragment, deleting a fragment,
preallocating space for a fragment, and querying the FID of the newest
*marked* fragment — plus the ACL management routines of §2.4.2 and a
``holds`` query answered during clients' reconstruction broadcasts.

Two properties the rest of the system leans on:

* **Atomicity** — a store either happens completely or not at all, even
  across a server crash. The implementation writes fragment data into a
  reserved slot first and only then commits the fragment-map entry (one
  checksummed journal record; a torn one is dropped on restart), so
  recovery never sees partial fragments.
* **Ignorance** — the server never parses fragment contents. Blocks,
  records, stripes, and parity are purely client-side concepts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.errors import (
    BadRequestError,
    FragmentExistsError,
    FragmentNotFoundError,
    ServerUnavailableError,
)
from repro.server.acl import AclStore
from repro.server.backend import MemoryBackend, StorageBackend
from repro.server.config import ServerConfig
from repro.server.slots import SlotTable


@dataclass(frozen=True)
class FragmentInfo:
    """What the server knows about one stored fragment."""

    fid: int
    slot: int
    length: int
    marked: bool


class StorageServer:
    """One Swarm storage server."""

    def __init__(self, config: ServerConfig,
                 backend: Optional[StorageBackend] = None) -> None:
        self.config = config
        self.backend = backend if backend is not None else MemoryBackend()
        self.slots = SlotTable(self.backend, config.total_slots)
        self.acls = self._load_acls()
        self.available = True
        # Volatile whole-fragment cache (off by default, as in the
        # prototype).
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        # Statistics (read by benchmarks and the doctor-style examples).
        self.bytes_stored = 0
        self.bytes_retrieved = 0
        self.store_ops = 0
        self.retrieve_ops = 0
        self.delete_ops = 0
        # Disk spans the last retrieve read, one (fid, start_offset,
        # total_bytes) per fragment not served from the cache: the
        # simulated transport charges one positioned access per span.
        self.last_disk_spans: List[Tuple[int, int, int]] = []

    @property
    def server_id(self) -> str:
        """This server's network name."""
        return self.config.server_id

    def _require_available(self) -> None:
        if not self.available:
            raise ServerUnavailableError("server %s is down" % self.server_id)

    # ------------------------------------------------------------------
    # Fragment operations (§2.4)
    # ------------------------------------------------------------------

    def store(self, fid: int, data: bytes, principal: str = "",
              marked: bool = False,
              acl_ranges: Optional[List[Tuple[int, int, int]]] = None) -> int:
        """Store a complete fragment; returns the slot it landed in.

        Stores are write-once: a FID can be stored exactly once (modulo
        :meth:`preallocate`, which reserves the FID without contents).
        """
        self._require_available()
        if len(data) > self.config.slot_size:
            raise BadRequestError(
                "fragment of %d bytes exceeds slot size %d"
                % (len(data), self.config.slot_size))
        existing = self.slots.info_of(fid)
        if existing is not None and not existing.get("preallocated"):
            raise FragmentExistsError("fragment %d already stored" % fid)
        ranges = list(acl_ranges or [])
        self.acls.validate_ranges(ranges, len(data))
        if existing is not None:
            slot = existing["slot"]
        else:
            slot = self.slots.reserve()
        try:
            self.backend.write_slot(slot, data)
        except Exception:
            if existing is None:
                self.slots.abort_reservation(slot)
            raise
        self.slots.commit(fid, slot, len(data), marked, ranges)
        self._cache_insert(fid, data)
        self.bytes_stored += len(data)
        self.store_ops += 1
        return slot

    def retrieve(self, fid: int, offset: int = 0, length: int = -1,
                 principal: str = "") -> bytes:
        """Return ``length`` bytes of fragment ``fid`` starting at ``offset``.

        ``length`` of −1 means "to the end of the fragment". The access
        must pass the ACL tags recorded when the fragment was stored.

        Whole-fragment reads return the server's own immutable image;
        partial reads return a read-only ``memoryview`` slice of it —
        no per-request copy is taken. Callers that must own the bytes
        (anything crossing a real wire does, via the codec) take
        ``bytes()``.
        """
        self.last_disk_spans = []
        self._require_available()
        info = self._info_or_raise(fid)
        data, from_disk = self._image(fid, info)
        if length < 0:
            length = len(data) - offset
        if from_disk:
            self.last_disk_spans = [(fid, offset, length)]
        if offset < 0 or offset + length > len(data):
            raise BadRequestError(
                "range [%d, %d) outside fragment of %d bytes"
                % (offset, offset + length, len(data)))
        self.acls.check_access(info.get("acl_ranges", []), offset, length,
                               principal, "r")
        self.bytes_retrieved += length
        self.retrieve_ops += 1
        if offset == 0 and length == len(data):
            return data
        return memoryview(data)[offset:offset + length]

    def retrieve_many(self, ranges, principal: str = "") -> List[bytes]:
        """Serve many ``(fid, offset, length)`` ranges in one call.

        The batched form of :meth:`retrieve` behind
        :class:`~repro.rpc.messages.MultiRetrieveRequest`. All ranges
        are validated before any byte is served — explicit non-negative
        lengths (no ``-1`` tail reads: the reply carries no framing),
        in-bounds against the fragment, and non-overlapping within one
        fragment — so a bad batch fails whole, never half-answered.
        Each distinct fragment's slot is visited once; the spans read
        from disk are recorded in ``last_disk_spans`` for the simulated
        transport's disk-time model.
        """
        self.last_disk_spans = []
        self._require_available()
        ranges = [(int(fid), int(offset), int(length))
                  for fid, offset, length in ranges]
        infos = {}
        per_fid: dict = {}
        for fid, offset, length in ranges:
            if offset < 0 or length < 0:
                raise BadRequestError(
                    "multi-retrieve needs explicit non-negative ranges, "
                    "got [%d, +%d) in fragment %d" % (offset, length, fid))
            info = infos.get(fid)
            if info is None:
                info = infos[fid] = self._info_or_raise(fid)
            if offset + length > info["length"]:
                raise BadRequestError(
                    "range [%d, %d) outside fragment of %d bytes"
                    % (offset, offset + length, info["length"]))
            per_fid.setdefault(fid, []).append((offset, length))
        for fid, spans in per_fid.items():
            spans = sorted(spans)
            for (off_a, len_a), (off_b, _len_b) in zip(spans, spans[1:]):
                if off_a + len_a > off_b:
                    raise BadRequestError(
                        "overlapping ranges [%d, %d) and [%d, ...) in "
                        "fragment %d" % (off_a, off_a + len_a, off_b, fid))
        for fid, offset, length in ranges:
            self.acls.check_access(infos[fid].get("acl_ranges", []), offset,
                                   length, principal, "r")
        images = {}
        for fid, spans in per_fid.items():
            images[fid], from_disk = self._image(fid, infos[fid])
            if from_disk:
                self.last_disk_spans.append(
                    (fid, min(offset for offset, _length in spans),
                     sum(length for _offset, length in spans)))
        self.bytes_retrieved += sum(length for _fid, _offset, length in ranges)
        self.retrieve_ops += 1
        return [memoryview(images[fid])[offset:offset + length]
                for fid, offset, length in ranges]

    def delete(self, fid: int, principal: str = "") -> None:
        """Delete fragment ``fid``, freeing its slot."""
        self._require_available()
        info = self._info_or_raise(fid)
        self.acls.check_access(info.get("acl_ranges", []), 0,
                               info.get("length", 0), principal, "w")
        self.backend.clear_slot(info["slot"])
        self._cache.pop(fid, None)
        self.slots.release(fid)
        self.delete_ops += 1

    def preallocate(self, fid: int) -> int:
        """Reserve a slot for ``fid`` ahead of its store; returns the slot.

        Lets a client guarantee space for an incoming stripe before
        transferring any data.
        """
        self._require_available()
        if fid in self.slots:
            raise FragmentExistsError("fragment %d already present" % fid)
        slot = self.slots.reserve()
        self.slots.commit(fid, slot, 0, False, [], preallocated=True)
        return slot

    def last_marked(self, client_id: int = -1) -> int:
        """FID of the newest marked fragment on this server (0 if none).

        ``client_id`` >= 0 limits the search to that client's fragments.
        """
        self._require_available()
        return self.slots.newest_marked_fid(client_id)

    def holds(self, fid: int) -> bool:
        """Whether this server stores fragment ``fid`` (broadcast query)."""
        self._require_available()
        info = self.slots.info_of(fid)
        return info is not None and not info.get("preallocated")

    def holds_many(self, fids) -> List[int]:
        """Subset of ``fids`` stored here, in request order.

        The batched form of :meth:`holds`: one location broadcast asks
        each server about *every* wanted fragment at once, so locating F
        fragments across S servers costs at most S round trips instead
        of F×S.
        """
        self._require_available()
        held: List[int] = []
        for fid in fids:
            info = self.slots.info_of(fid)
            if info is not None and not info.get("preallocated"):
                held.append(fid)
        return held

    def fragment_info(self, fid: int) -> FragmentInfo:
        """Metadata for one stored fragment."""
        self._require_available()
        info = self._info_or_raise(fid)
        return FragmentInfo(fid=fid, slot=info["slot"],
                            length=info["length"], marked=info["marked"])

    def list_fids(self) -> List[int]:
        """All stored FIDs. Behind the ``ListFids`` verb that fsck, repair
        and crash recovery's census use; the paper's op set has none."""
        self._require_available()
        return sorted(self.slots.fids())

    # ------------------------------------------------------------------
    # ACL management (§2.4.2)
    # ------------------------------------------------------------------

    def create_acl(self, readers: Set[str], writers: Set[str]) -> int:
        """Create an ACL; returns the new AID."""
        self._require_available()
        aid = self.acls.create_acl(readers, writers)
        self._persist_acls()
        return aid

    def modify_acl(self, aid: int, readers: Set[str] = None,
                   writers: Set[str] = None) -> None:
        """Replace an ACL's membership."""
        self._require_available()
        self.acls.modify_acl(aid, readers, writers)
        self._persist_acls()

    def delete_acl(self, aid: int) -> None:
        """Delete an ACL."""
        self._require_available()
        self.acls.delete_acl(aid)
        self._persist_acls()

    # ------------------------------------------------------------------
    # Failure injection / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate a crash: the server stops answering immediately.

        Volatile state (including the fragment cache) is discarded;
        durable state (slots + fragment map) persists in the backend.
        """
        self.available = False
        self._cache.clear()

    def restart(self) -> None:
        """Bring the server back: reload durable state from the backend."""
        self.slots = SlotTable(self.backend, self.config.total_slots)
        self.acls = self._load_acls()
        self.available = True

    def _load_acls(self) -> AclStore:
        payload = self.backend.load_metadata("acls")
        if payload is None:
            return AclStore(enforce=self.config.enforce_acls)
        return AclStore.load(payload, enforce=self.config.enforce_acls)

    def _persist_acls(self) -> None:
        self.backend.save_metadata("acls", self.acls.dump())

    def invalidate_cache(self, fid: int) -> None:
        """Drop ``fid`` from the volatile fragment cache.

        Failure injection that mutates durable slot bytes behind the
        server's back (corruption, torn stores) must call this, or
        retrieves keep serving the stale cached image.
        """
        self._cache.pop(fid, None)

    def _image(self, fid: int, info: dict) -> Tuple[bytes, bool]:
        """Fragment ``fid``'s bytes, and whether they came from disk."""
        data = self._cache.get(fid)
        if data is not None:
            self._cache.move_to_end(fid)
            self.cache_hits += 1
            return data, False
        if self.config.cache_fragments:
            self.cache_misses += 1
        data = self.backend.read_slot(info["slot"])
        if data is None:
            raise FragmentNotFoundError("fragment %d has no slot data" % fid)
        self._cache_insert(fid, data)
        return data, True

    def _cache_insert(self, fid: int, data) -> None:
        if self.config.cache_fragments <= 0:
            return
        # Ownership is taken only when the fragment is actually cached;
        # with caching off, the caller's bytes-like data is never copied.
        self._cache[fid] = bytes(data)
        self._cache.move_to_end(fid)
        while len(self._cache) > self.config.cache_fragments:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------

    def _info_or_raise(self, fid: int) -> dict:
        info = self.slots.info_of(fid)
        if info is None or info.get("preallocated"):
            raise FragmentNotFoundError("no fragment %d on %s"
                                        % (fid, self.server_id))
        return info
