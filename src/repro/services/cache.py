"""Client-side block cache with optional fragment prefetch.

The prototype had neither server-side fragment caching nor client
prefetch, which is why it read uncached 4 KB blocks at only 1.7 MB/s
(§3.4); the paper notes both "would greatly improve" read performance.
This service implements the client half: an LRU block cache keyed by
block address, plus optional whole-fragment prefetch — on a miss, the
client fetches the entire enclosing fragment, parses its items locally,
and caches every block in it, turning a run of sequential 4 KB reads
into one 1 MB transfer. ``ablate_read_prefetch`` models that effect
with fragment-sized retrieves; this option itself is unmeasured.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.log.address import BlockAddress
from repro.log.fragment import Fragment
from repro.services.base import Service


class CacheService(Service):
    """LRU cache of blocks, keyed by :class:`BlockAddress`."""

    def __init__(self, service_id: int, capacity_bytes: int = 16 << 20,
                 prefetch_fragments: bool = False) -> None:
        super().__init__(service_id, "cache")
        self.capacity_bytes = capacity_bytes
        self.prefetch_fragments = prefetch_fragments
        self._entries: "OrderedDict[BlockAddress, bytes]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.prefetched_blocks = 0

    # ------------------------------------------------------------------
    # Cache hooks (called by the stack's read path)
    # ------------------------------------------------------------------

    def cache_lookup(self, addr: BlockAddress) -> Optional[bytes]:
        data = self._entries.get(addr)
        if data is not None:
            self._entries.move_to_end(addr)
            self.hits += 1
            return data
        self.misses += 1
        if self.prefetch_fragments:
            self._prefetch(addr.fid)
            data = self._entries.get(addr)
            if data is not None:
                return data
        return None

    def cache_insert(self, addr: BlockAddress, data: bytes) -> None:
        self._insert(addr, data)

    def cache_invalidate(self, addr: BlockAddress) -> None:
        data = self._entries.pop(addr, None)
        if data is not None:
            self._bytes -= len(data)

    # ------------------------------------------------------------------

    def _insert(self, addr: BlockAddress, data: bytes) -> None:
        if len(data) > self.capacity_bytes:
            return
        existing = self._entries.pop(addr, None)
        if existing is not None:
            self._bytes -= len(existing)
        self._entries[addr] = data
        self._bytes += len(data)
        while self._bytes > self.capacity_bytes:
            _old_addr, old_data = self._entries.popitem(last=False)
            self._bytes -= len(old_data)

    def _prefetch(self, fid: int) -> None:
        """Fetch a whole fragment and cache every block inside it."""
        try:
            image = self.stack.log.read_fragment(fid)
            fragment = Fragment.decode(image)
        except Exception:
            return
        for item in fragment.items():
            if item.record is None:
                block_addr = BlockAddress(fid, item.data_offset,
                                          len(item.data))
                self._insert(block_addr, item.data)
                self.prefetched_blocks += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def cached_bytes(self) -> int:
        """Bytes currently cached."""
        return self._bytes

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses), or 0.0 before any lookups."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Empty the cache (keeps statistics)."""
        self._entries.clear()
        self._bytes = 0
