"""Shared client-side fragment-location cache.

Swarm has no directory service: the cluster itself answers "who holds
fragment N" through the broadcast ``holds`` query (§2.4.3). That makes
every location lookup a full sweep of the stripe group, so the client
caches everything it learns — from its own writes, from stripe
descriptors embedded in fetched fragment headers, and from broadcast
answers — and batches the lookups it still has to make into one RPC per
server.

One cache is meant to be *shared* across everything a client runs: the
log layer builds one and hands it to its reconstructor, and the
sequential log reader and the repair daemon accept one, so a placement
learned on any path is reused by all of them.

The *census* (:func:`take_census`), which repair and crash recovery
share, fills the cache the other way: every server lists the client's
fids, and each listed fid's header is read.

Invalidation: entries are dropped when a retrieve against the cached
server fails (the placement is stale or the server is down), when a
stripe is deleted, and when the client reforms its stripe group away
from a departed server.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.errors import SwarmError
from repro.log.fragment import HEADER_SIZE, FragmentHeader
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call
from repro.util.packing import unpack_fids


def list_client_fids(transport, client_id: int,
                     principal: str) -> Dict[int, str]:
    """All of the client's fids on reachable servers, one scatter.

    Maps each fid to the first server in ``server_ids`` order that
    lists it. Unreachable servers are skipped: their fragments then
    show up as missing stripe members downstream, which is the truth.
    """
    request = m.ListFidsRequest(client_id=client_id, principal=principal)
    server_ids = transport.server_ids()
    futures = scatter_call(
        transport, [(server_id, request) for server_id in server_ids])
    present: Dict[int, str] = {}
    for server_id, future in zip(server_ids, futures):
        if not future.ok:
            continue
        fids, _end = unpack_fids(future.value.payload)
        for fid in fids:
            present.setdefault(fid, server_id)
    return present


class Census(NamedTuple):
    """One client's log as its reachable servers enumerate it:
    ``placements`` maps each listed fid to its server, ``stripes`` each
    stripe with a parseable listed header to that header."""

    placements: Dict[int, str]
    stripes: Dict[int, FragmentHeader]


def take_census(transport, client_id: int, principal: str,
                locations: LocationCache) -> Census:
    """List the client's fids, then fetch every listed fid's header.

    Two scatters: :func:`list_client_fids`, whose placements are
    recorded in ``locations``, then one header-sized partial retrieve
    per listed fid. A header that cannot be fetched or parsed is
    skipped; its stripe is still found through any listed sibling.
    """
    placements = list_client_fids(transport, client_id, principal)
    for fid, server_id in placements.items():
        locations.record(fid, server_id)
    plan = sorted(placements.items())
    futures = scatter_call(
        transport,
        [(server_id, m.RetrieveRequest(fid=fid, offset=0,
                                       length=HEADER_SIZE,
                                       principal=principal))
         for fid, server_id in plan])
    stripes: Dict[int, FragmentHeader] = {}
    for future in futures:
        if not future.ok:
            continue
        try:
            header = FragmentHeader.decode(future.value.payload)
        except SwarmError:
            continue
        stripes[header.stripe_base_fid] = header
    return Census(placements, stripes)


class LocationCache:
    """fid → server-id map with batched broadcast fill."""

    def __init__(self, transport, principal: str = "") -> None:
        self.transport = transport
        self.principal = principal
        self._map: Dict[int, str] = {}
        # Statistics (read by the perf harness and tests).
        self.hits = 0
        self.misses = 0
        self.broadcasts = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, fid: int) -> bool:
        return fid in self._map

    def stats(self) -> Dict[str, int]:
        """One structured counter snapshot (``health_report`` feeds)."""
        return {
            "entries": len(self._map),
            "hits": self.hits,
            "misses": self.misses,
            "broadcasts": self.broadcasts,
            "evictions": self.evictions,
        }

    # -- local (no network) --------------------------------------------------

    def get(self, fid: int) -> Optional[str]:
        """Cached server for ``fid``; never touches the network."""
        return self._map.get(fid)

    def record(self, fid: int, server_id: str) -> None:
        """Remember that ``server_id`` holds ``fid``."""
        self._map[fid] = server_id

    def learn(self, header) -> None:
        """Absorb a fragment header's whole stripe descriptor.

        One fetched fragment names the server of every stripe sibling,
        so a single read can save ``width - 1`` future broadcasts.
        """
        for index, server_id in enumerate(header.servers):
            self._map[header.stripe_base_fid + index] = server_id

    def fids_on(self, server_id: str) -> List[int]:
        """Cached fids believed to live on ``server_id``, sorted.

        The repair daemon's first candidate list after a server dies:
        everything the client remembers placing (or locating) there is
        a stripe that now needs a member re-materialized.
        """
        return sorted(fid for fid, sid in self._map.items()
                      if sid == server_id)

    def evict(self, fid: int) -> None:
        """Drop a placement (observed to be stale or deleted)."""
        if self._map.pop(fid, None) is not None:
            self.evictions += 1

    def evict_server(self, server_id: str) -> None:
        """Drop every placement pointing at ``server_id``."""
        stale = [fid for fid, sid in self._map.items() if sid == server_id]
        for fid in stale:
            del self._map[fid]
        self.evictions += len(stale)

    def clear(self) -> None:
        """Forget everything (keeps statistics)."""
        self._map.clear()

    # -- filling (batched broadcast) -----------------------------------------

    def locate(self, fid: int) -> Optional[str]:
        """Server holding ``fid``; broadcasts on a cache miss."""
        return self.locate_many((fid,)).get(fid)

    def locate_many(self, fids: Sequence[int]) -> Dict[int, str]:
        """Locate many fragments with at most one broadcast.

        Cache hits are answered locally; all misses go out together in
        a single :meth:`~repro.rpc.transport.Transport.broadcast_holds`
        — one RPC per server, and since the broadcast itself scatters,
        the whole sweep costs one overlapped round trip regardless of
        cluster size. Unlocatable fids are absent from the result.

        A server that fails to answer the broadcast also has its cached
        placements evicted: if it cannot say what it holds, everything
        previously believed to be on it is suspect, and later reads
        should re-locate (or reconstruct) rather than keep retrying a
        sick server.
        """
        found: Dict[int, str] = {}
        missing = []
        for fid in fids:
            server_id = self.get(fid)
            if server_id is None:
                missing.append(fid)
            else:
                found[fid] = server_id
                self.hits += 1
        if missing:
            self.misses += len(missing)
            self.broadcasts += 1
            located = self.transport.broadcast_holds(
                missing, on_unreachable=self.evict_server)
            for fid in sorted(located):
                self._map[fid] = located[fid]
            found.update(located)
        return found
