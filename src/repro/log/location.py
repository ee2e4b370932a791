"""Shared client-side fragment-location cache and stripe table.

Swarm has no directory service: the cluster itself answers "who holds
fragment N" through the broadcast ``holds`` query (§2.4.3). That makes
every location lookup a full sweep of the stripe group, so the client
caches everything it learns — from its own writes, from stripe
descriptors embedded in fetched fragment headers, and from broadcast
answers — and batches the lookups it still has to make into one RPC per
server.

**The stripe table.** Every fragment header carries its whole stripe
descriptor (§2.1): base fid, width, parity count and the server of
every member. The cache keeps one header per stripe, keyed by base fid,
and finds any fid's stripe by bisect (:meth:`LocationCache.stripe_of`),
so a degraded read knows the stripe it must rebuild without asking the
servers. :meth:`LocationCache.learn` fills it: the log layer once per
stripe it seals, the census for every header it reads, and a read for
every fragment it parses. A member with no cached placement takes its
descriptor's server; a cached one (a repair's move, a broadcast
answer) takes precedence. :meth:`LocationCache.forget_stripes` drops
the stripes the client deletes, so the table is bounded by the
client's live stripes.

One cache is meant to be *shared* across everything a client runs: the
log layer builds one and hands it to its reconstructor, and the
sequential log reader and the repair daemon accept one, so a placement
or a stripe learned on any path is reused by all of them.

The *census* (:func:`take_census`), which repair and crash recovery
share, fills the cache the other way: every server lists the client's
fids, and each listed fid's header is read. Headers are read one way,
:func:`read_headers`: the census reads the listed fids through it, and
the reconstructor's probe (a fid no table stripe covers, such as
another client's) reads the fids around the one it must rebuild.

Invalidation: placements are dropped when a retrieve against the cached
server fails (the placement is stale or the server is down), when a
stripe is deleted, and when the client reforms its stripe group away
from a departed server. A read of a table stripe's member whose
placement was dropped goes straight to parity; a rebuild still tries
the member at the server its descriptor names.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

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


def read_headers(transport, placements: Dict[int, str],
                 principal: str) -> List[FragmentHeader]:
    """Read the header of every fid in ``placements`` (fid → server).

    One scatter of header-sized partial retrieves. Returns the headers
    that came back and parse, in fid order; one that cannot be fetched
    or parsed is skipped. The census and the reconstructor's stripe
    probe both learn stripes through it.
    """
    futures = scatter_call(
        transport,
        [(server_id, m.RetrieveRequest(fid=fid, offset=0,
                                       length=HEADER_SIZE,
                                       principal=principal))
         for fid, server_id in sorted(placements.items())])
    headers: List[FragmentHeader] = []
    for future in futures:
        if not future.ok:
            continue
        try:
            headers.append(FragmentHeader.decode(future.value.payload))
        except SwarmError:
            continue
    return headers


def take_census(transport, client_id: int, principal: str,
                locations: LocationCache) -> Census:
    """List the client's fids, then fetch every listed fid's header.

    Two scatters: :func:`list_client_fids`, then :func:`read_headers`
    over every listed fid. A header that cannot be fetched or parsed is
    skipped; its stripe is still found through any listed sibling.
    What was found enters ``locations`` (:meth:`LocationCache.learn_listing`).
    """
    placements = list_client_fids(transport, client_id, principal)
    stripes = {header.stripe_base_fid: header for header
               in read_headers(transport, placements, principal)}
    locations.learn_listing(placements, stripes.values())
    return Census(placements, stripes)


class LocationCache:
    """fid → server-id map with batched broadcast fill, and the stripe
    table (see the module docstring)."""

    def __init__(self, transport, principal: str = "") -> None:
        self.transport = transport
        self.principal = principal
        self._map: Dict[int, str] = {}
        self._stripes: Dict[int, FragmentHeader] = {}
        self._bases: List[int] = []  # the table's keys, sorted
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

        The stripe enters the table, and each member without a cached
        placement takes the descriptor's server: one header saves
        ``width - 1`` future broadcasts.
        """
        base = header.stripe_base_fid
        if base not in self._stripes:
            insort(self._bases, base)
        self._stripes[base] = header
        for index, server_id in enumerate(header.servers):
            self._map.setdefault(base + index, server_id)

    def learn_listing(self, placements: Dict[int, str],
                      headers: Iterable[FragmentHeader]) -> None:
        """Absorb a listing of the client's fids and one header read off
        it per stripe.

        Each listed fid takes its listed server, and each header's
        stripe enters the table. A stripe member no server listed is
        lost: its placement is dropped.
        """
        for fid, server_id in placements.items():
            self.record(fid, server_id)
        for header in headers:
            self.learn(header)
            for fid in header.sibling_fids():
                if fid not in placements:
                    self.evict(fid)

    def stripe_of(self, fid: int) -> Optional[FragmentHeader]:
        """The table's descriptor of the stripe holding ``fid``, or None.

        A lookup the table answers counts as a hit.
        """
        header = self.covering(fid)
        if header is not None:
            self.hits += 1
        return header

    def covering(self, fid: int) -> Optional[FragmentHeader]:
        """:meth:`stripe_of` without counting a hit: for bookkeeping
        that is not a lookup, such as bounding a stripe probe."""
        index = bisect_right(self._bases, fid)
        if index:
            header = self._stripes[self._bases[index - 1]]
            if fid < header.stripe_base_fid + header.stripe_width:
                return header
        return None

    def forget_stripes(self, fids: Iterable[int]) -> None:
        """Drop the table's stripes whose base is among deleted ``fids``."""
        for fid in fids:
            if self._stripes.pop(fid, None) is not None:
                self._bases.remove(fid)

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

    # -- filling (batched broadcast) -----------------------------------------

    def locate(self, fid: int, trust_table: bool = False) -> Optional[str]:
        """Server holding ``fid``; broadcasts on a cache miss."""
        return self.locate_many((fid,), trust_table).get(fid)

    def locate_many(self, fids: Sequence[int],
                    trust_table: bool = False) -> Dict[int, str]:
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

        With ``trust_table`` (the read path) a member of a table stripe
        that has no placement is not broadcast for: it is lost, and its
        reader rebuilds it from the stripe's survivors.
        """
        found: Dict[int, str] = {}
        missing = []
        for fid in fids:
            server_id = self._map.get(fid)
            if server_id is not None:
                found[fid] = server_id
                self.hits += 1
            elif not trust_table or self.stripe_of(fid) is None:
                missing.append(fid)
        if missing:
            self.misses += len(missing)
            self.broadcasts += 1
            located = self.transport.broadcast_holds(
                missing, on_unreachable=self.evict_server)
            for fid in sorted(located):
                self._map[fid] = located[fid]
            found.update(located)
        return found
