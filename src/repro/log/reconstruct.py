"""Client-side fragment reads and reconstruction (§2.4.3).

Every read of a stored fragment goes through one ladder, owned by
:class:`Reconstructor`; the log layer serves only its own unflushed
builders and the sequential reader only adds read-ahead. For a
fragment ``fid``, :meth:`Reconstructor.fetch` tries, in order:

1. the cache of rebuilt images;
2. the caller's image, when one is given (a read-ahead prefetch);
3. the located server — the location cache, else a broadcast; a member
   of a stripe in the location cache's stripe table that has no
   placement is lost, and skips straight to step 4;
4. a rebuild from parity, over the stripe the table names or, for a
   fid no table stripe covers, the stripe one probe finds (see
   "Reconstruction itself" below).

**The one check.** A copy is good when
``Fragment.decode(image, verify_crc=verify)`` accepts it: the header
checksum and length are always checked, the payload CRC only when the
reconstructor verifies. Survivors pass the same check; a probe reads
headers only, and skips one whose checksum fails.

**Corrupt is an erasure.** A copy that fails the check counts in
``corruptions_detected``, has its placement evicted, and is treated
exactly like an unavailable fragment: it is rebuilt from parity (or, as
a survivor, joins the erased set) and is never retrieved again.

**Re-locate once.** When a retrieve fails as unavailable and the
placement came from the location cache, a fragment no table stripe
covers is re-located by one broadcast and retrieved again; a covered
one, or one placed by a broadcast, goes straight to parity. Over a
:class:`~repro.rpc.retry.RetryingTransport` (the log layer's) flaky,
rather than dead, servers are retried with backoff before any of this
engages.

Reconstruction itself is the paper's protocol. Servers take no part in
it — reconstruction is *transparent to the servers, not the clients*:

1. Every fragment header carries the full stripe descriptor: base
   FID, width, parity count and the server of every member. A client
   already holds the headers of its own log — it sealed every stripe,
   or read the headers in a census — so the location cache's stripe
   table gives the lost fragment's stripe and each member's server
   without a message (a cached placement, such as a repair's move,
   wins over the descriptor's).
2. Only for a fid no table entry covers (another client's fragment,
   or a fresh reconstructor with its own cache) does the client probe:
   fragments of a stripe have consecutive FIDs, so the stripe's other
   members lie within ``MAX_STRIPE_WIDTH − 1`` of fragment N, and their
   headers carry the descriptor. One *broadcast* asks all storage
   servers who holds the uncovered fids of that window — no directory
   service exists or is needed (Swarm is self-hosting) — and one
   scatter reads their headers, the same header read the census makes
   (:func:`~repro.log.location.read_headers`).
3. The client fetches every other member in one scatter, each from
   its cached placement or else the server its descriptor names, and
   decodes from the first ``k`` copies that pass the check, data
   members first. Only a rebuild short of ``k`` copies
   re-locates the missing members, by one broadcast. Parity payloads
   are defined over the data members' whole images, so a missing data
   fragment comes back as a complete, parseable image (with harmless
   zero padding). A data read rebuilds only the erased data members;
   erased parity is re-encoded only when a parity member is asked for
   (repair asks for a stripe's highest fid first, so one survivor
   fetch serves the whole stripe).

Byte-range reads (:meth:`Reconstructor.fetch_range`,
:meth:`Reconstructor.fetch_ranges`) take a partial-retrieve fast path
when unverified; verified, the payload CRC covers whole fragments, so
they fetch whole images through the ladder and slice them.

Rebuilt images are cached. A :class:`Reconstructor` lives as long as
its owner (a client's log layer, whose rollforward reads through it
too; a repair daemon; an fsck pass), so a scan that reads eight blocks of
one lost fragment pays one stripe fetch and one decode, not eight.
What goes in: only images that :meth:`_decode_erased` rebuilt and that
passed ``Fragment.decode(verify_crc=True)``, plus any parity re-encoded
from them; a direct fetch from a server is never cached, verified or
not. The bound: a least-recently-used cap of
``MAX_STRIPE_WIDTH`` images — one whole stripe's worth — so a repair
that rebuilds a dead server's every fragment holds no more than a
stripe at a time. Invalidation: a cached image stays correct until its
fragment is deleted, because fids (``make_fid(client_id, seq)``) are
never reused and a stored image is immutable; :meth:`forget` drops
deleted fids. The cache is per client, so only this client's own
deletes evict it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    CorruptFragmentError,
    FragmentExistsError,
    LogError,
    ReconstructionError,
    SwarmError,
    UnrecoverableError,
)
from repro.log.coding import decode_data, engine_for_stripe
from repro.log.fragment import (
    Fragment,
    FragmentHeader,
    MAX_STRIPE_WIDTH,
    make_parity_fragment,
)
from repro.log.location import LocationCache, read_headers
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call
from repro.util.fids import fid_client


class Reconstructor:
    """Owns the fragment-read ladder (see the module docstring).

    Pass ``locations`` to share one :class:`LocationCache` with the log
    layer driving the reconstruction: its stripe table then covers the
    client's own stripes, placements learned here (including whole
    stripe descriptors) benefit every later read, and placements that
    fail a retrieve are evicted for everyone.

    ``cache`` holds at most ``MAX_STRIPE_WIDTH`` rebuilt images, least
    recently used first (see the module docstring).
    """

    def __init__(self, transport, principal: str = "",
                 locations: Optional[LocationCache] = None,
                 verify: bool = False) -> None:
        self.transport = transport
        self.principal = principal
        self.verify = verify
        self.cache: "OrderedDict[int, bytes]" = OrderedDict()
        self.locations = locations if locations is not None else \
            LocationCache(transport, principal)
        self.reconstructions = 0
        self.corruptions_detected = 0

    # ------------------------------------------------------------------

    def fetch(self, fid: int, image=None) -> bytes:
        """Return fragment ``fid``'s whole image through the ladder.

        ``image`` is a copy the caller already holds (a read-ahead
        prefetch); it passes the one check or is rebuilt, never
        retrieved again. See the module docstring for the ladder.
        """
        cached = self.cached(fid)
        if cached is not None:
            return cached
        if image is None:
            image = self._retrieve(fid)
        elif not self._intact(fid, image):
            image = None
        if image is None:
            return self.reconstruct(fid)
        return image

    def fetch_range(self, fid: int, offset: int, length: int) -> bytes:
        """Return ``length`` owned bytes at ``offset`` in fragment ``fid``.

        Unverified, a partial retrieve from the located server; a
        failure evicts the placement and falls back to :meth:`fetch`.
        Verified, the whole image is fetched and sliced: the payload
        checksum covers the whole payload.
        """
        if self.cache:
            # A fragment rebuilt earlier: no locate, no broadcast.
            image = self.cached(fid)
            if image is not None:
                return bytes(image[offset:offset + length])
        if not self.verify:
            server_id = self.locations.locate(fid, trust_table=True)
            if server_id is not None:
                try:
                    response = self.transport.call(
                        server_id, m.RetrieveRequest(
                            fid=fid, offset=offset, length=length,
                            principal=self.principal))
                    return bytes(response.payload)
                except LogError:
                    raise
                except SwarmError:
                    self.locations.evict(fid)
        image = self.fetch(fid)
        return bytes(image[offset:offset + length])

    def fetch_ranges(self, ranges: Sequence[Tuple[int, int, int]],
                     ) -> List[Optional[bytes]]:
        """Read many ``(fid, offset, length)`` ranges, batched per server.

        Returns one owned ``bytes`` per range, in request order, or
        ``None`` where the bytes could not be produced even through
        reconstruction. Unverified, ranges are grouped by located
        server and fetched with *one* ``MultiRetrieveRequest`` per
        server, all servers in one overlapped scatter — round trips
        proportional to the stripe width, not to the block count. A
        failed batch falls back to :meth:`fetch_range` per range, so
        one sick server degrades the batch to the old cost, never to a
        wrong answer. Verified, each distinct fragment is fetched whole
        once through the ladder and sliced.
        """
        results: List[Optional[bytes]] = [None] * len(ranges)
        if self.verify:
            images: Dict[int, Optional[bytes]] = {}
            for index, (fid, offset, length) in enumerate(ranges):
                if fid not in images:
                    try:
                        images[fid] = self.fetch(fid)
                    except SwarmError:
                        images[fid] = None
                if images[fid] is not None:
                    results[index] = bytes(images[fid][offset:offset + length])
            return results
        located = self.locations.locate_many(
            sorted({fid for fid, _offset, _length in ranges}),
            trust_table=True)
        by_server: Dict[str, List[int]] = {}
        fallback: List[int] = []
        for index, (fid, _offset, _length) in enumerate(ranges):
            server_id = located.get(fid)
            if server_id is None:
                fallback.append(index)
            else:
                by_server.setdefault(server_id, []).append(index)
        groups = sorted(by_server.items())
        futures = scatter_call(self.transport, [
            (server_id, m.MultiRetrieveRequest(
                ranges=tuple(ranges[index] for index in indices),
                principal=self.principal))
            for server_id, indices in groups])
        for (server_id, indices), future in zip(groups, futures):
            if future.ok:
                payload = memoryview(future.value.payload)
                if len(payload) == sum(ranges[index][2] for index in indices):
                    pos = 0
                    for index in indices:
                        length = ranges[index][2]
                        results[index] = bytes(payload[pos:pos + length])
                        pos += length
                    continue
                # Garbled reply length: re-read these ranges one by one.
                fallback.extend(indices)
                continue
            # Stale placements or a downed server: evict so the
            # per-range ladder broadcasts/reconstructs afresh.
            for index in indices:
                self.locations.evict(ranges[index][0])
            fallback.extend(indices)
        for index in fallback:
            fid, offset, length = ranges[index]
            try:
                data = self.fetch_range(fid, offset, length)
            except SwarmError:
                continue
            if len(data) == length:
                results[index] = data
        return results

    def cached(self, fid: int) -> Optional[bytes]:
        """Fragment ``fid``'s rebuilt image if it is cached, else None."""
        image = self.cache.get(fid)
        if image is not None:
            self.cache.move_to_end(fid)
        return image

    def forget(self, fids: Iterable[int]) -> None:
        """Drop deleted fragments' images from the cache."""
        for fid in fids:
            self.cache.pop(fid, None)

    def _remember(self, fid: int, image: bytes) -> None:
        self.cache[fid] = image
        self.cache.move_to_end(fid)
        if len(self.cache) > MAX_STRIPE_WIDTH:
            self.cache.popitem(last=False)

    def _intact(self, fid: int, image) -> bool:
        """The one check; a copy that fails it is counted and evicted."""
        try:
            Fragment.decode(image, verify_crc=self.verify)
        except CorruptFragmentError:
            self.corruptions_detected += 1
            self.locations.evict(fid)
            return False
        return True

    def _retrieve(self, fid: int) -> Optional[bytes]:
        """Ladder step 3: ``fid``'s good copy from its server, or None.

        A placement from the location cache that fails as unavailable
        is re-located by one broadcast; one from a broadcast is not,
        and neither is a member of a stripe in the table.
        """
        relocate = fid in self.locations
        while True:
            server_id = self.locations.locate(fid, trust_table=True)
            if server_id is None:
                return None
            fetched = self._scatter_fetch([(fid, server_id)])
            if fid in fetched or not relocate:
                return fetched.get(fid)
            relocate = False

    def _scatter_fetch(self, targets: Sequence[Tuple[int, str]],
                       ) -> Dict[int, Optional[bytes]]:
        """Fetch many whole fragment images in one overlapped scatter.

        ``targets`` pairs each fid with the server believed to hold it;
        all retrieves go out concurrently (§2.1.2 pipelining, applied
        to the read side). Returns ``{fid: image}`` for the copies that
        came back and passed the one check, ``{fid: None}`` for those
        that came back and failed it; a failed retrieve is absent.
        Either failure evicts the placement.
        """
        targets = list(targets)
        futures = scatter_call(
            self.transport,
            [(server_id, m.RetrieveRequest(fid=fid, principal=self.principal))
             for fid, server_id in targets])
        images: Dict[int, Optional[bytes]] = {}
        for (fid, server_id), future in zip(targets, futures):
            if not future.ok:
                self.locations.evict(fid)
            elif self._intact(fid, future.value.payload):
                self.locations.record(fid, server_id)
                images[fid] = future.value.payload
            else:
                images[fid] = None
        return images

    # ------------------------------------------------------------------

    def reconstruct(self, fid: int) -> bytes:
        """Rebuild fragment ``fid`` from the rest of its stripe.

        The stripe comes from the table (:meth:`LocationCache.stripe_of`)
        or, for a fid no table entry covers, from :meth:`_probe_stripe`;
        when neither finds one, :class:`~repro.errors.ReconstructionError`
        is raised. Every other member is fetched in one scatter, from its
        cached placement or else the server its descriptor names, so a
        rebuild costs one overlapped round trip. Only when fewer than
        ``k`` (the data member count) copies pass the check are the rest
        re-located, by one broadcast. The decode uses the first ``k``
        copies, data members first, and any erasure pattern of at most
        ``m`` members (the stripe's parity count) is recoverable.

        A data member's read rebuilds the erased data members only; the
        erased parity members are re-encoded only when one of them is
        asked for (a repair). Everything rebuilt is cached, the requested
        image last, as the most recently used.
        """
        header = self.locations.stripe_of(fid) or self._probe_stripe(fid)
        if header is None:
            raise ReconstructionError(
                "no stripe of fragment %d found; cannot reconstruct" % fid)
        base = header.stripe_base_fid
        width = header.stripe_width
        nparity = header.parity_count
        ndata = width - nparity
        siblings = [base + index for index in range(width)
                    if base + index != fid]
        copies = self._scatter_fetch(
            [(sibling, self.locations.get(sibling)
              or header.servers[sibling - base]) for sibling in siblings])
        if nparity and sum(image is not None
                           for image in copies.values()) < ndata:
            # Short of survivors: a member may have moved (a repair, a
            # stale placement). One broadcast re-locates the rest; a
            # copy that failed the check is never retrieved again.
            located = self.locations.locate_many(
                [sibling for sibling in siblings if sibling not in copies])
            copies.update(self._scatter_fetch(sorted(located.items())))
        survivors = {sibling - base: image
                     for sibling, image in copies.items() if image is not None}
        if nparity and len(survivors) < ndata:
            erased = [base + index for index in range(width)
                      if index not in survivors]
            raise UnrecoverableError(
                "%d members of stripe %d..%d unavailable or corrupt (%s): "
                "%s" % (len(erased), base, base + width - 1,
                        ", ".join(map(str, erased)),
                        "single parity cannot recover both" if nparity == 1
                        else "%d parity fragments cannot recover them"
                        % nparity))
        self.reconstructions += 1
        rebuilt = self._decode_erased(header, survivors, fid - base)
        image = rebuilt.pop(fid - base)
        for index, sibling in sorted(rebuilt.items()):
            self._remember(base + index, sibling)
        self._remember(fid, image)
        return image

    def _probe_stripe(self, fid: int) -> Optional[FragmentHeader]:
        """Learn the stripe of a fid no table entry covers, or None.

        Fragments of a stripe have consecutive FIDs, so the stripe's
        other members lie within ``MAX_STRIPE_WIDTH - 1`` of ``fid``.
        The window is the client's own fids there that no table stripe
        covers: one :meth:`LocationCache.locate_many` finds them, one
        :func:`~repro.log.location.read_headers` scatter reads their
        headers, and the lowest-fid header whose stripe holds ``fid``
        enters the table (deterministic, so a replayed chaos schedule
        makes identical choices).
        """
        client = fid_client(fid)
        low = max(1, fid - MAX_STRIPE_WIDTH + 1)
        window = [neighbor for neighbor in range(low, fid + MAX_STRIPE_WIDTH)
                  if neighbor != fid and fid_client(neighbor) == client
                  and self.locations.covering(neighbor) is None]
        located = self.locations.locate_many(window)
        for header in read_headers(self.transport, located, self.principal):
            if header.stripe_base_fid <= fid < (header.stripe_base_fid
                                                + header.stripe_width):
                self.locations.learn(header)
                # The fragment being reconstructed is missing or corrupt:
                # do not resurrect its placement from the descriptor.
                self.locations.evict(fid)
                return header
        return None

    def _decode_erased(self, header: FragmentHeader,
                       survivors: Dict[int, bytes],
                       wanted: int) -> Dict[int, bytes]:
        """Rebuild member ``wanted`` and every erased data member.

        ``survivors`` maps stripe indices to images, at least ``k`` of
        them. The first ``k``, data members first, feed the coding
        engine's cached decode matrices; each rebuilt data image is
        validated (parse + payload CRC — an undetected-corrupt survivor
        would poison the combine). A parity member is re-encoded from
        the data images only when a parity member is ``wanted``; then
        every erased parity member is, since only repair asks for parity
        and it rebuilds them all.
        """
        base = header.stripe_base_fid
        width = header.stripe_width
        engine = engine_for_stripe(header.parity_count)
        if engine is None:
            raise UnrecoverableError(
                "stripe %d..%d was written without parity; member %d "
                "cannot be reconstructed" % (base, base + width - 1,
                                             base + wanted))
        ndata = header.parity_index
        present = {index: (self._parity_payload(survivors[index])
                           if index >= ndata else survivors[index])
                   for index in sorted(survivors)[:ndata]}
        rebuilt: Dict[int, bytes] = {}
        for index, image in decode_data(ndata, engine.parity_count,
                                        present).items():
            try:
                Fragment.decode(image, verify_crc=True)
            except CorruptFragmentError as exc:
                raise ReconstructionError(
                    "reconstructed fragment failed validation (%s); a stripe "
                    "member is silently corrupt" % exc) from exc
            rebuilt[index] = image
        if wanted >= ndata:
            data_images = [survivors[i] if i in survivors else rebuilt[i]
                           for i in range(ndata)]
            for index in range(ndata, width):
                if index not in survivors:
                    payload = engine.encode_slot(data_images, index - ndata)
                    rebuilt[index] = make_parity_fragment(
                        base + index, header.client_id, payload, base,
                        width, index, header.servers, ndata).encode()
        return rebuilt

    @staticmethod
    def _parity_payload(parity_image: bytes) -> bytes:
        fragment = Fragment.decode(parity_image)
        if not fragment.header.is_parity:
            raise ReconstructionError(
                "stripe descriptor named a non-parity fragment as parity")
        return fragment.payload

    # ------------------------------------------------------------------

    def rebuild_to_server(self, fid: int, target_server: str) -> bytes:
        """Reconstruct ``fid`` and :meth:`store_verified` it on
        ``target_server`` — how clients re-materialize a dead server's
        fragments. Returns the image (callers meter repair bandwidth
        off its size)."""
        image = bytes(self.fetch(fid))
        self.store_verified(fid, image, target_server)
        return image

    def store_verified(self, fid: int, image: bytes,
                       target_server: str) -> None:
        """Store a repaired fragment image on ``target_server``, verified.

        Every repaired fragment is written here, whether rebuilt from
        parity or sealed to complete a torn stripe. The write is careful
        on three counts:

        * **Atomic-store path** — the slot is preallocated first, so
          the target either commits the whole image or holds an empty
          reservation; a crash mid-repair never leaves a torn fragment
          behind. A target already holding different bytes under this
          fid (a stale or damaged copy) is deleted and rewritten whole.
        * **Marked flag from the header** — a checkpoint fragment's
          ``marked`` bit is part of the data (recovery finds
          checkpoints through it), so it is taken from the image's own
          header, never guessed by the caller.
        * **CRC read-back** — the fragment only counts as stored after
          the target returns bytes identical to the image that pass
          the payload checksum; otherwise the copy is deleted and
          :class:`~repro.errors.ReconstructionError` is raised.

        The new placement is recorded in the shared
        :class:`LocationCache`, so the next read goes straight to it.
        """
        try:
            self.transport.call(target_server,
                                m.PreallocateRequest(fid=fid,
                                                     principal=self.principal))
        except FragmentExistsError:
            pass  # already present (stale copy or resumed repair)
        store = m.StoreRequest(fid=fid, data=image, principal=self.principal,
                               marked=Fragment.decode(image).header.marked)
        try:
            self.transport.call(target_server, store)
        except FragmentExistsError:
            # The target holds committed bytes under this fid. Identical
            # bytes mean an earlier (possibly crashed) repair already
            # won; anything else is stale and must be replaced whole.
            existing = self.transport.call(
                target_server, m.RetrieveRequest(fid=fid,
                                                 principal=self.principal))
            if bytes(existing.payload) != image:
                self.transport.call(
                    target_server, m.DeleteRequest(fid=fid,
                                                   principal=self.principal))
                self.transport.call(target_server, store)
        try:
            self._verify_read_back(fid, target_server, image)
        except ReconstructionError:
            # A missing member is found and repaired again; a bad copy
            # left behind would be listed as present.
            self.transport.call(target_server, m.DeleteRequest(
                fid=fid, principal=self.principal))
            raise
        self.locations.record(fid, target_server)

    def _verify_read_back(self, fid: int, target_server: str,
                          image: bytes) -> None:
        probe = self.transport.call(
            target_server, m.RetrieveRequest(fid=fid,
                                             principal=self.principal))
        committed = bytes(probe.payload)
        if committed != image:
            raise ReconstructionError(
                "read-back of repaired fragment %d on %s differs from the "
                "rebuilt image" % (fid, target_server))
        try:
            Fragment.decode(committed, verify_crc=True)
        except CorruptFragmentError as exc:
            raise ReconstructionError(
                "repaired fragment %d on %s failed its checksum read-back"
                % (fid, target_server)) from exc
