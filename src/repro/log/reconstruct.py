"""Client-side fragment reconstruction (§2.4.3).

When a storage server is unavailable, any fragment it held can be
rebuilt from the rest of its stripe. Servers take no part in this —
reconstruction is *transparent to the servers, not the clients*. The
protocol is exactly the paper's:

1. Fragments of a stripe have consecutive FIDs, so for a missing
   fragment N, fragment N−1 or N+1 is in the same stripe. The client
   *broadcasts* to all storage servers asking who holds those FIDs —
   no directory service exists or is needed (Swarm is self-hosting).
2. A located neighbor's header carries the full stripe descriptor:
   base FID, width, and the server of every member.
3. The client fetches the surviving members and XORs them together.
   Parity payloads are defined as the XOR of the data members' whole
   images, so a missing data fragment comes back as a complete,
   parseable image (with harmless zero padding), and a missing parity
   fragment is simply recomputed.

Fault tolerance extensions beyond the paper: pass a
:class:`~repro.rpc.retry.RetryPolicy` and flaky (rather than dead)
servers are retried with backoff before the parity path engages; pass
``verify=True`` and every directly-fetched image is checksum-verified,
so *silent corruption* (a bit flip on the wire or on the platter) is
treated exactly like an unavailable fragment and rebuilt from parity.

Rebuilt images are cached. A :class:`Reconstructor` lives as long as
its owner (a client's log layer, a :class:`~repro.log.reader.LogReader`,
a repair daemon, an fsck pass), so a scan that reads eight blocks of
one lost fragment pays one broadcast, one stripe fetch and one decode,
not eight. What goes in: only images that :meth:`_decode_erased`
rebuilt and that passed ``Fragment.decode(verify_crc=True)``, plus the
parity re-encoded from them; a direct fetch from a server is never
cached, verified or not. The bound: a least-recently-used cap of
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
    ReconstructionError,
    SwarmError,
    UnrecoverableError,
)
from repro.log.coding import decode_data, engine_for_stripe
from repro.log.fragment import (
    Fragment,
    FragmentHeader,
    MAX_STRIPE_WIDTH,
    NO_PARITY,
    make_parity_fragment,
)
from repro.log.location import LocationCache
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call


class Reconstructor:
    """Fetches fragments, reconstructing them from parity when needed.

    Pass ``locations`` to share one :class:`LocationCache` with the log
    layer / reader driving the reconstruction: placements learned here
    (including whole stripe descriptors) then benefit every later read,
    and placements that fail a retrieve are evicted for everyone.

    ``cache`` holds at most ``MAX_STRIPE_WIDTH`` rebuilt images, least
    recently used first (see the module docstring).
    """

    def __init__(self, transport, principal: str = "",
                 locations: Optional[LocationCache] = None,
                 retry_policy=None, verify: bool = False) -> None:
        from repro.rpc.retry import wrap_transport

        transport = wrap_transport(transport, retry_policy)
        self.transport = transport
        self.principal = principal
        self.verify = verify
        self.cache: "OrderedDict[int, bytes]" = OrderedDict()
        self.locations = locations if locations is not None else \
            LocationCache(transport, principal)
        self.reconstructions = 0
        self.corruptions_detected = 0

    # ------------------------------------------------------------------

    def fetch(self, fid: int) -> bytes:
        """Return fragment ``fid``'s image: from the cache of rebuilt
        images, from a server, or by XOR."""
        cached = self.cached(fid)
        if cached is not None:
            return cached
        image = self._try_direct(fid)
        if image is not None:
            return image
        return self.reconstruct(fid)

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

    def _try_direct(self, fid: int,
                    server_id: Optional[str] = None) -> Optional[bytes]:
        if server_id is None:
            server_id = self.locations.locate(fid)
            if server_id is None:
                return None
        fetched = self._scatter_fetch([(fid, server_id)])
        return fetched.get(fid)

    def _scatter_fetch(self,
                       targets: Sequence[Tuple[int, str]]) -> Dict[int, bytes]:
        """Fetch many whole fragment images in one overlapped scatter.

        ``targets`` pairs each fid with the server believed to hold it;
        all retrieves go out concurrently (§2.1.2 pipelining, applied
        to the read side). Returns ``{fid: image}`` for the fetches
        that succeeded — and, in verified mode, parsed with a matching
        payload CRC. A failed or corrupt fetch evicts its placement and
        is simply absent from the result; callers fall back per
        fragment (re-locate, or rebuild through parity).
        """
        targets = list(targets)
        futures = scatter_call(
            self.transport,
            [(server_id, m.RetrieveRequest(fid=fid, principal=self.principal))
             for fid, server_id in targets])
        images: Dict[int, bytes] = {}
        for (fid, server_id), future in zip(targets, futures):
            if not future.ok:
                self.locations.evict(fid)
                continue
            image = future.value.payload
            if self.verify:
                try:
                    Fragment.decode(image, verify_crc=True)
                except CorruptFragmentError:
                    # The bytes came back but they are not the
                    # fragment: a torn store or silent bit rot. Treat
                    # exactly like an unavailable fragment — evict the
                    # placement and let the parity path rebuild the
                    # true image.
                    self.corruptions_detected += 1
                    self.locations.evict(fid)
                    continue
            self.locations.record(fid, server_id)
            images[fid] = image
        return images

    # ------------------------------------------------------------------

    def reconstruct(self, fid: int) -> bytes:
        """Rebuild fragment ``fid`` from the rest of its stripe.

        All survivor fetches go out in one scatter — the whole rebuild
        costs roughly one overlapped round trip (plus the descriptor
        probe), not width−1 serial ones. Probed neighbor images are
        reused as survivors rather than fetched twice.

        Any erasure pattern of at most ``m`` members (``m`` = the
        stripe's parity count, from its descriptor) is recoverable:
        missing siblings discovered along the way simply join the
        erased set handed to the coding engine's decoder.
        """
        header, probed = self._find_stripe_descriptor(fid)
        if header is None:
            raise ReconstructionError(
                "no stripe neighbor of fragment %d found; cannot reconstruct"
                % fid)
        base = header.stripe_base_fid
        width = header.stripe_width
        if header.parity_index == NO_PARITY or header.parity_index >= width:
            nparity = 0
        else:
            nparity = width - header.parity_index
        missing_index = fid - base
        survivors: Dict[int, bytes] = {}
        wanted: List[Tuple[int, str]] = []
        for index in range(width):
            if index == missing_index:
                continue
            sibling = base + index
            image = probed.get(sibling)
            if image is not None:
                survivors[index] = image
            else:
                wanted.append((sibling, header.server_of_index(index)))
        fetched = self._scatter_fetch(wanted)
        erased = {missing_index}
        for sibling, _descriptor_server in wanted:
            image = fetched.get(sibling)
            if image is None:
                # The descriptor's placement failed: re-locate through
                # a broadcast before declaring the member gone.
                image = self._try_direct(sibling)
            if image is None:
                erased.add(sibling - base)
                if len(erased) > nparity:
                    if nparity == 1:
                        raise UnrecoverableError(
                            "two members of stripe %d..%d unavailable or "
                            "corrupt (%d and %d): single parity cannot "
                            "recover both"
                            % (base, base + width - 1, fid, sibling))
                    raise UnrecoverableError(
                        "%d members of stripe %d..%d unavailable or corrupt "
                        "(%s): %d parity fragment(s) cannot recover them"
                        % (len(erased), base, base + width - 1,
                           ", ".join(str(base + i) for i in sorted(erased)),
                           nparity))
            else:
                survivors[sibling - base] = image
        self.reconstructions += 1
        rebuilt = self._decode_erased(header, survivors, erased)
        # A multi-erasure decode rebuilds every missing member in one
        # solve; cache the siblings too, so a scan that trips over the
        # next dead fragment of the same stripe pays nothing. The
        # requested image goes in last, as the most recently used.
        image = rebuilt.pop(missing_index)
        for index, sibling in sorted(rebuilt.items()):
            self._remember(base + index, sibling)
        self._remember(fid, image)
        return image

    def _find_stripe_descriptor(
            self, fid: int,
    ) -> Tuple[Optional[FragmentHeader], Dict[int, bytes]]:
        """Race ``fid``'s neighbors for a stripe descriptor.

        Fragments of a stripe have consecutive FIDs, so some fragment
        within ``MAX_STRIPE_WIDTH − 1`` of ``fid`` carries the
        descriptor. The nearest candidates (``fid±1``) are fetched
        *concurrently* and the first (lowest-fid) parseable same-stripe
        header wins — deterministically, so a replayed chaos schedule
        makes identical choices. When both immediate neighbors are down
        too (multi-erasure stripes), the probe ring widens one distance
        at a time — the single-failure fast path costs exactly the two
        probes it always did. Returns the header (None when no
        neighbor answers) plus every probed image, keyed by fid, so
        the caller can reuse in-stripe neighbors as survivors instead
        of fetching them a second time.
        """
        probed_all: Dict[int, bytes] = {}
        for distance in range(1, MAX_STRIPE_WIDTH):
            neighbors = [n for n in (fid - distance, fid + distance)
                         if n > 0 and n not in probed_all]
            if not neighbors:
                continue
            found = self.locations.locate_many(neighbors)
            probed = self._scatter_fetch(sorted(found.items()))
            probed_all.update(probed)
            for neighbor in sorted(probed):
                try:
                    header = FragmentHeader.decode(probed[neighbor])
                except SwarmError:
                    continue
                if header.stripe_base_fid <= fid < (header.stripe_base_fid
                                                    + header.stripe_width):
                    self.locations.learn(header)
                    # The fragment being reconstructed just failed a
                    # direct fetch — do not resurrect its stale
                    # placement from the descriptor we learned.
                    self.locations.evict(fid)
                    return header, probed_all
        return None, probed_all

    def _decode_erased(self, header: FragmentHeader,
                       survivors: Dict[int, bytes],
                       erased) -> Dict[int, bytes]:
        """Rebuild every erased member's image from the survivors.

        ``survivors`` maps stripe indices to images; ``erased`` is the
        set of missing stripe indices (at most the stripe's parity
        count). Data members are recovered through the coding engine's
        cached decode matrices and validated (parse + payload CRC — an
        undetected-corrupt survivor would poison the combine); missing
        parity members are re-encoded from the full set of data images
        afterwards.
        """
        base = header.stripe_base_fid
        width = header.stripe_width
        engine = engine_for_stripe(width, header.parity_index)
        if engine is None:
            raise UnrecoverableError(
                "stripe %d..%d was written without parity; member %s "
                "cannot be reconstructed"
                % (base, base + width - 1,
                   ", ".join(str(base + i) for i in sorted(erased))))
        ndata = header.parity_index
        present: Dict[int, bytes] = {}
        for index, image in survivors.items():
            present[index] = (self._parity_payload(image)
                              if index >= ndata else image)
        recovered = decode_data(ndata, engine.parity_count, present)
        rebuilt: Dict[int, bytes] = {}
        for index, image in recovered.items():
            try:
                Fragment.decode(image, verify_crc=True)
            except CorruptFragmentError as exc:
                raise ReconstructionError(
                    "reconstructed fragment failed validation (%s); a stripe "
                    "member is silently corrupt" % exc) from exc
            rebuilt[index] = image
        erased_parity = sorted(i for i in erased if i >= ndata)
        if erased_parity:
            data_images = [survivors[i] if i in survivors else rebuilt[i]
                           for i in range(ndata)]
            for index in erased_parity:
                payload = engine.encode_slot(data_images, index - ndata)
                parity = make_parity_fragment(
                    base + index, header.client_id, data_images, base,
                    width, index, header.servers, payload=payload,
                    parity_index=ndata)
                rebuilt[index] = parity.encode()
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
        """Reconstruct ``fid``, store it on ``target_server``, verify it.

        Used when repairing the cluster after replacing a failed server:
        clients re-materialize the fragments the dead server held. The
        rewrite is careful on three counts:

        * **Atomic-store path** — the slot is preallocated first, so
          the target either commits the whole image or holds an empty
          reservation; a crash mid-repair never leaves a torn fragment
          behind. A target already holding different bytes under this
          fid (a stale or damaged copy) is deleted and rewritten whole.
        * **Marked flag from the header** — a checkpoint fragment's
          ``marked`` bit is part of the data (recovery finds
          checkpoints through it), so it is taken from the rebuilt
          image's own header, never guessed by the caller.
        * **CRC read-back** — the fragment only counts as repaired
          after the target returns bytes that are identical to the
          rebuilt image and pass the payload checksum.

        Returns the stored image (callers meter repair bandwidth off
        its size). The new placement is recorded in the shared
        :class:`LocationCache` so the next read goes straight to the
        target instead of re-sweeping the group.
        """
        image = bytes(self.fetch(fid))
        header = Fragment.decode(image).header
        try:
            self.transport.call(target_server,
                                m.PreallocateRequest(fid=fid,
                                                     principal=self.principal))
        except FragmentExistsError:
            pass  # already present (stale copy or resumed repair)
        store = m.StoreRequest(fid=fid, data=image, principal=self.principal,
                               marked=header.marked)
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
        self._verify_read_back(fid, target_server, image)
        self.locations.record(fid, target_server)
        return image

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
