"""Background repair: re-materialize a dead server's fragments.

After the stripe group reforms away from a dead member, every stripe
written *before* the reform is one failure away from data loss — its
redundancy is spent until the lost member is rebuilt somewhere. The
:class:`RepairDaemon` closes that window in the background:

1. **Enumerate** — one scatter lists every reachable server's fids for
   the client, one scatter fetches just the fragment *headers* (stripe
   descriptors), and the stripes with absent members fall out. The
   candidates are cross-checked with a ``broadcast_holds`` sweep so a
   fragment that survived on a restarted server is not rebuilt twice.
   Everything learned seeds the shared
   :class:`~repro.log.location.LocationCache`.
2. **Repair** — lost fragments are rebuilt in batches: each
   reconstruction scatter-fetches its stripe's survivors, then the
   batch's preallocates and stores go to the replacement as one
   overlapped scatter each, with a read-back verification scatter
   before anything counts as repaired (collisions fall back to the
   careful per-fragment
   :meth:`~repro.log.reconstruct.Reconstructor.rebuild_to_server`
   path).
3. **Throttle** — a repair-bandwidth budget converts repaired bytes
   into simulated seconds charged to the transport's deferred-time
   ledger, so on the simulated testbed repair traffic and foreground
   traffic contend in the resource model instead of by decree.
4. **Resume** — progress (verified-repaired fids) is exposed as a
   plain dict; a daemon constructed with a crashed predecessor's
   progress skips the work already proven done instead of restarting.

The daemon also coordinates with the cleaner: stripes queued for
repair are put on hold (cleaning a stripe mid-rebuild would race the
reconstruction), and released as each stripe returns to full strength.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import FragmentExistsError, SwarmError
from repro.log.fragment import HEADER_SIZE, Fragment, FragmentHeader
from repro.log.location import LocationCache
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call
from repro.rpc.retry import charge_delay
from repro.util.packing import unpack_fids

DEFAULT_THROTTLE_BYTES_PER_S = 32 << 20
"""Default repair-bandwidth budget (32 MB/s — a fraction of a modern
disk, so foreground traffic keeps headroom)."""


class RepairDaemon:
    """Rebuilds the fragments a dead server held onto a replacement.

    Drive it with :meth:`run` (discover + repair to completion) or, to
    interleave repair with foreground work the way a real background
    scrubber would, call :meth:`discover` once and then :meth:`step`
    repeatedly.
    """

    def __init__(self, transport, client_id: int, replacement,
                 principal: str = "",
                 locations: Optional[LocationCache] = None,
                 throttle_bytes_per_s: float = DEFAULT_THROTTLE_BYTES_PER_S,
                 batch_fragments: int = 4,
                 cleaner=None,
                 resume: Optional[Dict[str, object]] = None) -> None:
        if throttle_bytes_per_s <= 0:
            raise ValueError("throttle_bytes_per_s must be positive")
        if batch_fragments < 1:
            raise ValueError("batch_fragments must be >= 1")
        self.transport = transport
        self.client_id = client_id
        # One replacement server, or several: a multi-parity group that
        # lost two members needs its rebuilt fragments spread across
        # *distinct* spares (two members of one stripe on one server
        # would recreate a double-loss single point of failure).
        self.replacements: List[str] = ([replacement]
                                        if isinstance(replacement, str)
                                        else list(replacement))
        if not self.replacements:
            raise ValueError("repair needs at least one replacement server")
        if len(set(self.replacements)) != len(self.replacements):
            raise ValueError("duplicate replacement server")
        self.principal = principal or "client-%d" % client_id
        self.locations = locations if locations is not None else \
            LocationCache(transport, self.principal)
        self.reconstructor = Reconstructor(transport, self.principal,
                                           locations=self.locations)
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.batch_fragments = batch_fragments
        self.cleaner = cleaner
        self.pending: List[int] = []
        self.completed: Set[int] = set()
        if resume:
            self.completed.update(int(fid) for fid
                                  in resume.get("completed", ()))
        self._stripe_of: Dict[int, Tuple[int, int]] = {}
        self._held_bases: Set[int] = set()
        # Statistics.
        self.fragments_repaired = 0
        self.bytes_repaired = 0
        self.throttle_charged_s = 0.0
        self.resumed_skips = 0
        self.sweeps = 0

    # ------------------------------------------------------------------
    # Progress (resume after a crashed repair)
    # ------------------------------------------------------------------

    @property
    def replacement(self) -> str:
        """The first replacement server (single-spare compatibility)."""
        return self.replacements[0]

    def progress(self) -> Dict[str, object]:
        """Serializable snapshot; feed it to a successor's ``resume``."""
        return {
            "client_id": self.client_id,
            "replacement": self.replacement,
            "replacements": list(self.replacements),
            "completed": sorted(self.completed),
            "pending": sorted(self.pending),
        }

    @property
    def done(self) -> bool:
        """Whether every discovered lost fragment has been repaired."""
        return not self.pending

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def discover(self, dead_server: Optional[str] = None) -> List[int]:
        """Find lost fragments; returns the newly queued fids.

        ``dead_server`` seeds the candidate list with the location
        cache's memory of what lived there (cheap, no network); the
        full inventory sweep then finds everything else, including
        losses the cache never knew about.
        """
        self.sweeps += 1
        suspects: Set[int] = set()
        if dead_server is not None:
            suspects.update(self.locations.fids_on(dead_server))
        present = self._list_present()
        for fid, server_id in present.items():
            self.locations.record(fid, server_id)
        shapes = self._stripe_shapes(present)
        missing: Set[int] = set(suspects)
        for base, width in shapes.items():
            for offset in range(width):
                fid = base + offset
                self._stripe_of[fid] = (base, width)
                if fid not in present:
                    missing.add(fid)
        missing -= set(present)
        # Cross-check with the broadcast sweep: a fragment that is
        # actually held somewhere (restarted server, concurrent repair)
        # needs no rebuild. Stale cached placements (they point at the
        # dead server) must be evicted first, or the cache would answer
        # the broadcast for the cluster.
        for fid in missing:
            self.locations.evict(fid)
        still_lost = sorted(missing - set(self.locations.locate_many(
            sorted(missing))))
        fresh = [fid for fid in still_lost
                 if fid not in self.completed and fid not in self.pending]
        for fid in list(fresh):
            if fid not in self._stripe_of:
                # No surviving sibling names this fid's stripe: nothing
                # to rebuild from (and nothing to rebuild — the cache
                # entry was for a fragment deleted everywhere).
                fresh.remove(fid)
        self.pending.extend(fresh)
        self._hold_for_repair(fresh)
        return fresh

    def _list_present(self) -> Dict[int, str]:
        """All the client's fids on reachable servers, one scatter."""
        request = m.ListFidsRequest(client_id=self.client_id,
                                    principal=self.principal)
        server_ids = self.transport.server_ids()
        futures = scatter_call(
            self.transport,
            [(server_id, request) for server_id in server_ids])
        present: Dict[int, str] = {}
        for server_id, future in zip(server_ids, futures):
            if not future.ok:
                continue
            fids, _end = unpack_fids(future.value.payload)
            for fid in fids:
                present.setdefault(fid, server_id)
        return present

    def _stripe_shapes(self, present: Dict[int, str]) -> Dict[int, int]:
        """Stripe descriptors of every present fragment, headers only.

        One scatter of header-sized partial retrieves; a fragment whose
        header cannot be fetched or parsed is simply skipped (its
        stripe is still discovered through any surviving sibling).
        """
        plan = sorted(present.items())
        futures = scatter_call(
            self.transport,
            [(server_id, m.RetrieveRequest(fid=fid, offset=0,
                                           length=HEADER_SIZE,
                                           principal=self.principal))
             for fid, server_id in plan])
        shapes: Dict[int, int] = {}
        for (fid, _server_id), future in zip(plan, futures):
            if not future.ok:
                continue
            try:
                header = FragmentHeader.decode(future.value.payload)
            except SwarmError:
                continue
            shapes[header.stripe_base_fid] = header.stripe_width
        return shapes

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def step(self, max_fragments: Optional[int] = None) -> int:
        """Repair one batch of pending fragments; returns the count.

        Call repeatedly (interleaved with foreground work) until
        :attr:`done`. Each batch charges its bytes against the repair
        throttle before returning.
        """
        if not self.pending:
            return 0
        budget = self.batch_fragments if max_fragments is None \
            else max(1, max_fragments)
        batch, self.pending = self.pending[:budget], self.pending[budget:]
        repaired_bytes = 0
        repaired = 0
        for fid in batch:
            if fid in self.completed:
                self.resumed_skips += 1
                continue
            image = self._repair_one(fid)
            repaired_bytes += len(image)
            repaired += 1
            self.completed.add(fid)
            self._release_if_whole(fid)
        if repaired_bytes:
            seconds = repaired_bytes / self.throttle_bytes_per_s
            self.throttle_charged_s += seconds
            charge_delay(self.transport, seconds)
        self.fragments_repaired += repaired
        self.bytes_repaired += repaired_bytes
        return repaired

    def run(self, dead_server: Optional[str] = None) -> int:
        """Discover (if needed) and repair everything; returns count."""
        if dead_server is not None or not self.pending:
            self.discover(dead_server)
        total = 0
        while self.pending:
            total += self.step()
        return total

    def _repair_one(self, fid: int) -> bytes:
        """Rebuild one fragment onto its replacement, fully verified."""
        return self.reconstructor.rebuild_to_server(fid,
                                                    self._target_for(fid))

    def _target_for(self, fid: int) -> str:
        """The replacement server a lost fragment is rebuilt onto.

        A stripe's lost members are assigned round-robin by their rank
        in the stripe's sorted lost set (queued *or* already repaired,
        so a resumed daemon keeps spreading where its predecessor left
        off) — guaranteeing distinct targets for members of the same
        stripe whenever enough replacements were provided. Deterministic
        for replay: depends only on the discovered loss set.
        """
        if len(self.replacements) == 1:
            return self.replacements[0]
        shape = self._stripe_of.get(fid)
        if shape is None:
            return self.replacements[0]
        base, width = shape
        lost = sorted(f for f in range(base, base + width)
                      if f == fid or f in self.completed
                      or f in self.pending)
        return self.replacements[lost.index(fid) % len(self.replacements)]

    def repair_batch_scattered(self, fids: Iterable[int]) -> int:
        """Repair ``fids`` with batch-level scatters (fast path).

        Reconstructs every image first (each reconstruction already
        scatter-fetches its survivors), then sends the whole batch's
        preallocates and stores as one overlapped scatter each and
        verifies them with a read-back scatter. A fragment whose store
        collides with existing bytes falls back to the per-fragment
        :meth:`~repro.log.reconstruct.Reconstructor.rebuild_to_server`
        resolution. Returns the number repaired.
        """
        todo = [fid for fid in fids if fid not in self.completed]
        if not todo:
            return 0
        targets = {fid: self._target_for(fid) for fid in todo}
        images: Dict[int, bytes] = {}
        for fid in todo:
            images[fid] = bytes(self.reconstructor.fetch(fid))
        # Best-effort: a target that cannot reserve fails its store below.
        scatter_call(self.transport, [
            (targets[fid], m.PreallocateRequest(
                fid=fid, principal=self.principal)) for fid in todo])
        store_futures = scatter_call(self.transport, [
            (targets[fid], m.StoreRequest(
                fid=fid, data=images[fid], principal=self.principal,
                marked=Fragment.decode(images[fid]).header.marked))
            for fid in todo])
        collided = [fid for fid, future in zip(todo, store_futures)
                    if not future.ok and isinstance(
                        future.exception, FragmentExistsError)]
        for fid, future in zip(todo, store_futures):
            if future.ok or isinstance(future.exception,
                                       FragmentExistsError):
                continue
            raise future.exception
        repaired_bytes = 0
        for fid in todo:
            if fid in collided:
                # Existing bytes on the replacement: let the careful
                # path compare / replace / verify this one.
                self.reconstructor.rebuild_to_server(fid, targets[fid])
            else:
                self.reconstructor._verify_read_back(
                    fid, targets[fid], images[fid])
                self.locations.record(fid, targets[fid])
            repaired_bytes += len(images[fid])
            self.completed.add(fid)
            self.pending = [p for p in self.pending if p != fid]
            self._release_if_whole(fid)
        if repaired_bytes:
            seconds = repaired_bytes / self.throttle_bytes_per_s
            self.throttle_charged_s += seconds
            charge_delay(self.transport, seconds)
        self.fragments_repaired += len(todo)
        self.bytes_repaired += repaired_bytes
        return len(todo)

    # ------------------------------------------------------------------
    # Cleaner coordination
    # ------------------------------------------------------------------

    def _hold_for_repair(self, fids: Iterable[int]) -> None:
        bases = {self._stripe_of[fid][0] for fid in fids
                 if fid in self._stripe_of}
        bases -= self._held_bases
        if not bases:
            return
        self._held_bases.update(bases)
        if self.cleaner is not None:
            self.cleaner.hold_for_repair(bases)

    def _release_if_whole(self, fid: int) -> None:
        """Release a stripe's cleaner hold once all its members exist."""
        shape = self._stripe_of.get(fid)
        if shape is None:
            return
        base, width = shape
        if base not in self._held_bases:
            return
        outstanding = any(base + offset in self.pending
                          for offset in range(width))
        if outstanding:
            return
        self._held_bases.discard(base)
        if self.cleaner is not None:
            self.cleaner.release_repair_hold((base,))
