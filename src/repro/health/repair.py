"""Background repair: re-materialize a dead server's fragments.

After the stripe group reforms away from a dead member, every stripe
written *before* the reform is one failure away from data loss — its
redundancy is spent until the lost member is rebuilt somewhere. The
:class:`RepairDaemon` closes that window in the background:

1. **Enumerate** — the census
   (:func:`~repro.log.location.take_census`, which crash recovery
   shares): one scatter lists every reachable server's fids for the
   client, one scatter fetches just the fragment *headers* (stripe
   descriptors), and the stripes with absent members fall out. The
   census is the whole candidate list: nothing is seeded from what the
   client remembers placing on a dead server. The candidates are
   cross-checked with a ``broadcast_holds`` sweep so a fragment that
   survived on a restarted server is not rebuilt twice. Everything
   learned seeds the shared :class:`~repro.log.location.LocationCache`,
   whose stripe table is the daemon's only map of stripe shapes.
2. **Repair** — :meth:`RepairDaemon.step` rebuilds a batch of lost
   fragments one fid at a time, highest first, through
   :meth:`~repro.log.reconstruct.Reconstructor.rebuild_to_server`:
   the table names each stripe's survivors, so a reconstruction is one
   survivor scatter with no probe, and asking for a stripe's lost
   parity first lets that one fetch rebuild its lost data members too.
   The one verified store (preallocate, store, CRC read-back) writes
   the image to its replacement. fsck's repair learns its scrub's
   headers into the daemon's table and queues its degraded stripes
   through the same :meth:`RepairDaemon.enqueue`.
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

from typing import Dict, Iterable, List, Optional, Set

from repro.log.location import LocationCache, take_census
from repro.log.reconstruct import Reconstructor
from repro.rpc.retry import charge_delay

THROTTLE_BYTES_PER_S = 32 << 20
"""Repair-bandwidth budget (32 MB/s — a fraction of a modern disk, so
foreground traffic keeps headroom)."""
BATCH_FRAGMENTS = 4
"""Fragments one :meth:`RepairDaemon.step` repairs by default."""


class RepairDaemon:
    """Rebuilds the fragments a dead server held onto a replacement.

    Drive it with :meth:`run` (discover + repair to completion) or, to
    interleave repair with foreground work the way a real background
    scrubber would, call :meth:`discover` once and then :meth:`step`
    repeatedly.
    """

    def __init__(self, transport, client_id: int, replacement,
                 principal: Optional[str] = None,
                 locations: Optional[LocationCache] = None,
                 cleaner=None,
                 resume: Optional[Dict[str, object]] = None) -> None:
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
        self.principal = ("client-%d" % client_id if principal is None
                          else principal)
        self.locations = locations if locations is not None else \
            LocationCache(transport, self.principal)
        self.reconstructor = Reconstructor(transport, self.principal,
                                           locations=self.locations)
        self.cleaner = cleaner
        self.pending: List[int] = []
        self.completed: Set[int] = set()
        if resume:
            self.completed.update(int(fid) for fid
                                  in resume.get("completed", ()))
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

    def discover(self) -> List[int]:
        """Find lost fragments; returns the newly queued fids.

        The census names every stripe with a listed member, and each
        member no server lists is a candidate. The candidates are
        cross-checked with one broadcast: a fragment that is actually
        held somewhere (a restarted server, a concurrent repair) needs
        no rebuild.
        """
        self.sweeps += 1
        present, stripes = take_census(self.transport, self.client_id,
                                       self.principal, self.locations)
        missing = {fid for header in stripes.values()
                   for fid in header.sibling_fids() if fid not in present}
        return self.enqueue(missing - set(self.locations.locate_many(
            sorted(missing))))

    def enqueue(self, fids: Iterable[int]) -> List[int]:
        """Queue lost fids of stripes in the location cache's table.

        Fids already queued or repaired are skipped; the stripes of the
        rest are held from the cleaner. Returns the newly queued fids,
        highest first: that is the repair order, so a stripe that lost
        a parity member rebuilds it first, and the one survivor fetch
        that re-encodes it also rebuilds (and caches) the stripe's lost
        data members.
        """
        fresh = [fid for fid in sorted(set(fids), reverse=True)
                 if fid not in self.completed and fid not in self.pending]
        self.pending.extend(fresh)
        self._hold_for_repair(fresh)
        return fresh

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------

    def step(self, max_fragments: Optional[int] = None) -> int:
        """Repair one batch of pending fragments; returns the count.

        Call repeatedly (interleaved with foreground work) until
        :attr:`done`. A batch is ``BATCH_FRAGMENTS`` fragments unless
        ``max_fragments`` says otherwise; each charges its bytes against
        the repair throttle before returning.
        """
        if not self.pending:
            return 0
        budget = BATCH_FRAGMENTS if max_fragments is None \
            else max(1, max_fragments)
        repaired_bytes = 0
        repaired = 0
        for fid in self.pending[:budget]:
            # Dequeued once handled: until then the fid counts in its
            # stripe's lost set, which spreads the stripe's targets.
            if fid in self.completed:
                self.pending.remove(fid)
                self.resumed_skips += 1
                continue
            image = self._repair_one(fid)
            self.pending.remove(fid)
            repaired_bytes += len(image)
            repaired += 1
            self.completed.add(fid)
            self._release_if_whole(fid)
        if repaired_bytes:
            seconds = repaired_bytes / THROTTLE_BYTES_PER_S
            self.throttle_charged_s += seconds
            charge_delay(self.transport, seconds)
        self.fragments_repaired += repaired
        self.bytes_repaired += repaired_bytes
        return repaired

    def run(self) -> int:
        """Discover (if nothing is queued) and repair everything; returns
        the count."""
        if not self.pending:
            self.discover()
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
        header = self.locations.stripe_of(fid)
        if header is None:
            return self.replacements[0]
        lost = [f for f in header.sibling_fids()
                if f == fid or f in self.completed or f in self.pending]
        return self.replacements[lost.index(fid) % len(self.replacements)]

    # ------------------------------------------------------------------
    # Cleaner coordination
    # ------------------------------------------------------------------

    def _hold_for_repair(self, fids: Iterable[int]) -> None:
        headers = [self.locations.stripe_of(fid) for fid in fids]
        bases = {header.stripe_base_fid for header in headers
                 if header is not None} - self._held_bases
        if not bases:
            return
        self._held_bases.update(bases)
        if self.cleaner is not None:
            self.cleaner.hold_for_repair(bases)

    def _release_if_whole(self, fid: int) -> None:
        """Release a stripe's cleaner hold once all its members exist."""
        header = self.locations.stripe_of(fid)
        if header is None or header.stripe_base_fid not in self._held_bases:
            return
        if any(member in self.pending for member in header.sibling_fids()):
            return
        base = header.stripe_base_fid
        self._held_bases.discard(base)
        if self.cleaner is not None:
            self.cleaner.release_repair_hold((base,))
