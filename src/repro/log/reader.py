"""Sequential log reading: locate, fetch, and parse fragments in order.

Used by crash recovery (rollforward) and by the cleaner. The reader
walks FIDs in sequence, learning fragment→server placements from stripe
descriptors as it goes so that only one broadcast per stripe is usually
needed. Each fragment is read through the reconstructor's ladder
(:mod:`repro.log.reconstruct`), so unavailable or corrupt fragments are
rebuilt transparently; a fragment that is absent everywhere *and*
unreconstructable marks the end of the log (or, mid-log, the boundary
of an incompletely flushed tail — rollforward stops there, yielding a
consistent prefix of the record stream).

Read-ahead is windowed, mirroring the write path's write-behind: up to
``max_inflight`` retrieves travel at once, dispatched as one
:meth:`~repro.rpc.transport.Transport.submit_many` scatter so the
simulated testbed charges the batch's *overlapped* elapsed time, and
consumed strictly in FID order. A degraded fragment mid-window falls
back to parity reconstruction without stalling its neighbors, and a
prefetch the reader abandons still evicts its placement and counts in
``prefetch_failures`` instead of vanishing. The reader scores nothing
on the failure detector itself: a reader built on the log's transport
reaches the servers through the retry layer, which has already scored
every attempt, prefetches included.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigError, ReconstructionError, SwarmError
from repro.log.fragment import Fragment
from repro.log.location import LocationCache
from repro.log.records import Record
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m


class LogReader:
    """Reads one client's log in FID order."""

    def __init__(self, transport, principal: str = "",
                 locations: Optional[LocationCache] = None,
                 verify: bool = False, max_inflight: int = 1) -> None:
        if max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        self.transport = transport
        self.principal = principal
        self.max_inflight = max_inflight
        self.prefetch_failures: Dict[str, int] = {}
        self.locations = locations if locations is not None else \
            LocationCache(transport, principal)
        # Reconstruction shares the same placement cache, so stripe
        # descriptors learned either way serve both paths.
        self.reconstructor = Reconstructor(
            transport, principal, locations=self.locations, verify=verify)

    def read_fragment(self, fid: int,
                      prefetched=None) -> Optional[Fragment]:
        """Fetch and parse fragment ``fid``; None if it does not exist.

        ``prefetched`` is a ``(server_id, future)`` pair from the
        read-ahead window; its image, when it arrived, is handed to the
        reconstructor's read ladder (:mod:`repro.log.reconstruct`) as
        the copy to check first.
        """
        image = None
        if prefetched is not None:
            image = self._prefetched_image(fid, *prefetched)
        try:
            image = self.reconstructor.fetch(fid, image)
        except ReconstructionError:
            return None
        fragment = Fragment.decode(image)
        self.locations.learn(fragment.header)
        return fragment

    def _prefetched_image(self, fid: int, server_id: str,
                          prefetched) -> Optional[bytes]:
        """Resolve a prefetch started by the read-ahead window."""
        from repro.rpc.completion import gather

        try:
            future = gather([prefetched])[0]
        except SwarmError:
            return None  # cannot drive it here; fall back to a fresh call
        if not future.ok:
            if not isinstance(future.exception, SwarmError):
                raise future.exception
            self._note_prefetch_failure(fid, server_id)
            return None
        return future.value.payload

    def _note_prefetch_failure(self, fid: int, server_id: str) -> None:
        """Account one failed prefetched retrieve: the placement is
        evicted (it pointed somewhere that could not answer) and the
        server's ``prefetch_failures`` count goes up."""
        self.locations.evict(fid)
        self.prefetch_failures[server_id] = \
            self.prefetch_failures.get(server_id, 0) + 1

    def _refill_window(self, pending: "OrderedDict", next_fid: int) -> None:
        """Dispatch the next read-ahead window as one scatter.

        Prefetches the contiguous run of fids from ``next_fid`` whose
        placements are already cached (learned from stripe descriptors
        as the reader walks), up to ``max_inflight`` deep, in a single
        ``submit_many`` — on the simulated transport the batch is
        charged its overlapped elapsed time, not one round trip per
        fragment. The run stops at the first unknown placement:
        consumption is strictly in order, so fetching past a gap would
        race a broadcast the gap itself may obviate.
        """
        plan = []
        fid = next_fid
        while len(plan) < self.max_inflight:
            server_id = self.locations.get(fid)
            if server_id is None:
                break
            plan.append((fid, server_id))
            fid += 1
        if not plan:
            return
        futures = self.transport.submit_many(
            [(server_id, m.RetrieveRequest(fid=fid, principal=self.principal))
             for fid, server_id in plan])
        for (fid, server_id), future in zip(plan, futures):
            if not future.triggered:
                # Abandoned or failed prefetches must not re-raise out
                # of somebody else's sim.run(); waiters contain them.
                add_callback = getattr(future, "add_callback", None)
                if add_callback is not None:
                    add_callback(lambda _event: None)
            pending[fid] = (server_id, future)

    def _abandon_window(self, pending: "OrderedDict") -> None:
        """Release prefetches the caller will never consume.

        Cancellation must not mask errors: a prefetch that already
        failed still evicts its placement and is counted, and a
        non-protocol exception (a programming error) is re-raised
        rather than swallowed.
        """
        try:
            for fid, (server_id, future) in pending.items():
                if not future.triggered or future.ok:
                    continue
                if not isinstance(future.exception, SwarmError):
                    raise future.exception
                self._note_prefetch_failure(fid, server_id)
        finally:
            pending.clear()

    def fragments_from(self, start_fid: int) -> Iterator[Fragment]:
        """Yield fragments starting at ``start_fid`` until the log ends.

        Streams with bounded read-ahead: while the caller parses
        fragment ``fid``, retrieves for up to ``max_inflight`` of its
        successors are already in flight (their placements known from
        the stripe descriptors just learned). The window refills as a
        batch when it drains and is consumed strictly in FID order;
        ``max_inflight=1`` is exactly the old one-fragment-ahead
        prefetch. A fragment whose prefetch failed falls back to the
        reconstructor's read ladder without disturbing the rest
        of the window, and in-flight prefetches left over when the log
        ends (or the caller stops early) are abandoned without masking
        their errors.
        """
        pending: "OrderedDict" = OrderedDict()
        fid = start_fid
        try:
            while True:
                fragment = self.read_fragment(
                    fid, prefetched=pending.pop(fid, None))
                if fragment is None:
                    return
                fid += 1
                if not pending:
                    self._refill_window(pending, fid)
                yield fragment
        finally:
            self._abandon_window(pending)

    def records_from(self, start_fid: int, min_lsn: int = 0) -> List[Record]:
        """All records in fragments >= ``start_fid`` with LSN > ``min_lsn``,
        in LSN (= log) order."""
        records: List[Record] = []
        for fragment in self.fragments_from(start_fid):
            for record in fragment.records():
                if record.lsn > min_lsn:
                    records.append(record)
        records.sort(key=lambda record: record.lsn)
        return records
