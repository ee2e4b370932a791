"""Sequential log reading: fetch and parse a census's fragments in order.

Used by crash recovery (rollforward). The reader walks what a
:class:`~repro.log.location.Census` lists: the data members of every
listed stripe, in fid order. Parity members hold no records and are
never read. The census seeds the location cache, so the scan locates
nothing it lists by broadcast, and it ends where the census ends: the
reader never probes past the last listed stripe.

Every fragment is read through the read ladder of the
:class:`~repro.log.reconstruct.Reconstructor` the reader is given, so
unavailable or corrupt fragments are rebuilt transparently, and the
placements the scan learns serve the reconstructor owner's later reads.
A member that can be neither read nor rebuilt is skipped. Under the
fault model (at most ``m`` members of a stripe lost) such a member is
the unacked suffix of a torn stripe or a member of a stripe the cleaner
was deleting; a stripe that lost more than its parity loses its records
either way, and the scan keeps the acked records above it.

Read-ahead is windowed, mirroring the write path's write-behind: up to
``max_inflight`` retrieves travel as one overlapped
:func:`~repro.rpc.completion.scatter_call`, and the window is consumed
strictly in FID order. A failed retrieve in the window evicts its
placement when its fid comes up and then climbs the ladder like any
other read; a degraded fragment falls back to parity without stalling
its neighbors. The reader scores nothing on the failure detector
itself: a reconstructor on the log's transport reaches the servers
through the retry layer, which has already scored every attempt.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from repro.errors import ConfigError, ReconstructionError
from repro.log.fragment import Fragment
from repro.log.location import Census, take_census
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call
from repro.util.fids import fid_client


class LogReader:
    """Reads one client's log in FID order through ``reconstructor``."""

    def __init__(self, reconstructor: Reconstructor,
                 max_inflight: int = 1) -> None:
        if max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        self.reconstructor = reconstructor
        self.max_inflight = max_inflight

    def read_fragment(self, fid: int,
                      image: Optional[bytes] = None) -> Optional[Fragment]:
        """Fetch and parse fragment ``fid``; None if it does not exist.

        ``image`` is a copy from the read-ahead window, handed to the
        read ladder as the copy to check first.
        """
        try:
            image = self.reconstructor.fetch(fid, image)
        except ReconstructionError:
            return None
        fragment = Fragment.decode(image)
        self.reconstructor.locations.learn(fragment.header)
        return fragment

    def _read_window(self, fids: Sequence[int]) -> Dict[int, Optional[bytes]]:
        """Retrieve the leading run of ``fids`` whose placements are
        cached in one scatter.

        The run stops at the first unknown placement: consumption is in
        order, so fetching past a gap would race a broadcast the gap
        itself may obviate. Returns ``{fid: image}``, ``None`` for a
        failed retrieve.
        """
        plan = []
        for fid in fids:
            server_id = self.reconstructor.locations.get(fid)
            if server_id is None:
                break
            plan.append((server_id, m.RetrieveRequest(
                fid=fid, principal=self.reconstructor.principal)))
        futures = scatter_call(self.reconstructor.transport, plan)
        return {request.fid: future.value.payload if future.ok else None
                for (_server_id, request), future in zip(plan, futures)}

    def fragments_from(self, start_fid: int,
                       census: Optional[Census] = None,
                       known: Optional[Dict[int, Fragment]] = None,
                       ) -> Iterator[Fragment]:
        """Yield the census's data fragments from ``start_fid`` on.

        Without a ``census`` the reader takes one for ``start_fid``'s
        client. ``known`` maps fids to fragments the caller has already
        read; they are yielded in their place and never fetched again.
        The read-ahead window refills when it drains, so
        ``max_inflight=1`` is a one-fragment-ahead prefetch.
        """
        known = known or {}
        if census is None:
            census = take_census(self.reconstructor.transport,
                                 fid_client(start_fid),
                                 self.reconstructor.principal,
                                 self.reconstructor.locations)
        fids = [fid for base, header in sorted(census.stripes.items())
                for fid in range(max(base, start_fid), base
                                 + header.stripe_width - header.parity_count)]
        window: Dict[int, Optional[bytes]] = {}
        for position, fid in enumerate(fids):
            if fid in known:
                yield known[fid]
                continue
            if fid in window and window[fid] is None:
                # A failed window retrieve: its placement pointed at a
                # server that could not answer.
                self.reconstructor.locations.evict(fid)
            fragment = self.read_fragment(fid, window.pop(fid, None))
            if not window:
                window = self._read_window(
                    [ahead for ahead in fids[position + 1:position + 1
                                             + self.max_inflight]
                     if ahead not in known])
            if fragment is not None:
                yield fragment
