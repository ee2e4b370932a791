"""Sequential log reading: locate, fetch, and parse fragments in order.

Used by crash recovery (rollforward). The reader walks FIDs in
sequence, learning fragment→server placements from stripe descriptors
as it goes so that only one broadcast per stripe is usually needed.
Every fragment is read through the read ladder of the
:class:`~repro.log.reconstruct.Reconstructor` the reader is given, so
unavailable or corrupt fragments are rebuilt transparently, and the
placements the scan learns serve the reconstructor owner's later reads.

A fragment that can be neither read nor rebuilt marks the end of the
log (or, mid-log, the boundary of an incompletely flushed tail —
rollforward stops there, yielding a consistent prefix of the record
stream), with one exception, the *torn tail*: a client that dies
mid-scatter leaves a stripe whose stores landed as a prefix (they
dispatch in stripe order), and its successor writes past it. When the
unreadable fid lies inside the stripe of the last fragment read and
every later member of that stripe is unreadable too, nothing in the
missing suffix was ever acked, so the scan skips to the next stripe
instead of hiding every later write.

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

from typing import Dict, Iterator, Optional

from repro.errors import ConfigError, ReconstructionError
from repro.log.fragment import Fragment
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call


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

    def _read_window(self, fid: int) -> Dict[int, Optional[bytes]]:
        """Retrieve the run of fids from ``fid`` whose placements are
        cached, up to ``max_inflight`` deep, in one scatter.

        The run stops at the first unknown placement: consumption is in
        order, so fetching past a gap would race a broadcast the gap
        itself may obviate. Returns ``{fid: image}``, ``None`` for a
        failed retrieve.
        """
        plan = []
        for ahead in range(fid, fid + self.max_inflight):
            server_id = self.reconstructor.locations.get(ahead)
            if server_id is None:
                break
            plan.append((server_id, m.RetrieveRequest(
                fid=ahead, principal=self.reconstructor.principal)))
        futures = scatter_call(self.reconstructor.transport, plan)
        return {request.fid: future.value.payload if future.ok else None
                for (_server_id, request), future in zip(plan, futures)}

    def fragments_from(self, start_fid: int) -> Iterator[Fragment]:
        """Yield fragments starting at ``start_fid`` until the log ends.

        The read-ahead window refills when it drains, so
        ``max_inflight=1`` is a one-fragment-ahead prefetch. A torn
        tail is skipped (see the module docstring).
        """
        window: Dict[int, Optional[bytes]] = {}
        fid = end = start_fid  # end: one past the last-read stripe
        while True:
            if fid in window and window[fid] is None:
                # A failed window retrieve: its placement pointed at a
                # server that could not answer.
                self.reconstructor.locations.evict(fid)
            fragment = self.read_fragment(fid, window.pop(fid, None))
            if fragment is None:
                if fid >= end or any(
                        self.read_fragment(later) is not None
                        for later in range(fid + 1, end)):
                    return
                fid = end  # a torn tail: nothing in it was acked
                window.clear()
                continue
            end = fragment.header.stripe_base_fid + \
                fragment.header.stripe_width
            fid += 1
            if not window:
                window = self._read_window(fid)
            yield fragment
