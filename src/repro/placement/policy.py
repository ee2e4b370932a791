"""Placement: which servers hold which stripe.

Each client stripes its log over a *stripe group* with rotated parity
(§2.1). :class:`Placement` generalizes that group into a **view
history keyed by stripe sequence number**, in the style of the
Sequential Checking data-distribution scheme: every view change — grow,
shrink, reform away from a dead member — installs a new view effective
from the next stripe, and stripe ``n`` is governed by the newest view
whose ``first_stripe`` does not exceed ``n``. A static stripe group is
simply a history with one view.

Two sizes stay apart:

* the **stripe width** — fragments per stripe, a real on-disk limit
  (fragment headers embed ``MAX_STRIPE_WIDTH`` server-name slots);
* the **view size** — servers the client rotates its stripes over,
  which has no such limit.

A view change only affects stripes written *after* it, so growing 16 ->
64 servers moves zero pre-existing fragments. Once the first change
happens the history (one entry per epoch) is persisted in VIEW_CHANGE
log records and re-embedded next to every later checkpoint, and it is
recovered by rollforward — so a restarting client continues under the
newest view and still resolves stripes written under any past epoch. A
log that never changes its view carries no history at all.

Resolution of *reads* never needs the placement: every fragment header
embeds its stripe's full server list, and the broadcast ``holds`` query
locates anything else — exactly why view changes are free of data
movement.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.log.fragment import MAX_STRIPE_WIDTH
from repro.util.packing import pack_bytes, unpack_bytes


@dataclass(frozen=True)
class PlacementView:
    """One epoch of a placement's view history — the stripe group.

    ``first_stripe`` is the stripe sequence number from which this view
    governs placement; the view stays in force until a later view's
    ``first_stripe``. Epochs are strictly increasing across changes.
    """

    epoch: int
    first_stripe: int
    servers: Tuple[str, ...]

    @property
    def size(self) -> int:
        """Number of servers in the view."""
        return len(self.servers)


# ---------------------------------------------------------------------------
# View-history serialization (VIEW_CHANGE record / checkpoint payload)
# ---------------------------------------------------------------------------

_VIEW_HEAD = struct.Struct(">IQH")


def encode_views(views: Sequence[PlacementView]) -> bytes:
    """Serialize a whole view history.

    Always the *full* history, never a delta: the newest VIEW_CHANGE
    record by LSN wins wholesale during recovery, which keeps the
    history recoverable even after the cleaner reclaims the stripes
    holding earlier records (every checkpoint re-embeds it).
    """
    out = [struct.pack(">I", len(views))]
    for view in views:
        out.append(_VIEW_HEAD.pack(view.epoch, view.first_stripe,
                                   len(view.servers)))
        for name in view.servers:
            out.append(pack_bytes(name.encode("utf-8")))
    return b"".join(out)


def decode_views(payload: bytes) -> List[PlacementView]:
    """Inverse of :func:`encode_views`."""
    (count,) = struct.unpack_from(">I", payload, 0)
    pos = 4
    views: List[PlacementView] = []
    for _ in range(count):
        epoch, first_stripe, nservers = _VIEW_HEAD.unpack_from(payload, pos)
        pos += _VIEW_HEAD.size
        servers = []
        for _ in range(nservers):
            raw, pos = unpack_bytes(payload, pos)
            servers.append(raw.decode("utf-8"))
        views.append(PlacementView(epoch, first_stripe, tuple(servers)))
    return views


def _distinct(servers: Sequence[str]) -> Tuple[str, ...]:
    servers = tuple(servers)
    if not servers:
        raise ConfigError("placement view needs at least one server")
    if len(set(servers)) != len(servers):
        raise ConfigError("duplicate server in placement view")
    return servers


class Placement:
    """One client's placement: stripe geometry plus its view history.

    Parameters
    ----------
    servers:
        The initial view (epoch 0), in rotation order.
    parity_fragments:
        Parity members ``m`` per stripe, before clamping to the width.
    spare_servers:
        Standbys :meth:`plan_reform` drafts, in order, for a dead member.
    stripe_width:
        Cap on fragments per stripe (``k + m``); at most
        ``MAX_STRIPE_WIDTH``, the fragment header's descriptor capacity.

    The geometry follows the current view: the width is
    ``min(stripe_width, view size)`` and the parity count
    ``min(m, width - 1)``, so every stripe keeps a data member and a
    one-server view degenerates to the paper's raw unprotected stripes.
    Stripe ``n`` lands on ``view.servers[(n + i) % view.size]`` of its
    governing view, so the parity *servers* advance one slot per stripe,
    and the rotation never restarts after a change (a restart would
    re-enter the stripe windows of older views).
    """

    def __init__(self, servers: Sequence[str], parity_fragments: int = 1,
                 spare_servers: Sequence[str] = (),
                 stripe_width: int = MAX_STRIPE_WIDTH) -> None:
        if not 1 <= stripe_width <= MAX_STRIPE_WIDTH:
            raise ConfigError(
                "stripe_width %d is outside 1..MAX_STRIPE_WIDTH (%d); the "
                "width is the per-stripe fragment count — an on-disk limit "
                "of the fragment header — and is independent of the view "
                "size" % (stripe_width, MAX_STRIPE_WIDTH))
        if parity_fragments < 0:
            raise ConfigError("parity_fragments must be >= 0")
        self.stripe_width = stripe_width
        self.configured_parity = parity_fragments
        self.spare_servers = tuple(spare_servers)
        self.spares_used: List[str] = []
        self._views = [PlacementView(0, 0, _distinct(servers))]

    # -- geometry ------------------------------------------------------------

    @property
    def width(self) -> int:
        """Fragments in a full stripe under the current view."""
        return min(self.stripe_width, self.group.size)

    @property
    def parity_fragments(self) -> int:
        """Effective parity members per stripe (clamped to the width)."""
        return min(self.configured_parity, self.width - 1)

    @property
    def floor(self) -> int:
        """Smallest view a shrink may leave: one data member plus the
        full *configured* parity, and never fewer than two servers —
        writes stay degraded-but-recoverable rather than unprotected."""
        return max(2, self.configured_parity + 1)

    def width_for(self, data_fragments: int) -> int:
        """Total stripe width for ``data_fragments`` data members."""
        if data_fragments < 1:
            raise ValueError("a stripe needs at least one data fragment")
        return data_fragments + self.parity_fragments

    def max_data_fragments(self, view_size: Optional[int] = None) -> int:
        """Most data fragments a full-width stripe can carry over a view
        of ``view_size`` servers (default: the current view)."""
        if view_size is None:
            view_size = self.group.size
        width = min(self.stripe_width, view_size)
        return width - min(self.configured_parity, width - 1)

    def servers_for_stripe(self, stripe_number: int,
                           width: int) -> Tuple[str, ...]:
        """Server names, in stripe-index order, for one stripe."""
        view = self.view_for_stripe(stripe_number)
        if width > view.size:
            raise ValueError("stripe wider than its placement view")
        return tuple(view.servers[(stripe_number + i) % view.size]
                     for i in range(width))

    def initial_stripe_number(self, client_id: int) -> int:
        """Where this client's stripe rotation starts: staggered by
        client id so concurrent clients do not advance across the
        servers in lockstep."""
        return client_id % self.group.size

    # -- views ---------------------------------------------------------------

    @property
    def group(self) -> PlacementView:
        """The current view: where the *next* stripe lands."""
        return self._views[-1]

    @property
    def view_epoch(self) -> int:
        """Epoch of the newest view (0 until the first change)."""
        return self._views[-1].epoch

    def views(self) -> Tuple[PlacementView, ...]:
        """The whole view history, oldest first."""
        return tuple(self._views)

    def view_for_stripe(self, stripe_number: int) -> PlacementView:
        """The view governing ``stripe_number``: the newest view whose
        ``first_stripe`` does not exceed it — the *sequential check*
        that names the scheme."""
        governing = self._views[0]
        for view in self._views:
            if view.first_stripe > stripe_number:
                break
            governing = view
        return governing

    def change_view(self, servers: Sequence[str],
                    first_stripe: int = 0) -> PlacementView:
        """Install a new view effective from stripe ``first_stripe``.

        Two changes inside the same stripe window (no stripe closed in
        between) collapse into one history entry — the newer server set
        wins — but still consume an epoch each, so every reform is
        observable. History must advance by stripe number, and a view
        may not shrink below :attr:`floor`.
        """
        servers = _distinct(servers)
        if len(servers) < min(self.floor, self.group.size):
            raise ConfigError(
                "view of %d servers is below the floor of %d (one data "
                "member plus %d parity): refusing to shrink"
                % (len(servers), self.floor, self.configured_parity))
        last = self._views[-1]
        if first_stripe < last.first_stripe:
            raise ConfigError("view history must advance by stripe number")
        view = PlacementView(last.epoch + 1, first_stripe, servers)
        if first_stripe == last.first_stripe:
            self._views[-1] = view
        else:
            self._views.append(view)
        return view

    # -- failure handling ----------------------------------------------------

    def plan_reform(self, dead_server: str, monitor=None,
                    ) -> Tuple[Optional[Tuple[str, ...]], Optional[str], bool]:
        """Decide how to reform away from a dead member.

        Returns ``(new_servers, replacement, kept_group)``. The first
        usable configured spare takes the dead member's slot; with none
        the view drops the member, unless that would leave fewer than
        :attr:`floor` servers — then ``kept_group`` is True and the
        current view is retained.
        """
        current = self.group.servers
        for spare in self.spare_servers:
            if spare in current or spare in self.spares_used:
                continue
            if monitor is not None and not monitor.is_usable(spare):
                continue
            self.spares_used.append(spare)
            return (tuple(spare if sid == dead_server else sid
                          for sid in current), spare, False)
        remaining = tuple(sid for sid in current if sid != dead_server)
        if len(remaining) < self.floor:
            return None, None, True
        return remaining, None, False

    def spares_remaining(self) -> List[str]:
        """Configured standbys not yet drafted."""
        return [s for s in self.spare_servers if s not in self.spares_used]

    # -- persistence ---------------------------------------------------------

    def encode_views(self) -> bytes:
        """The view history as a VIEW_CHANGE record payload."""
        return encode_views(self._views)

    def adopt_views(self, views: Sequence[PlacementView]) -> bool:
        """Replace the history with one recovered from the log.

        The recovered history wins wholesale when it is at least as new
        (by epoch) as what this placement already holds — the caller
        hands in the newest VIEW_CHANGE payload by LSN, so a fresh
        client converges on exactly the epochs the crashed client wrote.
        Returns whether the handed-in history was adopted.
        """
        views = list(views)
        if not views or views[-1].epoch < self.view_epoch:
            return False
        self._views = views
        return True

    def describe(self) -> Dict[str, object]:
        """One structured snapshot for ``health_report()`` and tests."""
        return {
            "epoch": self.view_epoch,
            "views": len(self._views),
            "view_size": self.group.size,
            "stripe_width": self.width,
        }
