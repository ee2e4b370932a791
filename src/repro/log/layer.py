"""The client-side log layer.

Services hand the log layer blocks (opaque data) and records (recovery
metadata); the log layer batches them into fragments, groups fragments
into parity-protected stripes, and writes stripes across the client's
stripe group asynchronously. Everything above this module addresses
data by :class:`~repro.log.address.BlockAddress` and never knows which
server holds what.

Responsibilities, mapped to the paper:

* append-only blocks/records with immediate address assignment (§2.1.1);
* automatic CREATE/DELETE records for crash recovery (§2.1.1);
* striping with rotated client-computed parity (§2.1.2);
* asynchronous, pipelined fragment writes (§2.1.2);
* per-service checkpoints stored in *marked* fragments, plus the
  checkpoint table that makes every service's checkpoint reachable from
  the newest marked fragment (§2.1.3, §2.4.1);
* reads with transparent reconstruction when a server is down
  (§2.4.3): buffered fragments are served here, everything else by the
  read ladder in :mod:`repro.log.reconstruct`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    BlockNotFoundError,
    ConfigError,
    FragmentNotFoundError,
    LogError,
)
from repro.log.address import BlockAddress, fid_seq, make_fid
from repro.log.config import LogConfig
from repro.log.fragment import (
    BLOCK_ITEM_OVERHEAD,
    Fragment,
    FragmentBuilder,
    HEADER_SIZE,
    NO_PARITY,
    make_parity_fragment,
)
from repro.log.location import LocationCache
from repro.log.reconstruct import Reconstructor
from repro.log.records import (
    Record,
    RecordType,
    SERVICE_LOG_LAYER,
    encode_checkpoint_table,
    encode_record_payload_block,
)
from repro.log.coding import make_engine
from repro.rpc import messages as m
from repro.util.idgen import IdGenerator

CostHook = Callable[[str, int], None]
UsageListener = Callable[[str, BlockAddress, int, int, bytes], None]


class FlushTicket:
    """Handle for the asynchronous stores one flush started.

    ``events`` are future-like objects (already complete on the local
    transport; simulator processes on the simulated one). Synchronous
    callers use :meth:`wait`; simulated drivers ``yield
    sim.all_of(ticket.events)``.

    The ticket only reports outcomes; it counts nothing. Each store's
    outcome is counted once, per server, by the retry layer (when the
    log has one) as the store resolves, however often the ticket is
    looked at.
    """

    def __init__(self, events: List) -> None:
        self.events = events

    def wait(self, allow_degraded: bool = False) -> None:
        """Verify every store finished; raises the first failure.

        With ``allow_degraded`` a flush that lost *some* stores is
        accepted silently — the data in a stripe that lost one member
        is still recoverable through parity; callers inspect
        :meth:`failures` and typically reform the stripe group.

        Only valid once the underlying futures have resolved (always
        true on the local transport).
        """
        for event in self.events:
            if not event.triggered:
                raise LogError("flush not complete; drive the simulator first")
            if event.exception is not None and not allow_degraded:
                raise event.exception

    def failures(self) -> List[BaseException]:
        """Exceptions of the stores that failed (empty when clean)."""
        return [event.exception for event in self.events
                if event.triggered and event.exception is not None]

    @property
    def fragment_count(self) -> int:
        """Number of fragment stores this flush covers."""
        return len(self.events)


class LogLayer:
    """One client's striped log."""

    def __init__(self, transport, group, config: LogConfig,
                 cost_hook: Optional[CostHook] = None,
                 retry_policy=None, verify_reads: bool = False,
                 health_monitor=None, crash_injector=None,
                 retry_sleep=None) -> None:
        from repro.rpc.retry import wrap_transport
        from repro.placement import Placement

        transport = wrap_transport(transport, retry_policy,
                                   monitor=health_monitor,
                                   sleep=retry_sleep)
        self.transport = transport
        self.config = config
        # Deterministic crash injection (chaos crash-point sweep). With
        # an injector attached every named crash point in the write path
        # fires through it; unarmed it only counts hits.
        self.crash_injector = crash_injector
        # ``group`` is a ready-made Placement or a plain server sequence,
        # which becomes a one-view placement with the config's parity
        # and spares.
        if isinstance(group, Placement):
            if config.spare_servers and (tuple(config.spare_servers)
                                         != group.spare_servers):
                raise ConfigError(
                    "spare_servers %r on the config disagree with the "
                    "placement's %r; name the spares in one place"
                    % (tuple(config.spare_servers), group.spare_servers))
            self.placement = group
        else:
            self.placement = Placement(group, config.parity_fragments,
                                       config.spare_servers)
        # The erasure-coding engine for the placement's effective parity
        # count (None when stripes carry no redundancy). Rebuilt on
        # reform: a shrunken view may clamp the parity count.
        self._engine = make_engine(config.coding,
                                   self.placement.parity_fragments)
        self.cost_hook = cost_hook or (lambda kind, n: None)
        self._seq = IdGenerator(1)
        self._lsn = IdGenerator(1)
        # Stagger stripe rotation by client id so concurrent clients do
        # not advance across the stripe group in lockstep (which would
        # make every client hit the same server at the same moment).
        self._stripe_number = self.placement.initial_stripe_number(
            config.client_id)
        # Fragments of the stripe currently being filled. The last entry
        # is the open builder; earlier entries are full but unsealed
        # (their stripe descriptor is patched at stripe close).
        self._building: List[FragmentBuilder] = []
        # Image buffers of sealed builders, reused by the next builders
        # so a fragment does not pay to allocate and zero-fill
        # ``fragment_size`` bytes; never more than a stripe's data width.
        self._spare_buffers: List[bytearray] = []
        self._pending: List = []
        # Running parity of the open stripe's data images — the coding
        # engine's incremental accumulator (None when the group has no
        # parity member, or mid-stripe after recovery).
        self._parity_acc = None
        # Write-behind: the store futures of each stripe still in
        # flight, oldest first (a simulated driver bounds the stores
        # themselves). Finished stripes are dropped whenever a stripe
        # is appended.
        self._inflight: List[List] = []
        # Group commit: small service records waiting to hit a builder.
        self._record_batch: List[Record] = []
        self._record_batch_bytes = 0
        # Fragment placements, shared with the reconstructor.
        self.locations = LocationCache(transport, config.principal)
        # One reconstructor for the client's lifetime: its bounded cache
        # of rebuilt images means a lost fragment is rebuilt once, not
        # once per block read from it.
        self.reconstructor = Reconstructor(self.transport, config.principal,
                                           locations=self.locations,
                                           verify=verify_reads)
        self._checkpoint_table: Dict[int, Tuple[BlockAddress, int]] = {}
        self._usage_listeners: List[UsageListener] = []
        # Self-healing: the failure detector pushes verdicts; a `dead`
        # member triggers an automatic reform onto a spare.
        self.monitor = health_monitor
        self.reforms: List[Dict[str, object]] = []
        if health_monitor is not None:
            health_monitor.on_transition(self._on_health_transition)
        # Statistics.
        self.raw_bytes_written = 0
        self.useful_bytes_written = 0
        self.stripes_written = 0
        self.group_commit_batches = 0
        self.records_coalesced = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def group(self):
        """The servers the *next* stripe rotates over: the placement's
        current :class:`~repro.placement.PlacementView` (``.servers``,
        ``.size``)."""
        return self.placement.group

    @property
    def next_stripe_number(self) -> int:
        """Stripe sequence number the next closed stripe will get.

        This is the rotation cursor into the current view: the next
        stripe lands on
        ``placement.servers_for_stripe(next_stripe_number, width)``.
        """
        return self._stripe_number

    @property
    def checkpoint_table(self) -> Dict[int, Tuple[BlockAddress, int]]:
        """Latest known checkpoint address and LSN per service."""
        return dict(self._checkpoint_table)

    def pending_events(self) -> List:
        """Futures of fragment stores dispatched but not yet claimed by a
        flush ticket. Simulated drivers use this for flow control."""
        return list(self._pending)

    def inflight_stripes(self) -> int:
        """Stripes whose stores are still in flight (write-behind): a
        stripe is in flight until every one of its store futures has
        resolved. Drops the finished ones from the window."""
        self._inflight = [futures for futures in self._inflight
                          if not all(f.triggered for f in futures)]
        return len(self._inflight)

    def buffered_records(self) -> int:
        """Records held by group commit, not yet in any fragment."""
        return len(self._record_batch)

    def known_location(self, fid: int) -> Optional[str]:
        """Server believed to hold ``fid`` (no network traffic)."""
        return self.locations.get(fid)

    def crash_point(self, point: str) -> None:
        """Fire a named crash point (no-op without an injector).

        Hook sites sit at the durability boundaries of the write path;
        an armed :class:`~repro.chaos.crashpoints.CrashInjector` raises
        ``ClientCrash`` here to simulate the client dying mid-flight.
        """
        if self.crash_injector is not None:
            self.crash_injector.hit(point)

    def health_report(self) -> Dict[str, object]:
        """One structured health snapshot for monitors and tests.

        Merges this layer's own state with the retrying transport's
        per-server RPC outcomes (the one place they are counted) and —
        when a failure detector is attached — its verdicts, so every
        consumer reads the same numbers instead of scraping ad-hoc
        attributes.
        """
        report: Dict[str, object] = {
            "log": {
                "stripes_written": self.stripes_written,
                "group_commit_batches": self.group_commit_batches,
                "records_coalesced": self.records_coalesced,
                "inflight_stripes": self.inflight_stripes(),
                "reforms": [dict(reform) for reform in self.reforms],
                "group": list(self.group.servers),
                "spares_remaining": self.placement.spares_remaining(),
                "placement": self.placement.describe(),
                "locations": self.locations.stats(),
                "reconstruct": {
                    "reconstructions": self.reconstructor.reconstructions,
                    "corruptions_detected":
                        self.reconstructor.corruptions_detected,
                    "cached_images": len(self.reconstructor.cache),
                },
            },
        }
        transport_report = getattr(self.transport, "health_report", None)
        if callable(transport_report):
            report["transport"] = transport_report()
        if self.monitor is not None:
            report["monitor"] = self.monitor.health_report()
        return report

    def add_usage_listener(self, listener: UsageListener) -> None:
        """Subscribe to block lifecycle events.

        The cleaner uses this to maintain its stripe-utilization table
        and its live-block index:
        ``listener(event, addr, size, owner, info)`` with event
        ``"create"`` or ``"delete"``; ``owner`` is the owning service id
        and ``info`` the creation info the owner attached (what a move
        notification hands back).
        """
        self._usage_listeners.append(listener)

    def _notify_usage(self, event: str, addr: BlockAddress, size: int,
                      owner: int, info: bytes) -> None:
        for listener in self._usage_listeners:
            listener(event, addr, size, owner, info)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def max_block_size(self) -> int:
        """Largest single block the configured fragment size admits."""
        return FragmentBuilder.max_block_size(self.config.fragment_size)

    def write_block(self, owner_service: int, data: bytes,
                    create_info: bytes = b"") -> BlockAddress:
        """Append a block; returns its final address immediately.

        Also appends the automatic CREATE record carrying
        ``create_info`` — the service-specific hint (inode number, file
        offset, ...) that replay and cleaner notifications hand back to
        the service so it can find the block in its own metadata.
        """
        if len(data) > self.max_block_size():
            raise LogError("block of %d bytes exceeds fragment capacity"
                           % len(data))
        self._drain_records()
        # Keep the block and its CREATE record in one fragment whenever
        # they fit together: the cleaner reads a block's creation record
        # from the block's own fragment, so co-location makes move
        # notifications self-contained. Near-fragment-sized blocks fall
        # back to exact fit (the record spills; the cleaner looks ahead).
        record_need = 96 + len(create_info)
        needed = BLOCK_ITEM_OVERHEAD + len(data) + record_need
        if needed > self.config.fragment_size - HEADER_SIZE:
            needed = BLOCK_ITEM_OVERHEAD + len(data)
        builder = self._builder_with_room(needed)
        offset = builder.add_block(owner_service, data)
        addr = BlockAddress(builder.fid, offset, len(data))
        record = Record(self._lsn.next(), SERVICE_LOG_LAYER, RecordType.CREATE,
                        encode_record_payload_block(addr, owner_service,
                                                    create_info))
        self._append_record(record)
        self.cost_hook("copy", len(data))
        self.cost_hook("block_op", 1)
        self.useful_bytes_written += len(data)
        self._notify_usage("create", addr, len(data), owner_service,
                           create_info)
        return addr

    def write_record(self, owner_service: int, rtype: int,
                     payload: bytes) -> Record:
        """Append a service record; returns it (with its LSN assigned).

        Small records ride the group-commit buffer: they are assigned
        their LSN immediately but coalesce client-side until the batch
        reaches ``config.group_commit_bytes`` — or until the next block
        append, checkpoint, or flush, all of which drain the batch
        first, so the physical log keeps its strict LSN order and a
        flush still means "everything before it is durable".
        """
        record = Record(self._lsn.next(), owner_service, rtype, payload)
        threshold = self.config.group_commit_bytes
        if threshold and len(payload) < threshold:
            self._record_batch.append(record)
            self._record_batch_bytes += len(record.encode())
            if self._record_batch_bytes >= threshold:
                self._drain_records()
        else:
            self._drain_records()
            self._append_record(record)
        self.cost_hook("copy", len(payload))
        return record

    def delete_block(self, addr: BlockAddress, owner_service: int,
                     create_info: bytes = b"") -> Record:
        """Record the deletion of a block.

        The data bytes stay in place until the cleaner reclaims their
        stripe; the DELETE record makes them dead immediately.
        """
        self._drain_records()
        record = Record(self._lsn.next(), SERVICE_LOG_LAYER, RecordType.DELETE,
                        encode_record_payload_block(addr, owner_service,
                                                    create_info))
        self._append_record(record)
        self._notify_usage("delete", addr, addr.length, owner_service,
                           create_info)
        return record

    def _drain_records(self) -> None:
        """Move every group-committed record into the builders, in LSN
        order. One batched walk amortizes the builder-selection work the
        records would otherwise pay one by one."""
        if not self._record_batch:
            return
        self.crash_point("group_commit_flush")
        batch, self._record_batch = self._record_batch, []
        self._record_batch_bytes = 0
        self.group_commit_batches += 1
        self.records_coalesced += len(batch)
        for record in batch:
            self._append_record(record)

    def _append_record(self, record: Record) -> BlockAddress:
        encoded_len = len(record.encode())
        builder = self._builder_with_room(encoded_len + 16)
        offset = builder.add_record(record)
        return BlockAddress(builder.fid, offset, encoded_len)

    def _builder_with_room(self, needed: int) -> FragmentBuilder:
        if self._building:
            builder = self._building[-1]
            if builder.free_payload() >= needed:
                return builder
            self._advance_fragment()
        else:
            self._open_fragment()
        builder = self._building[-1]
        if builder.free_payload() < needed:
            raise LogError("item of %d bytes cannot fit any fragment" % needed)
        return builder

    def _open_fragment(self) -> None:
        if not self._building and self._engine is not None:
            self._parity_acc = self._engine.make_accumulator()
        fid = make_fid(self.config.client_id, self._seq.next())
        spare = self._spare_buffers
        self._building.append(FragmentBuilder(
            fid, self.config.client_id, self.config.fragment_size,
            spare.pop() if spare else None))

    def _advance_fragment(self) -> None:
        """Current fragment is full: open the next one, closing the
        stripe first if it has reached full width."""
        if len(self._building) >= self.placement.max_data_fragments():
            self._close_stripe()
        else:
            self._fold_parity(self._building[-1], len(self._building) - 1)
        self._open_fragment()

    def _fold_parity(self, builder: FragmentBuilder, index: int) -> None:
        """Fold a filled (still unsealed) fragment into the running
        parity accumulator as data member ``index``. The payload region
        is final once written, so it folds the moment the fragment
        fills; the header — only known at seal — folds at stripe close.
        By then every fragment but the open tail has already been
        folded, so the close-time stall shrinks from the whole stripe
        to one fragment."""
        acc = self._parity_acc
        if acc is None or builder.parity_folded or builder.item_count == 0:
            return
        with builder.buffered_image() as view:
            acc.add_range(index, HEADER_SIZE, view[HEADER_SIZE:])
        builder.parity_folded = True

    # ------------------------------------------------------------------
    # Stripe close / flush
    # ------------------------------------------------------------------

    def _close_stripe(self) -> None:
        """Seal the accumulated data fragments, finish the incremental
        parity, and dispatch the whole stripe's stores as one plan.

        With ``pipeline_stores`` the stores travel through
        ``Transport.submit_many``: on the simulated testbed the stripe's
        fragments cross the network as concurrent processes (NIC, fabric
        and disk contention come from the resource model), instead of
        one at a time. The stores are not waited for here: stripe N+1
        builds while stripe N's stores are still in flight, and a
        simulated driver bounds how many fragment stores are (its
        flow-control window).
        """
        building, self._building = self._building, []
        builders = [b for b in building if b.item_count > 0]
        acc, self._parity_acc = self._parity_acc, None
        if not builders:
            self._recycle_buffers(building)
            return
        ndata = len(builders)
        width = self.placement.width_for(ndata)
        base_fid = builders[0].fid
        servers = self.placement.servers_for_stripe(self._stripe_number, width)
        nparity = width - ndata
        parity_index = ndata if nparity else NO_PARITY
        fragments: List[Fragment] = []
        images: List[bytes] = []
        for index, builder in enumerate(builders):
            fragment = builder.seal(base_fid, width, index,
                                    parity_index, servers)
            image = fragment.encode()
            fragments.append(fragment)
            images.append(image)
            if acc is not None:
                # Fold what the accumulator has not seen: the header
                # (only known now) for fragments folded as they filled,
                # the whole image for the open tail fragment. The tail
                # folds as two ranges so each parity slot keeps exactly
                # two non-overlapping buckets (headers at 0, payloads
                # at HEADER_SIZE) and emits parity by concatenation.
                acc.add_range(index, 0, image[:HEADER_SIZE])
                if not builder.parity_folded:
                    acc.add_range(index, HEADER_SIZE, image[HEADER_SIZE:])
        # Every image is an owned copy now, so the buffers are free.
        self._recycle_buffers(building)
        if nparity:
            payloads = (acc.payloads() if acc is not None
                        else self._engine.encode(images))
            self.cost_hook(self._engine.name,
                           acc.consumed if acc is not None
                           else nparity * sum(len(img) for img in images))
            for slot, payload in enumerate(payloads):
                parity_fid = make_fid(self.config.client_id, self._seq.next())
                if parity_fid != base_fid + ndata + slot:
                    raise LogError("non-consecutive stripe FIDs (internal bug)")
                parity = make_parity_fragment(
                    parity_fid, self.config.client_id, payload, base_fid,
                    width, ndata + slot, servers, parity_index)
                fragments.append(parity)
                images.append(parity.encode())
        # Everything below the seal is durability-critical: the stripe
        # exists only in client memory until the stores land.
        self.crash_point("stripe_seal")
        marked_flags = [b.marked for b in builders] + [False] * (width - ndata)
        self.locations.learn(fragments[0].header)
        plan: List[Tuple[str, m.StoreRequest]] = []
        for fragment, image, marked in zip(fragments, images, marked_flags):
            server_id = servers[fragment.header.stripe_index]
            acl_ranges = ()
            if self.config.fragment_aid:
                acl_ranges = ((0, len(image), self.config.fragment_aid),)
            plan.append((server_id, m.StoreRequest(
                fid=fragment.fid, data=image,
                principal=self.config.principal, marked=marked,
                acl_ranges=acl_ranges)))
            self.raw_bytes_written += len(image)
        if self.crash_injector is None and self.config.pipeline_stores:
            futures = self.transport.submit_many(plan)
        else:
            # One by one, in stripe order, with a crash point before
            # each: under crash injection dying at the k-th hit leaves
            # exactly the first k-1 members durable — a clean torn
            # tail, the shape rollforward and fsck must handle. Census
            # and armed runs both take this path, so hit numbering is
            # identical between them.
            futures = []
            for server_id, request in plan:
                if request.marked:
                    self.crash_point("marked_fragment_store")
                self.crash_point("scatter_dispatch")
                futures.extend(self.transport.submit_many(
                    [(server_id, request)]))
            self.crash_point("post_store_pre_ack")
        self._pending.extend(futures)
        self.inflight_stripes()  # drops the finished stripes
        self._inflight.append(futures)
        self._stripe_number += 1
        self.stripes_written += 1

    def _recycle_buffers(self, builders: List[FragmentBuilder]) -> None:
        """Keep the buffers of closed ``builders`` for the next
        fragments, at most one per data member of a stripe."""
        spare = self._spare_buffers
        spare.extend(builder.release_buffer() for builder in builders)
        del spare[self.placement.max_data_fragments():]

    def flush(self) -> FlushTicket:
        """Seal and dispatch everything buffered; return the ticket.

        Includes stores already in flight from earlier stripe closes, so
        waiting on the ticket means "all my data is durable".
        """
        self._drain_records()
        self._close_stripe()
        events, self._pending = self._pending, []
        return FlushTicket(events)

    # ------------------------------------------------------------------
    # Stripe-group reconfiguration
    # ------------------------------------------------------------------

    def reform_group(self, group) -> None:
        """Switch to a new stripe group (view) for all *future* stripes.

        The escape hatch for a failed server: already-written stripes
        keep their embedded descriptors (reads reconstruct through
        parity); new stripes simply avoid the dead member. Buffered
        data is unaffected — only placement changes. Cached placements
        on departed servers are invalidated so reads stop trying them.

        Accepts any server sequence. The change is recorded as a new
        epoch effective from the next stripe, and the rotation carries
        on from where it was.
        """
        servers = tuple(group)
        departed = set(self.group.servers) - set(servers)
        for server_id in departed:
            self.locations.evict_server(server_id)
        self._change_view(servers)

    def grow_fleet(self, new_servers) -> None:
        """Add servers to the placement view for all *future* stripes.

        Reallocation-free scale-out: stripes already written (including
        write-behind stripes still in flight) keep their placement —
        only stripes closed after this call rotate over the grown view.
        No data moves, no cache entries are invalidated.
        """
        current = self.group.servers
        added = tuple(sid for sid in new_servers if sid not in current)
        if not added:
            return
        self._change_view(current + added)

    def shrink_fleet(self, remove_servers) -> None:
        """Remove servers from the placement view for future stripes.

        The removed servers are assumed alive: stripes already written
        there stay in place and stay readable (the view history still
        resolves them), so nothing is evicted or repaired. Shrinking
        below the placement's floor raises ``ConfigError``.
        """
        gone = set(remove_servers)
        self._change_view(tuple(sid for sid in self.group.servers
                                if sid not in gone))

    def _change_view(self, servers) -> None:
        """Install ``servers`` as the view from the next stripe on,
        rebuild the coding engine (a narrower view may clamp the parity
        count) and append a VIEW_CHANGE record carrying the full view
        history.

        The new view governs the open stripe too, unless it is too
        narrow to carry the data members already buffered there: their
        fragment ids are fixed, so the stripe cannot be split. Then the
        change starts at the next stripe, and the open stripe closes
        under the view it was filled for (a shrink never lowers the
        parity count, so its geometry is unchanged); a later change
        made before that stripe closes joins the pending one.

        The record is always staged through the group-commit batch —
        never drained here — because view changes can fire from inside
        a stripe close (the failure detector's callback), where touching
        the builders would re-enter the write path. The batch drains on
        the next block append, flush, or checkpoint, preserving LSN
        order.
        """
        first = self._stripe_number
        if (len(self._building) > self.placement.max_data_fragments(
                len(servers)) or self.group.first_stripe > first):
            first += 1
        parity = self.placement.parity_fragments
        self.placement.change_view(servers, first_stripe=first)
        if self.placement.parity_fragments != parity:
            # The open stripe's running parity has the old member
            # count; its parity is encoded whole at close instead.
            self._engine = make_engine(self.config.coding,
                                       self.placement.parity_fragments)
            self._parity_acc = None
        self.crash_point("view_change_append")
        record = Record(self._lsn.next(), SERVICE_LOG_LAYER,
                        RecordType.VIEW_CHANGE,
                        self.placement.encode_views())
        self._record_batch.append(record)
        self._record_batch_bytes += len(record.encode())

    # ------------------------------------------------------------------
    # Auto-reform (failure-detector driven)
    # ------------------------------------------------------------------

    def _on_health_transition(self, server_id: str, _old: str,
                              new_status: str) -> None:
        """Monitor callback: a ``dead`` verdict on a member reforms the
        group at once — mid-write, before the next stripe is placed."""
        if new_status != "dead":
            return
        self._reform_away_from(server_id)

    def _reform_away_from(self, server_id: str) -> None:
        """Replace (or drop) a dead member for all future stripes.

        Replacement is the placement's decision
        (:meth:`~repro.placement.Placement.plan_reform`): the first
        usable configured spare is drafted. With none the view shrinks,
        never below the placement's floor — then the verdict is
        recorded but the view is kept (writes stay
        degraded-but-recoverable rather than unprotected).

        Buffered data is unaffected either way: fragments of the stripe
        currently being filled pick their servers at stripe close, so
        everything still in the builders flows to the new view. Every
        reform records the view epoch it produced.
        """
        if server_id not in self.group.servers:
            return
        new_servers, replacement, kept_group = self.placement.plan_reform(
            server_id, monitor=self.monitor)
        if kept_group:
            self.reforms.append({"departed": server_id,
                                 "replacement": None,
                                 "kept_group": True,
                                 "epoch": self.placement.view_epoch,
                                 "stripes_written": self.stripes_written})
            return
        self.reform_group(new_servers)
        self.reforms.append({"departed": server_id,
                             "replacement": replacement,
                             "kept_group": False,
                             "epoch": self.placement.view_epoch,
                             "stripes_written": self.stripes_written})

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self, service_id: int, state: bytes) -> FlushTicket:
        """Write a service checkpoint and flush it in a marked fragment.

        The checkpoint record carries the service's consistent state;
        the accompanying checkpoint-table record lists *every* service's
        newest checkpoint, so recovery only needs to find the newest
        marked fragment (via the servers' ``last_marked`` query) to find
        them all. Records older than the checkpoint become obsolete,
        which is what licenses the cleaner to reclaim their stripes.
        """
        # Reserve room for the checkpoint record *and* its table in the
        # same fragment, so the marked fragment is self-contained.
        self._drain_records()
        # A log whose view never changed carries no history at all.
        view_payload = (self.placement.encode_views()
                        if self.placement.view_epoch else None)
        table_size_estimate = 64 + 40 * (len(self._checkpoint_table) + 1)
        if view_payload is not None:
            table_size_estimate += len(view_payload) + 96
        self._builder_with_room(len(state) + table_size_estimate + 96)
        record = Record(self._lsn.next(), service_id, RecordType.CHECKPOINT,
                        state)
        addr = self._append_record(record)
        self._checkpoint_table[service_id] = (addr, record.lsn)
        # The CHECKPOINT record exists (in memory) but the table record
        # that makes it discoverable does not — a client dying here must
        # recover from the *previous* checkpoint generation.
        self.crash_point("checkpoint_table_append")
        table_record = Record(self._lsn.next(), SERVICE_LOG_LAYER,
                              RecordType.CHECKPOINT_TABLE,
                              encode_checkpoint_table(self._checkpoint_table))
        table_addr = self._append_record(table_record)
        if table_addr.fid != addr.fid:
            raise LogError("checkpoint split across fragments (internal bug)")
        self._building[-1].marked = True
        if view_payload is not None:
            # Re-embed the full placement view history next to every
            # checkpoint: rollforward starts at the newest checkpoint,
            # and the cleaner may have reclaimed the stripes holding
            # earlier VIEW_CHANGE records. Marked *before* this append:
            # the history may spill to the next fragment when the
            # marked one is nearly full — still within the rollforward
            # scan, so still recovered.
            self.crash_point("view_change_append")
            self._append_record(Record(self._lsn.next(), SERVICE_LOG_LAYER,
                                       RecordType.VIEW_CHANGE, view_payload))
        self.cost_hook("copy", len(state))
        return self.flush()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(self, addr: BlockAddress) -> bytes:
        """Read a block's data, reconstructing its fragment if needed.

        Returns owned ``bytes`` (the :meth:`read_range` contract); the
        zero-copy views stay below that boundary
        (:meth:`read_fragment`, the transports' payloads).
        """
        data = self.read_range(addr.fid, addr.offset, addr.length)
        if len(data) != addr.length:
            raise BlockNotFoundError("short read at %s" % (addr,))
        return data

    def read_range(self, fid: int, offset: int, length: int) -> bytes:
        """Read an arbitrary byte range of a fragment.

        Not-yet-flushed fragments are served straight from the client's
        write buffer, so services can read back data they just wrote
        without forcing a flush; every other read is the reconstructor's
        (:meth:`~repro.log.reconstruct.Reconstructor.fetch_range`, see
        :mod:`repro.log.reconstruct` for the read ladder).

        Always returns owned ``bytes``: this is the trust boundary
        where data crosses into service code, which may keep, hash, or
        concatenate the result. The zero-copy views stay below it
        (:meth:`read_fragment`, the transports' payloads).
        """
        for builder in self._building:
            if builder.fid == fid:
                return builder.peek_range(offset, length)
        return self.reconstructor.fetch_range(fid, offset, length)

    def read_ranges(self, ranges: List[Tuple[int, int, int]],
                    ) -> List[Optional[bytes]]:
        """Read many ``(fid, offset, length)`` ranges, batched per server.

        Returns one owned ``bytes`` per range, in request order, or
        ``None`` where the bytes could not be produced even through
        reconstruction. Ranges in still-buffered fragments are served
        from the builders; the rest go to the reconstructor in one
        batch (:meth:`~repro.log.reconstruct.Reconstructor.fetch_ranges`).
        """
        results: List[Optional[bytes]] = [None] * len(ranges)
        remote: List[int] = []
        for index, (fid, offset, length) in enumerate(ranges):
            for builder in self._building:
                if builder.fid == fid:
                    results[index] = builder.peek_range(offset, length)
                    break
            else:
                remote.append(index)
        if remote:
            fetched = self.reconstructor.fetch_ranges(
                [tuple(ranges[index]) for index in remote])
            for index, data in zip(remote, fetched):
                results[index] = data
        return results

    def read_fragment(self, fid: int) -> bytes:
        """Read a whole fragment image (cleaner / recovery paths)
        through the reconstructor's read ladder."""
        return self.reconstructor.fetch(fid)

    # ------------------------------------------------------------------
    # Deletion of whole stripes (cleaner back-end)
    # ------------------------------------------------------------------

    def delete_fids(self, fids: List[int]) -> List[int]:
        """Delete fragments by fid, all deletes in one overlapped scatter.

        Returns the fids whose delete failed with a server error —
        candidates for a later retry. A fragment that no server claims
        to hold, or that is already gone (``FragmentNotFoundError``),
        is treated as deleted. The retry layer counts each delete's
        outcome per server; unexpected non-Swarm exceptions propagate.
        """
        from repro.rpc.completion import scatter_call

        located = self.locations.locate_many(fids)
        targets = [(fid, located[fid]) for fid in fids if fid in located]
        futures = scatter_call(self.transport, [
            (server_id, m.DeleteRequest(fid=fid,
                                        principal=self.config.principal))
            for fid, server_id in targets])
        failed: List[int] = []
        for (fid, _server_id), future in zip(targets, futures):
            if not future.ok:
                # Already gone counts as deleted: deletion is idempotent.
                if not isinstance(future.exception, FragmentNotFoundError):
                    failed.append(fid)
            self.locations.evict(fid)
        self.locations.forget_stripes(fids)
        self.reconstructor.forget(fids)
        return failed

    # ------------------------------------------------------------------
    # Recovery hand-off
    # ------------------------------------------------------------------

    def adopt_recovered_state(self, highest_fid_seen: int, highest_lsn: int,
                              checkpoint_table: Dict[int, Tuple[BlockAddress, int]],
                              view_payload: Optional[bytes] = None) -> None:
        """Fast-forward counters after log rollforward.

        Ensures newly allocated FIDs/LSNs never collide with what is
        already durable in the log. ``view_payload`` is the newest
        VIEW_CHANGE record found during rollforward (by LSN): adopting
        it restores the placement view history — the crashed client's
        epochs — so future stripes continue under the latest view and
        past epochs stay resolvable.
        """
        self._seq.advance_past(fid_seq(highest_fid_seen))
        self._lsn.advance_past(highest_lsn)
        self._checkpoint_table = dict(checkpoint_table)
        # Stripe rotation continues from an estimate; exactness is not
        # required for correctness, only for balance.
        self._stripe_number = fid_seq(highest_fid_seen)
        if view_payload:
            from repro.placement import decode_views

            self.placement.adopt_views(decode_views(view_payload))
            newest = self.placement.views()[-1]
            # Never rotate backwards into a stripe window governed by
            # an older view than the newest epoch.
            self._stripe_number = max(self._stripe_number,
                                      newest.first_stripe)
            self._engine = make_engine(self.config.coding,
                                       self.placement.parity_fragments)
