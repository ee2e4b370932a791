"""The log cleaner (§2.2, §2.3).

The log is infinite; disks are not. As services delete and overwrite
blocks and checkpoints obsolete old records, stripes become mostly
dead, and the cleaner reclaims them: it copies each stripe's surviving
live blocks to the head of the log (with their original ``create_info``
so owners can re-find them), notifies the owning services of the moves,
and deletes the stripe's fragments from their servers.

Exactly as the paper prescribes, the cleaner is *a service like any
other*, layered on the log rather than built into it: it keeps its
bookkeeping (per-fragment utilization and the dead-block set) in
ordinary service state, checkpoints it, and recovers it by replaying
the log's CREATE/DELETE records.

Safety rule (§2.2): a stripe may only be cleaned when every record it
holds is already obsolete — i.e. older than the *oldest* checkpoint of
any service — because newer records must survive for replay. When free
space runs low the cleaner *demands* fresh checkpoints from the
services; one that refuses eventually has its records reclaimed anyway,
"at its own peril".

Candidate discovery sends no RPC. The client's stripe table (the log's
:class:`~repro.log.location.LocationCache`, filled as stripes seal or
from the recovery census) gives each tracked fragment's stripe, and a
client appends its log strictly in LSN order, so a stripe whose last
data member lies below the fid of the oldest checkpoint record holds
only records older than that checkpoint. The table learns a stripe
when it seals, before its stores land, so no pass runs while any
stripe's stores are still in flight: a member is never deleted before
it is stored.

The read side is pipelined like the write side: a cleaning pass
harvests the live bytes of *all* its stripes in one batched multi-range
scatter (one ``MultiRetrieveRequest`` per server), re-appends them
through the log layer's pipelined write-behind path, and pays a single
durability fence for the whole batch — never one blocking stripe close
per stripe. The live-block index that makes the harvest addressable
(owner and ``create_info`` per live address, per fragment, fed by the
log layer's usage events) replaces the old whole-fragment decode and
creation-record lookahead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.log.address import BlockAddress
from repro.log.records import (
    Record,
    RecordType,
    SERVICE_LOG_LAYER,
    decode_record_payload_block,
)
from repro.services.base import Service

_ADDR = struct.Struct(">QII")


def _in_fragment_order(addr: BlockAddress) -> Tuple[int, int]:
    """Sort key of the addresses of one fragment: by offset."""
    return addr.offset, addr.length


@dataclass
class StripeUsage:
    """Cleaning statistics for one stripe (keyed by its base FID)."""

    base_fid: int
    width: int
    live_bytes: int
    total_bytes: int

    @property
    def utilization(self) -> float:
        """Live fraction; 0.0 means pure garbage."""
        if self.total_bytes <= 0:
            return 0.0
        return self.live_bytes / self.total_bytes


class CleanerService(Service):
    """Reclaims dead stripes by relocating their live blocks."""

    #: recover_all() passes this flag to the rollforward so the cleaner
    #: sees *every* service's CREATE/DELETE records, not only its own.
    needs_all_block_records = True

    def __init__(self, service_id: int,
                 utilization_threshold: float = 0.75) -> None:
        super().__init__(service_id, "cleaner")
        self.utilization_threshold = utilization_threshold
        # Per-fragment accounting, folded into stripes by the log's
        # stripe table when candidates are chosen.
        self._live: Dict[int, int] = {}       # fid -> live bytes
        self._total: Dict[int, int] = {}      # fid -> total block bytes
        self._dead: Dict[int, Set[BlockAddress]] = {}  # fid -> addresses
        # Live-block index: fid -> {address: (owner service,
        # create_info)}. This is what lets a cleaning pass harvest
        # exactly the live byte ranges of a stripe in one multi-range
        # scatter instead of decoding whole fragments hunting for
        # creation records; keyed by fid, so a stripe's blocks are its
        # members' entries and forgetting a stripe pops them.
        self._blocks: Dict[int, Dict[BlockAddress, Tuple[int, bytes]]] = {}
        # Fragments whose deletes failed transiently; retried on the
        # next cleaning pass rather than leaking disk forever.
        self._deferred_deletes: Set[int] = set()
        # Stripe bases the repair daemon is rebuilding: cleaning one
        # mid-repair would delete the survivors the reconstruction is
        # XOR-ing together, so held stripes are never candidates.
        self._repair_hold: Set[int] = set()
        # Statistics.
        self.stripes_cleaned = 0
        self.blocks_moved = 0
        self.bytes_moved = 0
        self.deletes_requeued = 0

    def bind(self, stack) -> None:
        super().bind(stack)
        stack.log.add_usage_listener(self._on_usage)

    # ------------------------------------------------------------------
    # Liveness accounting (driven by log-layer usage events)
    # ------------------------------------------------------------------

    def _on_usage(self, event: str, addr: BlockAddress, size: int,
                  owner: int = 0, info: bytes = b"") -> None:
        fid = addr.fid
        if event == "create":
            self._live[fid] = self._live.get(fid, 0) + size
            self._total[fid] = self._total.get(fid, 0) + size
            if fid in self._dead:
                self._dead[fid].discard(addr)
            self._blocks.setdefault(fid, {})[addr] = (owner, info)
        elif event == "delete":
            self._live[fid] = self._live.get(fid, 0) - size
            self._dead.setdefault(fid, set()).add(addr)
            if fid in self._blocks:
                self._blocks[fid].pop(addr, None)

    # ------------------------------------------------------------------
    # Stripe discovery and eligibility
    # ------------------------------------------------------------------

    def candidate_stripes(self) -> List[StripeUsage]:
        """Stripes eligible for cleaning, least-utilized first.

        A stripe qualifies when (a) its last data member lies below the
        fid of the oldest checkpoint record — the log is appended in
        LSN order, so every record it holds is older than every service
        checkpoint — and (b) its live fraction is below the threshold.
        Each tracked fragment's stripe comes from the client's stripe
        table; no RPC is made.
        """
        log = self.stack.log
        table = log.checkpoint_table
        if not table:
            return []
        oldest_fid = min(table.values(), key=lambda entry: entry[1])[0].fid
        stripes: List[StripeUsage] = []
        stripe_end = 0
        for fid in sorted(self._total):
            if fid < stripe_end:
                continue
            header = log.locations.covering(fid)
            if header is None:
                continue
            base, width = header.stripe_base_fid, header.stripe_width
            stripe_end = base + width
            # parity_index is the stripe's *first* parity member: every
            # index at or past it is parity (one for XOR, several for
            # Reed-Solomon) and carries no live blocks.
            data = range(base, base + min(width, header.parity_index))
            if base in self._repair_hold or data[-1] >= oldest_fid:
                continue
            usage = StripeUsage(
                base_fid=base, width=width,
                live_bytes=sum(max(0, self._live.get(member, 0))
                               for member in data),
                total_bytes=sum(self._total.get(member, 0)
                                for member in data))
            if usage.utilization < self.utilization_threshold:
                stripes.append(usage)
        stripes.sort(key=lambda s: s.utilization)
        return stripes

    def hold_for_repair(self, base_fids) -> None:
        """Exclude stripes from cleaning while they are being repaired.

        The repair daemon calls this with the base fids of every stripe
        whose lost member it is about to re-materialize; cleaning such
        a stripe would race the reconstruction (deleting survivors the
        rebuild still needs to fetch).
        """
        self._repair_hold.update(base_fids)

    def release_repair_hold(self, base_fids) -> None:
        """Make repaired stripes eligible for cleaning again."""
        self._repair_hold.difference_update(base_fids)

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------

    def clean(self, target_stripes: int = 1) -> int:
        """Clean up to ``target_stripes`` stripes; returns blocks moved.

        If nothing is eligible, demands fresh checkpoints from every
        service (the paper's on-demand checkpoint mechanism) and retries
        once. All selected stripes are cleaned as one batch: one
        multi-range harvest, pipelined re-appends, one durability fence.
        While any stripe's stores are still in flight the pass does
        nothing: the stripe table already holds such a stripe, and its
        members must be stored before they may be deleted.
        """
        self._retry_deferred_deletes()
        if self.stack.log.inflight_stripes():
            return 0
        candidates = self.candidate_stripes()
        if not candidates:
            self.stack.demand_checkpoints()
            candidates = self.candidate_stripes()
            if not candidates:
                return 0
        return self._clean_batch(candidates[:target_stripes])

    def _clean_batch(self, stripes: List[StripeUsage]) -> int:
        """Clean ``stripes`` together through the pipelined read path.

        The live blocks of every stripe are fetched with one batched
        multi-range read (grouped into one ``MultiRetrieveRequest`` per
        server, parity-reconstructing any degraded range), re-appended
        through the log's write-behind pipeline, and made durable with a
        *single* flush fence for the whole batch — the old path paid one
        blocking stripe close per cleaned stripe. A stripe with a live
        range that cannot be read even via reconstruction is skipped
        (and not deleted) rather than risking data loss.
        """
        log = self.stack.log
        harvests: List[Tuple[StripeUsage,
                             List[Tuple[BlockAddress, int, bytes]]]] = []
        for usage in stripes:
            targets = []
            for fid in range(usage.base_fid, usage.base_fid + usage.width):
                blocks = self._blocks.get(fid, {})
                targets.extend((addr,) + blocks[addr] for addr in
                               sorted(blocks, key=_in_fragment_order))
            harvests.append((usage, targets))
        all_ranges = [(addr.fid, addr.offset, addr.length)
                      for _usage, targets in harvests
                      for addr, _owner, _info in targets]
        images = log.read_ranges(all_ranges)
        # Crash boundary: live blocks harvested, nothing re-appended yet.
        # Dying here loses only this pass's work — originals are intact.
        log.crash_point("cleaner_reappend")
        moved = 0
        notifications: List[Tuple[int, BlockAddress, BlockAddress, bytes]] = []
        cleanable: List[StripeUsage] = []
        pos = 0
        for usage, targets in harvests:
            datas = images[pos:pos + len(targets)]
            pos += len(targets)
            if any(data is None for data in datas):
                continue
            for (addr, owner, info), data in zip(targets, datas):
                new_addr = log.write_block(owner, bytes(data), info)
                notifications.append((owner, addr, new_addr, info))
                moved += 1
                self.bytes_moved += len(data)
            cleanable.append(usage)
        # Make all the copies durable before destroying any original:
        # one fence for the whole batch, closing stripes through the
        # same write-behind pipeline as ordinary appends. Failed stores
        # no more than the parity count leave every stripe recoverable
        # (a store whose outcome the retry layer could not resolve is
        # one), so the fence accepts them; more would risk the copies.
        if notifications:
            ticket = log.flush()
            ticket.wait(allow_degraded=len(ticket.failures())
                        <= log.placement.parity_fragments)
        # Crash boundary: the copies are durable but the doomed
        # originals still exist — a client dying here leaves duplicate
        # copies of every moved block, which rollforward must tolerate
        # (the re-append CREATEs carry newer LSNs, so replay converges
        # on the new copies).
        log.crash_point("cleaner_fence")
        for owner, old_addr, new_addr, create_info in notifications:
            self.stack.notify_block_moved(owner, old_addr, new_addr,
                                          create_info)
        doomed = [usage.base_fid + index
                  for usage in cleanable for index in range(usage.width)]
        failed = log.delete_fids(doomed) if doomed else []
        if failed:
            # The live blocks are safe (copied and flushed above); only
            # the garbage fragments linger. Re-queue them for the next
            # pass instead of failing the clean.
            self._deferred_deletes.update(failed)
            self.deletes_requeued += len(failed)
        for usage in cleanable:
            self._forget_stripe(usage)
            self.stripes_cleaned += 1
        self.blocks_moved += moved
        return moved

    def _retry_deferred_deletes(self) -> None:
        """Re-issue deletes that failed on an earlier pass."""
        if not self._deferred_deletes:
            return
        pending = sorted(self._deferred_deletes)
        self._deferred_deletes = set(
            self.stack.log.delete_fids(pending))

    def _forget_stripe(self, usage: StripeUsage) -> None:
        for fid in range(usage.base_fid, usage.base_fid + usage.width):
            for ledger in (self._live, self._total, self._dead, self._blocks):
                ledger.pop(fid, None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> bytes:
        live_items = sorted(self._total)
        dead = [addr for fid in sorted(self._dead)
                for addr in sorted(self._dead[fid], key=_in_fragment_order)]
        out = [struct.pack(">II", len(live_items), len(dead))]
        for fid in live_items:
            out.append(struct.pack(">Qqq", fid, self._live.get(fid, 0),
                                   self._total[fid]))
        for addr in dead:
            out.append(_ADDR.pack(addr.fid, addr.offset, addr.length))
        # Live-block index: address, owner, and create_info per block,
        # so a recovered cleaner can harvest stripes that were written
        # entirely before this checkpoint.
        out.append(struct.pack(">I", sum(map(len, self._blocks.values()))))
        for fid in sorted(self._blocks):
            blocks = self._blocks[fid]
            for addr in sorted(blocks, key=_in_fragment_order):
                owner, info = blocks[addr]
                out.append(_ADDR.pack(addr.fid, addr.offset, addr.length))
                out.append(struct.pack(">QI", owner, len(info)))
                out.append(info)
        return b"".join(out)

    def restore(self, state: Optional[bytes], records: List[Record]) -> None:
        self._live, self._total, self._dead = {}, {}, {}
        self._blocks = {}
        if state:
            nfrag, ndead = struct.unpack_from(">II", state, 0)
            pos = 8
            for _ in range(nfrag):
                fid, live, total = struct.unpack_from(">Qqq", state, pos)
                self._live[fid] = live
                self._total[fid] = total
                pos += 24
            for _ in range(ndead):
                addr = BlockAddress(*_ADDR.unpack_from(state, pos))
                self._dead.setdefault(addr.fid, set()).add(addr)
                pos += _ADDR.size
            if pos + 4 <= len(state):
                (nblocks,) = struct.unpack_from(">I", state, pos)
                pos += 4
                for _ in range(nblocks):
                    addr = BlockAddress(*_ADDR.unpack_from(state, pos))
                    pos += _ADDR.size
                    owner, info_len = struct.unpack_from(">QI", state, pos)
                    pos += 12
                    info = state[pos:pos + info_len]
                    pos += info_len
                    self._blocks.setdefault(addr.fid, {})[addr] = (
                        owner, info)
        for record in records:
            if record.service_id != SERVICE_LOG_LAYER:
                continue
            if record.rtype not in (RecordType.CREATE, RecordType.DELETE):
                continue
            addr, owner, info = decode_record_payload_block(record.payload)
            event = "create" if record.rtype == RecordType.CREATE else "delete"
            self._on_usage(event, addr, addr.length, owner, info)
