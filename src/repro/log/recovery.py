"""Crash recovery: checkpoint discovery and log rollforward (§2.1.3).

A service recovers by (1) finding its most recent checkpoint and
(2) replaying the records it wrote after that checkpoint, in order.
Checkpoints live in *marked* fragments, and every marked fragment also
carries a checkpoint-table record naming the newest checkpoint of every
service, so discovery is two steps: ask each server for the newest
marked FID of this client, then read that one fragment.

Checkpoints are an optimization only — with none present, rollforward
simply starts from the beginning of the client's log (FID sequence 1),
exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SwarmError
from repro.log.address import BlockAddress, make_fid
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.log.records import (
    Record,
    RecordType,
    SERVICE_LOG_LAYER,
    decode_checkpoint_table,
    decode_record_payload_block,
)
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call


@dataclass
class RecoveredState:
    """Everything one service needs to restart after a crash."""

    service_id: int
    checkpoint_state: Optional[bytes]
    checkpoint_lsn: int
    records: List[Record] = field(default_factory=list)
    highest_fid: int = 0
    highest_lsn: int = 0
    checkpoint_table: Dict[int, Tuple[BlockAddress, int]] = field(
        default_factory=dict)
    view_payload: Optional[bytes] = None
    """Newest placement VIEW_CHANGE payload seen during rollforward
    (full view history; ``None`` when the client's view never
    changed)."""
    view_lsn: int = 0


def find_newest_marked_fid(transport, client_id: int,
                           principal: str = "") -> int:
    """Ask every reachable server for this client's newest marked FID.

    All servers are asked concurrently — checkpoint discovery is the
    first thing a restarting service does, and it should cost one
    overlapped round trip, not a sweep serialized over the cluster.
    Unreachable servers are simply skipped; the marked fragment is
    replicated into the stripe like everything else, so any survivor
    that stored it can answer.

    If *no* server answers at all, raises :class:`SwarmError`: a total
    partition is indistinguishable from "no checkpoint exists", and
    silently returning 0 would make recovery replay from FID 1 — an
    empty (cleaned) head reading as an empty log, i.e. quiet data loss.
    """
    request = m.LastMarkedRequest(client_id=client_id, principal=principal)
    server_ids = list(transport.server_ids())
    futures = scatter_call(
        transport,
        [(server_id, request) for server_id in server_ids])
    newest = 0
    answered = 0
    for future in futures:
        if not future.ok:
            continue
        answered += 1
        newest = max(newest, future.value.value)
    if server_ids and not answered:
        raise SwarmError(
            "checkpoint discovery failed: none of %d servers answered the "
            "last-marked query for client %d (total partition?)"
            % (len(server_ids), client_id))
    return newest


def load_checkpoint_table(reader: LogReader, marked_fid: int,
                          ) -> Dict[int, Tuple[BlockAddress, int]]:
    """Read the newest checkpoint-table record out of a marked fragment."""
    fragment = reader.read_fragment(marked_fid)
    if fragment is None:
        return {}
    table: Dict[int, Tuple[BlockAddress, int]] = {}
    for record in fragment.records():
        if (record.service_id == SERVICE_LOG_LAYER
                and record.rtype == RecordType.CHECKPOINT_TABLE):
            table = decode_checkpoint_table(record.payload)
    return table


def record_concerns_service(record: Record, service_id: int) -> bool:
    """Whether a replayed record should reach ``service_id``.

    A service sees its own records plus the log layer's automatic
    CREATE/DELETE records for blocks it owns.
    """
    if record.service_id == service_id:
        return True
    if (record.service_id == SERVICE_LOG_LAYER
            and record.rtype in (RecordType.CREATE, RecordType.DELETE)):
        _addr, owner, _info = decode_record_payload_block(record.payload)
        return owner == service_id
    return False


def recover_service_state(transport, client_id: int, service_id: int,
                          principal: str = "",
                          include_all_block_records: bool = False,
                          reader: Optional[LogReader] = None,
                          ) -> RecoveredState:
    """Recover one service's state from the log.

    Parameters
    ----------
    include_all_block_records:
        The cleaner sets this: it needs every service's CREATE/DELETE
        records (to rebuild its liveness table), not just its own.
    reader:
        Share one :class:`LogReader` across several services' recoveries
        to reuse its reconstructor's placements and rebuilt images. By
        default a fresh reconstructor over ``transport`` reads.
    """
    reader = reader or LogReader(Reconstructor(transport, principal))
    marked_fid = find_newest_marked_fid(transport, client_id, principal)
    table: Dict[int, Tuple[BlockAddress, int]] = {}
    checkpoint_state: Optional[bytes] = None
    checkpoint_lsn = 0
    start_fid = make_fid(client_id, 1)
    if marked_fid:
        table = load_checkpoint_table(reader, marked_fid)
        entry = table.get(service_id)
        if entry is not None:
            addr, lsn = entry
            fragment = reader.read_fragment(addr.fid)
            record = None
            if fragment is not None:
                try:
                    record, _end = Record.decode(fragment.encode(),
                                                 addr.offset)
                except Exception:
                    record = None
            if (record is not None
                    and record.rtype == RecordType.CHECKPOINT
                    and record.service_id == service_id):
                checkpoint_state = record.payload
                checkpoint_lsn = lsn
                start_fid = addr.fid
            else:
                # The table names a checkpoint that cannot be read back
                # (its fragment lost or torn, or the offset does not
                # decode to this service's CHECKPOINT). Trusting the
                # LSN without the state would skip every record up to
                # it — silent data loss. Forget the entry and fall
                # through to the no-checkpoint full scan below.
                entry = None
        if entry is None:
            # Service never checkpointed. Scan from the log head; if the
            # cleaner already reclaimed early stripes (it demands
            # checkpoints and eventually cleans past laggards — the
            # paper's "at its own peril" case), fall back to the oldest
            # checkpointed fragment, which is guaranteed to exist.
            if reader.read_fragment(start_fid) is None:
                start_fid = min((a.fid for a, _l in table.values()),
                                default=start_fid)

    result = RecoveredState(service_id=service_id,
                            checkpoint_state=checkpoint_state,
                            checkpoint_lsn=checkpoint_lsn,
                            checkpoint_table=table)
    for fragment in reader.fragments_from(start_fid):
        result.highest_fid = max(result.highest_fid, fragment.fid,
                                 fragment.header.stripe_base_fid
                                 + fragment.header.stripe_width - 1)
        for record in fragment.records():
            result.highest_lsn = max(result.highest_lsn, record.lsn)
            if (record.service_id == SERVICE_LOG_LAYER
                    and record.rtype == RecordType.VIEW_CHANGE):
                # Placement view history: adopted by the log layer,
                # never replayed to services (captured before the LSN
                # filter and before the cleaner's all-records branch —
                # each payload is the full history, newest LSN wins).
                if record.lsn > result.view_lsn:
                    result.view_lsn = record.lsn
                    result.view_payload = record.payload
                continue
            if record.lsn <= result.checkpoint_lsn:
                continue
            if record.rtype == RecordType.CHECKPOINT_TABLE:
                continue
            if record.rtype == RecordType.CHECKPOINT:
                # A checkpoint newer than the one we started from (e.g.
                # the server holding the newest marked fragment is down,
                # but the fragment is reachable through parity during
                # the scan). Adopt it and obsolete earlier records.
                if record.service_id == service_id:
                    result.checkpoint_state = record.payload
                    result.checkpoint_lsn = record.lsn
                    result.records = [r for r in result.records
                                      if r.lsn > record.lsn]
                continue
            if include_all_block_records and record.service_id == SERVICE_LOG_LAYER:
                result.records.append(record)
            elif record_concerns_service(record, service_id):
                result.records.append(record)
    result.records.sort(key=lambda record: record.lsn)
    # Defensive dedupe: a cleaner that died between re-appending live
    # blocks and deleting their originals (or a duplicated store on the
    # wire) can leave the same record durable in two fragments. Replay
    # must apply each LSN exactly once.
    deduped: List[Record] = []
    for record in result.records:
        if deduped and deduped[-1].lsn == record.lsn:
            continue
        deduped.append(record)
    result.records = deduped
    return result
