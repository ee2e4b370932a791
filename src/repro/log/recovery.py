"""Crash recovery: census, checkpoint discovery and one rollforward
(§2.1.3, §2.4).

A client's services recover together, from one pass over the log:

1. **Census.** Every reachable server lists the client's fids and one
   scatter reads each listed fid's header
   (:func:`~repro.log.location.take_census`). The census names every
   stripe the log holds, so the rollforward knows where the log ends
   without probing past it, and the recovered fid counter passes every
   listed stripe, so no fid is ever reused.
2. **Checkpoint discovery.** Checkpoints live in *marked* fragments,
   and every marked fragment also carries a checkpoint-table record
   naming the newest checkpoint of every service: ask each server for
   the newest marked FID of this client, then read that one fragment,
   and read back each service's named checkpoint.
3. **One rollforward.** One scan of the census's data members, from
   the oldest point any service needs (its checkpoint's fragment, or
   the log head for a service without a readable checkpoint). Each
   service keeps the records past its own checkpoint, in LSN order.
   The fragments discovery read are handed to the scan, so no fragment
   is read twice.

Checkpoints are an optimization only — with none present, rollforward
simply starts from the beginning of the client's log (FID sequence 1),
exactly as the paper describes. A stripe the cleaner reclaimed is not
listed, so it is neither read nor mistaken for the end of the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SwarmError
from repro.log.address import BlockAddress, make_fid
from repro.log.fragment import Fragment
from repro.log.location import take_census
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
    """One service's checkpoint and the records past it."""

    service_id: int
    checkpoint_state: Optional[bytes] = None
    checkpoint_lsn: int = 0
    records: List[Record] = field(default_factory=list)


@dataclass
class RecoveredLog:
    """What one rollforward found: every service's state plus the facts
    of the log as a whole."""

    services: Dict[int, RecoveredState]
    highest_fid: int = 0
    """The last fid of the census's highest stripe (or listed fid)."""
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


def load_checkpoint_table(read: Callable[[int], Optional[Fragment]],
                          marked_fid: int,
                          ) -> Dict[int, Tuple[BlockAddress, int]]:
    """Read the newest checkpoint-table record out of a marked fragment
    (``read`` is :meth:`LogReader.read_fragment` or a wrapper of it)."""
    fragment = read(marked_fid)
    if fragment is None:
        return {}
    table: Dict[int, Tuple[BlockAddress, int]] = {}
    for record in fragment.records():
        if (record.service_id == SERVICE_LOG_LAYER
                and record.rtype == RecordType.CHECKPOINT_TABLE):
            table = decode_checkpoint_table(record.payload)
    return table


def record_owner(record: Record) -> int:
    """The service a replayed record concerns: its writer, or for the
    log layer's automatic CREATE/DELETE records the block's owner."""
    if (record.service_id == SERVICE_LOG_LAYER
            and record.rtype in (RecordType.CREATE, RecordType.DELETE)):
        return decode_record_payload_block(record.payload)[1]
    return record.service_id


def _read_checkpoint(read: Callable[[int], Optional[Fragment]],
                     service_id: int, addr: BlockAddress,
                     ) -> Optional[Record]:
    """The service's CHECKPOINT record at ``addr``, or None when it
    cannot be read back (its fragment lost or torn, or the offset does
    not decode to this service's CHECKPOINT)."""
    fragment = read(addr.fid)
    if fragment is None:
        return None
    try:
        record, _end = Record.decode(fragment.encode(), addr.offset)
    except Exception:
        return None
    if (record.rtype == RecordType.CHECKPOINT
            and record.service_id == service_id):
        return record
    return None


def recover_service_state(transport, client_id: int,
                          services: Dict[int, bool], principal: str = "",
                          reader: Optional[LogReader] = None,
                          ) -> RecoveredLog:
    """Recover every service in ``services`` from one scan of the log.

    Parameters
    ----------
    services:
        Maps each service id to whether it needs every service's
        CREATE/DELETE records, not just its own. The cleaner does: it
        rebuilds its liveness table from them.
    reader:
        The :class:`LogReader` to read through, to reuse its
        reconstructor's placements and rebuilt images. By default a
        fresh reconstructor over ``transport`` reads.
    """
    reader = reader or LogReader(Reconstructor(transport, principal))
    census = take_census(transport, client_id, principal,
                         reader.reconstructor.locations)
    # Discovery's fragments, handed to the scan so none is read twice.
    discovered: Dict[int, Fragment] = {}

    def read(fid: int) -> Optional[Fragment]:
        if fid not in discovered:
            fragment = reader.read_fragment(fid)
            if fragment is None:
                return None
            discovered[fid] = fragment
        return discovered[fid]

    marked_fid = find_newest_marked_fid(transport, client_id, principal)
    table = load_checkpoint_table(read, marked_fid) if marked_fid else {}
    head = make_fid(client_id, 1)
    result = RecoveredLog({}, checkpoint_table=table, highest_fid=max(
        [*census.placements, *(base + header.stripe_width - 1
                               for base, header in census.stripes.items())],
        default=0))
    starts = []
    for service_id in services:
        state = result.services[service_id] = RecoveredState(service_id)
        entry = table.get(service_id)
        record = (None if entry is None
                  else _read_checkpoint(read, service_id, entry[0]))
        if record is not None:
            state.checkpoint_state = record.payload
            state.checkpoint_lsn = entry[1]
            starts.append(entry[0].fid)
        else:
            # No checkpoint, or one that cannot be read back: trusting
            # its LSN without the state would skip every record up to
            # it — silent data loss. Replay from the log head.
            starts.append(head)
    for fragment in reader.fragments_from(min(starts, default=head), census,
                                          discovered):
        for record in fragment.records():
            result.highest_lsn = max(result.highest_lsn, record.lsn)
            if (record.service_id == SERVICE_LOG_LAYER
                    and record.rtype == RecordType.VIEW_CHANGE):
                # Placement view history: adopted by the log layer,
                # never replayed to services (each payload is the full
                # history, newest LSN wins).
                if record.lsn > result.view_lsn:
                    result.view_lsn = record.lsn
                    result.view_payload = record.payload
                continue
            if record.rtype == RecordType.CHECKPOINT_TABLE:
                continue
            owner = record_owner(record)
            for service_id, all_block_records in services.items():
                state = result.services[service_id]
                if record.lsn <= state.checkpoint_lsn:
                    continue
                if record.rtype == RecordType.CHECKPOINT:
                    # A checkpoint newer than the one the service
                    # started from (e.g. the newest marked fragment is
                    # reachable only through parity): adopt it and
                    # obsolete earlier records.
                    if record.service_id == service_id:
                        state.checkpoint_state = record.payload
                        state.checkpoint_lsn = record.lsn
                        state.records = [r for r in state.records
                                         if r.lsn > record.lsn]
                elif owner == service_id or (
                        all_block_records
                        and record.service_id == SERVICE_LOG_LAYER):
                    state.records.append(record)
    for state in result.services.values():
        # Defensive dedupe: a cleaner that died between re-appending
        # live blocks and deleting their originals (or a duplicated
        # store on the wire) can leave the same record durable in two
        # fragments. Replay must apply each LSN exactly once.
        records = sorted(state.records, key=lambda record: record.lsn)
        state.records = [record for index, record in enumerate(records)
                         if not index or records[index - 1].lsn != record.lsn]
    return result
