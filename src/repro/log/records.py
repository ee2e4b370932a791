"""Log records.

Records are the log layer's crash-recovery mechanism. They are written
atomically, their order in the log is preserved, and after a crash they
are replayed to the service that wrote them so it can redo (or undo)
in-flight operations. The log layer automatically writes CREATE and
DELETE records as blocks are created and deleted; services append their
own opaque record types on top; the log layer itself adds CHECKPOINT
and CHECKPOINT_TABLE records when services checkpoint.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Tuple

from repro.log.address import BlockAddress
from repro.util.packing import pack_bytes, unpack_bytes

SERVICE_LOG_LAYER = 0
"""Reserved service id for records created by the log layer itself."""


class RecordType(IntEnum):
    """Well-known record types. Values >= ``USER_BASE`` are service-defined."""

    CREATE = 1            # log layer: a block was created
    DELETE = 2            # log layer: a block was deleted
    CHECKPOINT = 3        # log layer: a service checkpoint payload
    CHECKPOINT_TABLE = 4  # log layer: latest checkpoint address per service
    VIEW_CHANGE = 5       # log layer: full placement view history
    USER_BASE = 64        # first record type available to services


@dataclass(frozen=True)
class Record:
    """One log record.

    Attributes
    ----------
    lsn:
        Log sequence number: per-client, strictly increasing across all
        records in the log. Replay order is LSN order.
    service_id:
        The service this record belongs to (0 = log layer).
    rtype:
        Record type; opaque to the log layer when >= ``USER_BASE``.
    payload:
        Uninterpreted bytes (except for the log layer's own types).
    """

    lsn: int
    service_id: int
    rtype: int
    payload: bytes

    def encode(self) -> bytes:
        """Serialize the record for inclusion in a fragment.

        The wire image is cached on first use: the append path needs it
        twice (once to size the fragment, once to copy it in), and a
        record is immutable, so encoding twice is pure waste.
        """
        cached = self.__dict__.get("_wire")
        if cached is None:
            cached = (struct.pack(">QIH", self.lsn, self.service_id,
                                  self.rtype) + pack_bytes(self.payload))
            object.__setattr__(self, "_wire", cached)
        return cached

    @classmethod
    def decode(cls, buf: bytes, offset: int) -> Tuple["Record", int]:
        """Parse a record from ``buf`` at ``offset``; return it and the
        offset just past it."""
        lsn, service_id, rtype = struct.unpack_from(">QIH", buf, offset)
        payload, end = unpack_bytes(buf, offset + 14)
        return cls(lsn, service_id, rtype, payload), end


# ---------------------------------------------------------------------------
# Payload helpers for the log layer's own record types
# ---------------------------------------------------------------------------

_ADDR = struct.Struct(">QII")


def encode_record_payload_block(addr: BlockAddress, owner_service: int,
                                create_info: bytes) -> bytes:
    """Payload of CREATE / DELETE records.

    Carries the block's address, the owning service, and the service-
    specific ``create_info`` (e.g. a file system stores the inode number
    and file offset here, so the cleaner's move notifications and replay
    can find the block in the service's metadata).
    """
    return (_ADDR.pack(addr.fid, addr.offset, addr.length)
            + struct.pack(">I", owner_service)
            + pack_bytes(create_info))


def decode_record_payload_block(payload: bytes) -> Tuple[BlockAddress, int, bytes]:
    """Inverse of :func:`encode_record_payload_block`."""
    fid, offset, length = _ADDR.unpack_from(payload, 0)
    (owner,) = struct.unpack_from(">I", payload, _ADDR.size)
    info, _ = unpack_bytes(payload, _ADDR.size + 4)
    return BlockAddress(fid, offset, length), owner, info


_TABLE_ENTRY = struct.Struct(">IQIIQ")


def encode_checkpoint_table(table: Dict[int, Tuple[BlockAddress, int]]) -> bytes:
    """Payload of a CHECKPOINT_TABLE record.

    Maps every service id to the address of its most recent CHECKPOINT
    record and that record's LSN. Written into the same marked fragment
    as each new checkpoint, so finding the newest marked fragment is
    enough to locate *every* service's checkpoint during recovery.
    """
    out = [struct.pack(">I", len(table))]
    for service_id in sorted(table):
        addr, lsn = table[service_id]
        out.append(_TABLE_ENTRY.pack(service_id, addr.fid, addr.offset,
                                     addr.length, lsn))
    return b"".join(out)


def decode_checkpoint_table(payload: bytes) -> Dict[int, Tuple[BlockAddress, int]]:
    """Inverse of :func:`encode_checkpoint_table`."""
    (count,) = struct.unpack_from(">I", payload, 0)
    table: Dict[int, Tuple[BlockAddress, int]] = {}
    pos = 4
    for _ in range(count):
        service_id, fid, offset, length, lsn = _TABLE_ENTRY.unpack_from(payload, pos)
        table[service_id] = (BlockAddress(fid, offset, length), lsn)
        pos += _TABLE_ENTRY.size
    return table
