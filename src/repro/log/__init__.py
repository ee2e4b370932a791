"""The Swarm log layer — the paper's primary contribution.

Each client owns a conceptually infinite, append-only log of *blocks*
(opaque service data) and *records* (recovery metadata). The log is
batched into fixed-size *fragments* (1 MB in the prototype), and
fragments are striped across storage servers in *stripes* whose last
member is an XOR parity fragment. Parity position rotates across
stripes. Because each client computes parity for its own log, clients
never synchronize with each other, and servers never synchronize at all.
"""

from repro.log.address import FID_NONE, BlockAddress, fid_client, fid_seq, make_fid
from repro.log.config import LogConfig
from repro.log.records import (
    Record,
    RecordType,
    decode_record_payload_block,
    encode_record_payload_block,
)
from repro.log.fragment import Fragment, FragmentBuilder, FragmentHeader, LogItem
from repro.log.stripe import parity_of
from repro.log.layer import FlushTicket, LogLayer
from repro.log.reader import LogReader
from repro.log.recovery import RecoveredState, recover_service_state
from repro.log.reconstruct import Reconstructor

__all__ = [
    "FID_NONE",
    "BlockAddress",
    "fid_client",
    "fid_seq",
    "make_fid",
    "LogConfig",
    "Record",
    "RecordType",
    "encode_record_payload_block",
    "decode_record_payload_block",
    "Fragment",
    "FragmentBuilder",
    "FragmentHeader",
    "LogItem",
    "parity_of",
    "FlushTicket",
    "LogLayer",
    "LogReader",
    "RecoveredState",
    "recover_service_state",
    "Reconstructor",
]
