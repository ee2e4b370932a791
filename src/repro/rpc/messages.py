"""Request/response message types for the storage-server protocol.

One dataclass per server operation. Every request carries the calling
``principal`` for ACL checks. Responses use a single generic
:class:`Response` (a value plus optional payload bytes) or
:class:`ErrorResponse` (an error class name plus message), which the
transports convert back into the library's exception hierarchy. Each
class's wire tag, codec and server handler are its one row in
:data:`repro.rpc.codec.VERBS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class StoreRequest:
    """Store a complete fragment (atomically)."""

    fid: int
    data: bytes
    principal: str = ""
    marked: bool = False
    acl_ranges: Tuple[Tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class RetrieveRequest:
    """Read ``length`` bytes at ``offset`` within fragment ``fid``."""

    fid: int
    offset: int = 0
    length: int = -1
    principal: str = ""


@dataclass(frozen=True)
class MultiRetrieveRequest:
    """Read many ``(fid, offset, length)`` ranges in one round trip.

    Batched like :class:`HoldsRequest`: the cleaner harvesting a
    stripe's live blocks or a service gathering scattered small reads
    pays one request per *server*, not one per range. Lengths must be
    explicit (no ``-1`` tail reads) so the reply needs no framing: the
    payload is the ranges' bytes concatenated in request order and
    ``value`` is the range count.
    """

    ranges: Tuple[Tuple[int, int, int], ...]
    principal: str = ""


@dataclass(frozen=True)
class DeleteRequest:
    """Delete fragment ``fid``."""

    fid: int
    principal: str = ""


@dataclass(frozen=True)
class PreallocateRequest:
    """Reserve a slot for fragment ``fid``."""

    fid: int
    principal: str = ""


@dataclass(frozen=True)
class LastMarkedRequest:
    """Ask for the newest marked fragment's FID (0 if none).

    ``client_id`` >= 0 restricts the answer to fragments written by that
    client (FIDs embed the writer's id), so clients sharing servers each
    find their *own* newest checkpoint.
    """

    client_id: int = -1
    principal: str = ""


@dataclass(frozen=True)
class HoldsRequest:
    """Ask which of ``fids`` the server stores (broadcast probe).

    Batched: one request carries every fragment the client is looking
    for, so locating F fragments across S servers costs at most S round
    trips, not F×S. The reply's payload lists the held fids
    (count-prefixed, 8 bytes each) and its ``value`` is their number.
    """

    fids: Tuple[int, ...]
    principal: str = ""


@dataclass(frozen=True)
class CreateAclRequest:
    """Create an ACL with the given reader/writer principals."""

    readers: Tuple[str, ...]
    writers: Tuple[str, ...]
    principal: str = ""


@dataclass(frozen=True)
class ModifyAclRequest:
    """Replace an ACL's membership sets (None leaves a set unchanged)."""

    aid: int
    readers: Optional[Tuple[str, ...]] = None
    writers: Optional[Tuple[str, ...]] = None
    principal: str = ""


@dataclass(frozen=True)
class DeleteAclRequest:
    """Delete an ACL."""

    aid: int
    principal: str = ""


@dataclass(frozen=True)
class ListFidsRequest:
    """Ask for every stored FID (optionally one client's). fsck, repair
    and crash recovery's census use it; it is an addition to the
    paper's op set (DESIGN.md §5)."""

    client_id: int = -1
    principal: str = ""


@dataclass(frozen=True)
class EvalScriptRequest:
    """Run a SwarmScript program on the server (the active-disk hook)."""

    script: str
    principal: str = ""


@dataclass(frozen=True)
class Response:
    """Successful reply: a small scalar ``value`` plus optional bytes."""

    value: int = 0
    payload: bytes = b""
    text: str = ""


@dataclass(frozen=True)
class ErrorResponse:
    """Failed reply; transports re-raise the named exception class."""

    error_class: str
    message: str
