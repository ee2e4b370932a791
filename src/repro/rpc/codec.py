"""The storage-server protocol: one table row per verb.

Swarm's servers are deliberately dumb (§2.4): they expose a short, fixed
list of operations. :data:`VERBS` declares each one exactly once — its
message class, wire tag, encoder, decoder, exact size and server
handler — and the four protocol functions are lookups into it:
:func:`encode_message_parts`, :func:`decode_message`, :func:`wire_size`
and :func:`dispatch`. Adding a verb is one dataclass in
:mod:`repro.rpc.messages` plus one row here.

The simulated testbed charges network and CPU time by message size, so
the codec must produce realistic wire images. It is also a *real* wire
format: :mod:`repro.rpc.net` frames these images over sockets, and
trusts :func:`wire_size` to write length prefixes without materializing
the message first.

Wire format: 1-byte message tag, then tag-specific fields using
big-endian fixed-width integers and 4-byte-length-prefixed byte/string
fields.

Hot path: every fixed-width layout is a precompiled module-level
:class:`struct.Struct` — ``struct.pack(">Qqq", ...)`` re-parses its
format string on every call — and the encoders fold the tag byte into
their leading pack so a request head is one ``Struct.pack`` plus one
concatenation. The codec moves hundreds of thousands of messages per
second; its in-system cost is the ``rpc.codec.self_ms_per_mb`` budget
line of the ``swarm-e2e`` benchmark (``benchmarks/e2e/``).
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from struct import Struct, error as _StructError
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import errors
from repro.rpc import messages as m
from repro.util.fids import fid_client
from repro.util.packing import pack_fids, pack_str, unpack_str


class Verb(NamedTuple):
    """Everything the protocol knows about one message class."""

    tag: int                                      # first byte on the wire
    encode: Callable[[Any], List]                 # message -> buffer list
    decode: Callable[[bytes], Any]                # wire image -> message
    size: Optional[Callable[[Any], int]]          # None: measure by encoding
    handle: Optional[Callable[[Any, Any], Any]]   # None: a reply, not a request


# Precompiled fixed-width layouts (the codec hot path).
_U32 = Struct(">I")
_FID_FLAG = Struct(">QB")      # ModifyAcl aid+flags
_RANGE = Struct(">IIQ")        # ACL range (start, end, aid)
_MULTI_RANGE = Struct(">QII")  # MultiRetrieve range (fid, offset, length)
# Request/response heads with the tag byte folded in: one pack call
# emits the tag, the fixed fields, and the next field's length prefix.
_STORE_HEAD = Struct(">BQBI")      # tag, fid, marked, len(principal)
_RETRIEVE_HEAD = Struct(">BQqqI")  # tag, fid, offset, length, len(p)
_RESPONSE_HEAD = Struct(">BqI")    # tag, value, len(payload)
_STORE_BODY = Struct(">QBI")       # decode: fid, marked, len(principal)
_RETRIEVE_BODY = Struct(">QqqI")
_RESPONSE_BODY = Struct(">qI")
_EMPTY4 = _U32.pack(0)

#: ``">%dQ"`` structs for fid lists, cached by count — a new Struct per
#: call would re-parse the format string on the ``holds`` hot path.
_FIDS: Dict[int, Struct] = {}


def _fids_struct(count: int) -> Struct:
    packer = _FIDS.get(count)
    if packer is None:
        packer = _FIDS[count] = Struct(">%dQ" % count)
    return packer


def _str_len(text: str) -> int:
    """UTF-8 byte length of ``text`` (== ``len(text)`` only for ASCII)."""
    if text.isascii():
        return len(text)
    return len(text.encode("utf-8"))


def _take_str(buf: bytes, pos: int, length: int) -> str:
    raw = buf[pos:pos + length]
    if len(raw) != length:
        raise ValueError("truncated message field")
    return raw.decode("utf-8")


def _pack_str_tuple(items) -> bytes:
    out = [_U32.pack(len(items))]
    out.extend(pack_str(item) for item in items)
    return b"".join(out)


def _unpack_str_tuple(buf: bytes, pos: int) -> Tuple[tuple, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    items = []
    for _ in range(count):
        item, pos = unpack_str(buf, pos)
        items.append(item)
    return tuple(items), pos


def _pack_ranges(ranges) -> bytes:
    if not ranges:
        return _EMPTY4
    out = [_U32.pack(len(ranges))]
    out.extend(_RANGE.pack(start, end, aid) for start, end, aid in ranges)
    return b"".join(out)


def _unpack_ranges(buf: bytes, pos: int) -> Tuple[tuple, int]:
    (count,) = _U32.unpack_from(buf, pos)
    pos += 4
    ranges = []
    for _ in range(count):
        ranges.append(_RANGE.unpack_from(buf, pos))
        pos += 16
    return tuple(ranges), pos


def _int_verb(cls, tag: int, code: str, handle) -> Verb:
    """Row for a request of one fixed-width int plus a principal.

    ``code`` is the int's struct code (``Q`` for a fid or aid, ``q`` for
    a client id); the tag, the int and the principal's length prefix
    pack as one 13-byte head.
    """
    field = attrgetter(fields(cls)[0].name)
    pack = Struct(">B%sI" % code).pack
    unpack = Struct(">%sI" % code).unpack_from

    def encode(msg) -> List:
        principal = msg.principal.encode("utf-8")
        return [pack(tag, field(msg), len(principal)) + principal]

    def decode(buf):
        value, plen = unpack(buf, 1)
        return cls(value, _take_str(buf, 13, plen))

    return Verb(tag, encode, decode,
                lambda msg: 13 + _str_len(msg.principal), handle)


# ----------------------------------------------------------------------
# One block per verb: encoder, decoder, server handler
# ----------------------------------------------------------------------

def _encode_store(msg, _pack=_STORE_HEAD.pack, _u32=_U32.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(1, msg.fid, msg.marked, len(principal)) + principal
            + _pack_ranges(msg.acl_ranges) + _u32(len(msg.data)),
            memoryview(msg.data)]


def _decode_store(buf, _body=_STORE_BODY.unpack_from,
                  _u32=_U32.unpack_from):
    fid, marked, plen = _body(buf, 1)
    pos = 14 + plen
    principal = _take_str(buf, 14, plen)
    ranges, pos = _unpack_ranges(buf, pos)
    (dlen,) = _u32(buf, pos)
    pos += 4
    data = buf[pos:pos + dlen]
    if len(data) != dlen:
        raise ValueError("truncated message field")
    return m.StoreRequest(fid, data, principal, bool(marked), ranges)


def _handle_store(server, req):
    return m.Response(value=server.store(
        req.fid, req.data, principal=req.principal, marked=req.marked,
        acl_ranges=list(req.acl_ranges)))


def _encode_retrieve(msg, _pack=_RETRIEVE_HEAD.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(2, msg.fid, msg.offset, msg.length, len(principal))
            + principal]


def _decode_retrieve(buf, _body=_RETRIEVE_BODY.unpack_from):
    fid, offset, length, plen = _body(buf, 1)
    return m.RetrieveRequest(fid, offset, length, _take_str(buf, 29, plen))


def _handle_retrieve(server, req):
    data = server.retrieve(req.fid, req.offset, req.length,
                           principal=req.principal)
    return m.Response(value=len(data), payload=data)


def _encode_multi_retrieve(msg, _u32=_U32.pack,
                           _rpack=_MULTI_RANGE.pack) -> List:
    principal = msg.principal.encode("utf-8")
    body = [b"\x0c", _u32(len(msg.ranges))]
    body.extend(_rpack(fid, offset, length)
                for fid, offset, length in msg.ranges)
    body.append(_u32(len(principal)) + principal)
    return [b"".join(body)]


def _decode_multi_retrieve(buf, _u32=_U32.unpack_from,
                           _range=_MULTI_RANGE.unpack_from):
    (count,) = _u32(buf, 1)
    pos = 5
    ranges = tuple(_range(buf, pos + 16 * index) for index in range(count))
    pos += 16 * count
    (plen,) = _u32(buf, pos)
    return m.MultiRetrieveRequest(ranges, _take_str(buf, pos + 4, plen))


def _handle_multi_retrieve(server, req):
    parts = server.retrieve_many(req.ranges, principal=req.principal)
    # Lengths are explicit in the request, so the concatenated payload
    # needs no framing; value is the range count.
    return m.Response(value=len(parts), payload=b"".join(parts))


def _handle_delete(server, req):
    server.delete(req.fid, principal=req.principal)
    return m.Response()


def _handle_preallocate(server, req):
    return m.Response(value=server.preallocate(req.fid))


def _handle_last_marked(server, req):
    return m.Response(value=server.last_marked(req.client_id))


def _encode_holds(msg, _u32=_U32.pack) -> List:
    principal = msg.principal.encode("utf-8")
    fids = msg.fids
    count = len(fids)
    return [b"\x06" + _u32(count) + _fids_struct(count).pack(*fids)
            + _u32(len(principal)) + principal]


def _decode_holds(buf, _u32=_U32.unpack_from):
    (count,) = _u32(buf, 1)
    end = 5 + 8 * count
    # Check the stated count against the buffer before it picks a cached
    # Struct: a hostile count would otherwise grow ``_FIDS`` forever.
    if end + 4 > len(buf):
        raise ValueError("truncated message field")
    fids = _fids_struct(count).unpack_from(buf, 5)
    (plen,) = _u32(buf, end)
    return m.HoldsRequest(fids, _take_str(buf, end + 4, plen))


def _handle_holds(server, req):
    held = server.holds_many(req.fids)
    return m.Response(value=len(held), payload=pack_fids(held))


def _encode_create_acl(msg) -> List:
    return [b"\x07" + _pack_str_tuple(msg.readers)
            + _pack_str_tuple(msg.writers) + pack_str(msg.principal)]


def _decode_create_acl(buf):
    readers, pos = _unpack_str_tuple(buf, 1)
    writers, pos = _unpack_str_tuple(buf, pos)
    principal, pos = unpack_str(buf, pos)
    return m.CreateAclRequest(readers, writers, principal)


def _handle_create_acl(server, req):
    return m.Response(value=server.create_acl(set(req.readers),
                                              set(req.writers)))


def _encode_modify_acl(msg) -> List:
    flags = (1 if msg.readers is not None else 0) | \
            (2 if msg.writers is not None else 0)
    body = b"\x08" + _FID_FLAG.pack(msg.aid, flags)
    if msg.readers is not None:
        body += _pack_str_tuple(msg.readers)
    if msg.writers is not None:
        body += _pack_str_tuple(msg.writers)
    return [body + pack_str(msg.principal)]


def _decode_modify_acl(buf):
    aid, flags = _FID_FLAG.unpack_from(buf, 1)
    pos = 10
    readers = writers = None
    if flags & 1:
        readers, pos = _unpack_str_tuple(buf, pos)
    if flags & 2:
        writers, pos = _unpack_str_tuple(buf, pos)
    principal, pos = unpack_str(buf, pos)
    return m.ModifyAclRequest(aid, readers, writers, principal)


def _handle_modify_acl(server, req):
    readers = set(req.readers) if req.readers is not None else None
    writers = set(req.writers) if req.writers is not None else None
    server.modify_acl(req.aid, readers, writers)
    return m.Response()


def _handle_delete_acl(server, req):
    server.delete_acl(req.aid)
    return m.Response()


def _encode_eval_script(msg) -> List:
    return [b"\x0a" + pack_str(msg.script) + pack_str(msg.principal)]


def _decode_eval_script(buf):
    script, pos = unpack_str(buf, 1)
    principal, pos = unpack_str(buf, pos)
    return m.EvalScriptRequest(script, principal)


def _handle_eval_script(server, req):
    from repro.server.script import SwarmScriptInterpreter

    interp = SwarmScriptInterpreter(server, principal=req.principal)
    return m.Response(text=interp.run(req.script))


def _handle_list_fids(server, req):
    fids = server.list_fids()
    if req.client_id >= 0:
        fids = [fid for fid in fids if fid_client(fid) == req.client_id]
    return m.Response(value=len(fids), payload=pack_fids(fids))


def _encode_response(msg, _pack=_RESPONSE_HEAD.pack, _u32=_U32.pack) -> List:
    text = msg.text
    if text:
        raw = text.encode("utf-8")
        tail = _u32(len(raw)) + raw
    else:
        tail = _EMPTY4
    return [_pack(20, msg.value, len(msg.payload)),
            memoryview(msg.payload), tail]


def _decode_response(buf, _body=_RESPONSE_BODY.unpack_from,
                     _u32=_U32.unpack_from):
    value, dlen = _body(buf, 1)
    pos = 13 + dlen
    payload = buf[13:pos]
    if len(payload) != dlen:
        raise ValueError("truncated message field")
    (tlen,) = _u32(buf, pos)
    text = _take_str(buf, pos + 4, tlen) if tlen else ""
    return m.Response(value, payload, text)


def _encode_error(msg) -> List:
    return [b"\x15" + pack_str(msg.error_class) + pack_str(msg.message)]


def _decode_error(buf):
    error_class, pos = unpack_str(buf, 1)
    message, pos = unpack_str(buf, pos)
    return m.ErrorResponse(error_class, message)


#: The protocol: one row per message class. The ACL-membership and
#: script verbs measure by encoding (they are rare and small).
VERBS: Dict[type, Verb] = {
    m.StoreRequest: Verb(
        1, _encode_store, _decode_store,
        lambda msg: (22 + _str_len(msg.principal) + 16 * len(msg.acl_ranges)
                     + len(msg.data)),
        _handle_store),
    m.RetrieveRequest: Verb(
        2, _encode_retrieve, _decode_retrieve,
        lambda msg: 29 + _str_len(msg.principal), _handle_retrieve),
    m.DeleteRequest: _int_verb(m.DeleteRequest, 3, "Q", _handle_delete),
    m.PreallocateRequest: _int_verb(m.PreallocateRequest, 4, "Q",
                                    _handle_preallocate),
    m.LastMarkedRequest: _int_verb(m.LastMarkedRequest, 5, "q",
                                   _handle_last_marked),
    m.HoldsRequest: Verb(
        6, _encode_holds, _decode_holds,
        lambda msg: 9 + 8 * len(msg.fids) + _str_len(msg.principal),
        _handle_holds),
    m.CreateAclRequest: Verb(7, _encode_create_acl, _decode_create_acl,
                             None, _handle_create_acl),
    m.ModifyAclRequest: Verb(8, _encode_modify_acl, _decode_modify_acl,
                             None, _handle_modify_acl),
    m.DeleteAclRequest: _int_verb(m.DeleteAclRequest, 9, "Q",
                                  _handle_delete_acl),
    m.EvalScriptRequest: Verb(10, _encode_eval_script, _decode_eval_script,
                              None, _handle_eval_script),
    m.ListFidsRequest: _int_verb(m.ListFidsRequest, 11, "q",
                                 _handle_list_fids),
    m.MultiRetrieveRequest: Verb(
        12, _encode_multi_retrieve, _decode_multi_retrieve,
        lambda msg: 9 + 16 * len(msg.ranges) + _str_len(msg.principal),
        _handle_multi_retrieve),
    m.Response: Verb(
        20, _encode_response, _decode_response,
        lambda msg: 17 + len(msg.payload) + _str_len(msg.text), None),
    m.ErrorResponse: Verb(
        21, _encode_error, _decode_error,
        lambda msg: 9 + _str_len(msg.error_class) + _str_len(msg.message),
        None),
}

_DECODERS = {verb.tag: verb.decode for verb in VERBS.values()}


def encode_message(msg) -> bytes:
    """Serialize any protocol message to its wire image."""
    return b"".join(encode_message_parts(msg))


def encode_message_parts(msg) -> List:
    """Wire image of ``msg`` as an ordered list of buffers.

    The concatenation of the parts is exactly :func:`encode_message`'s
    output, but bulk payloads (a ``StoreRequest``'s fragment image, a
    ``Response``'s retrieved bytes) are returned as ``memoryview``s of
    the caller's buffer instead of being copied into one big image —
    the TCP framer hands the list straight to ``sendmsg`` so a megabyte
    fragment crosses the socket without an intermediate copy.
    """
    verb = VERBS.get(msg.__class__)
    if verb is None:
        raise TypeError("not a protocol message: %r" % (msg,))
    return verb.encode(msg)


def decode_message(buf: bytes):
    """Parse a wire image produced by :func:`encode_message`."""
    if type(buf) is not bytes:
        buf = bytes(buf)
    if not buf:
        raise ValueError("empty message")
    decoder = _DECODERS.get(buf[0])
    if decoder is None:
        raise ValueError("unknown message tag %d" % buf[0])
    try:
        return decoder(buf)
    except _StructError as exc:
        raise ValueError("truncated message: %s" % exc)


def wire_size(msg) -> int:
    """Wire bytes of ``msg`` — exactly ``len(encode_message(msg))``.

    Computed arithmetically (not by encoding) so the hot path never
    copies megabyte payloads just to measure it. The TCP framer writes
    this number as the frame's length prefix *before* the message is
    serialized, so any drift from the real encoding corrupts the
    stream — a property test holds every message type to equality.
    """
    verb = VERBS.get(msg.__class__)
    if verb is None or verb.size is None:
        return len(encode_message(msg))
    return verb.size(msg)


def dispatch(server, request):
    """Apply one request to a :class:`~repro.server.server.StorageServer`.

    Returns a :class:`~repro.rpc.messages.Response`; converts library
    exceptions into :class:`~repro.rpc.messages.ErrorResponse` so the
    failure crosses the "network" as data, exactly as a real wire
    protocol would carry it. A reply, or anything that is not a
    message, is answered with ``BadRequestError``.
    """
    try:
        verb = VERBS.get(request.__class__)
        if verb is None or verb.handle is None:
            raise errors.BadRequestError("unknown request %r" % (request,))
        return verb.handle(server, request)
    except errors.SwarmError as exc:
        return m.ErrorResponse(error_class=type(exc).__name__, message=str(exc))
