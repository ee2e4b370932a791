"""Binary codec for the RPC message types.

The simulated testbed charges network and CPU time by message size, so
the codec must produce realistic wire images. It is also used by
round-trip tests to keep the protocol honest: every message type must
survive encode→decode unchanged. Since the TCP plane landed it is a
*real* wire format too: :mod:`repro.rpc.net` frames these images over
sockets, and trusts :func:`wire_size` to write length prefixes without
materializing the message first.

Wire format: 1-byte message tag, then tag-specific fields using
big-endian fixed-width integers and 4-byte-length-prefixed byte/string
fields.

Hot path: encoding and decoding dispatch through per-type tables (no
``isinstance`` ladder), every fixed-width layout is a precompiled
module-level :class:`struct.Struct` — ``struct.pack(">Qqq", ...)``
re-parses its format string on every call — and the per-type workers
fold the tag byte into their leading pack so a request head is one
``Struct.pack`` plus one concatenation. The codec moves hundreds of
thousands of messages per second; its in-system cost is the
``rpc.codec.self_ms_per_mb`` budget line of the ``swarm-e2e``
benchmark (``benchmarks/e2e/``).
"""

from __future__ import annotations

from struct import Struct, error as _StructError
from typing import Dict, List, Tuple, Union

from repro.rpc import messages as m
from repro.util.packing import pack_str, unpack_str

_TAGS = {
    m.StoreRequest: 1,
    m.RetrieveRequest: 2,
    m.DeleteRequest: 3,
    m.PreallocateRequest: 4,
    m.LastMarkedRequest: 5,
    m.HoldsRequest: 6,
    m.CreateAclRequest: 7,
    m.ModifyAclRequest: 8,
    m.DeleteAclRequest: 9,
    m.EvalScriptRequest: 10,
    m.ListFidsRequest: 11,
    m.MultiRetrieveRequest: 12,
    m.Response: 20,
    m.ErrorResponse: 21,
}
_BY_TAG = {tag: cls for cls, tag in _TAGS.items()}
_HEADS = {cls: Struct(">B").pack(tag) for cls, tag in _TAGS.items()}

Message = Union[tuple(_TAGS)]

# Precompiled fixed-width layouts (the codec hot path).
_U32 = Struct(">I")
_I64 = Struct(">q")
_U64 = Struct(">Q")
_FID_FLAG = Struct(">QB")      # ModifyAcl aid+flags
_RANGE = Struct(">IIQ")        # ACL range (start, end, aid)
_MULTI_RANGE = Struct(">QII")  # MultiRetrieve range (fid, offset, length)
# Request/response heads with the tag byte folded in: one pack call
# emits the tag, the fixed fields, and the next field's length prefix.
_STORE_HEAD = Struct(">BQBI")      # tag, fid, marked, len(principal)
_RETRIEVE_HEAD = Struct(">BQqqI")  # tag, fid, offset, length, len(p)
_FID_HEAD = Struct(">BQI")         # tag, fid/aid, len(principal)
_I64_HEAD = Struct(">BqI")         # tag, client_id/value, len(next)
_STORE_BODY = Struct(">QBI")       # decode: fid, marked, len(principal)
_RETRIEVE_BODY = Struct(">QqqI")
_FID_BODY = Struct(">QI")
_I64_BODY = Struct(">qI")
_EMPTY4 = _U32.pack(0)

#: ``">%dQ"`` structs for fid lists, cached by count — a new Struct per
#: call would re-parse the format string on the ``holds`` hot path.
_FIDS: Dict[int, Struct] = {}


def _fids_struct(count: int) -> Struct:
    packer = _FIDS.get(count)
    if packer is None:
        packer = _FIDS[count] = Struct(">%dQ" % count)
    return packer


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


# ----------------------------------------------------------------------
# Encoders — one worker per type, dispatched by exact class
# ----------------------------------------------------------------------

def _encode_store(msg, _pack=_STORE_HEAD.pack, _u32=_U32.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(1, msg.fid, msg.marked, len(principal)) + principal
            + _pack_ranges(msg.acl_ranges) + _u32(len(msg.data)),
            memoryview(msg.data)]


def _encode_retrieve(msg, _pack=_RETRIEVE_HEAD.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(2, msg.fid, msg.offset, msg.length, len(principal))
            + principal]


def _encode_multi_retrieve(msg, _u32=_U32.pack,
                           _rpack=_MULTI_RANGE.pack) -> List:
    principal = msg.principal.encode("utf-8")
    body = [_HEADS[m.MultiRetrieveRequest], _u32(len(msg.ranges))]
    body.extend(_rpack(fid, offset, length)
                for fid, offset, length in msg.ranges)
    body.append(_u32(len(principal)) + principal)
    return [b"".join(body)]


def _encode_delete(msg, _pack=_FID_HEAD.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(3, msg.fid, len(principal)) + principal]


def _encode_preallocate(msg, _pack=_FID_HEAD.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(4, msg.fid, len(principal)) + principal]


def _encode_last_marked(msg, _pack=_I64_HEAD.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(5, msg.client_id, len(principal)) + principal]


def _encode_holds(msg, _u32=_U32.pack) -> List:
    principal = msg.principal.encode("utf-8")
    fids = msg.fids
    count = len(fids)
    return [b"\x06" + _u32(count) + _fids_struct(count).pack(*fids)
            + _u32(len(principal)) + principal]


def _encode_create_acl(msg) -> List:
    return [_HEADS[m.CreateAclRequest] + _pack_str_tuple(msg.readers)
            + _pack_str_tuple(msg.writers) + pack_str(msg.principal)]


def _encode_modify_acl(msg) -> List:
    flags = (1 if msg.readers is not None else 0) | \
            (2 if msg.writers is not None else 0)
    body = _HEADS[m.ModifyAclRequest] + _FID_FLAG.pack(msg.aid, flags)
    if msg.readers is not None:
        body += _pack_str_tuple(msg.readers)
    if msg.writers is not None:
        body += _pack_str_tuple(msg.writers)
    return [body + pack_str(msg.principal)]


def _encode_delete_acl(msg, _pack=_FID_HEAD.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(9, msg.aid, len(principal)) + principal]


def _encode_eval_script(msg) -> List:
    return [_HEADS[m.EvalScriptRequest] + pack_str(msg.script)
            + pack_str(msg.principal)]


def _encode_list_fids(msg, _pack=_I64_HEAD.pack) -> List:
    principal = msg.principal.encode("utf-8")
    return [_pack(11, msg.client_id, len(principal)) + principal]


def _encode_response(msg, _pack=_I64_HEAD.pack, _u32=_U32.pack) -> List:
    text = msg.text
    if text:
        raw = text.encode("utf-8")
        tail = _u32(len(raw)) + raw
    else:
        tail = _EMPTY4
    return [_pack(20, msg.value, len(msg.payload)),
            memoryview(msg.payload), tail]


def _encode_error(msg) -> List:
    return [_HEADS[m.ErrorResponse] + pack_str(msg.error_class)
            + pack_str(msg.message)]


_ENCODERS = {
    m.StoreRequest: _encode_store,
    m.RetrieveRequest: _encode_retrieve,
    m.DeleteRequest: _encode_delete,
    m.PreallocateRequest: _encode_preallocate,
    m.LastMarkedRequest: _encode_last_marked,
    m.HoldsRequest: _encode_holds,
    m.CreateAclRequest: _encode_create_acl,
    m.ModifyAclRequest: _encode_modify_acl,
    m.DeleteAclRequest: _encode_delete_acl,
    m.EvalScriptRequest: _encode_eval_script,
    m.ListFidsRequest: _encode_list_fids,
    m.MultiRetrieveRequest: _encode_multi_retrieve,
    m.Response: _encode_response,
    m.ErrorResponse: _encode_error,
}


def encode_message(msg: Message) -> bytes:
    """Serialize any protocol message to its wire image."""
    return b"".join(encode_message_parts(msg))


def encode_message_parts(msg: Message) -> List:
    """Wire image of ``msg`` as an ordered list of buffers.

    The concatenation of the parts is exactly :func:`encode_message`'s
    output, but bulk payloads (a ``StoreRequest``'s fragment image, a
    ``Response``'s retrieved bytes) are returned as ``memoryview``s of
    the caller's buffer instead of being copied into one big image —
    the TCP framer hands the list straight to ``writer.writelines`` so
    a megabyte fragment crosses the socket without an intermediate
    copy.
    """
    encoder = _ENCODERS.get(msg.__class__)
    if encoder is None:
        # Subclasses of a protocol message encode as their base type.
        for klass in type(msg).__mro__[1:]:
            encoder = _ENCODERS.get(klass)
            if encoder is not None:
                break
        else:
            raise TypeError("not a protocol message: %r" % (msg,))
    return encoder(msg)


# ----------------------------------------------------------------------
# Decoders — one worker per tag; field parsing inlined
# ----------------------------------------------------------------------

def _take_str(buf: bytes, pos: int, length: int) -> str:
    raw = buf[pos:pos + length]
    if len(raw) != length:
        raise ValueError("truncated message field")
    return raw.decode("utf-8")


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


def _decode_retrieve(buf, _body=_RETRIEVE_BODY.unpack_from):
    fid, offset, length, plen = _body(buf, 1)
    return m.RetrieveRequest(fid, offset, length, _take_str(buf, 29, plen))


def _decode_multi_retrieve(buf, _u32=_U32.unpack_from,
                           _range=_MULTI_RANGE.unpack_from):
    (count,) = _u32(buf, 1)
    pos = 5
    ranges = tuple(_range(buf, pos + 16 * index) for index in range(count))
    pos += 16 * count
    (plen,) = _u32(buf, pos)
    return m.MultiRetrieveRequest(ranges, _take_str(buf, pos + 4, plen))


def _decode_delete(buf, _body=_FID_BODY.unpack_from):
    fid, plen = _body(buf, 1)
    return m.DeleteRequest(fid, _take_str(buf, 13, plen))


def _decode_preallocate(buf, _body=_FID_BODY.unpack_from):
    fid, plen = _body(buf, 1)
    return m.PreallocateRequest(fid, _take_str(buf, 13, plen))


def _decode_last_marked(buf, _body=_I64_BODY.unpack_from):
    client_id, plen = _body(buf, 1)
    return m.LastMarkedRequest(client_id, _take_str(buf, 13, plen))


def _decode_holds(buf, _u32=_U32.unpack_from):
    (count,) = _u32(buf, 1)
    end = 5 + 8 * count
    fids = _fids_struct(count).unpack_from(buf, 5)
    (plen,) = _u32(buf, end)
    return m.HoldsRequest(fids, _take_str(buf, end + 4, plen))


def _decode_create_acl(buf):
    readers, pos = _unpack_str_tuple(buf, 1)
    writers, pos = _unpack_str_tuple(buf, pos)
    principal, pos = unpack_str(buf, pos)
    return m.CreateAclRequest(readers, writers, principal)


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


def _decode_delete_acl(buf, _body=_FID_BODY.unpack_from):
    aid, plen = _body(buf, 1)
    return m.DeleteAclRequest(aid, _take_str(buf, 13, plen))


def _decode_eval_script(buf):
    script, pos = unpack_str(buf, 1)
    principal, pos = unpack_str(buf, pos)
    return m.EvalScriptRequest(script, principal)


def _decode_list_fids(buf, _body=_I64_BODY.unpack_from):
    client_id, plen = _body(buf, 1)
    return m.ListFidsRequest(client_id, _take_str(buf, 13, plen))


def _decode_response(buf, _body=_I64_BODY.unpack_from,
                     _u32=_U32.unpack_from):
    value, dlen = _body(buf, 1)
    pos = 13 + dlen
    payload = buf[13:pos]
    if len(payload) != dlen:
        raise ValueError("truncated message field")
    (tlen,) = _u32(buf, pos)
    text = _take_str(buf, pos + 4, tlen) if tlen else ""
    return m.Response(value, payload, text)


def _decode_error(buf):
    error_class, pos = unpack_str(buf, 1)
    message, pos = unpack_str(buf, pos)
    return m.ErrorResponse(error_class, message)


_DECODERS = {
    1: _decode_store,
    2: _decode_retrieve,
    3: _decode_delete,
    4: _decode_preallocate,
    5: _decode_last_marked,
    6: _decode_holds,
    7: _decode_create_acl,
    8: _decode_modify_acl,
    9: _decode_delete_acl,
    10: _decode_eval_script,
    11: _decode_list_fids,
    12: _decode_multi_retrieve,
    20: _decode_response,
    21: _decode_error,
}


def decode_message(buf: bytes) -> Message:
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


def wire_size(msg: Message) -> int:
    """Wire bytes of ``msg`` — exactly ``len(encode_message(msg))``.

    Computed arithmetically (not by encoding) so the hot path never
    copies megabyte payloads just to measure it. The TCP framer writes
    this number as the frame's length prefix *before* the message is
    serialized, so any drift from the real encoding corrupts the
    stream — a property test holds every message type to equality.
    """
    if isinstance(msg, m.StoreRequest):
        return (22 + _str_len(msg.principal) + 16 * len(msg.acl_ranges)
                + len(msg.data))
    if isinstance(msg, m.RetrieveRequest):
        return 29 + _str_len(msg.principal)
    if isinstance(msg, m.MultiRetrieveRequest):
        return 9 + 16 * len(msg.ranges) + _str_len(msg.principal)
    if isinstance(msg, (m.DeleteRequest, m.PreallocateRequest)):
        return 13 + _str_len(msg.principal)
    if isinstance(msg, m.HoldsRequest):
        return 9 + 8 * len(msg.fids) + _str_len(msg.principal)
    if isinstance(msg, m.LastMarkedRequest):
        return 13 + _str_len(msg.principal)
    if isinstance(msg, m.Response):
        return 17 + len(msg.payload) + _str_len(msg.text)
    if isinstance(msg, m.ErrorResponse):
        return 9 + _str_len(msg.error_class) + _str_len(msg.message)
    return len(encode_message(msg))


def _str_len(text: str) -> int:
    """UTF-8 byte length of ``text`` (== ``len(text)`` only for ASCII)."""
    if text.isascii():
        return len(text)
    return len(text.encode("utf-8"))
