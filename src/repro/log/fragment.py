"""Fragment format: the unit of striping and storage.

The log is stored in fixed-capacity fragments (1 MB in the prototype).
A fragment image is a fixed-size header followed by a payload of *items*
(blocks and records). The header embeds the fragment's complete stripe
descriptor — stripe base FID, width, this fragment's index, and the
server that holds each sibling — which is what makes client-side
reconstruction possible without any central metadata: any one surviving
fragment of a stripe names all the others.

The header has constant size so that block offsets can be handed back to
services *at append time*, before the stripe is sealed; the stripe
descriptor fields are patched in when the stripe closes. Parity
fragments carry the XOR of their siblings' entire images (zero-padded to
equal length) as payload, so reconstruction yields a complete, parseable
fragment image.

Zero-copy invariants (who owns what):

* A :class:`FragmentBuilder` accumulates items directly into one
  capacity-sized buffer with the header region in place, so sealing
  patches the header in with a ``memoryview`` and materializes the
  complete image **exactly once**. No ``header + payload``
  concatenation happens on the write path.
* That buffer may be a recycled one (the log layer hands a sealed
  builder's buffer to the next builder), so it is not zero-filled:
  only bytes below the builder's write offset are meaningful, and the
  header region holds stale bytes until :meth:`FragmentBuilder.seal`
  overwrites all of it. No view of the buffer leaves the builder
  except :meth:`FragmentBuilder.buffered_image`, which the caller
  releases before the stripe closes; :meth:`FragmentBuilder.peek_range`
  returns owned ``bytes``.
* :meth:`Fragment.decode` keeps the caller's image and serves
  ``payload`` (and block item data) as ``memoryview`` slices of it —
  readers that only parse, XOR, or re-store images never copy them.
  Record payloads are always materialized as owned ``bytes`` (records
  cross into service replay logic and must outlive the image).
* Anything holding a ``memoryview`` must treat it as read-only and may
  call ``bytes()`` to take ownership; trust boundaries (the storage
  server's backend and cache) always do.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import CorruptFragmentError
from repro.log.records import Record
from repro.util.checksums import crc32_of

MAGIC = b"SWFR"
VERSION = 1

MAX_STRIPE_WIDTH = 16
_SERVER_NAME_LEN = 16

FLAG_PARITY = 1 << 0
FLAG_MARKED = 1 << 1

NO_PARITY = 0xFFFF
"""Sentinel ``parity_index`` for stripes written without redundancy
(single-server stripe groups)."""

_FIXED = struct.Struct(">4sHHQIQHHHIIQQI")
HEADER_SIZE = _FIXED.size + MAX_STRIPE_WIDTH * _SERVER_NAME_LEN + 4

ITEM_BLOCK = 1
ITEM_RECORD = 2
_ITEM_HEAD = struct.Struct(">BI")
_BLOCK_OWNER = struct.Struct(">I")

BLOCK_ITEM_OVERHEAD = _ITEM_HEAD.size + _BLOCK_OWNER.size
"""Bytes of framing added around each block's data."""


@dataclass(frozen=True)
class FragmentHeader:
    """Parsed fragment header (see module docstring for the layout)."""

    fid: int
    client_id: int
    is_parity: bool
    marked: bool
    stripe_base_fid: int
    stripe_width: int
    stripe_index: int
    parity_index: int
    payload_len: int
    item_count: int
    first_lsn: int
    last_lsn: int
    servers: Tuple[str, ...]
    payload_crc: int = 0
    """CRC-32 of the payload bytes (0 on images written before the field
    existed). The header checksum covers this field, so an end-to-end
    read can detect silent payload corruption — a flipped bit anywhere
    in the image fails either the header CRC or this one."""

    @property
    def parity_count(self) -> int:
        """Parity members of this stripe (0 for a stripe without
        parity). The parity members are the last ones, from
        ``parity_index`` on."""
        if self.parity_index == NO_PARITY or (
                self.parity_index >= self.stripe_width):
            return 0
        return self.stripe_width - self.parity_index

    def sibling_fids(self) -> List[int]:
        """FIDs of every fragment in this stripe, in stripe order."""
        return [self.stripe_base_fid + i for i in range(self.stripe_width)]

    def encode(self) -> bytes:
        """Serialize the header to its fixed-size binary form."""
        flags = (FLAG_PARITY if self.is_parity else 0) | \
                (FLAG_MARKED if self.marked else 0)
        fixed = _FIXED.pack(
            MAGIC, VERSION, flags, self.fid, self.client_id,
            self.stripe_base_fid, self.stripe_width, self.stripe_index,
            self.parity_index, self.payload_len, self.item_count,
            self.first_lsn, self.last_lsn, self.payload_crc)
        names = bytearray(MAX_STRIPE_WIDTH * _SERVER_NAME_LEN)
        for i, name in enumerate(self.servers):
            raw = name.encode("utf-8")
            if len(raw) > _SERVER_NAME_LEN:
                raise ValueError("server name too long: %r" % name)
            names[i * _SERVER_NAME_LEN:i * _SERVER_NAME_LEN + len(raw)] = raw
        body = fixed + bytes(names)
        return body + struct.pack(">I", crc32_of(body))

    @classmethod
    def decode(cls, image) -> "FragmentHeader":
        """Parse and validate a header from the start of ``image``.

        Accepts any bytes-like object (``bytes``, ``bytearray``,
        ``memoryview``) without copying it.
        """
        if len(image) < HEADER_SIZE:
            raise CorruptFragmentError("image shorter than fragment header")
        view = image if isinstance(image, memoryview) else memoryview(image)
        body = view[:HEADER_SIZE - 4]
        (stored_crc,) = struct.unpack_from(">I", view, HEADER_SIZE - 4)
        if crc32_of(body) != stored_crc:
            raise CorruptFragmentError("fragment header checksum mismatch")
        (magic, version, flags, fid, client_id, base, width, index,
         parity_index, payload_len, item_count, first_lsn, last_lsn,
         payload_crc) = _FIXED.unpack_from(view, 0)
        if magic != MAGIC:
            raise CorruptFragmentError("bad fragment magic %r" % magic)
        if version != VERSION:
            raise CorruptFragmentError("unsupported fragment version %d" % version)
        servers: List[str] = []
        pos = _FIXED.size
        for i in range(width):
            raw = bytes(view[pos + i * _SERVER_NAME_LEN:
                             pos + (i + 1) * _SERVER_NAME_LEN])
            servers.append(raw.rstrip(b"\x00").decode("utf-8"))
        return cls(
            fid=fid, client_id=client_id,
            is_parity=bool(flags & FLAG_PARITY),
            marked=bool(flags & FLAG_MARKED),
            stripe_base_fid=base, stripe_width=width, stripe_index=index,
            parity_index=parity_index, payload_len=payload_len,
            item_count=item_count, first_lsn=first_lsn, last_lsn=last_lsn,
            servers=tuple(servers), payload_crc=payload_crc)


@dataclass(frozen=True)
class LogItem:
    """One parsed payload item: a block or a record.

    For blocks, ``data_offset`` is the absolute offset of the block data
    within the fragment image — i.e. the ``offset`` field of the block's
    :class:`~repro.log.address.BlockAddress`. ``data`` is a read-only
    slice of the fragment image (a ``memoryview`` on the zero-copy
    decode path); callers keeping it past the image's lifetime take
    ``bytes()`` ownership.
    """

    kind: int
    owner_service: int
    data: bytes
    record: Optional[Record]
    data_offset: int


class Fragment:
    """An immutable, sealed fragment: header plus payload bytes.

    ``payload`` may be owned ``bytes`` or a read-only ``memoryview``
    into a complete image (the zero-copy decode path). When the full
    image is already materialized it is passed as ``image`` so
    :meth:`encode` can return it without re-assembling anything.
    """

    def __init__(self, header: FragmentHeader, payload,
                 image: Optional[bytes] = None) -> None:
        if header.payload_len != len(payload):
            raise ValueError("header payload_len disagrees with payload")
        self.header = header
        self.payload = payload
        self._image = image

    @property
    def fid(self) -> int:
        """This fragment's identifier."""
        return self.header.fid

    def encode(self) -> bytes:
        """The complete fragment image (header + payload).

        Free when the fragment was sealed or decoded from an image;
        assembled (once, then cached) otherwise.
        """
        if self._image is None:
            self._image = self.header.encode() + bytes(self.payload)
        return self._image

    @classmethod
    def decode(cls, image, verify_payload: bool = False,
               verify_crc: bool = False) -> "Fragment":
        """Parse a fragment image (any bytes-like object).

        ``verify_payload`` walks the items to validate structure;
        ``verify_crc`` checks the payload CRC recorded in the header
        (``verify_payload`` implies it). Headers are always
        checksum-verified. The payload is served as a ``memoryview`` of
        ``image`` — no copy is taken.
        """
        header = FragmentHeader.decode(image)
        if len(image) < HEADER_SIZE + header.payload_len:
            raise CorruptFragmentError("image truncated before payload end")
        view = image if isinstance(image, memoryview) else memoryview(image)
        end = HEADER_SIZE + header.payload_len
        payload = view[HEADER_SIZE:end]
        if (verify_crc or verify_payload) and header.payload_crc:
            if crc32_of(payload) != header.payload_crc:
                raise CorruptFragmentError(
                    "fragment %d payload checksum mismatch" % header.fid)
        fragment = cls(header, payload, image=image if len(image) == end
                       else view[:end])
        if verify_payload and not header.is_parity:
            count = sum(1 for _ in fragment.items())
            if count != header.item_count:
                raise CorruptFragmentError(
                    "item count mismatch: header says %d, found %d"
                    % (header.item_count, count))
        return fragment

    def items(self) -> Iterator[LogItem]:
        """Iterate the payload's blocks and records in log order."""
        if self.header.is_parity:
            return
        pos = 0
        payload = self.payload
        while pos < len(payload):
            try:
                kind, length = _ITEM_HEAD.unpack_from(payload, pos)
            except struct.error as exc:
                raise CorruptFragmentError("truncated item header") from exc
            body_start = pos + _ITEM_HEAD.size
            body_end = body_start + length
            if body_end > len(payload):
                raise CorruptFragmentError("item body overruns payload")
            if kind == ITEM_BLOCK:
                (owner,) = _BLOCK_OWNER.unpack_from(payload, body_start)
                data_start = body_start + _BLOCK_OWNER.size
                yield LogItem(
                    kind=ITEM_BLOCK, owner_service=owner,
                    data=payload[data_start:body_end], record=None,
                    data_offset=HEADER_SIZE + data_start)
            elif kind == ITEM_RECORD:
                record, _ = Record.decode(payload, body_start)
                yield LogItem(kind=ITEM_RECORD, owner_service=record.service_id,
                              data=b"", record=record,
                              data_offset=HEADER_SIZE + body_start)
            else:
                raise CorruptFragmentError("unknown item kind %d" % kind)
            pos = body_end

    def records(self) -> Iterator[Record]:
        """Iterate only the records, in log order."""
        for item in self.items():
            if item.record is not None:
                yield item.record


class FragmentBuilder:
    """Accumulates blocks and records into one fragment payload.

    ``capacity`` is the total fragment size (header included), matching
    the server's slot size. Stripe descriptor fields are supplied later
    via :meth:`seal`, but block addresses are final as soon as
    :meth:`add_block` returns — the header size is constant.

    The builder holds the whole image buffer up front, header region
    included, and writes every item at its final image offset.
    :meth:`seal` therefore only patches the header bytes in place and
    materializes the immutable image in a single copy — the zero-copy
    write path the paper's client-bound bandwidth numbers assume.

    ``buffer``, when given, is a ``bytearray`` of exactly ``capacity``
    bytes to build in instead of a fresh one — typically one a sealed
    builder gave up through :meth:`release_buffer`. Its old contents
    are never read, so it needs no clearing.
    """

    def __init__(self, fid: int, client_id: int, capacity: int,
                 buffer: Optional[bytearray] = None) -> None:
        if capacity <= HEADER_SIZE:
            raise ValueError("fragment capacity smaller than header")
        if buffer is None:
            buffer = bytearray(capacity)
        elif len(buffer) != capacity:
            raise ValueError("buffer size disagrees with fragment capacity")
        self.fid = fid
        self.client_id = client_id
        self.capacity = capacity
        self.marked = False
        # Set by the log layer once this fragment's payload has been
        # folded into the stripe's running parity accumulator.
        self.parity_folded = False
        # Complete image buffer: header region (patched at seal) plus
        # payload. ``_end`` is the absolute image offset of the next
        # item; bytes at [HEADER_SIZE, _end) never change once written,
        # and bytes at or above ``_end`` are whatever the buffer held.
        self._buf = buffer
        self._end = HEADER_SIZE
        self._item_count = 0
        self._first_lsn = 0
        self._last_lsn = 0

    # -- capacity queries --------------------------------------------------

    @property
    def payload_used(self) -> int:
        """Bytes of payload appended so far."""
        return self._end - HEADER_SIZE

    @property
    def item_count(self) -> int:
        """Items appended so far."""
        return self._item_count

    def free_payload(self) -> int:
        """Payload bytes still available."""
        return self.capacity - self._end

    def fits_block(self, data_len: int) -> bool:
        """Whether a block with ``data_len`` bytes of data fits."""
        return BLOCK_ITEM_OVERHEAD + data_len <= self.free_payload()

    def fits_record(self, record: Record) -> bool:
        """Whether ``record`` fits."""
        return _ITEM_HEAD.size + len(record.encode()) <= self.free_payload()

    @staticmethod
    def max_block_size(capacity: int) -> int:
        """Largest block data size a fragment of ``capacity`` can hold."""
        return capacity - HEADER_SIZE - BLOCK_ITEM_OVERHEAD

    # -- appends -----------------------------------------------------------

    def add_block(self, owner_service: int, data) -> int:
        """Append a block; return the absolute offset of its data.

        ``data`` may be any bytes-like object; its bytes are copied into
        the image buffer (the one copy every append implies).
        """
        body_len = _BLOCK_OWNER.size + len(data)
        if BLOCK_ITEM_OVERHEAD + len(data) > self.free_payload():
            raise ValueError("block does not fit in fragment")
        buf, pos = self._buf, self._end
        _ITEM_HEAD.pack_into(buf, pos, ITEM_BLOCK, body_len)
        pos += _ITEM_HEAD.size
        _BLOCK_OWNER.pack_into(buf, pos, owner_service)
        pos += _BLOCK_OWNER.size
        data_offset = pos
        buf[pos:pos + len(data)] = data
        self._end = pos + len(data)
        self._item_count += 1
        return data_offset

    def add_record(self, record: Record) -> int:
        """Append a record; return its absolute offset in the image."""
        body = record.encode()
        if _ITEM_HEAD.size + len(body) > self.free_payload():
            raise ValueError("record does not fit in fragment")
        buf, pos = self._buf, self._end
        _ITEM_HEAD.pack_into(buf, pos, ITEM_RECORD, len(body))
        pos += _ITEM_HEAD.size
        offset = pos
        buf[pos:pos + len(body)] = body
        self._end = pos + len(body)
        self._item_count += 1
        if self._first_lsn == 0:
            self._first_lsn = record.lsn
        self._last_lsn = record.lsn
        return offset

    def peek_range(self, offset: int, length: int):
        """Read buffered bytes at image offset ``offset`` (pre-seal).

        Lets the log layer serve reads of not-yet-flushed blocks from
        memory, the way a log-structured file system serves reads from
        its write buffer. Returns owned ``bytes``: the buffer is
        reused for a later fragment once this one is sealed, so no view
        of it may outlive the builder.
        """
        if offset < HEADER_SIZE or offset + length > self._end:
            raise ValueError("peek outside buffered payload")
        with memoryview(self._buf) as view:
            return bytes(view[offset:offset + length])

    def buffered_image(self):
        """Read-only view of the accumulated image bytes so far. This
        is what the incremental-parity accumulator folds when a
        fragment fills: payload bytes never change once written, so the
        view is final for everything in ``[HEADER_SIZE, _end)``. The
        header region is unspecified before :meth:`seal` (it may hold
        an earlier fragment's bytes), as is everything at or above
        ``_end``. The caller must release the view before the builder's
        buffer is released."""
        return memoryview(self._buf).toreadonly()[:self._end]

    def release_buffer(self) -> bytearray:
        """Give up the image buffer so a later builder can reuse it.

        Call only after :meth:`seal` (whose image is an owned copy) or
        on a builder that will not be sealed; the builder is unusable
        afterwards.
        """
        buffer, self._buf = self._buf, None
        return buffer

    # -- sealing -----------------------------------------------------------

    def seal(self, stripe_base_fid: int, stripe_width: int, stripe_index: int,
             parity_index: int, servers: Tuple[str, ...]) -> Fragment:
        """Finalize the fragment with its stripe descriptor.

        Overwrites the whole header region of the buffer and
        materializes the complete image (``[0, _end)``) in one owned
        copy, so nothing of the buffer's earlier contents survives into
        the image and the buffer may be reused once this returns.
        """
        if len(servers) != stripe_width:
            raise ValueError("stripe descriptor width mismatch")
        with memoryview(self._buf) as view:
            payload_crc = crc32_of(view[HEADER_SIZE:self._end])
        header = FragmentHeader(
            fid=self.fid, client_id=self.client_id, is_parity=False,
            marked=self.marked, stripe_base_fid=stripe_base_fid,
            stripe_width=stripe_width, stripe_index=stripe_index,
            parity_index=parity_index, payload_len=self.payload_used,
            item_count=self._item_count, first_lsn=self._first_lsn,
            last_lsn=self._last_lsn, servers=tuple(servers),
            payload_crc=payload_crc)
        with memoryview(self._buf) as view:
            view[:HEADER_SIZE] = header.encode()
            image = bytes(view[:self._end])
        return Fragment(header, memoryview(image)[HEADER_SIZE:], image=image)


def make_parity_fragment(fid: int, client_id: int, payload: bytes,
                         stripe_base_fid: int, stripe_width: int,
                         stripe_index: int, servers: Tuple[str, ...],
                         parity_index: int) -> Fragment:
    """Build one parity fragment of a stripe around ``payload``.

    ``payload`` is one parity slot of the stripe's data images, as the
    coding engine produced it (for a single-parity stripe, the XOR of
    the complete images, zero-padded to the longest); ``parity_index``
    is the stripe index of the *first* parity member (data members sit
    below it), ``stripe_index`` this member's own.
    """
    header = FragmentHeader(
        fid=fid, client_id=client_id, is_parity=True, marked=False,
        stripe_base_fid=stripe_base_fid, stripe_width=stripe_width,
        stripe_index=stripe_index, parity_index=parity_index,
        payload_len=len(payload), item_count=0, first_lsn=0, last_lsn=0,
        servers=tuple(servers), payload_crc=crc32_of(payload))
    return Fragment(header, payload, image=header.encode() + payload)
