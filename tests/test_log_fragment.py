"""Unit tests for the fragment format and builder."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptFragmentError
from repro.log.coding import XorEngine
from repro.log.fragment import (
    BLOCK_ITEM_OVERHEAD,
    Fragment,
    FragmentBuilder,
    FragmentHeader,
    HEADER_SIZE,
    ITEM_BLOCK,
    ITEM_RECORD,
    NO_PARITY,
    make_parity_fragment,
)
from repro.log.records import Record

CAP = 1 << 16


def build_one(blocks=(), records=(), fid=5, servers=("a", "b", "c")):
    builder = FragmentBuilder(fid, client_id=1, capacity=CAP)
    offsets = [builder.add_block(9, data) for data in blocks]
    for record in records:
        builder.add_record(record)
    fragment = builder.seal(fid, len(servers), 0, len(servers) - 1, servers)
    return builder, fragment, offsets


class TestHeader:
    def test_round_trip(self):
        header = FragmentHeader(
            fid=77, client_id=3, is_parity=False, marked=True,
            stripe_base_fid=76, stripe_width=4, stripe_index=1,
            parity_index=3, payload_len=0, item_count=0, first_lsn=10,
            last_lsn=22, servers=("s0", "s1", "s2", "s3"))
        decoded = FragmentHeader.decode(header.encode())
        assert decoded == header

    def test_checksum_detects_corruption(self):
        _b, fragment, _o = build_one(blocks=[b"data"])
        image = bytearray(fragment.encode())
        image[10] ^= 0xFF
        with pytest.raises(CorruptFragmentError):
            FragmentHeader.decode(bytes(image))

    def test_bad_magic(self):
        with pytest.raises(CorruptFragmentError):
            FragmentHeader.decode(b"\x00" * HEADER_SIZE)

    def test_short_image(self):
        with pytest.raises(CorruptFragmentError):
            FragmentHeader.decode(b"ab")

    def test_sibling_fids(self):
        _b, fragment, _o = build_one()
        assert fragment.header.sibling_fids() == [5, 6, 7]

    def test_server_name_too_long(self):
        header = FragmentHeader(
            fid=1, client_id=1, is_parity=False, marked=False,
            stripe_base_fid=1, stripe_width=1, stripe_index=0,
            parity_index=NO_PARITY, payload_len=0, item_count=0,
            first_lsn=0, last_lsn=0, servers=("x" * 17,))
        with pytest.raises(ValueError):
            header.encode()


class TestBuilder:
    def test_block_offset_points_at_data(self):
        _b, fragment, offsets = build_one(blocks=[b"first", b"second"])
        image = fragment.encode()
        assert image[offsets[0]:offsets[0] + 5] == b"first"
        assert image[offsets[1]:offsets[1] + 6] == b"second"

    def test_offsets_stable_before_seal(self):
        builder = FragmentBuilder(5, 1, CAP)
        offset = builder.add_block(9, b"payload")
        assert builder.peek_range(offset, 7) == b"payload"

    def test_capacity_enforced(self):
        builder = FragmentBuilder(5, 1, 1024)
        too_big = b"x" * (1024 - HEADER_SIZE)
        assert not builder.fits_block(len(too_big))
        with pytest.raises(ValueError):
            builder.add_block(1, too_big)

    def test_max_block_size_exactly_fits(self):
        size = FragmentBuilder.max_block_size(CAP)
        builder = FragmentBuilder(5, 1, CAP)
        builder.add_block(1, b"y" * size)
        assert builder.free_payload() == 0

    def test_record_lsn_tracking(self):
        records = [Record(7, 1, 64, b"a"), Record(9, 1, 64, b"b")]
        _b, fragment, _o = build_one(records=records)
        assert fragment.header.first_lsn == 7
        assert fragment.header.last_lsn == 9

    def test_item_count(self):
        _b, fragment, _o = build_one(blocks=[b"x"],
                                     records=[Record(1, 1, 64, b"")])
        assert fragment.header.item_count == 2

    def test_capacity_must_exceed_header(self):
        with pytest.raises(ValueError):
            FragmentBuilder(1, 1, HEADER_SIZE)

    def test_peek_outside_payload(self):
        builder = FragmentBuilder(5, 1, CAP)
        builder.add_block(1, b"ab")
        with pytest.raises(ValueError):
            builder.peek_range(0, 4)  # inside the (unwritten) header


class TestFragmentParsing:
    def test_items_in_order_with_kinds(self):
        records = [Record(1, 2, 64, b"r1")]
        _b, fragment, _o = build_one(blocks=[b"blockdata"], records=records)
        items = list(fragment.items())
        assert [item.kind for item in items] == [ITEM_BLOCK, ITEM_RECORD]
        assert items[0].data == b"blockdata"
        assert items[0].owner_service == 9
        assert items[1].record.payload == b"r1"

    def test_records_iterator(self):
        records = [Record(1, 2, 64, b"a"), Record(2, 3, 65, b"b")]
        _b, fragment, _o = build_one(blocks=[b"x"], records=records)
        assert [r.lsn for r in fragment.records()] == [1, 2]

    def test_decode_verify_payload(self):
        _b, fragment, _o = build_one(blocks=[b"abc"])
        Fragment.decode(fragment.encode(), verify_payload=True)

    def test_truncated_payload_detected(self):
        _b, fragment, _o = build_one(blocks=[b"abc" * 100])
        image = fragment.encode()[:-50]
        with pytest.raises(CorruptFragmentError):
            Fragment.decode(image)

    def test_data_offset_matches_address_contract(self):
        """items() must report the same offsets add_block returned."""
        _b, fragment, offsets = build_one(blocks=[b"one", b"two", b"three"])
        parsed = [item.data_offset for item in fragment.items()
                  if item.record is None]
        assert parsed == offsets

    @given(st.lists(st.binary(min_size=1, max_size=3000), min_size=1,
                    max_size=12))
    def test_round_trip_property(self, blocks):
        builder = FragmentBuilder(5, 1, capacity=1 << 17)
        offsets = []
        for data in blocks:
            offsets.append(builder.add_block(3, data))
        fragment = builder.seal(5, 2, 0, 1, ("a", "b"))
        decoded = Fragment.decode(fragment.encode(), verify_payload=True)
        parsed = [(item.data_offset, item.data) for item in decoded.items()]
        assert parsed == list(zip(offsets, blocks))


class TestParityFragment:
    def test_parity_has_no_items(self):
        _b, data_fragment, _o = build_one(blocks=[b"stuff"])
        payload = XorEngine().encode([data_fragment.encode()])[0]
        parity = make_parity_fragment(8, 1, payload, 5, 4, 3,
                                      ("a", "b", "c", "d"), 3)
        assert parity.header.is_parity
        assert parity.header.parity_index == 3
        assert list(parity.items()) == []

    def test_parity_payload_is_xor_of_images(self):
        _b, f1, _o = build_one(blocks=[b"aaa"], fid=5)
        _b, f2, _o = build_one(blocks=[b"bb"], fid=6)
        images = [f1.encode(), f2.encode()]
        payload = XorEngine().encode(images)[0]
        parity = make_parity_fragment(7, 1, payload, 5, 3, 2,
                                      ("a", "b", "c"), 2)
        length = max(len(i) for i in images)
        expected = bytes(
            (images[0][k] if k < len(images[0]) else 0)
            ^ (images[1][k] if k < len(images[1]) else 0)
            for k in range(length))
        assert parity.payload == expected
