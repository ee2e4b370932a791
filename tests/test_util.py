"""Unit tests for repro.util: packing, checksums, ids, FID layout."""

import pytest
from hypothesis import given, strategies as st

from repro.util.checksums import crc32_of
from repro.util.fids import FID_NONE, SEQ_MASK, fid_client, fid_seq, make_fid
from repro.util.idgen import IdGenerator
from repro.util.packing import pack_bytes, pack_str, unpack_bytes, unpack_str


class TestPacking:
    def test_bytes_round_trip(self):
        buf = pack_bytes(b"hello")
        value, end = unpack_bytes(buf, 0)
        assert value == b"hello"
        assert end == len(buf)

    def test_empty_bytes(self):
        value, end = unpack_bytes(pack_bytes(b""), 0)
        assert value == b""
        assert end == 4

    def test_str_round_trip_unicode(self):
        buf = pack_str("héllo wörld ✓")
        value, end = unpack_str(buf, 0)
        assert value == "héllo wörld ✓"
        assert end == len(buf)

    def test_offset_parsing(self):
        buf = b"junk" + pack_bytes(b"payload")
        value, end = unpack_bytes(buf, 4)
        assert value == b"payload"
        assert end == len(buf)

    def test_truncated_length_prefix_raises(self):
        with pytest.raises(ValueError):
            unpack_bytes(b"\x00\x00", 0)

    def test_truncated_payload_raises(self):
        buf = pack_bytes(b"abcdef")[:-2]
        with pytest.raises(ValueError):
            unpack_bytes(buf, 0)

    @given(st.binary(max_size=2000), st.binary(max_size=50))
    def test_concatenated_fields_parse_in_order(self, first, second):
        buf = pack_bytes(first) + pack_bytes(second)
        value1, pos = unpack_bytes(buf, 0)
        value2, end = unpack_bytes(buf, pos)
        assert (value1, value2) == (first, second)
        assert end == len(buf)


class TestChecksums:
    def test_crc_matches_zlib(self):
        import zlib

        assert crc32_of(b"swarm") == zlib.crc32(b"swarm") & 0xFFFFFFFF

    def test_chunked_equals_whole(self):
        assert crc32_of(b"ab", b"cd", b"ef") == crc32_of(b"abcdef")

    def test_empty(self):
        assert crc32_of() == 0
        assert crc32_of(b"") == 0

    @given(st.lists(st.binary(max_size=100), max_size=8))
    def test_chunking_invariance(self, chunks):
        assert crc32_of(*chunks) == crc32_of(b"".join(chunks))


class TestIdGenerator:
    def test_monotonic(self):
        gen = IdGenerator()
        assert [gen.next() for _ in range(4)] == [1, 2, 3, 4]

    def test_custom_start(self):
        assert IdGenerator(start=10).next() == 10

    def test_peek_does_not_advance(self):
        gen = IdGenerator()
        assert gen.next() == 1

    def test_advance_past(self):
        gen = IdGenerator()
        gen.advance_past(100)
        assert gen.next() == 101

    def test_advance_past_smaller_is_noop(self):
        gen = IdGenerator(start=50)
        gen.advance_past(10)
        assert gen.next() == 50


class TestFids:
    def test_round_trip(self):
        fid = make_fid(7, 1234)
        assert fid_client(fid) == 7
        assert fid_seq(fid) == 1234

    def test_fid_none_is_client_zero_seq_zero(self):
        assert fid_client(FID_NONE) == 0
        assert fid_seq(FID_NONE) == 0

    def test_consecutive_seqs_are_consecutive_fids(self):
        assert make_fid(3, 9) + 1 == make_fid(3, 10)

    def test_client_out_of_range(self):
        with pytest.raises(ValueError):
            make_fid(1 << 24, 0)
        with pytest.raises(ValueError):
            make_fid(-1, 0)

    def test_seq_out_of_range(self):
        with pytest.raises(ValueError):
            make_fid(0, SEQ_MASK + 1)

    @given(st.integers(min_value=0, max_value=(1 << 24) - 1),
           st.integers(min_value=0, max_value=SEQ_MASK))
    def test_round_trip_property(self, client, seq):
        fid = make_fid(client, seq)
        assert fid_client(fid) == client
        assert fid_seq(fid) == seq

    @given(st.integers(min_value=0, max_value=(1 << 24) - 1),
           st.integers(min_value=0, max_value=(1 << 24) - 1),
           st.integers(min_value=0, max_value=SEQ_MASK),
           st.integers(min_value=0, max_value=SEQ_MASK))
    def test_distinct_clients_never_collide(self, c1, c2, s1, s2):
        if c1 != c2:
            assert make_fid(c1, s1) != make_fid(c2, s2)
