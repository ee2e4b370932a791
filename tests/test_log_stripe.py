"""Unit tests for striping, parity algebra, and placement rotation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.log.coding import decode_data
from repro.log.stripe import (
    ParityAccumulator,
    parity_of,
    parity_of_fast,
)
from repro.placement import Placement


class TestParityAlgebra:
    def test_simple_xor(self):
        assert parity_of([b"\x0f\x0f", b"\xf0\xf0"]) == b"\xff\xff"

    def test_padding_with_unequal_lengths(self):
        parity = parity_of([b"\xff", b"\x0f\xf0"])
        assert parity == b"\xf0\xf0"

    def test_empty(self):
        assert parity_of([]) == b""

    @given(st.lists(st.binary(max_size=500), min_size=1, max_size=6))
    def test_fast_equals_reference(self, images):
        assert parity_of_fast(images) == parity_of(images)

    @given(st.lists(st.binary(min_size=1, max_size=500), min_size=2,
                    max_size=6),
           st.data())
    def test_any_member_recoverable(self, images, data):
        """Core RAID invariant: parity ^ survivors == missing image."""
        parity = parity_of_fast(images)
        missing = data.draw(st.integers(min_value=0,
                                        max_value=len(images) - 1))
        present = {i: img for i, img in enumerate(images) if i != missing}
        present[len(images)] = parity
        recovered = decode_data(len(images), 1, present)[missing]
        original = images[missing]
        assert recovered[:len(original)] == original
        # Only zero padding beyond the original length.
        assert not any(recovered[len(original):])

    @given(st.lists(st.binary(min_size=1, max_size=300), min_size=1,
                    max_size=5))
    def test_xor_of_everything_is_zero(self, images):
        parity = parity_of_fast(images)
        assert not any(parity_of_fast(images + [parity]))

    def test_fast_empty(self):
        assert parity_of_fast([]) == b""

    def test_fast_unequal_lengths_pads_like_reference(self):
        images = [b"\xff", b"\x0f\xf0", b"\x01\x02\x03"]
        assert parity_of_fast(images) == parity_of(images)
        assert parity_of_fast(images) == b"\xf1\xf2\x03"

    def test_fast_equals_reference_at_fragment_scale(self):
        """One megabyte per member — the real stripe-close shape."""
        images = [bytes([17 * (i + 1) & 0xFF]) * (1 << 20) for i in range(3)]
        assert parity_of_fast(images) == parity_of(images)

    def test_fast_accepts_buffer_views(self):
        """Zero-copy write path hands memoryviews, not owned bytes."""
        images = [b"\x0f\x0f\x55", b"\xf0\xf0\xaa"]
        views = [memoryview(img) for img in images]
        assert parity_of_fast(views) == parity_of(images) == b"\xff\xff\xff"


from repro.log.fragment import HEADER_SIZE as HEADER


class TestParityAccumulator:
    """The incremental accumulator must agree byte-for-byte with the
    one-shot :func:`parity_of` over complete images, however the folds
    are interleaved."""

    @given(st.lists(st.binary(min_size=HEADER, max_size=HEADER + 300),
                    min_size=1, max_size=5))
    def test_matches_oracle_in_layer_fold_order(self, images):
        """Payload regions fold as fragments fill, headers at close —
        the exact order the log layer uses."""
        acc = ParityAccumulator()
        for image in images:
            acc.add_range(HEADER, image[HEADER:])
        for image in images:
            acc.add_range(0, image[:HEADER])
        assert acc.parity_payload() == parity_of(images)

    @given(st.lists(st.binary(min_size=HEADER, max_size=HEADER + 300),
                    min_size=1, max_size=5), st.data())
    def test_matches_oracle_any_interleaving(self, images, data):
        """Fold order must not matter: XOR commutes."""
        folds = []
        for image in images:
            folds.append((HEADER, image[HEADER:]))
            folds.append((0, image[:HEADER]))
        order = data.draw(st.permutations(range(len(folds))))
        acc = ParityAccumulator()
        for i in order:
            acc.add_range(*folds[i])
        assert acc.parity_payload() == parity_of(images)

    def test_consumed_counts_every_folded_byte(self):
        acc = ParityAccumulator()
        acc.add_range(HEADER, b"\x01" * 100)
        acc.add_range(0, b"\x02" * HEADER)
        assert acc.consumed == 100 + HEADER

    def test_empty_accumulator_yields_empty_payload(self):
        assert ParityAccumulator().parity_payload() == b""

    def test_zero_length_fold_is_ignored(self):
        acc = ParityAccumulator()
        acc.add_range(HEADER, b"")
        assert acc.consumed == 0
        assert acc.parity_payload() == b""

    def test_rebase_pads_leading_gap_with_zeros(self):
        """A range folded above offset 0, never rebased: the payload
        still covers [0, end) with zero padding below the base."""
        acc = ParityAccumulator()
        acc.add_range(2, b"\x01\x02")
        assert acc.parity_payload() == b"\x00\x00\x01\x02"
        acc.add_range(0, b"\xff")
        assert acc.parity_payload() == b"\xff\x00\x01\x02"

    def test_accepts_memoryviews(self):
        acc = ParityAccumulator()
        acc.add_range(0, memoryview(b"\x0f\x0f"))
        acc.add_range(0, memoryview(b"\xf0\xf0"))
        assert acc.parity_payload() == b"\xff\xff"


class TestStripeGroup:
    """A stripe group is a :class:`Placement`'s current view."""

    def test_size_and_parity_support(self):
        assert Placement(("a",)).group.size == 1
        assert Placement(("a",)).parity_fragments == 0
        assert Placement(("a", "b")).parity_fragments == 1

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Placement(())

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            Placement(("a", "a"))


class TestStripeLayout:
    """Stripe geometry and rotated placement, pinned to literal tuples."""

    def test_width_adds_parity_member(self):
        placement = Placement(("a", "b", "c"))
        assert placement.width_for(2) == 3
        assert placement.max_data_fragments() == 2

    def test_single_server_group_has_no_parity(self):
        placement = Placement(("a",))
        assert placement.width_for(1) == 1
        assert placement.max_data_fragments() == 1

    def test_rotation_moves_parity_server(self):
        placement = Placement(("a", "b", "c", "d"))
        parity_servers = [placement.servers_for_stripe(k, 4)[3]
                          for k in range(4)]
        assert parity_servers == ["d", "a", "b", "c"]

    def test_each_stripe_uses_distinct_servers(self):
        placement = Placement(("a", "b", "c", "d"))
        for stripe in range(8):
            servers = placement.servers_for_stripe(stripe, 4)
            assert len(set(servers)) == 4

    def test_short_stripe_placement(self):
        placement = Placement(("a", "b", "c", "d"))
        assert placement.servers_for_stripe(1, 2) == ("b", "c")
        assert placement.servers_for_stripe(3, 3) == ("d", "a", "b")

    def test_too_wide_rejected(self):
        placement = Placement(("a", "b"))
        with pytest.raises(ValueError):
            placement.servers_for_stripe(0, 3)

    def test_width_for_requires_positive(self):
        with pytest.raises(ValueError):
            Placement(("a", "b")).width_for(0)
