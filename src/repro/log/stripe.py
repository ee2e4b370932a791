"""Parity algebra for stripes.

A *stripe* is a set of two or more fragments with consecutive FIDs, the
last of which holds the XOR parity of the others. Each fragment of a
stripe lives on a different server of the client's *stripe group*;
which server holds which member — and how the parity server rotates
across successive stripes, the distributed analogue of RAID-5's rotated
parity — is decided by :class:`repro.placement.Placement`. This module
only computes the parity itself; :func:`repro.log.coding.decode_data`
inverts it.
"""

from __future__ import annotations

from typing import Sequence


def parity_of(images: Sequence[bytes]) -> bytes:
    """Byte-wise XOR of ``images``, zero-padded to the longest.

    XOR with zero is the identity, so padding preserves the recovery
    property: ``parity_of([parity] + survivors)`` returns the missing
    image (possibly with trailing zero padding, which the fragment
    header makes harmless).

    This byte-at-a-time loop is the *reference oracle*: tests check the
    fast implementation against it, but no hot path calls it —
    :func:`parity_of_fast` is what the write, recovery, and scrub paths
    use.
    """
    if not images:
        return b""
    length = max(len(image) for image in images)
    acc = bytearray(length)
    for image in images:
        for i, byte in enumerate(image):
            acc[i] ^= byte
    return bytes(acc)


def parity_of_fast(images: Sequence[bytes]) -> bytes:
    """XOR using ``int.from_bytes`` arithmetic — much faster in CPython.

    Functionally identical to :func:`parity_of`; this is the
    implementation every hot path (stripe close, reconstruction, fsck)
    uses. Accepts any bytes-like inputs (including ``memoryview``
    slices from the zero-copy pipeline) without copying them.
    """
    if not images:
        return b""
    length = max(len(image) for image in images)
    acc = 0
    for image in images:
        acc ^= int.from_bytes(image, "little")
    return acc.to_bytes(length, "little")


class ParityAccumulator:
    """Running XOR of a stripe's data images, fed as the data arrives.

    The stripe close used to XOR every complete data image in one
    O(stripe-size) pass; this instead folds each appended item's bytes
    into a running integer accumulator *as it is appended*, so by the
    time the last data fragment seals, the parity payload is one
    ``to_bytes`` away and the close-time XOR stall disappears.

    Parity covers complete images — header at image offset 0, items at
    their absolute image offsets — and all data images XOR together
    aligned at offset 0, so every range folds at its absolute image
    offset with the same big-int arithmetic as :func:`parity_of_fast`,
    spread over time. Headers are only known at seal time and are
    folded in then.

    Folds are bucketed by exact offset, so each fold is a shift-free
    XOR against only the bytes that share its offset — the log layer
    produces exactly two buckets (headers at 0, payloads at
    ``HEADER_SIZE``) whose ranges never overlap, and the payload is
    then emitted by concatenation with no whole-stripe shift or XOR
    pass at all. Overlapping buckets (arbitrary interleavings) fall
    back to one shifted combine per bucket at emit time.

    ``consumed`` counts the bytes folded so far, so the log layer's
    ``cost_hook("xor", ...)`` accounting stays byte-exact with the
    one-shot implementation it replaces.
    """

    def __init__(self) -> None:
        # offset -> [acc_int, max_range_length_at_that_offset]
        self._buckets = {}
        self.consumed = 0

    def add_range(self, offset: int, data) -> None:
        """Fold ``data`` located at absolute image offset ``offset`` of
        one of the stripe's data fragments."""
        size = len(data)
        if not size:
            return
        bucket = self._buckets.get(offset)
        if bucket is None:
            self._buckets[offset] = [int.from_bytes(data, "little"), size]
        else:
            bucket[0] ^= int.from_bytes(data, "little")
            if size > bucket[1]:
                bucket[1] = size
        self.consumed += size

    def parity_payload(self) -> bytes:
        """The accumulated XOR as little-endian bytes.

        Identical to ``parity_of_fast(images)`` over the stripe's
        complete data images (zero-padded to the longest).
        """
        if not self._buckets:
            return b""
        spans = sorted((off, acc, length)
                       for off, (acc, length) in self._buckets.items())
        disjoint = all(spans[i][0] + spans[i][2] <= spans[i + 1][0]
                       for i in range(len(spans) - 1))
        if disjoint:
            parts = []
            pos = 0
            for off, acc, length in spans:
                parts.append(b"\x00" * (off - pos))
                parts.append(acc.to_bytes(length, "little"))
                pos = off + length
            return b"".join(parts)
        total = 0
        total_len = 0
        for off, acc, length in spans:
            total ^= acc << (8 * off)
            end = off + length
            if end > total_len:
                total_len = end
        return total.to_bytes(total_len, "little")

