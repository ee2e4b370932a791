"""Monotonic identifier generation.

Swarm identifies fragments with 64-bit FIDs and needs various other
monotonically increasing ids (ARU ids, inode numbers, ...). A tiny
generator class keeps that logic in one place and makes tests
deterministic.
"""

from __future__ import annotations


class IdGenerator:
    """Produce monotonically increasing integer ids.

    Parameters
    ----------
    start:
        The first id that :meth:`next` will return.
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def next(self) -> int:
        """Return the next id and advance the counter."""
        value = self._next
        self._next += 1
        return value

    def advance_past(self, seen: int) -> None:
        """Ensure future ids are strictly greater than ``seen``.

        Used during crash recovery: after replaying the log, the generator
        must not re-issue ids that already appear in stored fragments.
        """
        if seen >= self._next:
            self._next = seen + 1
