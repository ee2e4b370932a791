"""Storage backends: where fragment slots actually live.

The server logic is backend-agnostic. :class:`MemoryBackend` keeps slots
in a dict (fast, used by tests and the simulated testbed, whose timing
comes from the disk *model*, not real IO). :class:`FileBackend` keeps
slots in a real file on the host filesystem with write-then-rename
metadata commits and fsynced journal appends, demonstrating the
durability story end to end.

Besides slots, a backend keeps two kinds of named metadata: blobs,
replaced whole and atomically (snapshots, the ACL table), and journals,
sequences of opaque records that only grow until truncated.
"""

from __future__ import annotations

import json
import os
import struct
from abc import ABC, abstractmethod
from typing import Dict, List, Optional

#: A journal record on disk is its length, then its bytes.
_FRAME = struct.Struct(">I")


class StorageBackend(ABC):
    """Slot-granular persistent storage for one server."""

    @abstractmethod
    def write_slot(self, slot: int, data: bytes) -> None:
        """Atomically replace the contents of ``slot`` with ``data``."""

    @abstractmethod
    def read_slot(self, slot: int) -> Optional[bytes]:
        """Return the contents of ``slot`` or None if never written."""

    @abstractmethod
    def clear_slot(self, slot: int) -> None:
        """Discard the contents of ``slot``."""

    @abstractmethod
    def save_metadata(self, key: str, payload: bytes) -> None:
        """Atomically persist a named metadata blob (the fragment map)."""

    @abstractmethod
    def load_metadata(self, key: str) -> Optional[bytes]:
        """Load a metadata blob saved by :meth:`save_metadata`."""

    @abstractmethod
    def append_metadata(self, key: str, record: bytes) -> None:
        """Durably append one record to the metadata journal ``key``."""

    @abstractmethod
    def load_journal(self, key: str) -> List[bytes]:
        """Records appended to journal ``key`` since it was last
        truncated, oldest first. A crash during an append can leave the
        last one torn: shorter than appended, or with garbled bytes."""

    @abstractmethod
    def truncate_journal(self, key: str) -> None:
        """Durably discard every record of journal ``key``."""


class MemoryBackend(StorageBackend):
    """In-memory backend; survives simulated crashes (which only reset
    the server's volatile state), not process exit."""

    def __init__(self) -> None:
        self._slots: Dict[int, bytes] = {}
        self._metadata: Dict[str, bytes] = {}
        self._journals: Dict[str, List[bytes]] = {}

    def write_slot(self, slot: int, data: bytes) -> None:
        self._slots[slot] = bytes(data)

    def read_slot(self, slot: int) -> Optional[bytes]:
        return self._slots.get(slot)

    def clear_slot(self, slot: int) -> None:
        self._slots.pop(slot, None)

    def save_metadata(self, key: str, payload: bytes) -> None:
        self._metadata[key] = bytes(payload)

    def load_metadata(self, key: str) -> Optional[bytes]:
        return self._metadata.get(key)

    def append_metadata(self, key: str, record: bytes) -> None:
        self._journals.setdefault(key, []).append(bytes(record))

    def load_journal(self, key: str) -> List[bytes]:
        return list(self._journals.get(key, ()))

    def truncate_journal(self, key: str) -> None:
        self._journals.pop(key, None)

    def used_slots(self) -> int:
        """Number of occupied slots (test/diagnostic helper)."""
        return len(self._slots)


class FileBackend(StorageBackend):
    """Backend storing slots as files under a directory.

    Each slot is one file (``slot_<n>``), written via a temporary file
    and ``os.replace`` so a crash never leaves a half-written slot —
    this is how the real server honours the paper's atomic-store
    guarantee. Metadata blobs use the same write-then-rename commit. A
    journal is one file (``journal_<key>.log``) of length-prefixed
    records, each appended and fsynced before the append returns.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _slot_path(self, slot: int) -> str:
        return os.path.join(self.directory, "slot_%d" % slot)

    def _meta_path(self, key: str) -> str:
        return os.path.join(self.directory, "meta_%s.json" % key)

    def _journal_path(self, key: str) -> str:
        return os.path.join(self.directory, "journal_%s.log" % key)

    def _atomic_write(self, path: str, data: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def write_slot(self, slot: int, data: bytes) -> None:
        self._atomic_write(self._slot_path(slot), data)

    def read_slot(self, slot: int) -> Optional[bytes]:
        try:
            with open(self._slot_path(slot), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def clear_slot(self, slot: int) -> None:
        try:
            os.remove(self._slot_path(slot))
        except FileNotFoundError:
            pass

    def save_metadata(self, key: str, payload: bytes) -> None:
        self._atomic_write(self._meta_path(key), payload)

    def load_metadata(self, key: str) -> Optional[bytes]:
        try:
            with open(self._meta_path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def append_metadata(self, key: str, record: bytes) -> None:
        with open(self._journal_path(key), "ab") as handle:
            handle.write(_FRAME.pack(len(record)) + record)
            handle.flush()
            os.fsync(handle.fileno())

    def load_journal(self, key: str) -> List[bytes]:
        """The file's records in order. If it ends inside a record, the
        last element is whatever of that record made it to disk (empty
        when even its length prefix is incomplete)."""
        try:
            with open(self._journal_path(key), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        records: List[bytes] = []
        pos = 0
        while pos < len(data):
            if len(data) - pos < _FRAME.size:
                records.append(b"")
                break
            (size,) = _FRAME.unpack_from(data, pos)
            pos += _FRAME.size
            records.append(data[pos:pos + size])
            pos += size
        return records

    def truncate_journal(self, key: str) -> None:
        with open(self._journal_path(key), "wb") as handle:
            os.fsync(handle.fileno())


def encode_fragment_map(mapping: Dict[int, dict]) -> bytes:
    """Serialize the FID→slot map for backend persistence."""
    return json.dumps({str(fid): info for fid, info in mapping.items()},
                      sort_keys=True).encode("utf-8")


def decode_fragment_map(payload: bytes) -> Dict[int, dict]:
    """Inverse of :func:`encode_fragment_map`."""
    raw = json.loads(payload.decode("utf-8"))
    return {int(fid): info for fid, info in raw.items()}
