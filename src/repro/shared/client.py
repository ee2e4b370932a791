"""The shared-file-system client.

Each participating client owns (a) a Swarm stack with a
:class:`SharedDataService` — a thin owner for the file blocks it writes
into its own log — and (b) handles to the shared
:class:`~repro.shared.manager.NamespaceManager` and
:class:`~repro.shared.lease.LeaseManager`.

Write path: take the path's write lease, append the file's blocks to
the *local* log, flush (durable, parity-protected), publish the block
map to the manager, release the lease. Read path: fetch the block map,
then read each block straight from the storage servers — the client's
log layer locates foreign fragments by broadcast and reconstructs them
through parity if a server is down. Data never touches the manager.

Consistency: whole-file writes are atomic at the manager (one
``publish``), and version numbers validate client caches — readers see
either the old or the new file, never a mix.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ServiceError
from repro.log.address import BlockAddress
from repro.services.base import Service
from repro.services.stack import ServiceStack
from repro.shared.lease import LeaseManager
from repro.shared.manager import FileMap, NamespaceManager
from repro.sting.path import normalize


class SharedDataService(Service):
    """Owns the shared-file blocks this client contributes."""

    def __init__(self, service_id: int) -> None:
        super().__init__(service_id, "shared-data")
        # Block moves matter here too: the cleaner may relocate our
        # published blocks; we forward the new address to the manager
        # through the client (wired in SharedSwarmClient).
        self.move_listener = None

    def on_block_moved(self, old_addr, new_addr, create_info) -> None:
        if self.move_listener is not None:
            self.move_listener(old_addr, new_addr, create_info)


class SharedSwarmClient:
    """One participant in the shared namespace."""

    def __init__(self, client_id: int, stack: ServiceStack,
                 data_service: SharedDataService,
                 manager: NamespaceManager, leases: LeaseManager,
                 block_size: int = 8192) -> None:
        self.client_id = client_id
        self.name = "client-%d" % client_id
        self.stack = stack
        self.data = data_service
        self.manager = manager
        self.leases = leases
        self.block_size = block_size
        self._cache: Dict[str, Tuple[int, bytes]] = {}
        data_service.move_listener = self._on_block_moved
        self.cache_hits = 0
        self.remote_block_reads = 0

    # ------------------------------------------------------------------
    # Namespace pass-throughs
    # ------------------------------------------------------------------

    def mkdir(self, path: str) -> None:
        """Create a shared directory."""
        self.manager.mkdir(path)

    def listdir(self, path: str) -> List[str]:
        """List a shared directory."""
        return self.manager.listdir(path)

    def exists(self, path: str) -> bool:
        """Whether a shared path exists."""
        return self.manager.exists(path)

    def unlink(self, path: str) -> None:
        """Remove a shared file (under its lease)."""
        path = normalize(path)
        self.leases.acquire(path, self.name)
        try:
            self.manager.unlink(path)
            self._cache.pop(path, None)
        finally:
            self.leases.release(path, self.name)

    def rmdir(self, path: str) -> None:
        """Remove an empty shared directory."""
        self.manager.rmdir(path)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> int:
        """Create/replace a shared file; returns the new version.

        The data becomes durable in *this client's* log before the
        manager learns the new map, so a manager that acknowledges a
        version can always serve it.
        """
        path = normalize(path)
        self.leases.acquire(path, self.name)
        try:
            if not self.manager.exists(path):
                self.manager.create(path)
            file_map = FileMap(size=len(data), block_size=self.block_size)
            for index in range(0, max(1, -(-len(data) // self.block_size))):
                chunk = data[index * self.block_size:
                             (index + 1) * self.block_size]
                if not chunk and index > 0:
                    break
                addr = self.stack.write_block(
                    self.data, chunk,
                    create_info=("%s#%d" % (path, index)).encode("utf-8"))
                file_map.blocks[index] = (self.client_id, addr.fid,
                                          addr.offset, addr.length)
            self.stack.flush().wait()
            version = self.manager.publish(path, file_map)
            self._cache[path] = (version, data)
            return version
        finally:
            self.leases.release(path, self.name)

    def read_file(self, path: str) -> bytes:
        """Read a shared file, wherever its blocks live."""
        path = normalize(path)
        file_map = self.manager.file_map(path)
        cached = self._cache.get(path)
        if cached is not None and cached[0] == file_map.version:
            self.cache_hits += 1
            return cached[1]
        out = bytearray()
        for index in sorted(file_map.blocks):
            owner, fid, offset, length = file_map.blocks[index]
            addr = BlockAddress(fid, offset, length)
            if owner != self.client_id:
                self.remote_block_reads += 1
            # Through the stack, so caching layers (including the
            # cooperative cache) intercept the block.
            out += self.stack.read_block(self.data, addr)
        data = bytes(out[:file_map.size])
        self._cache[path] = (file_map.version, data)
        return data

    def version(self, path: str) -> int:
        """Manager's current version of ``path``."""
        return self.manager.version(path)

    # ------------------------------------------------------------------
    # Cleaner integration
    # ------------------------------------------------------------------

    def _on_block_moved(self, old_addr, new_addr, create_info) -> None:
        """One of our published blocks moved: re-publish its address."""
        try:
            tag = create_info.decode("utf-8")
            path, index_text = tag.rsplit("#", 1)
            index = int(index_text)
        except (UnicodeDecodeError, ValueError):
            return
        try:
            file_map = self.manager.file_map(path)
        except ServiceError:
            return
        except Exception:
            return
        current = file_map.blocks.get(index)
        if current is None:
            return
        owner, fid, offset, length = current
        if (owner == self.client_id and fid == old_addr.fid
                and offset == old_addr.offset):
            file_map.blocks[index] = (owner, new_addr.fid, new_addr.offset,
                                      new_addr.length)
            self.manager.publish(path, file_map)

