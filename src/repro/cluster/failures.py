"""Failure injection for tests and examples.

Swarm's failure model: storage servers can crash (stop answering) and
later restart with their durable state; clients can crash, losing their
buffered log tail but recovering via rollforward. The injector wraps
both, plus scheduled mid-run crashes inside the simulator and two
*silent* durable faults — bit corruption and torn (truncated) stores —
that servers by design cannot detect themselves: Swarm checksums live
in fragment headers and are verified by clients.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.cluster.cluster import LocalCluster, SimCluster
from repro.errors import FragmentNotFoundError
from repro.server.server import StorageServer


class FailureInjector:
    """Crash/restart servers in a local or simulated cluster."""

    def __init__(self, cluster: Union[LocalCluster, SimCluster]) -> None:
        self.cluster = cluster
        self.crashed: List[str] = []

    def _server(self, server_id: str) -> StorageServer:
        if isinstance(self.cluster, SimCluster):
            return self.cluster.server_nodes[server_id].server
        return self.cluster.servers[server_id]

    def _mark_crashed(self, server_id: str) -> None:
        if server_id not in self.crashed:
            self.crashed.append(server_id)

    def is_crashed(self, server_id: str) -> bool:
        """Whether the injector currently tracks ``server_id`` as down.

        Kept consistent with the server's own ``available`` flag even
        when something else (a direct ``crash()`` call in a test) took
        the server down: the ground truth is the server, the list is
        the ledger.
        """
        if not self._server(server_id).available:
            self._mark_crashed(server_id)
        elif server_id in self.crashed:
            self.crashed.remove(server_id)
        return server_id in self.crashed

    def crash_server(self, server_id: str) -> None:
        """Stop a server immediately."""
        self._server(server_id).crash()
        self._mark_crashed(server_id)

    def restart_server(self, server_id: str) -> None:
        """Restart a crashed server with its durable state."""
        self._server(server_id).restart()
        if server_id in self.crashed:
            self.crashed.remove(server_id)

    def wipe_server(self, server_id: str) -> None:
        """Simulate total media loss: crash and discard durable state.

        Afterwards every fragment the server held must be reconstructed
        from stripe parity (see
        :meth:`repro.log.reconstruct.Reconstructor.rebuild_to_server`).
        """
        from repro.server.backend import MemoryBackend

        self.crash_server(server_id)
        self._server(server_id).backend = MemoryBackend()

    def alive_servers(self) -> List[str]:
        """Servers currently answering."""
        if isinstance(self.cluster, SimCluster):
            candidates = self.cluster.server_nodes
        else:
            candidates = self.cluster.servers
        return [sid for sid in sorted(candidates)
                if self._server(sid).available]

    # ------------------------------------------------------------------
    # Silent durable faults (clients must detect these, servers cannot)
    # ------------------------------------------------------------------

    def _slot_bytes(self, server: StorageServer,
                    fid: int) -> Tuple[int, bytes]:
        info = server.slots.info_of(fid)
        if info is None or info.get("preallocated"):
            raise FragmentNotFoundError(
                "no fragment %d on %s to damage" % (fid, server.server_id))
        data = server.backend.read_slot(info["slot"])
        if data is None:
            raise FragmentNotFoundError(
                "fragment %d on %s has no slot data" % (fid, server.server_id))
        return info["slot"], bytes(data)

    def corrupt_fragment(self, server_id: str, fid: int,
                         bit_index: int = 0) -> None:
        """Flip one bit of a stored fragment's durable image.

        The server keeps serving the damaged bytes without complaint;
        only a client verifying the header/payload CRCs notices.
        ``bit_index`` is taken modulo the image size so callers can pass
        any non-negative value.
        """
        server = self._server(server_id)
        slot, data = self._slot_bytes(server, fid)
        bit_index %= len(data) * 8
        damaged = bytearray(data)
        damaged[bit_index // 8] ^= 1 << (bit_index % 8)
        server.backend.write_slot(slot, bytes(damaged))
        server.invalidate_cache(fid)

    def tear_fragment(self, server_id: str, fid: int,
                      keep_fraction: float = 0.5) -> None:
        """Truncate a stored fragment to a durable prefix.

        Models a store interrupted mid-write on a platter that commits
        sectors in order: the prefix is durable, the tail is gone.
        """
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        server = self._server(server_id)
        slot, data = self._slot_bytes(server, fid)
        keep = int(len(data) * keep_fraction)
        server.backend.write_slot(slot, data[:keep])
        server.invalidate_cache(fid)
