"""swarmctl-style cluster status reporting.

Collects per-server and per-client statistics from a running cluster
and renders them as a compact text dashboard — the operator's view of
the system the paper describes: slot occupancy, bytes moved, marked
fragments (checkpoint freshness), and which clients own how much of
each server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.fids import fid_client


@dataclass
class ServerStatus:
    """One server's snapshot."""

    server_id: str
    available: bool
    slots_used: int
    slots_total: int
    bytes_stored: int
    bytes_retrieved: int
    store_ops: int
    retrieve_ops: int
    newest_marked_fid: int
    fragments_by_client: Dict[int, int] = field(default_factory=dict)


@dataclass
class ClusterStatus:
    """Snapshot of a whole cluster."""

    servers: List[ServerStatus] = field(default_factory=list)

    @property
    def total_fragments(self) -> int:
        """Fragments stored across all servers."""
        return sum(server.slots_used for server in self.servers)

    @property
    def client_ids(self) -> List[int]:
        """Every client with at least one stored fragment."""
        ids = set()
        for server in self.servers:
            ids.update(server.fragments_by_client)
        return sorted(ids)

    def imbalance(self) -> float:
        """Max/min fragment count across live servers (1.0 = perfect).

        Rotated parity placement should keep this near 1; a hot spot
        shows up immediately.
        """
        counts = [server.slots_used for server in self.servers
                  if server.available and server.slots_used > 0]
        if len(counts) < 2:
            return 1.0
        return max(counts) / min(counts)


def collect_status(cluster) -> ClusterStatus:
    """Snapshot a :class:`LocalCluster` or :class:`SimCluster`."""
    if hasattr(cluster, "server_nodes"):
        servers = {sid: node.server
                   for sid, node in cluster.server_nodes.items()}
    else:
        servers = cluster.servers
    status = ClusterStatus()
    for server_id in sorted(servers):
        server = servers[server_id]
        if server.available:
            fids = server.list_fids()
            by_client: Dict[int, int] = {}
            for fid in fids:
                client = fid_client(fid)
                by_client[client] = by_client.get(client, 0) + 1
            entry = ServerStatus(
                server_id=server_id, available=True,
                slots_used=len(fids),
                slots_total=server.config.total_slots,
                bytes_stored=server.bytes_stored,
                bytes_retrieved=server.bytes_retrieved,
                store_ops=server.store_ops,
                retrieve_ops=server.retrieve_ops,
                newest_marked_fid=server.last_marked(),
                fragments_by_client=by_client)
        else:
            entry = ServerStatus(
                server_id=server_id, available=False, slots_used=0,
                slots_total=server.config.total_slots, bytes_stored=0,
                bytes_retrieved=0, store_ops=0, retrieve_ops=0,
                newest_marked_fid=0)
        status.servers.append(entry)
    return status


def format_status(status: ClusterStatus) -> str:
    """Render a :class:`ClusterStatus` as a text dashboard."""
    lines = [
        "server  state  slots        stored      retrieved  ops(s/r)   clients",
        "------  -----  -----------  ----------  ---------  ---------  -------",
    ]
    for server in status.servers:
        if not server.available:
            lines.append("%-6s  DOWN" % server.server_id)
            continue
        clients = ",".join("c%d:%d" % (client, count)
                           for client, count in
                           sorted(server.fragments_by_client.items()))
        lines.append(
            "%-6s  up     %4d/%-6d  %7.1f MB  %6.1f MB  %4d/%-4d  %s"
            % (server.server_id, server.slots_used, server.slots_total,
               server.bytes_stored / 1e6, server.bytes_retrieved / 1e6,
               server.store_ops, server.retrieve_ops, clients))
    lines.append("")
    lines.append("fragments: %d   clients: %s   balance(max/min): %.2f"
                 % (status.total_fragments,
                    status.client_ids or "-", status.imbalance()))
    return "\n".join(lines)
