"""Simulated client drivers.

A :class:`SimClientDriver` runs the functional log layer inside a
simulator process: it charges the client CPU for the byte work the log
layer reports (copies, parity XOR, per-block bookkeeping), lets fragment
stores proceed asynchronously, and applies the paper's rudimentary flow
control by capping the number of fragment stores in flight.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.cluster.cluster import SimCluster
from repro.log.layer import LogLayer
from repro.rpc import messages as m


class CostLedger:
    """Accumulates the log layer's reported work, by kind."""

    def __init__(self) -> None:
        self.byte_counts: Dict[str, int] = {}

    def add(self, kind: str, amount: int) -> None:
        """Cost-hook entry point (bound to ``LogLayer.cost_hook``)."""
        self.byte_counts[kind] = self.byte_counts.get(kind, 0) + amount

    def drain_seconds(self, cpu_model) -> float:
        """Convert and clear the accumulated work into CPU seconds."""
        params = cpu_model.params
        seconds = (
            self.byte_counts.get("copy", 0) * params.copy_per_byte
            + self.byte_counts.get("xor", 0) * params.xor_per_byte
            + self.byte_counts.get("block_op", 0) * params.per_block_overhead_s)
        self.byte_counts.clear()
        return seconds


class SimClientDriver:
    """Drives one simulated client's log through write/read workloads."""

    def __init__(self, cluster: SimCluster, client_index: int,
                 group=None) -> None:
        self.cluster = cluster
        self.client_index = client_index
        self.node = cluster.client_node(client_index)
        self.ledger = CostLedger()
        self.log: LogLayer = cluster.make_log(client_index, group=group,
                                              cost_hook=self.ledger.add)
        self.blocks_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------

    def _charge_cpu(self) -> Generator:
        seconds = self.ledger.drain_seconds(self.cluster.cpu_model)
        if seconds > 0:
            yield from self.node.cpu.compute(seconds)

    def _throttle(self) -> Generator:
        """Enforce the fragment-store flow-control window."""
        window = self.cluster.config.max_outstanding_fragments
        pending = [e for e in self.log.pending_events() if not e.triggered]
        while len(pending) > window:
            yield self.cluster.sim.any_of(pending)
            pending = [e for e in pending if not e.triggered]

    # ------------------------------------------------------------------

    def write_blocks(self, count: int, block_size: int,
                     service_id: int = 1,
                     charge_every: int = 16) -> Generator:
        """Process: append ``count`` blocks of ``block_size`` bytes, then
        flush; returns (useful_bytes, raw_bytes).

        CPU work is charged in batches of ``charge_every`` blocks to
        keep simulator event counts manageable without changing totals.
        """
        payload = b"\xab" * block_size
        for i in range(count):
            self.log.write_block(service_id, payload,
                                 create_info=i.to_bytes(8, "big"))
            self.blocks_written += 1
            if (i + 1) % charge_every == 0:
                yield from self._charge_cpu()
                yield from self._throttle()
        yield from self._charge_cpu()
        ticket = self.log.flush()
        if ticket.events:
            yield self.cluster.sim.all_of(ticket.events)
        return (self.log.useful_bytes_written, self.log.raw_bytes_written)

    def read_blocks(self, addresses: List, service_id: int = 1) -> Generator:
        """Process: read each address synchronously (round-trip bound),
        charging receive-side CPU; returns total bytes read.

        Models the prototype's un-prefetched read path: one RPC per
        block, no overlap — which is why it only reached 1.7 MB/s.
        """
        transport = self.log.transport
        total = 0
        # Batch the location lookups for every address we do not already
        # know: at most one broadcast (one RPC per server) up front.
        self.log.locations.locate_many(
            [addr.fid for addr in addresses])
        for addr in addresses:
            server_id = self.log.locations.locate(addr.fid)
            request = m.RetrieveRequest(fid=addr.fid, offset=addr.offset,
                                        length=addr.length,
                                        principal=self.log.config.principal)
            response = yield transport.submit(server_id, request)
            total += len(response.payload)
        self.bytes_read = total
        return total
