"""The service stack: composition of layered services over one log.

Services are pushed bottom-first. A write by service S passes through
every layer *below* S (top-down) before reaching the log; a read passes
back up through the same layers in reverse. Replayed records pass up
through each layer's filter so that, e.g., the ARU service can withhold
records of uncommitted ARUs from the services above it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import BlockNotFoundError, ServiceError
from repro.log.address import BlockAddress
from repro.log.layer import FlushTicket, LogLayer
from repro.log.reader import LogReader
from repro.log.records import Record
from repro.log.recovery import recover_service_state
from repro.services.base import Service


class ServiceStack:
    """Orders services over a :class:`~repro.log.layer.LogLayer`."""

    def __init__(self, log: LogLayer) -> None:
        self.log = log
        self.layers: List[Service] = []
        self._by_id: Dict[int, Service] = {}

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def push(self, service: Service) -> Service:
        """Add ``service`` on top of the stack; returns it for chaining."""
        if service.service_id in self._by_id:
            raise ServiceError("duplicate service id %d" % service.service_id)
        self.layers.append(service)
        self._by_id[service.service_id] = service
        service.bind(self)
        return service

    def service(self, service_id: int) -> Optional[Service]:
        """Look up a service by id."""
        return self._by_id.get(service_id)

    def _layers_below(self, service: Service) -> List[Service]:
        """Layers under ``service``, ordered top-down (nearest first)."""
        index = self.layers.index(service)
        return list(reversed(self.layers[:index]))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def write_block(self, service: Service, data: bytes,
                    create_info: bytes = b"") -> BlockAddress:
        """Write a block on behalf of ``service``, through the layers
        below it; returns the block's address."""
        for layer in self._layers_below(service):
            data = layer.transform_block_down(service.service_id, data)
            create_info = layer.transform_create_info_down(
                service.service_id, create_info)
        return self.log.write_block(service.service_id, data, create_info)

    def write_record(self, service: Service, rtype: int,
                     payload: bytes) -> Record:
        """Write a record on behalf of ``service`` through the stack."""
        for layer in self._layers_below(service):
            rtype, payload = layer.transform_record_down(
                service.service_id, rtype, payload)
        return self.log.write_record(service.service_id, rtype, payload)

    def delete_block(self, service: Service, addr: BlockAddress,
                     create_info: bytes = b"") -> None:
        """Delete a block owned by ``service``.

        The DELETE record's info passes through the same lower-layer
        transforms as CREATE info, so e.g. the ARU service can withhold
        an uncommitted transaction's deletions at replay just like its
        creations — without this, a crashed transaction could destroy
        the old value while its replacement is filtered out.
        """
        for layer in self.layers:
            layer.cache_invalidate(addr)
        for layer in self._layers_below(service):
            create_info = layer.transform_create_info_down(
                service.service_id, create_info)
        self.log.delete_block(addr, service.service_id, create_info)

    def flush(self) -> FlushTicket:
        """Flush the underlying log."""
        return self.log.flush()

    def checkpoint(self, service: Service) -> FlushTicket:
        """Checkpoint one service's state into a marked fragment."""
        return self.log.checkpoint(service.service_id,
                                   service.checkpoint_state())

    def checkpoint_all(self) -> None:
        """Checkpoint every service, bottom-up, and wait for durability."""
        for service in self.layers:
            self.checkpoint(service).wait()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def read_block(self, service: Service, addr: BlockAddress) -> bytes:
        """Read a block for ``service``, undoing lower-layer transforms.

        Consults each lower layer's cache top-down before touching the
        network; a miss populates the caches on the way out.
        """
        below = self._layers_below(service)
        for layer in below:
            cached = layer.cache_lookup(addr)
            if cached is not None:
                data = cached
                break
        else:
            data = self.log.read(addr)
            for layer in below:
                layer.cache_insert(addr, data)
        # Caches may serve zero-copy views of a fragment image; service
        # transforms own the block data, so hand them bytes.
        if not isinstance(data, bytes):
            data = bytes(data)
        for layer in reversed(below):
            data = layer.transform_block_up(service.service_id, data)
        return data

    def read_blocks(self, service: Service,
                    addrs: List[BlockAddress]) -> List[bytes]:
        """Batched :meth:`read_block`: many addresses, few round trips.

        Cache hits are taken layer by layer as usual; every miss joins
        one batched log read (:meth:`~repro.log.layer.LogLayer.read_ranges`,
        one multi-range retrieve per server) instead of one synchronous
        round trip per block. Results come back in request order, each
        passed up through the lower layers' transforms; a block that
        cannot be read even through reconstruction raises
        ``BlockNotFoundError`` just like the single-block path.
        """
        below = self._layers_below(service)
        staged: List = [None] * len(addrs)
        missing: List[int] = []
        for index, addr in enumerate(addrs):
            for layer in below:
                cached = layer.cache_lookup(addr)
                if cached is not None:
                    staged[index] = cached
                    break
            else:
                missing.append(index)
        if missing:
            fetched = self.log.read_ranges(
                [(addrs[index].fid, addrs[index].offset, addrs[index].length)
                 for index in missing])
            for index, data in zip(missing, fetched):
                if data is None:
                    raise BlockNotFoundError("no data at %s" % (addrs[index],))
                for layer in below:
                    layer.cache_insert(addrs[index], data)
                staged[index] = data
        results: List[bytes] = []
        for data in staged:
            if not isinstance(data, bytes):
                data = bytes(data)
            for layer in reversed(below):
                data = layer.transform_block_up(service.service_id, data)
            results.append(data)
        return results

    # ------------------------------------------------------------------
    # Cleaner integration
    # ------------------------------------------------------------------

    def notify_block_moved(self, owner_id: int, old_addr: BlockAddress,
                           new_addr: BlockAddress, create_info: bytes) -> None:
        """Route a cleaner move notification to the owning service."""
        for layer in self.layers:
            layer.cache_invalidate(old_addr)
        owner = self._by_id.get(owner_id)
        if owner is not None:
            owner.on_block_moved(old_addr, new_addr, create_info)

    def demand_checkpoints(self) -> None:
        """Ask every service for a fresh checkpoint (cleaner pressure)."""
        for service in list(self.layers):
            service.on_checkpoint_demand()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover_all(self) -> None:
        """Recover every service, bottom-up, after a client crash.

        One rollforward recovers every service. Each service's record
        stream is passed through the replay filters of the layers below
        it (already recovered), then handed to its
        :meth:`~repro.services.base.Service.restore`. Finally the log
        layer's FID/LSN counters are fast-forwarded past everything
        found in the log.
        """
        # The rollforward reads through the log's own reconstructor:
        # its transport is the log's retrying one, so the retry layer
        # scores every prefetch on the client's health monitor; it
        # verifies as the log does (records carry no checksum of their
        # own, so a verified client must never replay a corrupt
        # fragment); and the placements the scan learns serve the
        # first reads after recovery.
        reader = LogReader(self.log.reconstructor,
                           max_inflight=self.log.config.max_inflight_reads)
        services = {service.service_id:
                    getattr(service, "needs_all_block_records", False)
                    for service in self.layers}
        recovered = recover_service_state(
            self.log.transport, self.log.config.client_id, services,
            principal=self.log.config.principal, reader=reader)
        for service in self.layers:
            state = recovered.services[service.service_id]
            records = state.records
            for layer in self._layers_below(service):
                records = layer.filter_replay_up(records)
            service.restore(state.checkpoint_state, records)
        self.log.adopt_recovered_state(
            recovered.highest_fid, recovered.highest_lsn,
            recovered.checkpoint_table, view_payload=recovered.view_payload)
