"""Tests for the service-stacking framework."""

import pytest

from repro import errors
from repro.log.records import RecordType
from repro.services.base import Service
from repro.services.stack import ServiceStack


class Recorder(Service):
    """A probe layer that logs every interception it sees."""

    def __init__(self, service_id, trace):
        super().__init__(service_id, "probe%d" % service_id)
        self.trace = trace

    def transform_block_down(self, writer_id, data):
        self.trace.append(("down", self.service_id))
        return data + b"|d%d" % self.service_id

    def transform_block_up(self, reader_id, data):
        self.trace.append(("up", self.service_id))
        assert data.endswith(b"|d%d" % self.service_id)
        return data[:-3]


class Writer(Service):
    """A top-level service that owns data."""


@pytest.fixture
def stack(cluster4):
    return cluster4.make_stack(client_id=1)


class TestComposition:
    def test_duplicate_service_id_rejected(self, stack):
        stack.push(Writer(1))
        with pytest.raises(errors.ServiceError):
            stack.push(Writer(1))

    def test_lookup_by_id(self, stack):
        service = stack.push(Writer(4))
        assert stack.service(4) is service
        assert stack.service(5) is None

    def test_transforms_apply_top_down_then_reverse(self, stack):
        trace = []
        stack.push(Recorder(1, trace))
        stack.push(Recorder(2, trace))
        writer = stack.push(Writer(3))
        addr = stack.write_block(writer, b"base")
        # Write path: nearest layer below first (2), then 1.
        assert trace == [("down", 2), ("down", 1)]
        trace.clear()
        assert stack.read_block(writer, addr) == b"base"
        # Read path: undo bottom-up (1 then 2).
        assert trace == [("up", 1), ("up", 2)]

    def test_stored_bytes_are_transformed(self, stack):
        trace = []
        stack.push(Recorder(1, trace))
        writer = stack.push(Writer(2))
        addr = stack.write_block(writer, b"base")
        raw = stack.log.read(addr)
        assert raw == b"base|d1"

    def test_layers_below_writer_only(self, stack):
        trace = []
        writer = stack.push(Writer(1))          # bottom
        stack.push(Recorder(2, trace))          # above the writer
        stack.write_block(writer, b"x")
        assert trace == []  # layers above never see the write


class TestRecordsThroughStack:
    def test_record_transform_chain(self, stack):
        class Tagger(Service):
            def transform_record_down(self, writer_id, rtype, payload):
                return rtype, b"T" + payload

        stack.push(Tagger(1))
        writer = stack.push(Writer(2))
        record = stack.write_record(writer, RecordType.USER_BASE, b"body")
        assert record.payload == b"Tbody"

    def test_create_info_transform_chain(self, stack):
        class InfoTagger(Service):
            def transform_create_info_down(self, writer_id, info):
                return b"I" + info

        stack.push(InfoTagger(1))
        writer = stack.push(Writer(2))
        stack.write_block(writer, b"data", create_info=b"orig")
        stack.flush().wait()
        from repro.log.recovery import recover_service_state
        from repro.log.records import decode_record_payload_block

        recovered = recover_service_state(stack.log.transport, 1,
                                          {2: False}).services[2]
        create = [r for r in recovered.records
                  if r.rtype == RecordType.CREATE][0]
        _addr, _owner, info = decode_record_payload_block(create.payload)
        assert info == b"Iorig"


class TestCacheHooks:
    def test_cache_layer_consulted_before_network(self, stack, cluster4):
        from repro.services.cache import CacheService

        cache = stack.push(CacheService(1, capacity_bytes=1 << 20))
        writer = stack.push(Writer(2))
        addr = stack.write_block(writer, b"cache-me")
        stack.flush().wait()
        stack.read_block(writer, addr)   # miss populates
        for server in cluster4.servers.values():
            server.crash()
        # Hit must be served with every server down.
        assert stack.read_block(writer, addr) == b"cache-me"

    def test_delete_invalidates_cache(self, stack):
        from repro.services.cache import CacheService

        cache = stack.push(CacheService(1))
        writer = stack.push(Writer(2))
        addr = stack.write_block(writer, b"bye")
        stack.read_block(writer, addr)
        stack.delete_block(writer, addr)
        assert cache.cache_lookup(addr) is None


class TestMoveNotifications:
    def test_routed_to_owner_only(self, stack):
        moves = []

        class Owner(Service):
            def on_block_moved(self, old, new, info):
                moves.append((self.service_id, info))

        stack.push(Owner(1))
        stack.push(Owner(2))
        writer_addr = stack.write_block(stack.service(2), b"x",
                                        create_info=b"meta")
        stack.notify_block_moved(2, writer_addr, writer_addr, b"meta")
        assert moves == [(2, b"meta")]

    def test_unknown_owner_ignored(self, stack):
        from repro.log.address import BlockAddress

        stack.notify_block_moved(99, BlockAddress(1, 0, 1),
                                 BlockAddress(2, 0, 1), b"")


class TestCheckpointAll:
    def test_every_service_checkpointed(self, stack, cluster4):
        class Stateful(Service):
            def checkpoint_state(self):
                return b"state-%d" % self.service_id

        stack.push(Stateful(1))
        stack.push(Stateful(2))
        stack.checkpoint_all()
        from repro.log.recovery import recover_service_state

        recovered = recover_service_state(cluster4.transport, 1,
                                          {1: False, 2: False})
        for service_id in (1, 2):
            assert recovered.services[service_id].checkpoint_state \
                == b"state-%d" % service_id
