"""Unit tests for the shared fragment-location cache."""

from repro.log.location import LocationCache
from repro.rpc import messages as m
from repro.rpc.transport import LocalTransport
from repro.server.config import ServerConfig
from repro.server.server import StorageServer


class CountingTransport(LocalTransport):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def call(self, server_id, message):
        self.calls += 1
        return super().call(server_id, message)


def make_cluster(n=4):
    servers = {"s%d" % i: StorageServer(ServerConfig(
        "s%d" % i, fragment_size=1 << 16)) for i in range(n)}
    return CountingTransport(servers), servers


class TestLocationCache:
    def test_locate_many_batches_into_one_broadcast(self):
        transport, _servers = make_cluster(4)
        fids = list(range(10, 26))
        for i, fid in enumerate(fids):
            transport.call("s%d" % (i % 4), m.StoreRequest(fid=fid, data=b"x"))
        cache = LocationCache(transport)
        transport.calls = 0
        found = cache.locate_many(fids)
        assert len(found) == 16
        assert cache.broadcasts == 1
        assert transport.calls <= 4  # one RPC per server, max

    def test_hits_served_locally(self):
        transport, _servers = make_cluster(2)
        transport.call("s0", m.StoreRequest(fid=5, data=b"x"))
        cache = LocationCache(transport)
        assert cache.locate(5) == "s0"
        transport.calls = 0
        assert cache.locate(5) == "s0"
        assert transport.calls == 0
        assert cache.hits == 1 and cache.misses == 1

    def test_record_and_evict(self):
        transport, _servers = make_cluster(1)
        cache = LocationCache(transport)
        cache.record(9, "s0")
        assert 9 in cache and cache.get(9) == "s0"
        cache.evict(9)
        assert 9 not in cache and cache.evictions == 1
        cache.evict(9)  # double-evict does not double-count
        assert cache.evictions == 1

    def test_learn_absorbs_stripe_descriptor(self):
        transport, _servers = make_cluster(1)
        cache = LocationCache(transport)

        class Header:
            stripe_base_fid = 100
            servers = ("s0", "s1", "s2")

        cache.learn(Header())
        assert [cache.get(fid) for fid in (100, 101, 102)] == \
            ["s0", "s1", "s2"]

    def test_evict_server_and_retain_servers(self):
        transport, _servers = make_cluster(1)
        cache = LocationCache(transport)
        cache.record(1, "a")
        cache.record(2, "b")
        cache.record(3, "c")
        cache.evict_server("b")
        assert cache.get(2) is None and len(cache) == 2
        cache.evict_server("c")
        assert cache.get(3) is None and cache.get(1) == "a"
        assert cache.evictions == 2

    def test_unlocatable_fid_absent_from_result(self):
        transport, _servers = make_cluster(2)
        cache = LocationCache(transport)
        assert cache.locate(404) is None
        assert cache.locate_many([404, 405]) == {}
