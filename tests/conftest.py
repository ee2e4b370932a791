"""Shared fixtures: small functional clusters and stacks."""

from __future__ import annotations

import time

import pytest

from repro.cluster import build_local_cluster
from repro.log.config import LogConfig
from repro.log.layer import LogLayer
from repro.server.config import ServerConfig
from repro.server.server import StorageServer

SMALL_FRAGMENT = 1 << 16  # 64 KB keeps tests fast while exercising striping


@pytest.fixture
def two_second_allowance():
    """Fail a test that takes 2 s or more."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, "took %.2f s, allowance is 2 s" % elapsed


@pytest.fixture
def cluster4():
    """Four-server functional cluster with small fragments."""
    return build_local_cluster(num_servers=4, fragment_size=SMALL_FRAGMENT,
                               server_slots=512)


@pytest.fixture
def cluster2():
    """Two-server cluster: the minimum parity configuration."""
    return build_local_cluster(num_servers=2, fragment_size=SMALL_FRAGMENT,
                               server_slots=512)


@pytest.fixture
def log4(cluster4) -> LogLayer:
    """A client log striped over the four-server cluster."""
    return cluster4.make_log(client_id=1)


@pytest.fixture
def server() -> StorageServer:
    """A lone storage server with small slots."""
    return StorageServer(ServerConfig("s0", fragment_size=SMALL_FRAGMENT,
                                      total_slots=64))


@pytest.fixture
def secure_server() -> StorageServer:
    """A server with ACL enforcement on."""
    return StorageServer(ServerConfig("sec", fragment_size=SMALL_FRAGMENT,
                                      total_slots=64, enforce_acls=True))
