"""Cluster-level configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.server.config import DEFAULT_FRAGMENT_SIZE
from repro.sim.cpu import CpuParams
from repro.sim.disk import DiskParams
from repro.sim.network import NetworkParams


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and hardware parameters of one Swarm deployment.

    The defaults describe the paper's testbed: some number of storage
    servers and clients, 1 MB fragments, and the calibrated 1999
    network/disk/CPU models. ``server_slots`` bounds each server's disk
    in fragments (4096 slots × 1 MB ≈ a 4 GB late-90s disk).
    ``max_outstanding_fragments`` is each simulated client's flow-control
    window: its driver keeps at most this many fragment stores in flight
    ("rudimentary flow control", §2.2.2).
    """

    num_servers: int = 4
    num_clients: int = 1
    fragment_size: int = DEFAULT_FRAGMENT_SIZE
    server_slots: int = 4096
    enforce_acls: bool = False
    network: NetworkParams = field(default_factory=NetworkParams)
    disk: DiskParams = field(default_factory=DiskParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    max_outstanding_fragments: int = 4

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ConfigError("need at least one server")
        if self.num_clients < 1:
            raise ConfigError("need at least one client")

    def server_id(self, index: int) -> str:
        """Canonical name of server ``index``."""
        return "s%d" % index

    def client_name(self, index: int) -> str:
        """Canonical network name of client ``index``."""
        return "c%d" % index
