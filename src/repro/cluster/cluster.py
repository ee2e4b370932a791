"""Cluster construction.

Two deployment styles share the same functional components:

* :class:`LocalCluster` — servers and clients wired directly
  (``LocalTransport``); everything is synchronous and timeless. Used by
  correctness tests and examples.
* :class:`SimCluster` — every node gets a CPU model, every server a
  disk, everyone hangs off one switched-Ethernet model, and transports
  route operations through the discrete-event engine. Used by the
  benchmark harness to regenerate the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.log.config import LogConfig
from repro.log.layer import LogLayer
from repro.placement import Placement
from repro.rpc.transport import LocalTransport, SimTransport
from repro.server.config import ServerConfig
from repro.server.server import StorageServer
from repro.sim.core import Simulator
from repro.sim.cpu import CpuModel, SimCpu
from repro.sim.disk import SimDisk
from repro.sim.network import Nic, Switch
from repro.services.stack import ServiceStack


@dataclass
class ServerNode:
    """A simulated storage-server machine."""

    server: StorageServer
    cpu: SimCpu
    disk: SimDisk
    nic: Nic


@dataclass
class ClientNode:
    """A simulated client machine."""

    name: str
    cpu: SimCpu
    nic: Nic


class _Placements:
    """Stripe-group and placement helpers over a cluster's ``fleet()``."""

    def stripe_group(self, server_ids: Optional[List[str]] = None,
                     ) -> Tuple[str, ...]:
        """A stripe group's server ids (default: the whole fleet)."""
        return tuple(server_ids or self.fleet())

    def make_placement(self, stripe_width: int = 8,
                       view_servers: Optional[Sequence[str]] = None,
                       ) -> Placement:
        """A placement over ``view_servers`` (default: the fleet)
        striping at most ``stripe_width`` wide, with one parity member.

        Each client needs its *own* instance (a placement carries that
        client's view history); pass it as ``group`` to ``make_log`` /
        ``make_stack``. Build a :class:`~repro.placement.Placement`
        directly for other parity counts or spares.
        """
        return Placement(self.fleet() if view_servers is None
                         else view_servers, stripe_width=stripe_width)


class LocalCluster(_Placements):
    """Functional (timeless) deployment of servers plus client slots."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.servers: Dict[str, StorageServer] = {}
        for index in range(config.num_servers):
            server_id = config.server_id(index)
            self.servers[server_id] = StorageServer(ServerConfig(
                server_id=server_id, fragment_size=config.fragment_size,
                total_slots=config.server_slots,
                enforce_acls=config.enforce_acls))
        self.transport = LocalTransport(self.servers)

    def fleet(self) -> Tuple[str, ...]:
        """Every server of this cluster, in construction order."""
        return tuple(self.servers)

    def serve_tcp(self):
        """Host every server on loopback TCP; returns ``(host, transport)``.

        The servers stay the same in-process objects (so tests keep
        direct references for crash injection and opcount assertions),
        but the returned transport reaches them over real sockets.
        Close the transport before the host when done; both are context
        managers.
        """
        from repro.rpc.net import InProcessHost, TcpTransport

        host = InProcessHost(self.servers).start()
        return host, TcpTransport(host.addresses)

    def make_log(self, client_id: int,
                 group=None,
                 retry_policy=None, verify_reads: bool = False,
                 transport=None,
                 **config_overrides) -> LogLayer:
        """A log layer for one client over this cluster.

        ``group`` is a server sequence or a
        :class:`~repro.placement.Placement`; the default rotates over
        the whole fleet, striping at most ``MAX_STRIPE_WIDTH`` wide.
        ``retry_policy`` interposes a
        :class:`~repro.rpc.retry.RetryingTransport`; ``verify_reads``
        checks every fetched fragment's payload CRC and falls back to
        parity reconstruction on a mismatch. ``transport`` overrides
        the cluster's direct transport (e.g. the TCP plane from
        :meth:`serve_tcp`, or a fault-injecting wrapper). Extra keyword
        arguments (``parity_fragments``, ``coding``, ``spare_servers``,
        ...) pass straight through to :class:`LogConfig`.
        """
        return LogLayer(transport if transport is not None else self.transport,
                        self.fleet() if group is None else group,
                        LogConfig(client_id=client_id,
                                  fragment_size=self.config.fragment_size,
                                  **config_overrides),
                        retry_policy=retry_policy, verify_reads=verify_reads)

    def make_stack(self, client_id: int,
                   group=None,
                   retry_policy=None,
                   verify_reads: bool = False,
                   transport=None,
                   **config_overrides) -> ServiceStack:
        """An empty service stack for one client."""
        return ServiceStack(self.make_log(client_id, group,
                                          retry_policy=retry_policy,
                                          verify_reads=verify_reads,
                                          transport=transport,
                                          **config_overrides))


def build_local_cluster(num_servers: int = 4, num_clients: int = 1,
                        fragment_size: int = 1 << 20, **kwargs) -> LocalCluster:
    """Convenience constructor for functional clusters."""
    return LocalCluster(ClusterConfig(
        num_servers=num_servers, num_clients=num_clients,
        fragment_size=fragment_size, **kwargs))


class SimCluster(_Placements):
    """The calibrated simulated testbed."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.switch = Switch(self.sim, config.network)
        self.cpu_model = CpuModel(config.cpu)
        self.server_nodes: Dict[str, ServerNode] = {}
        for index in range(config.num_servers):
            server_id = config.server_id(index)
            server = StorageServer(ServerConfig(
                server_id=server_id, fragment_size=config.fragment_size,
                total_slots=config.server_slots,
                enforce_acls=config.enforce_acls))
            self.server_nodes[server_id] = ServerNode(
                server=server,
                cpu=SimCpu(self.sim, "%s.cpu" % server_id),
                disk=SimDisk(self.sim, "%s.disk" % server_id, config.disk),
                nic=self.switch.attach(server_id))
        self.client_nodes: Dict[str, ClientNode] = {}
        for index in range(config.num_clients):
            name = config.client_name(index)
            self.client_nodes[name] = ClientNode(
                name=name,
                cpu=SimCpu(self.sim, "%s.cpu" % name),
                nic=self.switch.attach(name))

    # ------------------------------------------------------------------

    def client_node(self, index: int) -> ClientNode:
        """The simulated machine of client ``index``."""
        return self.client_nodes[self.config.client_name(index)]

    def make_transport(self, client_index: int) -> SimTransport:
        """A transport for client ``client_index`` over this testbed."""
        return SimTransport(self.sim, self.switch,
                            self.client_node(client_index),
                            self.server_nodes, self.cpu_model)

    def fleet(self) -> Tuple[str, ...]:
        """Every server of this testbed, in construction order."""
        return tuple(self.server_nodes)

    def make_log(self, client_index: int,
                 group=None,
                 cost_hook: Optional[Callable[[str, int], None]] = None,
                 retry_policy=None, verify_reads: bool = False,
                 **config_overrides) -> LogLayer:
        """A log layer for one simulated client.

        Extra keyword arguments (``parity_fragments``, ``coding``, ...)
        pass straight through to :class:`LogConfig`. ``group`` accepts
        a server sequence or a :class:`~repro.placement.Placement`
        (default: the whole fleet).
        """
        transport = self.make_transport(client_index)
        return LogLayer(
            transport, self.fleet() if group is None else group,
            LogConfig(client_id=client_index + 1,
                      fragment_size=self.config.fragment_size,
                      **config_overrides),
            cost_hook=cost_hook,
            retry_policy=retry_policy, verify_reads=verify_reads)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash_server(self, server_id: str) -> None:
        """Take a server down (it stops answering immediately)."""
        self.server_nodes[server_id].server.crash()

    def restart_server(self, server_id: str) -> None:
        """Bring a crashed server back with its durable state."""
        self.server_nodes[server_id].server.restart()
