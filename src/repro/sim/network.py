"""Switched-Ethernet network model.

The prototype's testbed was 100 Mb/s switched Ethernet. The model here
captures what matters for the figures:

* each node has a full-duplex NIC — independent transmit and receive
  channels, each serialized at the link bandwidth;
* the switch's forwarding fabric is one shared resource, calibrated to
  the aggregate rate the paper's multi-client runs reached;
* every transfer pays a small fixed latency (propagation + switch
  forwarding) plus per-byte serialization on the sender's TX channel and
  the receiver's RX channel.

:meth:`Switch.transfer` is the one pipeline every simulated RPC's
request and reply crosses. Only ``size_bytes`` drives timing, so the
functional payloads need not be serialized for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource


@dataclass(frozen=True)
class NetworkParams:
    """Link characteristics.

    Defaults model the paper's 100 Mb/s switched Ethernet. Bandwidth is
    expressed in bytes/second of goodput; ``per_message_latency`` covers
    propagation plus switch forwarding; ``frame_overhead_fraction``
    accounts for Ethernet/IP/TCP header bytes so that goodput tops out
    below the raw line rate.
    """

    bandwidth_bytes_per_s: float = 100e6 / 8
    per_message_latency_s: float = 100e-6
    frame_overhead_fraction: float = 0.06
    fabric_bandwidth_bytes_per_s: float = 21e6
    """Aggregate forwarding capacity of the switch fabric.

    Calibrated, not nameplate: it folds together the 1999 switch's
    backplane limits and multi-connection TCP contention, which is what
    capped the paper's 4-client/8-server configuration at 19.3 MB/s
    (well below 4 x the single-client rate). Flows only feel it when
    their aggregate approaches this value.
    """

    def wire_time(self, size_bytes: int) -> float:
        """Seconds to serialize ``size_bytes`` through one NIC channel."""
        effective = size_bytes * (1.0 + self.frame_overhead_fraction)
        return effective / self.bandwidth_bytes_per_s


class Nic:
    """A full-duplex network interface attached to one node."""

    def __init__(self, sim: Simulator, node_id: str) -> None:
        self.tx = Resource(sim, 1, name="%s.tx" % node_id)
        self.rx = Resource(sim, 1, name="%s.rx" % node_id)


class Switch:
    """A switch connecting named nodes.

    :meth:`attach` registers a node and returns its NIC; a simulated
    process moves bytes between two NICs with
    ``yield from switch.transfer(src_nic, dst_nic, size_bytes)``.
    """

    def __init__(self, sim: Simulator, params: NetworkParams = NetworkParams()) -> None:
        self.sim = sim
        self.params = params
        self.nics: Dict[str, Nic] = {}
        self.fabric = Resource(sim, 1, name="switch.fabric")

    def attach(self, node_id: str) -> Nic:
        """Register ``node_id`` on the switch and return its NIC."""
        if node_id in self.nics:
            raise SimulationError("node %r already attached" % node_id)
        nic = Nic(self.sim, node_id)
        self.nics[node_id] = nic
        return nic

    def transfer(self, src_nic: Nic, dst_nic: Nic,
                 size_bytes: int) -> Generator[Event, Any, None]:
        """Process generator: move ``size_bytes`` from one NIC to another.

        Serialized on the sender's transmit channel, then the shared
        fabric, then propagation + forwarding latency, then serialized
        on the receiver's receive channel.
        """
        params = self.params
        wire = params.wire_time(size_bytes)
        yield from src_nic.tx.use(wire)
        yield from self.fabric.use(
            size_bytes / params.fabric_bandwidth_bytes_per_s)
        yield self.sim.timeout(params.per_message_latency_s)
        yield from dst_nic.rx.use(wire)
