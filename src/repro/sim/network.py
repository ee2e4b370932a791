"""Switched-Ethernet network model.

The prototype's testbed was 100 Mb/s switched Ethernet. The model here
captures what matters for the figures:

* each node has a full-duplex NIC — independent transmit and receive
  channels, each serialized at the link bandwidth;
* the switch is non-blocking (no shared backplane contention), so two
  disjoint node pairs transfer at full rate concurrently;
* every message pays a small fixed latency (propagation + switch
  forwarding) plus per-byte serialization on the sender's TX channel and
  the receiver's RX channel;
* broadcast delivers a copy of the message to every attached node, used
  by fragment reconstruction to locate stripe neighbors without any
  central metadata service.

Messages carry opaque payload objects; ``size_bytes`` drives timing so
the functional payloads need not be serialized for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource, Store


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


@dataclass
class Message:
    """A network message between two simulated nodes."""

    source: str
    destination: str
    payload: Any
    size_bytes: int
    reply_to: Any = None
    kind: str = "request"
    trace: Dict[str, float] = field(default_factory=dict)


class Nic:
    """A full-duplex network interface attached to one node."""

    def __init__(self, sim: Simulator, node_id: str, params: NetworkParams) -> None:
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.tx = Resource(sim, 1, name="%s.tx" % node_id)
        self.rx = Resource(sim, 1, name="%s.rx" % node_id)
        self.inbox: Store = Store(sim, name="%s.inbox" % node_id)
        self.bytes_sent = 0
        self.bytes_received = 0


class Switch:
    """A non-blocking switch connecting named nodes.

    Use :meth:`attach` to register a node and get its NIC; a node process
    sends with ``yield switch.send(msg)`` (returns when the message has
    been fully delivered to the destination inbox) or fire-and-forget via
    :meth:`post`.
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
        nic = Nic(self.sim, node_id, self.params)
        self.nics[node_id] = nic
        return nic

    def detach(self, node_id: str) -> None:
        """Remove a node (e.g. crashed server) from the network."""
        self.nics.pop(node_id, None)

    # -- transfer mechanics -------------------------------------------------

    def _transfer(self, message: Message) -> Generator[Event, Any, None]:
        """Process: move ``message`` from source NIC to destination inbox."""
        sender = self.nics.get(message.source)
        if sender is None:
            raise SimulationError("unknown sender %r" % message.source)
        wire = self.params.wire_time(message.size_bytes)
        # Serialize on the sender's transmit channel.
        yield sender.tx.request()
        try:
            yield self.sim.timeout(wire)
        finally:
            sender.tx.release()
        sender.bytes_sent += message.size_bytes
        # Shared switch fabric, then propagation + forwarding latency.
        yield from self.fabric.use(
            message.size_bytes / self.params.fabric_bandwidth_bytes_per_s)
        yield self.sim.timeout(self.params.per_message_latency_s)
        receiver = self.nics.get(message.destination)
        if receiver is None:
            # Destination crashed mid-flight: the message is dropped.
            # Callers time out / see unavailability at the RPC layer.
            return
        # Serialize on the receiver's receive channel.
        yield receiver.rx.request()
        try:
            yield self.sim.timeout(wire)
        finally:
            receiver.rx.release()
        receiver.bytes_received += message.size_bytes
        receiver.inbox.put(message)

    def send(self, message: Message) -> Event:
        """Start delivering ``message``; the returned event triggers when
        it has been placed in the destination inbox (or dropped)."""
        return self.sim.process(self._transfer(message),
                                name="xfer %s->%s" % (message.source,
                                                      message.destination))

    def post(self, message: Message) -> None:
        """Fire-and-forget variant of :meth:`send`."""
        self.send(message)

    def broadcast(self, source: str, payload: Any, size_bytes: int,
                  kind: str = "broadcast") -> Event:
        """Deliver a copy of ``payload`` to every other attached node.

        Returns an event that triggers when all copies are delivered.
        Modeled as a unicast to each destination (a switched network
        replicates broadcast frames per port; the sender also pays per
        copy here, a conservative approximation that only affects the
        rare reconstruction path).
        """
        deliveries = []
        for node_id in list(self.nics):
            if node_id == source:
                continue
            deliveries.append(self.send(Message(
                source=source, destination=node_id, payload=payload,
                size_bytes=size_bytes, kind=kind)))
        return self.sim.all_of(deliveries)
