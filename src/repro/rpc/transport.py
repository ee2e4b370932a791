"""Transports: how client code reaches storage servers.

Every plane exposes the same interface, so the log layer and every
service above it are oblivious to whether they run in plain Python
(correctness tests, examples), inside the discrete-event testbed
(benchmarks) or over real sockets (:mod:`repro.rpc.net`). Asynchronous
operations return *future-like* objects with ``triggered`` / ``ok`` /
``value`` / ``exception`` attributes — the same shape as simulator
events, so simulated drivers can ``yield`` them directly while
synchronous callers just read the result.

Every plane applies a request to its server with the same
:func:`~repro.rpc.codec.dispatch`, a lookup into the codec's verb table
(re-exported here).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import errors
from repro.rpc import messages as m
from repro.rpc.codec import decode_message, dispatch, encode_message, wire_size
from repro.rpc.completion import CompletedFuture, capture, scatter_call
from repro.util.packing import unpack_fids

__all__ = [
    "CompletedFuture",
    "LocalTransport",
    "SimTransport",
    "Transport",
    "TransportWrapper",
    "dispatch",  # from the codec's verb table
    "raise_error_response",
]

#: One fan-out operation: where to send it and what to send.
Plan = Sequence[Tuple[str, Any]]


def raise_error_response(response: m.ErrorResponse) -> None:
    """Re-raise the library exception an :class:`ErrorResponse` names."""
    cls = getattr(errors, response.error_class, errors.ServerError)
    if not (isinstance(cls, type) and issubclass(cls, errors.SwarmError)):
        cls = errors.ServerError
    raise cls(response.message)


class Transport(ABC):
    """Abstract client-side channel to a set of storage servers."""

    @abstractmethod
    def call(self, server_id: str, request) -> m.Response:
        """Perform one operation synchronously; raises on error."""

    def submit(self, server_id: str, request):
        """Start one operation; returns a future-like object.

        The default is the synchronous one — :meth:`call` now, outcome
        captured — which is right for every transport whose
        submissions resolve at once; a plane with its own shape (the
        simulator, whose submissions inside a running simulation are
        processes; the socket loop) overrides it.
        """
        return capture(self.call, server_id, request)

    @abstractmethod
    def server_ids(self) -> List[str]:
        """Names of all reachable servers."""

    def probe(self, server_id: str) -> None:
        """One idempotent liveness probe; raises when unreachable.

        An empty ``HoldsRequest`` — the cheapest operation a server
        answers, with no side effects and no payload, so the failure
        detector can test a suspect server without perturbing its
        state or charging meaningful disk/NIC time. Wrapper transports
        inherit this, so a probe issued below the retry layer still
        passes through fault injection (a chaos run can fault probes
        like any other RPC).
        """
        self.call(server_id, m.HoldsRequest(fids=()))

    @property
    def submit_is_synchronous(self) -> bool:
        """Whether :meth:`submit` returns already-resolved futures.

        True for every transport except the simulated one while its
        simulation runs. Wrapper transports (retry, fault injection)
        use this to decide whether they can intercept the synchronous
        path.
        """
        return True

    def submit_many(self, plan: Plan) -> List:
        """Start every operation of ``plan``; returns futures in order.

        ``plan`` is a sequence of ``(server_id, request)`` pairs. The
        default implementation simply submits each operation — already
        overlapped on a running simulation's process path, where every
        submission is a concurrent process contending for NICs, CPUs,
        and disk arms. Transports with a cheaper batched shape (and
        wrappers that must decide per operation) override this.

        Per-operation failures are captured inside the returned
        futures; ``submit_many`` itself never raises for an RPC error,
        so one dead server cannot wedge a fan-out.
        """
        return [self.submit(server_id, request)
                for server_id, request in plan]

    def broadcast_holds(self, fids: Iterable[int],
                        on_unreachable: Optional[Callable[[str], None]] = None,
                        ) -> Dict[int, str]:
        """Ask every server which of ``fids`` it stores.

        Returns ``{fid: server_id}`` for each fragment found. This is
        the self-hosting lookup used by reconstruction: no directory
        service exists, the cluster itself answers.

        Batched *and* overlapped: every server is asked about all
        missing fids in a single RPC, and all servers are asked
        concurrently — the whole broadcast costs one overlapped round
        trip (one RPC per server), the way Lustre fans out over its
        OSTs, instead of a sequential sweep of the stripe group.

        A server that cannot answer (crashed, partitioned, erroring)
        never wedges the broadcast: its failure stays inside its own
        future, fragments held by live servers are still located, and
        ``on_unreachable`` — when given — is told its id so callers can
        invalidate placements that point at it. A fragment reported by
        several servers resolves to the first in ``server_ids`` order,
        keeping the answer deterministic.
        """
        found: Dict[int, str] = {}
        pending = tuple(dict.fromkeys(fids))  # de-dup, keep caller order
        if not pending:
            return found
        server_ids = self.server_ids()
        futures = scatter_call(
            self, [(server_id, m.HoldsRequest(fids=pending))
                   for server_id in server_ids])
        for server_id, future in zip(server_ids, futures):
            if not future.ok:
                if not isinstance(future.exception, errors.ServerError):
                    raise future.exception
                if on_unreachable is not None:
                    on_unreachable(server_id)
                continue
            held, _end = unpack_fids(future.value.payload)
            for fid in held:
                found.setdefault(fid, server_id)
        return found


class LocalTransport(Transport):
    """Direct, synchronous, in-process transport.

    With ``verify_codec=True`` every message and reply is round-tripped
    through the binary codec, keeping the wire format honest even in
    pure-functional tests.
    """

    def __init__(self, servers: Dict[str, Any], verify_codec: bool = False) -> None:
        self.servers = dict(servers)
        self.verify_codec = verify_codec

    def add_server(self, server) -> None:
        """Register another server (e.g. grown cluster in examples)."""
        self.servers[server.server_id] = server

    def server_ids(self) -> List[str]:
        return list(self.servers)

    def _dispatch(self, server_id: str, request):
        server = self.servers.get(server_id)
        if server is None:
            raise errors.ServerUnavailableError("no server %r" % server_id)
        if self.verify_codec:
            request = decode_message(encode_message(request))
        response = dispatch(server, request)
        if self.verify_codec:
            response = decode_message(encode_message(response))
        return response

    def call(self, server_id: str, request) -> m.Response:
        response = self._dispatch(server_id, request)
        if isinstance(response, m.ErrorResponse):
            raise_error_response(response)
        return response


class TransportWrapper(Transport):
    """Base for middleware (retry, fault injection) around ``inner``.

    A wrapper intercepts :meth:`call` — and ``submit_many`` where it
    must decide per operation — and inherits everything else: the
    server list and the synchrony flag are the inner transport's, and
    a single :meth:`submit` goes through the wrapper's own ``call``
    whenever the inner transport resolves submissions synchronously.
    A running simulation's process path passes through unretried (a
    simulated process cannot be re-run from inside the run); a wrapper
    that needs those outcomes, like the retry layer's scoring, overrides
    :meth:`submit` and attaches a callback to each future.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    def server_ids(self) -> List[str]:
        return self.inner.server_ids()

    @property
    def submit_is_synchronous(self) -> bool:
        return self.inner.submit_is_synchronous

    def submit(self, server_id: str, request):
        if not self.submit_is_synchronous:
            return self.inner.submit(server_id, request)
        return capture(self.call, server_id, request)


class SimTransport(Transport):
    """Transport that routes operations through the simulated testbed.

    Every operation is a simulator process walking the real pipeline —
    client CPU (protocol send cost), client NIC, switch fabric, server
    NIC, server CPU, server disk, and the reply path — while the
    *functional* effect is applied to the in-process server at the disk
    stage. Because NICs, CPUs, and disk arms are simulator resources,
    overlapping operations contend exactly where real ones would: a
    fragment can be crossing the wire while the server's disk writes
    its predecessor, which is the pipelining §2.2 describes.

    The simulator's state picks the shape, not a setting. Inside a
    running simulation :meth:`submit` returns the process, for the
    driver to ``yield``; :meth:`call` applies only the functional
    effect (a driver that wants the time submits). Outside one,
    :meth:`submit_many` runs its plan's processes to completion and
    adds the elapsed simulated time to a *deferred-time ledger* that
    single-threaded drivers (the Andrew benchmark, the ablations) read
    back; :meth:`call` is a one-operation plan, so an operation costs
    the same whether it was called or overlapped.
    """

    def __init__(self, sim, switch, client_node, server_nodes: Dict[str, Any],
                 cpu_model) -> None:
        self.sim = sim
        self.switch = switch
        self.client_node = client_node
        self.server_nodes = dict(server_nodes)
        self.cpu_model = cpu_model
        self.deferred_time = 0.0

    def server_ids(self) -> List[str]:
        return list(self.server_nodes)

    @property
    def submit_is_synchronous(self) -> bool:
        return not self.sim._running

    def call(self, server_id: str, request) -> m.Response:
        if not self.sim._running:
            return self.submit_many([(server_id, request)])[0].result()
        response = dispatch(self._node(server_id).server, request)
        if isinstance(response, m.ErrorResponse):
            raise_error_response(response)
        return response

    def take_deferred_time(self) -> float:
        """Return and clear the accumulated simulated service time."""
        elapsed, self.deferred_time = self.deferred_time, 0.0
        return elapsed

    def submit(self, server_id: str, request):
        if not self.sim._running:
            return capture(self.call, server_id, request)
        return self._start(server_id, request)

    def submit_many(self, plan):
        """Launch every operation of ``plan`` as a concurrent process.

        Inside a running simulation the processes are returned for the
        driver to wait on. Outside one the batch runs to completion
        here and its elapsed simulated time is charged to the ledger —
        so a width-W scatter costs roughly one round trip plus whatever
        NIC/fabric/disk contention the resource model produces, not W
        serial round trips. Contention emerges from the model; nothing
        here guesses at it.
        """
        if self.sim._running:
            return [self._start(server_id, request)
                    for server_id, request in plan]
        started = self.sim.now
        processes = []
        for server_id, request in plan:
            process = self._start(server_id, request)
            # A waiter keeps per-operation failures inside the process
            # instead of sim.run() re-raising the first one.
            process.add_callback(lambda _event: None)
            processes.append(process)
        self.sim.run()
        self.deferred_time += self.sim.now - started
        return [CompletedFuture(value=process.value,
                                exception=process.exception)
                for process in processes]

    def _start(self, server_id: str, request):
        return self.sim.process(self._operation(server_id, request),
                                name="rpc %s" % type(request).__name__)

    def _operation(self, server_id: str, request):
        node = self._node(server_id)
        client = self.client_node
        out_size = wire_size(request)
        # Client-side protocol processing.
        yield from client.cpu.compute(self.cpu_model.send_cost(out_size))
        # Network: client NIC -> fabric -> server NIC.
        yield from self.switch.transfer(client.nic, node.nic, out_size)
        # Server-side protocol processing.
        yield from node.cpu.compute(self.cpu_model.server_request_cost(out_size))
        # Functional effect, then the disk work it implies.
        response = dispatch(node.server, request)
        yield from self._disk_work(node, request, response)
        # Reply.
        back_size = wire_size(response)
        yield from self.switch.transfer(node.nic, client.nic, back_size)
        yield from client.cpu.compute(self.cpu_model.receive_cost(back_size))
        if isinstance(response, m.ErrorResponse):
            raise_error_response(response)
        return response

    _MAP_REGION = -64.0  # disk position of the fragment map, far from slots

    def _disk_work(self, node, request, response):
        """Charge the disk operations one request implies."""
        if isinstance(request, m.StoreRequest) and isinstance(response, m.Response):
            yield from node.disk.access(len(request.data),
                                        float(response.value))
            yield from node.disk.access(4096, self._MAP_REGION)
        elif isinstance(request, (m.RetrieveRequest, m.MultiRetrieveRequest)
                        ) and isinstance(response, m.Response):
            # One access per span the server read from disk; a cache hit
            # read none. Position includes the intra-fragment offset so
            # consecutive block reads from one fragment are sequential
            # on the platter.
            for fid, offset, span_len in node.server.last_disk_spans:
                slot = node.server.slots.slot_of(fid) or 0
                position = float(slot) + max(0, offset) / float(1 << 20)
                yield from node.disk.access(
                    max(span_len, 1), position, write=False)
        elif isinstance(request, m.DeleteRequest):
            yield from node.disk.access(4096, self._MAP_REGION)

    def _node(self, server_id: str):
        node = self.server_nodes.get(server_id)
        if node is None:
            raise errors.ServerUnavailableError("no server %r" % server_id)
        return node
