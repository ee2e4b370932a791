"""Fault-injecting transport wrapper.

:class:`FaultyTransport` sits between client components and a real
transport (:class:`~repro.rpc.transport.LocalTransport` or
:class:`~repro.rpc.transport.SimTransport`) and applies the per-call
decisions of a :class:`~repro.chaos.plan.FaultPlan`:

``drop_request``
    The call never reaches the server; the client sees
    :class:`~repro.errors.ServerUnavailableError`.
``drop_response``
    The server *executes* the call but the reply is lost — the
    at-least-once hazard that makes retried stores ambiguous.
``delay``
    The reply arrives, late: the delay is charged to the simulated
    clock when the wrapped transport keeps one (never a real sleep).
``duplicate``
    The request is delivered twice; the second delivery's outcome is
    discarded, exactly like a duplicated packet.
``torn_store``
    A store is durably committed *as a prefix of itself*, then reported
    failed — the classic torn write. The client's retry collides with
    the damaged fragment and must detect and repair it.
``bit_flip``
    A retrieve succeeds but one payload bit is silently flipped; only
    end-to-end checksum verification can notice.

The wrapper sees both entry points: the synchronous path (``call``)
and the asynchronous one (``submit_many``, where every operation of a
plan gets its own fault decision and a faulted operation fails only
its own future). A single asynchronous operation is a one-op plan, so
it is faulted the same way on every plane, a running simulation's
process path included; there a faulted operation comes back as a
resolved completion, decided at submit time at no simulated cost (a
``delay`` fault decided there delays nothing and charges nothing: the
deferred-time ledger is only charged outside a running simulation).
"""

from __future__ import annotations

from repro import errors
from repro.chaos.plan import FaultPlan
from repro.rpc import messages as m
from repro.rpc.completion import capture
from repro.rpc.retry import charge_delay
from repro.rpc.transport import TransportWrapper


class FaultyTransport(TransportWrapper):
    """Applies a :class:`FaultPlan` to every call on ``inner``."""

    def __init__(self, inner, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        plan.attach(inner.server_ids())
        # Statistics (read by the chaos runner and tests).
        self.faults_applied = 0
        self.delay_charged_s = 0.0

    # ------------------------------------------------------------------

    def call(self, server_id: str, request) -> m.Response:
        event = self.plan.decide(server_id, request)
        if event is None:
            return self.inner.call(server_id, request)
        return self._apply_fault(event, server_id, request)

    def _apply_fault(self, event, server_id: str, request) -> m.Response:
        """Execute one call under one fault decision."""
        self.faults_applied += 1
        kind = event.kind
        if kind == "drop_request":
            raise errors.ServerUnavailableError(
                "chaos: request to %s dropped" % server_id)
        if kind == "drop_response":
            self._deliver_silently(server_id, request)
            raise errors.ServerUnavailableError(
                "chaos: reply from %s lost" % server_id)
        if kind == "torn_store":
            self._deliver_silently(server_id, self._torn_copy(request))
            raise errors.ServerUnavailableError(
                "chaos: store to %s torn mid-write" % server_id)
        if kind == "delay":
            response = self.inner.call(server_id, request)
            self.delay_charged_s += self.plan.spec.delay_s
            charge_delay(self.inner, self.plan.spec.delay_s)
            return response
        if kind == "duplicate":
            response = self.inner.call(server_id, request)
            self._deliver_silently(server_id, request)
            return response
        if kind == "bit_flip":
            response = self.inner.call(server_id, request)
            return self._flipped(response, event.arg)
        raise errors.ConfigError("unknown fault kind %r" % kind)

    def submit_many(self, plan):
        """Fault each operation of a fan-out independently.

        Decisions are drawn in plan order (so a seed replays the same
        schedule), then the clean operations proceed as one overlapped
        batch on the inner transport while each faulted operation takes
        its fault path alone — a mid-scatter drop fails exactly one
        future instead of wedging, or escaping, the whole scatter.
        """
        plan = list(plan)
        futures = [None] * len(plan)
        clean_indices = []
        for index, (server_id, request) in enumerate(plan):
            event = self.plan.decide(server_id, request)
            if event is None:
                clean_indices.append(index)
                continue
            futures[index] = capture(self._apply_fault, event, server_id,
                                     request)
        clean_futures = self.inner.submit_many(
            [plan[index] for index in clean_indices])
        for index, future in zip(clean_indices, clean_futures):
            futures[index] = future
        return futures

    # ------------------------------------------------------------------

    def _deliver_silently(self, server_id: str, request) -> None:
        """Execute a call whose outcome the client never sees."""
        try:
            self.inner.call(server_id, request)
        except errors.SwarmError:
            pass

    @staticmethod
    def _torn_copy(request: m.StoreRequest) -> m.StoreRequest:
        """The durable prefix a torn store leaves behind.

        Keeps half of the image (sectors commit in order), with no ACL
        ranges — they would not validate against the shorter data, and
        a torn fragment's metadata is garbage anyway.
        """
        data = bytes(request.data)
        keep = len(data) // 2
        return m.StoreRequest(fid=request.fid, data=data[:keep],
                              principal=request.principal,
                              marked=request.marked)

    @staticmethod
    def _flipped(response: m.Response, arg: int) -> m.Response:
        payload = bytes(response.payload)
        if not payload:
            return response
        bit = arg % (len(payload) * 8)
        damaged = bytearray(payload)
        damaged[bit // 8] ^= 1 << (bit % 8)
        return m.Response(value=response.value, payload=bytes(damaged),
                          text=response.text)
