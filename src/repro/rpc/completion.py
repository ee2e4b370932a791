"""First-class completions: the future shape every transport speaks.

Swarm's pipelining argument (§2.1.2) is about *overlap*: a client that
talks to W servers should pay one overlapped round trip, not W serial
ones. The write path has always been asynchronous; this module gives
the read side the same vocabulary. A *completion* is any object with
the four attributes the transports and the simulator already share:

``triggered``
    True once the operation has finished (successfully or not).
``ok``
    True when it finished without an exception.
``value``
    The result (a :class:`~repro.rpc.messages.Response` for RPCs).
``exception``
    The failure, or None.

:class:`CompletedFuture` (an already-resolved completion) and the
simulator's :class:`~repro.sim.core.Process`/:class:`~repro.sim.core.Event`
both satisfy the protocol, so the combinators below work identically
over the local transport, the simulated testbed, and any wrapper
(retry, fault injection) around either.

Combinators
-----------
:func:`gather`
    Resolve a whole fan-out, driving the owning simulator when needed;
    per-operation failures stay *inside* their futures, so one dead
    server never wedges a scatter.
:func:`scatter_call`
    Fan a plan of ``(server_id, request)`` operations out through
    ``transport.submit_many`` and gather the results, falling back to
    sequential calls only when the futures cannot be driven (a
    simulator that is already running under our feet). The one place
    that classifies a scatter's failures: protocol errors stay inside
    their futures, anything else is re-raised.
:func:`capture`
    Run one synchronous call and keep its outcome in a completion —
    how every synchronous ``submit`` is derived from ``call``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import SimulationError, SwarmError


class CompletedFuture:
    """A completion that resolved at creation time (local transport)."""

    __slots__ = ("value", "exception", "triggered")

    def __init__(self, value: Any = None,
                 exception: Optional[BaseException] = None) -> None:
        self.value = value
        self.exception = exception
        self.triggered = True

    @property
    def ok(self) -> bool:
        """True when the operation succeeded."""
        return self.exception is None

    def result(self) -> Any:
        """Return the value or raise the stored exception."""
        if self.exception is not None:
            raise self.exception
        return self.value


def capture(fn, *args) -> CompletedFuture:
    """Run ``fn(*args)`` now; its outcome captured as a completion.

    Only protocol errors are captured — a programming error escapes
    at once instead of hiding inside a future.
    """
    try:
        return CompletedFuture(value=fn(*args))
    except SwarmError as exc:
        return CompletedFuture(exception=exc)


def call_completed(transport, server_id: str, request) -> CompletedFuture:
    """One synchronous call, outcome captured as a completion."""
    return capture(transport.call, server_id, request)


def _owning_sim(future):
    return getattr(future, "sim", None)


def gather(futures: Sequence) -> List:
    """Resolve every future in ``futures``; returns them, in order.

    Already-resolved completions pass straight through. Simulator
    events are driven to completion by running their owning simulator
    (all pending futures share one clock, so a single run resolves the
    whole fan-out). Per-operation failures are left inside their
    futures — inspect ``ok`` / ``exception`` per element; nothing is
    raised here for an RPC-level error.

    Raises :class:`~repro.errors.SimulationError` when an unresolved
    future has no simulator to drive, or its simulator is already
    running (gathering from inside a simulated process must use
    ``yield sim.all_of(...)`` instead — see :func:`can_gather`).
    """
    futures = list(futures)
    pending = [f for f in futures if not f.triggered]
    for future in pending:
        sim = _owning_sim(future)
        if sim is None:
            raise SimulationError(
                "cannot gather an unresolved future with no simulator")
        if getattr(sim, "_running", False):
            raise SimulationError(
                "cannot gather inside a running simulation; "
                "yield sim.all_of(...) from the process instead")
        # A process failure with no waiters is re-raised by sim.run();
        # registering a waiter keeps the failure inside the future,
        # where the caller inspects it per operation.
        future.add_callback(lambda _event: None)
    for future in pending:
        if not future.triggered:
            _owning_sim(future).run()
        if not future.triggered:
            raise SimulationError(
                "future never resolved (simulation deadlock?)")
    return futures


def can_gather(transport) -> bool:
    """Whether a fan-out through ``transport`` can be gathered here.

    True for every transport whose submissions resolve synchronously,
    and for simulated transports whose simulator is idle (we can drive
    it). False only when called from *inside* a running simulation —
    simulated drivers overlap by yielding ``sim.all_of`` themselves.
    """
    if transport.submit_is_synchronous:
        return True
    node = transport
    while node is not None:
        sim = getattr(node, "sim", None)
        if sim is not None:
            return not getattr(sim, "_running", False)
        node = getattr(node, "inner", None)
    return False


def scatter_call(transport, plan: Sequence[Tuple[str, Any]]) -> List:
    """Fan ``plan`` out through ``transport`` and gather the outcomes.

    ``plan`` is a sequence of ``(server_id, request)`` pairs; the
    result is one resolved completion per operation, in plan order.
    This is the safe entry point for synchronous client code: when the
    futures cannot be driven (a simulator already mid-run), it degrades
    to sequential calls rather than deadlocking, so callers never need
    to know which plane they run on.

    A failure that is not a :class:`~repro.errors.SwarmError` (a
    programming error surfaced by a simulated process or the event
    loop) is re-raised here, first in plan order, so no caller has to
    tell the two kinds apart; protocol errors stay in their futures.
    """
    plan = list(plan)
    if not plan:
        return []
    if not can_gather(transport):
        return [call_completed(transport, server_id, request)
                for server_id, request in plan]
    futures = gather(transport.submit_many(plan))
    for future in futures:
        exc = future.exception
        if exc is not None and not isinstance(exc, SwarmError):
            raise exc
    return futures
