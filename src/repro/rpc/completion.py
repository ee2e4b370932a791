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
both satisfy the protocol. Outside a running simulation every plane
hands back resolved completions; inside one the simulated plane hands
back processes, which the simulated driver yields on. A simulated
process may yield a resolved completion too (a fault decided at submit
time is one): it takes the outcome at once.

Combinators
-----------
:func:`scatter_call`
    Fan a plan of ``(server_id, request)`` operations out through
    ``transport.submit_many``, falling back to sequential calls only
    when the transport's submissions do not resolve synchronously (a
    simulator that is already running under our feet). The one place
    that classifies a scatter's failures: protocol errors stay inside
    their futures, anything else is re-raised.
:func:`capture`
    Run one synchronous call and keep its outcome in a completion —
    how a plane whose operations resolve at once derives
    ``submit_many`` from ``call``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import SwarmError


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

    def add_callback(self, callback) -> None:
        """Run ``callback(self)`` now, as a simulator event does for a
        callback added after it resolved."""
        callback(self)


def capture(fn, *args) -> CompletedFuture:
    """Run ``fn(*args)`` now; its outcome captured as a completion.

    Only protocol errors are captured — a programming error escapes
    at once instead of hiding inside a future.
    """
    try:
        return CompletedFuture(value=fn(*args))
    except SwarmError as exc:
        return CompletedFuture(exception=exc)


def scatter_call(transport, plan: Sequence[Tuple[str, Any]]) -> List:
    """Fan ``plan`` out through ``transport``; the outcomes, resolved.

    ``plan`` is a sequence of ``(server_id, request)`` pairs; the
    result is one resolved completion per operation, in plan order.
    This is the safe entry point for synchronous client code: when the
    transport's submissions would not resolve here (a simulator already
    mid-run), it degrades to sequential calls rather than deadlocking,
    so callers never need to know which plane they run on.

    A failure that is not a :class:`~repro.errors.SwarmError` (a
    programming error surfaced by a simulated process or the event
    loop) is re-raised here, first in plan order, so no caller has to
    tell the two kinds apart; protocol errors stay in their futures.
    """
    plan = list(plan)
    if not plan:
        return []
    if not transport.submit_is_synchronous:
        return [capture(transport.call, server_id, request)
                for server_id, request in plan]
    futures = transport.submit_many(plan)
    for future in futures:
        exc = future.exception
        if exc is not None and not isinstance(exc, SwarmError):
            raise exc
    return futures
