"""Shared-resource primitives for the simulation kernel.

:class:`Resource` models mutual exclusion with FIFO queueing (a NIC, a
disk arm, a CPU). :class:`Store` models a producer/consumer queue of
items (a server's inbox of requests). Both are built purely on
:class:`~repro.sim.core.Event`, so processes interact with them with
ordinary ``yield`` statements.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.core import Event, Simulator


class Resource:
    """A counted resource with FIFO request queueing.

    ``capacity`` concurrent holders are allowed (1 = mutex). A process
    acquires the resource by yielding :meth:`request` and must later call
    :meth:`release` exactly once per successful request.

    The common pattern of "hold the resource for a fixed service time" is
    packaged as :meth:`use`, which is itself a process generator::

        yield sim.process(nic_resource.use(transfer_time))
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Accounting for utilization reports.
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    def request(self) -> Event:
        """Return an event that succeeds once the resource is granted."""
        grant = Event(self.sim)
        if self._in_use < self.capacity:
            self._grant(grant)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Release one unit; wakes the oldest waiter, if any."""
        if self._in_use <= 0:
            raise RuntimeError("release without matching request on %r" % self.name)
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, grant: Event) -> None:
        if self._in_use == 0:
            self._busy_since = self.sim.now
        self._in_use += 1
        grant.succeed(self)

    def use(self, hold_time: float) -> Generator[Event, Any, None]:
        """Process generator: acquire, hold for ``hold_time``, release."""
        yield self.request()
        try:
            yield self.sim.timeout(hold_time)
        finally:
            self.release()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the resource was busy.

        ``elapsed`` defaults to the current simulation time; pass the
        duration of the measured interval when the resource was created
        mid-run.
        """
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        total = self.sim.now if elapsed is None else elapsed
        if total <= 0:
            return 0.0
        return min(1.0, busy / total)


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks (servers accept all incoming requests and queue
    them); ``get`` returns an event that succeeds with the next item.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; hands it directly to the oldest blocked getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev
