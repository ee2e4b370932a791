"""Shared-resource primitive for the simulation kernel.

:class:`Resource` models mutual exclusion with FIFO queueing (a NIC, a
disk arm, a CPU, the switch fabric). It is built purely on
:class:`~repro.sim.core.Event`, so processes interact with it with
ordinary ``yield`` statements.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

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
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, grant: Event) -> None:
        self._in_use += 1
        grant.succeed(self)

    def use(self, hold_time: float) -> Generator[Event, Any, None]:
        """Process generator: acquire, hold for ``hold_time``, release."""
        yield self.request()
        try:
            yield self.sim.timeout(hold_time)
        finally:
            self.release()
