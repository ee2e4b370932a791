"""Discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a priority queue of pending
events. A :class:`Process` wraps a Python generator: every value the
generator yields must be an :class:`Event` (or an already-resolved
completion); the process suspends until that event triggers, then
resumes with the event's value. This is the
same execution model as SimPy, reimplemented here because the
environment is offline and the kernel needs only a small feature set.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(2.5)
...     return "done at %.1f" % sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
'done at 2.5'
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; exactly once, it either *succeeds* with a
    value or *fails* with an exception. Callbacks registered before the
    trigger run when the simulator dispatches the event; callbacks added
    after the trigger run immediately.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_dispatched", "value", "exception")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[[Event], None]] = []
        self._triggered = False
        self._dispatched = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self._triggered and self.exception is None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self.value = value
        self.sim._queue_dispatch(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event sees the exception raised at its
        ``yield`` statement.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self.exception = exception
        self.sim._queue_dispatch(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is dispatched."""
        if self._dispatched:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _dispatch(self) -> None:
        if self._dispatched:
            return
        self._dispatched = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % delay)
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self.value = value
        sim._schedule_at(sim.now + delay, self)


class Process(Event):
    """A running simulation process.

    Wraps a generator; the process itself is an event that triggers when
    the generator returns (success, value = return value) or raises
    (failure). Processes therefore compose: one process can ``yield``
    another to wait for its completion. It may also yield an
    already-resolved completion (any object whose ``triggered`` is
    true, such as a :class:`~repro.rpc.completion.CompletedFuture`),
    and takes that outcome at once.
    """

    __slots__ = ("generator", "name")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        bootstrap = Event(sim)
        bootstrap._triggered = True
        bootstrap.add_callback(self._resume)
        sim._schedule_at(sim.now, bootstrap)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggered event's outcome."""
        while True:
            try:
                if event is not None and event.exception is not None:
                    target = self.generator.throw(event.exception)
                else:
                    value = event.value if event is not None else None
                    target = self.generator.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into event
                self.fail(exc)
                return
            if not isinstance(target, Event):
                if not getattr(target, "triggered", False):
                    self.fail(SimulationError(
                        "process %r yielded %r, expected an Event or"
                        " a resolved completion"
                        % (self.name, target)))
                    return
            elif not target._dispatched:
                target.add_callback(self._resume)
                return
            # Already resolved (a dispatched event, or a completion such
            # as a CompletedFuture): loop and feed it straight back in,
            # avoiding unbounded recursion through callbacks.
            event = target


class AllOf(Event):
    """Triggers when every child event has triggered.

    Succeeds with the list of child values (in the order given). Fails
    with the first child exception observed.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self.events:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self.events])


class AnyOf(Event):
    """Triggers when the first child event triggers.

    Succeeds with ``(index, value)`` of the first successful child, or
    fails with the first child exception.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(self.events):
            child.add_callback(lambda c, i=index: self._on_child(i, c))

    def _on_child(self, index: int, child: Event) -> None:
        if self._triggered:
            return
        if child.exception is not None:
            self.fail(child.exception)
        else:
            self.succeed((index, child.value))


class Simulator:
    """The discrete-event engine: virtual clock plus event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List = []
        self._sequence = 0
        self._dispatch_queue: List[Event] = []
        self._running = False

    # -- scheduling -------------------------------------------------------

    def _schedule_at(self, when: float, event: Event) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (when, self._sequence, event))

    def _queue_dispatch(self, event: Event) -> None:
        """Dispatch a just-triggered event at the current time."""
        self._schedule_at(self.now, event)

    # -- public API -------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue is empty or ``until`` is reached.

        Process exceptions that nothing waited on are re-raised here so
        that bugs in simulated code fail tests instead of vanishing.
        """
        self._running = True
        try:
            while self._heap:
                when, _seq, event = self._heap[0]
                if until is not None and when > until:
                    self.now = until
                    return
                heapq.heappop(self._heap)
                self.now = when
                had_waiters = bool(event.callbacks)
                event._dispatch()
                if (isinstance(event, Process) and event.exception is not None
                        and not had_waiters):
                    raise event.exception
            if until is not None:
                self.now = until
        finally:
            self._running = False

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Convenience: start ``generator``, run to completion, return its value."""
        proc = self.process(generator, name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                "process %r never completed (deadlock?)" % proc.name)
        if proc.exception is not None:
            raise proc.exception
        return proc.value
