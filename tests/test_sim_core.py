"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ServerUnavailableError, SimulationError
from repro.rpc.completion import CompletedFuture
from repro.sim import Simulator
from repro.sim.core import Event


class TestTimeouts:
    def test_clock_advances_to_timeout(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)
            return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_timeouts_fire_in_order(self):
        sim = Simulator()
        fired = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            fired.append((tag, sim.now))

        sim.process(waiter(3.0, "c"))
        sim.process(waiter(1.0, "a"))
        sim.process(waiter(2.0, "b"))
        sim.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []

        def waiter(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in "xyz":
            sim.process(waiter(tag))
        sim.run()
        assert order == ["x", "y", "z"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_stops_clock(self):
        sim = Simulator()
        done = []

        def late():
            yield sim.timeout(10.0)
            done.append(True)

        sim.process(late())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not done
        sim.run()
        assert done


class TestProcesses:
    def test_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0)
            return 42

        assert sim.run_process(proc()) == 42

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "child-done"

        def parent():
            value = yield sim.process(child())
            return (value, sim.now)

        assert sim.run_process(parent()) == ("child-done", 2.0)

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return "caught %s" % exc
            return "not caught"

        assert sim.run_process(parent()) == "caught boom"

    def test_unobserved_exception_raises_from_run(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        sim.process(bad())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_yield_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 42

        with pytest.raises(SimulationError):
            sim.run_process(bad())

    def test_yield_already_triggered_event(self):
        sim = Simulator()

        def proc():
            ev = sim.event()
            ev.succeed("early")
            sim.run  # no-op reference; the event resolves within this run
            value = yield ev
            return value

        assert sim.run_process(proc()) == "early"

    def test_yield_resolved_completion(self):
        """A resolved completion that is not an Event is taken at once:
        its value is sent in, its failure raised inside the process."""
        sim = Simulator()

        def proc():
            value = yield CompletedFuture(value=7)
            with pytest.raises(ServerUnavailableError):
                yield CompletedFuture(
                    exception=ServerUnavailableError("down"))
            return value, sim.now

        assert sim.run_process(proc()) == (7, 0.0)

    def test_deadlocked_process_detected(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(stuck())


class TestEvents:
    def test_succeed_twice_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_carries_exception(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("nope"))
        assert ev.triggered
        assert not ev.ok

    def test_callback_after_dispatch_runs_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]


class TestCombinators:
    def test_all_of_collects_values(self):
        sim = Simulator()

        def proc():
            events = [sim.timeout(1.0, "a"), sim.timeout(3.0, "b"),
                      sim.timeout(2.0, "c")]
            values = yield sim.all_of(events)
            return (values, sim.now)

        values, now = sim.run_process(proc())
        assert values == ["a", "b", "c"]
        assert now == 3.0

    def test_all_of_empty_is_immediate(self):
        sim = Simulator()

        def proc():
            values = yield sim.all_of([])
            return values

        assert sim.run_process(proc()) == []

    def test_all_of_fails_on_child_failure(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(1.0)
            raise IOError("disk")

        def proc():
            with pytest.raises(IOError):
                yield sim.all_of([sim.process(failing()), sim.timeout(5.0)])
            return sim.now

        assert sim.run_process(proc()) == 1.0

    def test_any_of_returns_first(self):
        sim = Simulator()

        def proc():
            index, value = yield sim.any_of([sim.timeout(5.0, "slow"),
                                             sim.timeout(1.0, "fast")])
            return (index, value, sim.now)

        assert sim.run_process(proc()) == (1, "fast", 1.0)

    def test_any_of_requires_events(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])
