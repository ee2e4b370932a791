"""Unit tests for Resource."""

import pytest

from repro.sim import Simulator
from repro.sim.resources import Resource


class TestResource:
    def test_mutex_serializes(self):
        sim = Simulator()
        resource = Resource(sim, 1)
        spans = []

        def worker(tag):
            yield resource.request()
            start = sim.now
            yield sim.timeout(2.0)
            resource.release()
            spans.append((tag, start, sim.now))

        for tag in "ab":
            sim.process(worker(tag))
        sim.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 4.0)]

    def test_capacity_allows_parallelism(self):
        sim = Simulator()
        resource = Resource(sim, 2)
        ends = []

        def worker():
            yield resource.request()
            yield sim.timeout(1.0)
            resource.release()
            ends.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert ends == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_grant_order(self):
        sim = Simulator()
        resource = Resource(sim, 1)
        order = []

        def worker(tag):
            yield resource.request()
            order.append(tag)
            yield sim.timeout(1.0)
            resource.release()

        for tag in "abcd":
            sim.process(worker(tag))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_release_without_request_raises(self):
        sim = Simulator()
        with pytest.raises(RuntimeError):
            Resource(sim, 1).release()

    def test_use_helper(self):
        sim = Simulator()
        resource = Resource(sim, 1)

        def worker():
            yield sim.process(resource.use(3.0))
            return sim.now

        assert sim.run_process(worker()) == 3.0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), 0)

