"""Scatter-gather completion layer: combinators, fan-out transports,
and the degraded-read latency bound.

Covers the read-side pipelining contract end to end:

* ``scatter_call``'s failure classification;
* ``submit_many`` on the local transport (mixed outcomes stay inside
  their futures) and on the idle simulated transport (a scatter
  charges roughly one overlapped round trip, not W serial ones);
* fan-out reads under :class:`FaultyTransport` — a mid-scatter drop
  fails exactly its own future, the schedule replays bit-identically
  per seed, and a retry wrapper recovers the whole scatter;
* the acceptance bounds: simulated width-4 reconstruction costs less
  than 2.5× a single healthy fragment retrieve, and an RS(4+2) double
  erasure less than 3×.

Seeds come from ``CHAOS_SEEDS`` (comma-separated), matching the chaos
property suite, so CI exercises fixed seeds plus a per-run one.
"""

import os

import pytest

from repro import errors
from repro.bench.ablations import ablate_degraded_read
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.chaos.transport import FaultyTransport
from repro.cluster import ClusterConfig, SimCluster
from repro.rpc import messages as m
from repro.rpc.completion import CompletedFuture, scatter_call
from repro.rpc.retry import RetryPolicy, RetryingTransport
from repro.rpc.transport import LocalTransport
from repro.server.config import ServerConfig
from repro.server.server import StorageServer

SEEDS = [int(s) for s in
         os.environ.get("CHAOS_SEEDS", "101,202,303").split(",") if s.strip()]

#: Every request to the wire-fault victim is dropped (and nothing
#: else): the deterministic worst case for one member of a scatter.
DROP_ALL_SPEC = FaultSpec(drop_request=1.0, drop_response=0.0, delay=0.0,
                          duplicate=0.0, torn_store=0.0, bit_flip=0.0)


def _local_cluster(num_servers=4, fragment_size=1 << 16):
    """A LocalTransport with fragment ``i+1`` stored on server ``i``."""
    servers = {"s%d" % i: StorageServer(ServerConfig(
        "s%d" % i, fragment_size=fragment_size))
        for i in range(num_servers)}
    transport = LocalTransport(servers)
    for i in range(num_servers):
        transport.call("s%d" % i, m.StoreRequest(
            fid=i + 1, data=b"frag-%d" % (i + 1)))
    return transport


def _retrieve_plan(transport):
    return [("s%d" % i, m.RetrieveRequest(fid=i + 1))
            for i in range(len(transport.server_ids()))]


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------

class TestGatherCombinators:
    def test_scatter_call_reraises_only_programming_errors(self):
        class Scripted(LocalTransport):
            def submit_many(self, plan):
                return [CompletedFuture(exception=exc) for exc in self.script]

        transport = Scripted({})
        plan = [("s0", m.HoldsRequest(fids=())),
                ("s1", m.HoldsRequest(fids=()))]
        transport.script = [errors.ServerUnavailableError("down"),
                            errors.FragmentNotFoundError("gone")]
        futures = scatter_call(transport, plan)
        assert [type(f.exception) for f in futures] == [
            errors.ServerUnavailableError, errors.FragmentNotFoundError]
        transport.script = [errors.ServerUnavailableError("down"),
                            ValueError("bug"), TypeError("later bug")]
        with pytest.raises(ValueError, match="bug"):
            scatter_call(transport, plan + plan[:1])


# ----------------------------------------------------------------------
# submit_many
# ----------------------------------------------------------------------

class TestSubmitMany:
    def test_local_scatter_mixed_outcomes(self):
        transport = _local_cluster(num_servers=2)
        futures = transport.submit_many([
            ("s0", m.RetrieveRequest(fid=1)),
            ("s1", m.RetrieveRequest(fid=999)),   # never stored
        ])
        assert futures[0].ok
        assert bytes(futures[0].value.payload) == b"frag-1"
        assert not futures[1].ok
        assert isinstance(futures[1].exception, errors.FragmentNotFoundError)

    def test_scatter_call_matches_sequential_calls(self):
        transport = _local_cluster(num_servers=3)
        plan = _retrieve_plan(transport)
        scattered = scatter_call(transport, plan)
        sequential = [transport.call(sid, req) for sid, req in plan]
        assert [bytes(f.value.payload) for f in scattered] == \
            [bytes(r.payload) for r in sequential]

    def test_sim_deferred_scatter_overlaps(self):
        """A width-W scatter must cost far less than W serial trips."""
        width = 4
        cluster = SimCluster(ClusterConfig(num_servers=width, num_clients=1))
        transport = cluster.make_transport(0)
        server_ids = sorted(cluster.server_nodes)
        for i, server_id in enumerate(server_ids):
            transport.call(server_id, m.StoreRequest(
                fid=i + 1, data=b"x" * 4096))
        plan = [(server_id, m.RetrieveRequest(fid=i + 1))
                for i, server_id in enumerate(server_ids)]
        transport.take_deferred_time()
        for server_id, request in plan:
            transport.call(server_id, request)
        serial_s = transport.take_deferred_time()
        futures = transport.submit_many(plan)
        scatter_s = transport.take_deferred_time()
        assert all(f.ok for f in futures)
        # Perfect overlap would approach serial/width; the resource
        # model's client-NIC and fabric contention keeps it above that,
        # but anything near the serial figure means the scatter
        # serialized and the pipelining contract is broken.
        assert scatter_s < 0.6 * serial_s, (
            "scatter %.6fs vs serial %.6fs" % (scatter_s, serial_s))


# ----------------------------------------------------------------------
# Fan-out reads under fault injection
# ----------------------------------------------------------------------

class TestScatterUnderChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mid_scatter_drop_fails_only_its_future(self, seed):
        transport = _local_cluster()
        faulty = FaultyTransport(transport, FaultPlan(seed, DROP_ALL_SPEC))
        plan = _retrieve_plan(transport)
        victim = faulty.plan.current_victim
        futures = faulty.submit_many(plan)
        for (server_id, request), future in zip(plan, futures):
            if server_id == victim:
                assert isinstance(future.exception,
                                  errors.ServerUnavailableError), \
                    "seed=%d: victim op should have dropped" % seed
            else:
                assert future.ok, "seed=%d: clean op failed" % seed
                assert bytes(future.value.payload) == \
                    b"frag-%d" % request.fid

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scatter_fault_schedule_replays_identically(self, seed):
        histories = []
        for _run in range(2):
            transport = _local_cluster()
            faulty = FaultyTransport(transport, FaultPlan(seed, DROP_ALL_SPEC))
            faulty.submit_many(_retrieve_plan(transport))
            faulty.submit_many(_retrieve_plan(transport))
            histories.append([
                (e.index, e.kind, e.server_id, e.request, e.fid)
                for e in faulty.plan.history])
        assert histories[0] == histories[1], \
            "seed=%d: fault schedule diverged across replays" % seed
        assert histories[0], "seed=%d: expected at least one fault" % seed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_retrying_scatter_recovers_every_operation(self, seed):
        transport = _local_cluster()
        faulty = FaultyTransport(transport, FaultPlan(seed, DROP_ALL_SPEC))
        retrying = RetryingTransport(faulty, RetryPolicy(
            max_attempts=6, jitter=0.0, seed=seed))
        futures = retrying.submit_many(_retrieve_plan(transport))
        assert all(f.ok for f in futures), \
            "seed=%d: retried scatter left failures" % seed
        # The victim's operation needed retries (the fault plan's
        # consecutive-fault bound guarantees a clean call eventually).
        assert retrying.retries > 0
        assert retrying.exhausted == 0
        assert faulty.faults_applied > 0


# ----------------------------------------------------------------------
# Acceptance: degraded-read latency
# ----------------------------------------------------------------------

class TestReconstructLatencyBound:
    def test_width4_reconstruction_under_two_point_five_x(self):
        metrics = ablate_degraded_read()
        assert metrics["single_retrieve_ms"] > 0
        assert metrics["reconstruct_ms"] > metrics["single_retrieve_ms"]
        assert metrics["ratio"] < 2.5, (
            "width-4 degraded read cost %.3f× a single retrieve; the "
            "scatter-gather read path should stay under 2.5×" %
            metrics["ratio"])

    def test_rs_double_erasure_under_three_x(self):
        # Two of six members down: the decode needs four survivors,
        # and they arrive in one overlapped scatter.
        ratio = ablate_degraded_read(
            num_servers=6, parity=2, coding="rs")["ratio"]
        assert 1.0 < ratio < 3.0, (
            "RS(4+2) double-erasure read cost %.3f× a single retrieve; "
            "expected between 1× and 3×" % ratio)
