"""Tests for the real network plane (:mod:`repro.rpc.net`).

The framing tests are hermetic (the shared frame reader over a local
``socket.socketpair()``, no TCP) and run in tier 1. Everything in the
``net``-marked classes opens real loopback TCP sockets: the same
in-process servers, each served by the ``select.poll`` loop in
:func:`repro.rpc.net.serve`, driven through a :class:`TcpTransport`,
with the existing wrappers (retry, chaos faults, health) layered on
top unchanged. Run them with ``pytest -m net``.
"""

import select
import socket
import threading
import time

import pytest

from repro import errors
from repro.chaos.plan import FaultPlan
from repro.chaos.harness import build_client, generate_ops
from repro.chaos.runner import run_chaos
from repro.chaos.transport import FaultyTransport
from repro.cluster import build_local_cluster
from repro.health import HealthMonitor
from repro.log.address import make_fid
from repro.log.config import LogConfig
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc import net
from repro.rpc.codec import decode_message, encode_message
from repro.rpc.net import (
    FRAME_HEADER,
    MAX_FRAME,
    InProcessHost,
    TcpTransport,
    _Connection,
    frame_parts,
)
from repro.rpc.retry import RetryPolicy, RetryingTransport
from repro.server.config import ServerConfig
from repro.server.server import StorageServer
from repro.services.base import Service

SVC = 7
FRAG = 1 << 14


def read_frames(wire, count):
    """The first ``count`` frames the shared frame reader finds in
    ``wire``, sent over a socket pair whose far end then closes."""
    near, far = socket.socketpair()
    with near, far:
        far.sendall(wire)
        far.shutdown(socket.SHUT_WR)
        connection = _Connection(near)
        frames = []
        while len(frames) < count:
            frames += connection.frames()
        return frames


class TestFraming:
    """Hermetic frame-layer tests: header + codec image, no TCP."""

    def test_frame_roundtrip(self):
        msg = m.StoreRequest(fid=9, data=b"\xaa" * 5000, principal="c1")
        parts = frame_parts(42, msg)
        wire = b"".join(parts)
        length, request_id = FRAME_HEADER.unpack(wire[:FRAME_HEADER.size])
        assert request_id == 42
        payload = wire[FRAME_HEADER.size:]
        assert length == len(payload)
        assert decode_message(payload) == msg

    def test_header_length_matches_wire_size_without_encoding(self):
        # The framer writes the length prefix from wire_size BEFORE the
        # message is serialized; the two must agree for every message.
        for msg in (m.RetrieveRequest(fid=3, principal="p"),
                    m.Response(value=1, payload=b"zz", text="t"),
                    m.HoldsRequest(fids=(1, 2, 3), principal="q")):
            parts = frame_parts(7, msg)
            (length, _) = FRAME_HEADER.unpack(bytes(parts[0]))
            assert length == len(encode_message(msg))

    def test_read_frame_resolves_stream(self):
        msg = m.Response(value=5, payload=b"ok")
        [(request_id, payload)] = read_frames(
            b"".join(frame_parts(11, msg)), 1)
        assert request_id == 11
        assert decode_message(payload) == m.Response(value=5, payload=b"ok")

    def test_read_frame_interleaved_out_of_order_ids(self):
        wire = b"".join(b"".join(frame_parts(rid, m.Response(value=value)))
                        for rid, value in ((3, 30), (1, 10), (2, 20)))
        frames = read_frames(wire, 3)
        assert [(rid, decode_message(payload).value)
                for rid, payload in frames] == [(3, 30), (1, 10), (2, 20)]

    def test_oversized_frame_rejected(self):
        with pytest.raises(errors.BadRequestError):
            read_frames(FRAME_HEADER.pack((1 << 28) + 1, 0), 1)

    def test_truncated_frame_raises(self):
        wire = b"".join(frame_parts(9, m.Response(value=1)))
        with pytest.raises(ConnectionResetError):
            read_frames(wire[:-3], 1)


def small_servers(count=4):
    return {"s%d" % i: StorageServer(ServerConfig(
        "s%d" % i, fragment_size=FRAG, total_slots=256))
        for i in range(count)}


def answer_once(answer):
    """A plain-socket fake server: it reads one request frame, writes
    ``answer(request_id)`` back and holds the connection open until the
    client drops it. Returns the listener and the serving thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            header = conn.recv(FRAME_HEADER.size, socket.MSG_WAITALL)
            length, request_id = FRAME_HEADER.unpack(header)
            conn.recv(length, socket.MSG_WAITALL)
            conn.sendall(answer(request_id))
            conn.recv(1)  # EOF once the client drops the connection

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.net
class TestTcpTransport:
    def test_store_retrieve_roundtrip(self):
        with InProcessHost(small_servers(2)) as host:
            with TcpTransport(host.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=5, data=b"swarm-wire"))
                response = tcp.call("s0", m.RetrieveRequest(fid=5))
                assert bytes(response.payload) == b"swarm-wire"

    def test_server_error_crosses_wire_as_exception(self):
        with InProcessHost(small_servers(1)) as host:
            with TcpTransport(host.addresses) as tcp:
                with pytest.raises(errors.FragmentNotFoundError):
                    tcp.call("s0", m.RetrieveRequest(fid=12345))

    def test_unknown_server_is_unavailable(self):
        with InProcessHost(small_servers(1)) as host:
            with TcpTransport(host.addresses) as tcp:
                with pytest.raises(errors.ServerUnavailableError):
                    tcp.call("nope", m.RetrieveRequest(fid=1))

    def test_unreachable_address_is_unavailable(self):
        # A bound-then-closed port: nothing listens there.
        import socket as socketlib
        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with TcpTransport({"s0": ("127.0.0.1", port)}) as tcp:
            with pytest.raises(errors.ServerUnavailableError):
                tcp.call("s0", m.RetrieveRequest(fid=1))

    def test_probe_and_broadcast_holds(self):
        with InProcessHost(small_servers(3)) as host:
            with TcpTransport(host.addresses) as tcp:
                for index, fid in enumerate((101, 202, 303)):
                    tcp.call("s%d" % index,
                             m.StoreRequest(fid=fid, data=b"x"))
                tcp.probe("s1")  # raises when unreachable
                found = tcp.broadcast_holds([101, 202, 303, 404])
                assert found == {101: "s0", 202: "s1", 303: "s2"}

    def test_submit_many_results_in_plan_order(self):
        with InProcessHost(small_servers(4)) as host:
            with TcpTransport(host.addresses) as tcp:
                for i in range(4):
                    tcp.call("s%d" % i, m.StoreRequest(
                        fid=1000 + i, data=bytes([i]) * 64))
                plan = [("s%d" % i, m.RetrieveRequest(fid=1000 + i))
                        for i in reversed(range(4))]
                futures = tcp.submit_many(plan)
                assert len(futures) == 4
                for (server_id, request), future in zip(plan, futures):
                    payload = bytes(future.result().payload)
                    assert payload == bytes([request.fid - 1000]) * 64

    def test_long_plan_to_one_server_answers_every_store_in_order(self):
        # More frame buffers queue on each pooled connection than one
        # sendmsg takes (64), so the outbox drains over several writes.
        servers = small_servers(1)
        plan = [("s0", m.StoreRequest(fid=100 + i, data=bytes([i]) * (50 + i)))
                for i in range(100)]
        queued = len(plan) // net.POOL_SIZE * len(frame_parts(0, plan[0][1]))
        assert queued > 64
        with InProcessHost(servers) as host:
            with TcpTransport(host.addresses) as tcp:
                futures = tcp.submit_many(plan)
                assert len(futures) == len(plan)
                for (_sid, request), future in zip(plan, futures):
                    slot = servers["s0"].slots.info_of(request.fid)["slot"]
                    assert future.result().value == slot
                    stored = tcp.call("s0", m.RetrieveRequest(fid=request.fid))
                    assert bytes(stored.payload) == request.data

    def test_submit_many_isolates_per_op_failures(self):
        with InProcessHost(small_servers(2)) as host:
            with TcpTransport(host.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=1, data=b"ok"))
                futures = tcp.submit_many([
                    ("s0", m.RetrieveRequest(fid=1)),
                    ("s1", m.RetrieveRequest(fid=999)),   # not stored
                    ("missing", m.RetrieveRequest(fid=1)),
                ])
                assert bytes(futures[0].result().payload) == b"ok"
                with pytest.raises(errors.FragmentNotFoundError):
                    futures[1].result()
                with pytest.raises(errors.ServerUnavailableError):
                    futures[2].result()

    def test_crashed_server_raises_through_wire(self):
        servers = small_servers(2)
        with InProcessHost(servers) as host:
            with TcpTransport(host.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=1, data=b"x"))
                servers["s0"].crash()
                with pytest.raises(errors.ServerUnavailableError):
                    tcp.call("s0", m.RetrieveRequest(fid=1))
                # The other server is untouched.
                tcp.probe("s1")

    @pytest.mark.parametrize("answer", [
        lambda request_id: FRAME_HEADER.pack(MAX_FRAME + 1, request_id),
        lambda request_id: b"".join(
            frame_parts(request_id + 1, m.Response(value=1))),
    ], ids=["longer-than-max-frame", "id-never-asked"])
    def test_malformed_answer_fails_the_call(self, answer):
        # Either answer drops the connection and fails what it owed; the
        # call runs on its own thread so a hang fails here, not forever.
        listener, server = answer_once(answer)
        outcome = []

        def client():
            with TcpTransport({"s0": listener.getsockname()}) as tcp:
                try:
                    tcp.call("s0", m.RetrieveRequest(fid=1))
                except errors.ServerUnavailableError as exc:
                    outcome.append(exc)

        caller = threading.Thread(target=client, daemon=True)
        start = time.perf_counter()
        try:
            caller.start()
            caller.join(5)
            assert not caller.is_alive(), "call still blocked after 5 s"
            assert time.perf_counter() - start <= 1.0
            assert len(outcome) == 1
            server.join(5)
            assert not server.is_alive()
        finally:
            listener.close()

    @pytest.mark.parametrize("case", [
        "longer-than-max-frame", "undecodable-payload", "dispatch-raises"])
    def test_hostile_frame_drops_only_its_connection(self, case,
                                                     monkeypatch):
        # A frame the server cannot parse, decode or serve closes that
        # one connection within 1 s; the host keeps serving the others.
        # Time allowance: each case runs well under 2 s.
        real_dispatch = net.dispatch

        def dispatch(server, request):
            if isinstance(request, m.DeleteRequest):
                raise RuntimeError("handler bug")
            return real_dispatch(server, request)

        monkeypatch.setattr(net, "dispatch", dispatch)
        wire = {
            "longer-than-max-frame": FRAME_HEADER.pack(MAX_FRAME + 1, 0),
            "undecodable-payload": FRAME_HEADER.pack(1, 0) + b"\xff",
            "dispatch-raises": b"".join(
                frame_parts(0, m.DeleteRequest(fid=5))),
        }[case]
        with InProcessHost(small_servers(1)) as host:
            with TcpTransport(host.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=5, data=b"kept"))
                with socket.create_connection(host.addresses["s0"]) as rogue:
                    rogue.sendall(wire)
                    rogue.settimeout(1.0)
                    try:
                        assert rogue.recv(1) == b""  # closed, no answer
                    except ConnectionResetError:
                        pass
                response = tcp.call("s0", m.RetrieveRequest(fid=5))
                assert bytes(response.payload) == b"kept"

    def test_megabyte_answers_and_requests_cross_on_one_connection(self):
        # Whole-fragment answers come back while 1 MiB requests still go
        # out on the same connections. Writes must interleave with
        # reads: a client that wrote the plan before reading anything
        # would wait on a server waiting in drain() on it. That needs
        # more bytes each way than the socket buffers hold: two of each
        # fit in Linux's loopback buffers, sixteen do not.
        big = 1 << 20
        servers = {"s0": StorageServer(ServerConfig(
            "s0", fragment_size=big, total_slots=24))}
        data = b"\x02" * big
        plan = [("s0", m.RetrieveRequest(fid=1))] * 16 + [
            ("s0", m.StoreRequest(fid=10 + i, data=data)) for i in range(16)]
        with InProcessHost(servers) as host:
            with TcpTransport(host.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=1, data=b"\x01" * big))
                futures = []
                exchange = threading.Thread(
                    target=lambda: futures.extend(tcp.submit_many(plan)),
                    daemon=True)
                exchange.start()
                exchange.join(5)
                assert not exchange.is_alive(), "plan still blocked after 5 s"
                assert [future.ok for future in futures] == [True] * 32
                assert bytes(futures[15].value.payload) == b"\x01" * big

    @pytest.mark.usefixtures("two_second_allowance")
    def test_small_call_waits_in_one_poll(self, monkeypatch):
        # A call whose frame fits in the socket buffer is written before
        # the exchange first waits, so it waits once: for the answer.
        # The host starts first, so only the calling thread's exchange
        # builds the counting poll object.
        real_poll = select.poll
        caller = threading.current_thread()
        waits = []

        class CountingPoll:
            def __init__(self):
                self._poll = real_poll()

            def __getattr__(self, name):
                return getattr(self._poll, name)

            def poll(self, *timeout):
                if threading.current_thread() is caller:
                    waits.append(timeout)
                return self._poll.poll(*timeout)

        with InProcessHost(small_servers(1)) as host:
            with TcpTransport(host.addresses) as tcp:
                for _ in range(tcp.pool_size):  # dial the whole pool
                    tcp.call("s0", m.HoldsRequest(fids=()))
                with monkeypatch.context() as patch:
                    patch.setattr(select, "poll", CountingPoll)
                    response = tcp.call("s0", m.HoldsRequest(fids=()))
        assert response.value == 0
        assert len(waits) == 1

    def test_transport_starts_no_thread(self):
        with InProcessHost(small_servers(2)) as host:
            threads_before = threading.active_count()
            with TcpTransport(host.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=1, data=b"x"))
                tcp.submit_many([("s0", m.RetrieveRequest(fid=1)),
                                 ("s1", m.HoldsRequest(fids=()))])
                assert threading.active_count() == threads_before

    def test_multiplexed_plan_overlaps_serial_calls(self):
        # The real-wire pipelining claim, measured: the same whole-
        # fragment retrieves as one submit_many plan against serial
        # blocking calls, min-of-repeats on both sides. Generous bound —
        # the bench tracks the real ratio (~0.5).
        servers = small_servers(4)
        with InProcessHost(servers) as host:
            with TcpTransport(host.addresses) as tcp:
                plan = []
                for i in range(16):
                    server_id = "s%d" % (i % 4)
                    tcp.call(server_id, m.StoreRequest(
                        fid=2000 + i, data=b"\x5b" * 4096))
                    plan.append((server_id, m.RetrieveRequest(fid=2000 + i)))
                serial_s = batched_s = float("inf")
                for _ in range(5):
                    start = time.perf_counter()
                    for server_id, request in plan:
                        tcp.call(server_id, request)
                    serial_s = min(serial_s, time.perf_counter() - start)
                    start = time.perf_counter()
                    for future in tcp.submit_many(plan):
                        future.result()
                    batched_s = min(batched_s, time.perf_counter() - start)
                assert batched_s < serial_s


@pytest.mark.net
class TestTcpLogLayer:
    def test_log_workload_over_real_sockets(self):
        cluster = build_local_cluster(num_servers=4, fragment_size=FRAG,
                                      server_slots=512)
        host, tcp = cluster.serve_tcp()
        try:
            log = cluster.make_log(client_id=1, transport=tcp)
            payloads = {}
            for block in range(60):
                data = bytes([block % 251]) * (900 + block)
                payloads[block] = (log.write_block(SVC, data), data)
            log.flush().wait()
            for addr, data in payloads.values():
                assert log.read(addr) == data
            # A fresh client over a fresh TCP connection sees the same
            # bytes: durability crossed the wire, not a client cache.
            with TcpTransport(host.addresses) as tcp2:
                fresh = cluster.make_log(client_id=1, transport=tcp2)
                for addr, data in payloads.values():
                    assert fresh.read(addr) == data
        finally:
            tcp.close()
            host.close()

    def test_windowed_reader_over_real_sockets(self):
        cluster = build_local_cluster(num_servers=4, fragment_size=FRAG,
                                      server_slots=512)
        host, tcp = cluster.serve_tcp()
        try:
            log = cluster.make_log(client_id=1, transport=tcp)
            for _ in range(40):
                log.write_block(SVC, b"\x17" * 1024)
            log.flush().wait()
            reader = LogReader(Reconstructor(
                tcp, log.config.principal, locations=log.locations),
                max_inflight=4)
            fragments = sum(1 for _ in reader.fragments_from(make_fid(1, 1)))
            assert fragments > 0
        finally:
            tcp.close()
            host.close()

    def test_opcounts_identical_to_local_wire(self):
        # The wire is a transport, not a protocol: the same scan, and
        # the same fresh client's recovery (census headers, checkpoint
        # discovery and scan), bill the same retrieve RPCs and payload
        # bytes on either plane.
        def scan_and_recovery_bills(use_tcp):
            cluster = build_local_cluster(num_servers=4, fragment_size=FRAG,
                                          server_slots=512)
            host = tcp = None
            if use_tcp:
                host, tcp = cluster.serve_tcp()
            transport = tcp if tcp is not None else cluster.transport

            def bill_of(work):
                before = [(server.retrieve_ops, server.bytes_retrieved)
                          for _, server in sorted(cluster.servers.items())]
                work()
                after = [(server.retrieve_ops, server.bytes_retrieved)
                         for _, server in sorted(cluster.servers.items())]
                return [(a[0] - b[0], a[1] - b[1])
                        for a, b in zip(after, before)]

            try:
                log = cluster.make_log(client_id=1, transport=transport)
                for _ in range(24):
                    log.write_block(SVC, b"\x42" * 1024)
                log.checkpoint(SVC, b"state").wait()
                for _ in range(24):
                    log.write_block(SVC, b"\x43" * 1024)
                log.flush().wait()
                reader = LogReader(Reconstructor(
                    transport, log.config.principal,
                    locations=log.locations), max_inflight=4)
                scan = bill_of(
                    lambda: sum(1 for _ in reader.fragments_from(
                        make_fid(1, 1))))
                fresh = cluster.make_stack(client_id=1, transport=transport)
                fresh.push(Service(SVC))
                recovery = bill_of(fresh.recover_all)
                return scan, recovery
            finally:
                if tcp is not None:
                    tcp.close()
                    host.close()

        local = scan_and_recovery_bills(use_tcp=False)
        assert all(ops for ops, _bytes in local[1])
        assert scan_and_recovery_bills(use_tcp=True) == local

    def test_fresh_client_recovers_over_tcp_with_a_server_down(self):
        cluster = build_local_cluster(num_servers=4, fragment_size=FRAG,
                                      server_slots=512)
        host, tcp = cluster.serve_tcp()
        try:
            def client(transport):
                return build_client(
                    transport, cluster.stripe_group(),
                    LogConfig(client_id=1, fragment_size=FRAG))

            first = client(tcp)
            acked = {}
            for block in range(40):
                acked[block] = bytes([block]) * (700 + 13 * block)
                first.disk.write(block, acked[block])
                if block == 19:
                    first.stack.checkpoint_all()
            first.stack.flush().wait()
            cluster.servers["s1"].crash()
            with TcpTransport(host.addresses) as tcp2:
                fresh = client(tcp2)
                fresh.stack.recover_all()
                assert {block: fresh.disk.read(block)
                        for block in fresh.disk.block_numbers()} == acked
        finally:
            tcp.close()
            host.close()

    def test_retry_layer_rides_the_wire(self):
        # FaultyTransport + RetryingTransport stack over TcpTransport
        # exactly as over LocalTransport; the seeded fault plan drops
        # real frames and the retry layer recovers them.
        cluster = build_local_cluster(num_servers=4, fragment_size=FRAG,
                                      server_slots=512)
        host, tcp = cluster.serve_tcp()
        try:
            plan = FaultPlan(11)
            faulty = FaultyTransport(tcp, plan)
            log = cluster.make_log(client_id=1, transport=faulty,
                                   retry_policy=RetryPolicy(seed=11),
                                   verify_reads=True)
            payloads = {}
            for block in range(30):
                data = bytes([(3 * block) % 251]) * 1200
                payloads[block] = (log.write_block(SVC, data), data)
            log.flush().wait()
            for addr, data in payloads.values():
                assert log.read(addr) == data
            assert plan.history  # the plan actually injected faults
        finally:
            tcp.close()
            host.close()

    def test_retry_sleep_hook_charges_wall_time(self):
        # Over a real wire there is no deferred-time ledger to absorb
        # backoff, so the sleep hook must fire with the policy's delays.
        servers = small_servers(1)
        with InProcessHost(servers) as host:
            with TcpTransport(host.addresses) as tcp:
                slept = []
                retrying = RetryingTransport(
                    tcp, RetryPolicy(max_attempts=3, base_backoff_s=0.004,
                                     max_backoff_s=0.008, seed=3),
                    sleep=slept.append)
                servers["s0"].crash()
                with pytest.raises(errors.ServerUnavailableError):
                    retrying.call("s0", m.RetrieveRequest(fid=1))
                assert len(slept) == 2  # attempts - 1 backoffs
                assert all(delay > 0 for delay in slept)

    def test_health_monitor_sees_wire_exhaustion(self):
        servers = small_servers(2)
        with InProcessHost(servers) as host:
            with TcpTransport(host.addresses) as tcp:
                monitor = HealthMonitor(seed=5)
                retrying = RetryingTransport(
                    tcp, RetryPolicy(max_attempts=2, base_backoff_s=0.001,
                                     max_backoff_s=0.002, seed=5),
                    monitor=monitor, sleep=lambda _s: None)
                servers["s0"].crash()
                for _ in range(4):
                    with pytest.raises(errors.ServerUnavailableError):
                        retrying.call("s0", m.RetrieveRequest(fid=1))
                assert monitor.status("s0") == "dead"
                assert monitor.status("s1") == "healthy"


@pytest.mark.net
class TestChaosOverTcp:
    def test_digest_matches_local_wire(self):
        # The chaos workload's outcome is a pure function of the seed,
        # not of the plane it runs on: same faults, same recovered
        # bytes, same digest over loopback TCP as over direct calls.
        ops = generate_ops(101, n_ops=32, max_blocks=24)
        local = run_chaos(101, ops=ops, wire="local")
        tcp = run_chaos(101, ops=ops, wire="tcp")
        assert local.ok, local.problems
        assert tcp.ok, tcp.problems
        assert local.fault_history == tcp.fault_history
        assert local.state_digest == tcp.state_digest

    def test_tcp_replay_is_deterministic(self):
        ops = generate_ops(202, n_ops=28, max_blocks=24)
        first = run_chaos(202, ops=ops, wire="tcp")
        second = run_chaos(202, ops=ops, wire="tcp")
        assert first.ok and second.ok
        assert first.fault_history == second.fault_history
        assert first.state_digest == second.state_digest

    def test_wire_is_torn_down_when_a_run_raises(self):
        # An op the applier cannot unpack raises after the host's
        # listeners and loop thread and the transport's connections are
        # up; the harness must still close both, not only on the path
        # that reaches its last line.
        threads_before = threading.active_count()
        ops = generate_ops(101, n_ops=8) + [("write", 1)]
        with pytest.raises(ValueError):
            run_chaos(101, ops=ops, wire="tcp")
        assert threading.active_count() == threads_before
