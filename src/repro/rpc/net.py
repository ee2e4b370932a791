"""TCP transport: the real network plane.

The third transport, next to :class:`~repro.rpc.transport.LocalTransport`
(plain function calls) and :class:`~repro.rpc.transport.SimTransport`
(discrete-event testbed). Here every ``StorageServer`` is served by
:func:`serve` and clients speak to it over genuine sockets — in-process
over loopback for tests (:class:`InProcessHost`), or across
processes/machines via ``python -m repro.server.netd``.

Wire protocol (§2.1.2 flow control over Swarm's striped verbs):

* **Framing** — each message is one frame: a 12-byte header
  ``(payload_length: u32, request_id: u64)`` followed by the payload,
  which is exactly the :mod:`repro.rpc.codec` image of one message.
  The header's length field is written from :func:`wire_size` *before*
  the message is serialized, which is why the codec property test pins
  ``wire_size`` to the real encoding. Both ends read frames with
  :meth:`_Connection.frames`, which rejects a length over :data:`MAX_FRAME`.
* **Multiplexing** — many requests are in flight per connection;
  responses carry the request id they answer and may arrive in any
  order. A client connection keeps the ids it still owes an answer
  for: an answer with any other id, or longer than :data:`MAX_FRAME`,
  drops the connection and fails every answer it owed.
* **Zero copy** — frames are built by :func:`frame_parts` over
  :func:`~repro.rpc.codec.encode_message_parts` and written as a buffer
  list with ``sendmsg``, so a fragment payload crosses from the caller's
  buffer to the socket without being copied into a wire image.

Both ends share one I/O model: a :class:`_Connection` per non-blocking
socket, driven by one ``select.poll`` on one thread. The client has no
thread of its own: Swarm's servers are dumb and the client drives
every fan-out (§2.1.2), so the thread that calls the
:class:`TcpTransport` does the socket work itself. One exchange queues
every frame of a call or plan on its pooled sockets and writes what
each socket takes before it first waits, so a call whose frames fit in
the socket buffer waits in one poll. The same poll then writes the
rest and reads answers as they arrive, so a large request and a large
answer on one connection never wait on each other. The server reads a
connection only while its answers are all sent, and the client writes
only what a socket accepts, so TCP's own window is the §2.1.2 flow
control. An exchange still owed answers :data:`REQUEST_TIMEOUT_S`
after it began fails them with ``ServerUnavailableError`` and drops
their connections, so a server that accepts a request and then hangs
becomes a retry and, past that, a failure-detector verdict.
"""

from __future__ import annotations

import select
import socket
import threading
import time
import traceback
from select import POLLIN, POLLOUT
from struct import Struct
from typing import Dict, List, Optional, Tuple

from repro import errors
from repro.rpc import messages as m
from repro.rpc.codec import (
    decode_message,
    encode_message_parts,
    wire_size,
)
from repro.rpc.completion import CompletedFuture, capture
from repro.rpc.transport import Plan, Transport, dispatch, raise_error_response

__all__ = [
    "FRAME_HEADER",
    "InProcessHost",
    "TcpTransport",
    "frame_parts",
    "serve",
]

#: Frame header: payload length, then the request id the payload answers.
FRAME_HEADER = Struct(">IQ")

#: Hard ceiling on one frame's payload; anything larger is a corrupt or
#: hostile stream, not a legitimate fragment (fragments are <= 1 MiB
#: plus small headers by configuration).
MAX_FRAME = 1 << 28

#: Connections a client keeps open per server; requests round-robin
#: over them.
POOL_SIZE = 2

#: Seconds a client waits for a TCP connect before calling the server
#: unreachable.
CONNECT_TIMEOUT_S = 5.0

#: Seconds a client waits for every answer of one call or plan before
#: failing those still owed. Read at call time.
REQUEST_TIMEOUT_S = 30.0


def frame_parts(request_id: int, msg) -> List:
    """One wire frame as a buffer list ready for ``sendmsg``.

    The header is filled from :func:`wire_size`, so bulk payloads stay
    as ``memoryview`` parts all the way to the socket.
    """
    parts = [FRAME_HEADER.pack(wire_size(msg), request_id)]
    parts.extend(encode_message_parts(msg))
    return parts


class _Connection:
    """One framed non-blocking socket, at either end of the wire.

    On the client ``owed`` maps every request id queued on the socket
    and not yet answered to the plan slot its answer fills; the server
    leaves it empty.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.next_id = 0
        self.owed: Dict[int, int] = {}
        self.outbox: List = []         # frame buffers the socket has not taken
        self.inbox = bytearray()       # bytes short of a whole frame
        self.dead = False

    def queue(self, slot: int, msg) -> None:
        self.owed[self.next_id] = slot
        self.outbox.extend(frame_parts(self.next_id, msg))
        self.next_id += 1

    def write(self) -> None:
        """Send as much of the queued frames as the socket accepts now."""
        outbox = self.outbox
        # sendmsg takes at most IOV_MAX (1024 on Linux) buffers per call.
        sent = self.sock.sendmsg(outbox[:64])
        taken = 0  # buffers the socket took whole
        while taken < len(outbox) and sent >= len(outbox[taken]):
            sent -= len(outbox[taken])
            taken += 1
        del outbox[:taken]
        if sent:
            outbox[0] = memoryview(outbox[0])[sent:]

    def frames(self) -> List[Tuple[int, bytes]]:
        """Receive what the socket holds; the whole ``(request_id,
        payload)`` frames it completes, in arrival order.

        The one frame reader of both ends: raises ``BadRequestError``
        for a header longer than :data:`MAX_FRAME` and
        ``ConnectionResetError`` at EOF.
        """
        chunk = self.sock.recv(1 << 18)  # 256 KiB per read
        if not chunk:
            raise ConnectionResetError("peer closed the connection")
        inbox = self.inbox
        inbox += chunk
        frames = []
        while len(inbox) >= FRAME_HEADER.size:
            length, request_id = FRAME_HEADER.unpack_from(inbox)
            if length > MAX_FRAME:
                raise errors.BadRequestError(
                    "frame length %d exceeds cap" % length)
            end = FRAME_HEADER.size + length
            if len(inbox) < end:
                break
            frames.append(
                (request_id, bytes(memoryview(inbox)[FRAME_HEADER.size:end])))
            del inbox[:end]
        return frames

    def read(self, answers: List[CompletedFuture]) -> None:
        """Receive what the socket holds; resolve each whole answer into
        ``answers`` at its slot."""
        for request_id, payload in self.frames():
            if request_id not in self.owed:
                raise errors.BadRequestError(
                    "answer to request %d, never asked" % request_id)
            answers[self.owed.pop(request_id)] = capture(_response, payload)

    def drop(self, answers: List[CompletedFuture], reason) -> None:
        """Close the socket; every answer it still owed fails."""
        self.dead = True
        self.sock.close()
        for slot in self.owed.values():
            answers[slot] = CompletedFuture(exception=(
                errors.ServerUnavailableError("connection lost: %s" % reason)))
        self.owed.clear()


def _response(payload: bytes) -> m.Response:
    """The response an answer payload carries; raises the error it
    carries instead."""
    response = decode_message(payload)
    if isinstance(response, m.ErrorResponse):
        raise_error_response(response)
    return response


def serve(server, listener: socket.socket,
          stop: Optional[socket.socket] = None) -> None:
    """Serve one ``StorageServer`` on ``listener`` until ``stop`` (if
    given) turns readable; then close the listener and every connection.

    One ``select.poll`` loop on the calling thread accepts connections and
    dispatches each request frame as it arrives. A connection is read
    only while its outbox is empty, so a client that stops reading its
    answers stops having its requests read: that and TCP's own window
    are the §2.1.2 flow control. A frame that fails to parse or decode,
    or a request ``dispatch`` raises on, drops its own connection and no
    other; what ``dispatch`` raises beyond a bad peer's errors is a bug,
    so its traceback goes to stderr.
    """
    listener.setblocking(False)
    poller = select.poll()
    poller.register(listener, POLLIN)
    stop_fd = -1
    if stop is not None:
        stop_fd = stop.fileno()
        poller.register(stop_fd, POLLIN)
    connections: Dict[int, _Connection] = {}
    try:
        while True:
            for fd, _event in poller.poll():
                if fd == stop_fd:
                    return
                connection = connections.get(fd)
                if connection is None:  # the listener
                    try:
                        sock, _ = listener.accept()
                    except BlockingIOError:
                        continue
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                    connections[sock.fileno()] = _Connection(sock)
                    poller.register(sock, POLLIN)
                    continue
                try:
                    if not connection.outbox:
                        for request_id, payload in connection.frames():
                            response = dispatch(
                                server, decode_message(payload))
                            connection.outbox.extend(
                                frame_parts(request_id, response))
                    if connection.outbox:
                        connection.write()
                except BlockingIOError:
                    pass
                except Exception as exc:
                    if not isinstance(exc, (OSError, ValueError,
                                            errors.BadRequestError)):
                        traceback.print_exc()  # a bug, not a bad peer
                    poller.unregister(fd)
                    del connections[fd]
                    connection.sock.close()
                    continue
                poller.register(fd, POLLOUT if connection.outbox else POLLIN)
    finally:
        listener.close()
        for connection in connections.values():
            connection.sock.close()


class InProcessHost:
    """Host a set of ``StorageServer`` objects on loopback sockets.

    Each server is served by :func:`serve` on a daemon thread of its
    own, so synchronous test and bench code can talk to the servers
    through a :class:`TcpTransport` over real TCP while still holding
    direct Python references to the server objects (for crash
    injection, opcount assertions, damage).
    """

    def __init__(self, servers: Dict[str, object]) -> None:
        self.servers = dict(servers)
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self._threads: List[threading.Thread] = []
        # Closing one end of the pair wakes every serving loop at once.
        self._wake, self._stop = socket.socketpair()

    def start(self) -> "InProcessHost":
        for server_id, server in self.servers.items():
            listener = socket.create_server(("127.0.0.1", 0))
            self.addresses[server_id] = listener.getsockname()
            thread = threading.Thread(
                target=serve, args=(server, listener, self._stop),
                name="swarm-host-%s" % server_id, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        """Stop every serving loop and wait for its thread; idempotent."""
        self._wake.close()
        for thread in self._threads:
            thread.join(timeout=5)
        self._stop.close()

    def __enter__(self) -> "InProcessHost":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()


class TcpTransport(Transport):
    """Client transport speaking the frame protocol over real sockets.

    ``addresses`` maps server ids to ``(host, port)``. Each server gets
    a small connection pool (:data:`POOL_SIZE`); requests round-robin
    over the pool and multiplex within each connection. The transport
    starts no thread: the thread that calls it does all socket I/O, so
    every existing wrapper — retry, fault injection, health probes —
    layers on top unchanged. One thread uses a transport at a time.
    """

    #: Read by the e2e benchmark to warm every pooled connection.
    pool_size = POOL_SIZE

    def __init__(self, addresses: Dict[str, Tuple[str, int]]) -> None:
        self.addresses = dict(addresses)
        self._pools: Dict[str, List[_Connection]] = {}

    def server_ids(self) -> List[str]:
        return list(self.addresses)

    def _checkout(self, server_id: str) -> _Connection:
        """The next pooled connection to ``server_id``, round-robin; dials
        one more while the pool is short of :attr:`pool_size`."""
        pool = self._pools.setdefault(server_id, [])
        for conn in pool:
            if conn.dead:  # rebuilt only when a connection has died
                pool[:] = [live for live in pool if not live.dead]
                break
        if len(pool) < self.pool_size:
            try:
                sock = socket.create_connection(self.addresses[server_id],
                                                timeout=CONNECT_TIMEOUT_S)
            except (KeyError, OSError) as exc:  # unknown id, or no connect
                raise errors.ServerUnavailableError(
                    "cannot reach server %r: %r" % (server_id, exc)) from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            pool.insert(0, _Connection(sock))
        pool.append(pool.pop(0))  # the one used now goes to the back
        return pool[-1]

    def _exchange(self, plan: Plan) -> List[CompletedFuture]:
        """Run every operation of ``plan``; completions in plan order.

        Each frame is queued on a pooled connection to its server
        without waiting for earlier answers, and each socket is written
        once before the first wait, as if write-ready. One
        ``select.poll`` then writes the rest and reads answers as they
        arrive, in any order, until none is owed or
        :data:`REQUEST_TIMEOUT_S` has passed. Per-operation failures
        stay inside their completions.
        """
        answers: List[CompletedFuture] = [None] * len(plan)
        poller = select.poll()
        owing: Dict[int, _Connection] = {}  # by fd: still owes answers
        try:
            for slot, (server_id, request) in enumerate(plan):
                try:
                    connection = self._checkout(server_id)
                except errors.ServerUnavailableError as exc:
                    answers[slot] = CompletedFuture(exception=exc)
                    continue
                fd = connection.sock.fileno()
                owing[fd] = connection
                poller.register(fd, POLLIN)
                connection.queue(slot, request)
            deadline = time.monotonic() + REQUEST_TIMEOUT_S
            ready = [(fd, POLLOUT) for fd in owing]  # write before waiting
            while True:
                for fd, event in ready:
                    connection = owing[fd]
                    try:
                        if event & POLLOUT:
                            connection.write()
                        if event & ~POLLOUT:  # readable, or hung up
                            connection.read(answers)
                    except BlockingIOError:
                        pass
                    except (OSError, errors.BadRequestError) as exc:
                        connection.drop(answers, exc)
                    if connection.owed:
                        poller.register(fd, POLLIN | (
                            POLLOUT if connection.outbox else 0))
                    else:  # all answered, or dropped
                        poller.unregister(fd)
                        del owing[fd]
                if not owing:
                    break
                timeout_ms = (deadline - time.monotonic()) * 1000
                ready = poller.poll(max(timeout_ms, 0))
                if not ready:
                    break  # past the deadline
        finally:
            # Still owing means past the deadline, or the exchange was
            # interrupted, perhaps mid-frame.
            for connection in owing.values():
                connection.drop(answers, "no answer within %gs"
                                % REQUEST_TIMEOUT_S)
        return answers

    def call(self, server_id: str, request) -> m.Response:
        return self._exchange([(server_id, request)])[0].result()

    def submit(self, server_id: str, request) -> CompletedFuture:
        return self._exchange([(server_id, request)])[0]

    def submit_many(self, plan: Plan) -> List[CompletedFuture]:
        """Run the whole plan as concurrent socket I/O on this thread;
        completions in plan order, per-operation failures inside them."""
        return self._exchange(list(plan))

    def close(self) -> None:
        """Close every pooled connection."""
        for pool in self._pools.values():
            for connection in pool:
                connection.sock.close()
        self._pools.clear()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
