"""TCP transport: the real network plane.

The third transport, next to :class:`~repro.rpc.transport.LocalTransport`
(plain function calls) and :class:`~repro.rpc.transport.SimTransport`
(discrete-event testbed). Here every ``StorageServer`` sits behind an
``asyncio.start_server`` host and clients speak to it over genuine
sockets — in-process over loopback for tests (:class:`InProcessHost`),
or across processes/machines via ``python -m repro.server.netd``.

Wire protocol (§2.1.2 flow control over Swarm's striped verbs):

* **Framing** — each message is one frame: a 12-byte header
  ``(payload_length: u32, request_id: u64)`` followed by the payload,
  which is exactly the :mod:`repro.rpc.codec` image of one message.
  The header's length field is written from :func:`wire_size` *before*
  the message is serialized, which is why the codec property test pins
  ``wire_size`` to the real encoding.
* **Multiplexing** — many requests are in flight per connection;
  responses carry the request id they answer and may arrive in any
  order. A client connection keeps the ids it still owes an answer
  for: an answer with any other id, or longer than :data:`MAX_FRAME`,
  drops the connection and fails every answer it owed.
* **Zero copy** — frames are built by :func:`frame_parts` over
  :func:`~repro.rpc.codec.encode_message_parts` and written as a buffer
  list (``sendmsg`` on the client, ``writer.writelines`` on the
  server), so a fragment payload crosses from the caller's buffer to
  the socket without being copied into an intermediate wire image.

The client half has no thread of its own: Swarm's servers are dumb and
the client drives every fan-out (§2.1.2), so the thread that calls the
:class:`TcpTransport` does the socket work itself. One exchange queues
every frame of a call or plan on its pooled non-blocking sockets; one
selector then writes whatever each socket accepts and reads answers as
they arrive, so a large request and a large answer on one connection
never wait on each other. The server reads one frame at a time and the
client writes only what a socket accepts, so TCP's own window is the
§2.1.2 flow control. An exchange still owed answers
:data:`REQUEST_TIMEOUT_S` after it began fails them with
``ServerUnavailableError`` and drops their connections, so a server
that accepts a request and then hangs becomes a retry and, past that,
a failure-detector verdict. The server half runs on asyncio.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from selectors import EVENT_READ, EVENT_WRITE, PollSelector
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
    "read_frame",
    "serve_connection",
    "serve_server",
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
    """One wire frame as a buffer list ready for ``sendmsg`` or
    ``writer.writelines``.

    The header is filled from :func:`wire_size`, so bulk payloads stay
    as ``memoryview`` parts all the way to the socket.
    """
    parts = [FRAME_HEADER.pack(wire_size(msg), request_id)]
    parts.extend(encode_message_parts(msg))
    return parts


async def read_frame(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one ``(request_id, payload)`` frame; raises at EOF."""
    header = await reader.readexactly(FRAME_HEADER.size)
    length, request_id = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        raise errors.BadRequestError("frame length %d exceeds cap" % length)
    payload = await reader.readexactly(length)
    return request_id, payload


async def serve_connection(server, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
    """Serve one client connection against one ``StorageServer``.

    Requests on a connection are dispatched serially —
    :func:`~repro.rpc.transport.dispatch` is synchronous CPU/disk work,
    so there is nothing to overlap *within* one connection; overlap
    comes from concurrent connections and concurrent servers.
    Responses still carry the request id, so a pipelining client may
    have many frames in flight and match answers out of order.
    """
    try:
        while True:
            try:
                request_id, payload = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away; nothing to answer
            response = dispatch(server, decode_message(payload))
            writer.writelines(frame_parts(request_id, response))
            await writer.drain()
    except (ConnectionError, OSError):
        return  # mid-write disconnect: the client's retry layer handles it
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_server(server, host: str = "127.0.0.1",
                       port: int = 0) -> asyncio.AbstractServer:
    """Bind one ``StorageServer`` behind an asyncio TCP listener."""

    async def _handle(reader, writer):
        await serve_connection(server, reader, writer)

    return await asyncio.start_server(_handle, host=host, port=port)


class InProcessHost:
    """Host a set of ``StorageServer`` objects on loopback sockets.

    The event loop runs on a background daemon thread, so synchronous
    test and bench code can talk to the servers through a
    :class:`TcpTransport` over real TCP while still holding direct
    Python references to the server objects (for crash injection,
    opcount assertions, damage).
    """

    def __init__(self, servers: Dict[str, object]) -> None:
        self.servers = dict(servers)
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self._listeners: Dict[str, asyncio.AbstractServer] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "InProcessHost":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="swarm-host", daemon=True)
        self._thread.start()
        for server in list(self.servers.values()):
            self.add_server(server)
        return self

    def _run(self, coro):
        """Run ``coro`` on the host's loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def add_server(self, server) -> Tuple[str, int]:
        """Host one more server (grown cluster, spares)."""
        listener = self._run(serve_server(server))
        self.servers[server.server_id] = server
        self._listeners[server.server_id] = listener
        sockname = listener.sockets[0].getsockname()
        self.addresses[server.server_id] = (sockname[0], sockname[1])
        return self.addresses[server.server_id]

    def close(self) -> None:
        if self._loop is None:
            return

        async def _shutdown():
            for listener in self._listeners.values():
                listener.close()
                await listener.wait_closed()

        self._run(_shutdown())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        if not self._loop.is_running():
            self._loop.close()
        self._loop = None

    def __enter__(self) -> "InProcessHost":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()


class _Connection:
    """One pooled non-blocking client socket.

    ``owed`` maps every request id queued on the socket and not yet
    answered to the plan slot its answer fills.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.next_id = 0
        self.owed: Dict[int, int] = {}
        self.outbox: List = []         # frame buffers the socket has not taken
        self.inbox = bytearray()       # answer bytes short of a whole frame
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
        while outbox and sent >= len(outbox[0]):
            sent -= len(outbox.pop(0))
        if sent:
            outbox[0] = memoryview(outbox[0])[sent:]

    def read(self, answers: List[CompletedFuture]) -> None:
        """Receive what the socket holds; resolve each whole answer into
        ``answers`` at its slot."""
        chunk = self.sock.recv(1 << 18)  # asyncio's read size, 256 KiB
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        inbox = self.inbox
        inbox += chunk
        while len(inbox) >= FRAME_HEADER.size:
            length, request_id = FRAME_HEADER.unpack_from(inbox)
            if length > MAX_FRAME or request_id not in self.owed:
                raise errors.BadRequestError(
                    "malformed answer: %d bytes for request %d"
                    % (length, request_id))
            end = FRAME_HEADER.size + length
            if len(inbox) < end:
                return
            answers[self.owed.pop(request_id)] = capture(
                _response, bytes(memoryview(inbox)[FRAME_HEADER.size:end]))
            del inbox[:end]

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

    def add_server(self, server_id: str, address: Tuple[str, int]) -> None:
        """Register one more reachable server (reform spares)."""
        self.addresses[server_id] = address

    def server_ids(self) -> List[str]:
        return list(self.addresses)

    def _checkout(self, server_id: str) -> _Connection:
        """The next pooled connection to ``server_id``, round-robin; dials
        one more while the pool is short of :attr:`pool_size`."""
        pool = self._pools.setdefault(server_id, [])
        pool[:] = [conn for conn in pool if not conn.dead]
        if len(pool) < self.pool_size:
            try:
                sock = socket.create_connection(self.addresses[server_id],
                                                timeout=CONNECT_TIMEOUT_S)
            except (KeyError, OSError) as exc:  # unknown id, or no connect
                raise errors.ServerUnavailableError(
                    "cannot reach server %r: %r" % (server_id, exc)) from exc
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            pool.insert(0, _Connection(sock))
        pool.append(pool.pop(0))  # the one used now goes to the back
        return pool[-1]

    def _exchange(self, plan: Plan) -> List[CompletedFuture]:
        """Run every operation of ``plan``; completions in plan order.

        Each frame is queued on a pooled connection to its server
        without waiting for earlier answers. One selector then writes
        what each socket accepts and reads answers as they arrive, in
        any order, until none is owed or :data:`REQUEST_TIMEOUT_S` has
        passed. Per-operation failures stay inside their completions.
        """
        answers: List[CompletedFuture] = [None] * len(plan)
        with PollSelector() as selector:
            try:
                for slot, (server_id, request) in enumerate(plan):
                    try:
                        connection = self._checkout(server_id)
                    except errors.ServerUnavailableError as exc:
                        answers[slot] = CompletedFuture(exception=exc)
                        continue
                    if not connection.owed:  # first frame of this exchange
                        selector.register(connection.sock,
                                          EVENT_READ | EVENT_WRITE, connection)
                    connection.queue(slot, request)
                deadline = time.monotonic() + REQUEST_TIMEOUT_S
                while selector.get_map():
                    ready = selector.select(deadline - time.monotonic())
                    if not ready:
                        break  # past the deadline
                    for key, events in ready:
                        connection = key.data
                        try:
                            if events & EVENT_WRITE:
                                connection.write()
                            if events & EVENT_READ:
                                connection.read(answers)
                        except BlockingIOError:
                            pass
                        except (OSError, errors.BadRequestError) as exc:
                            selector.unregister(connection.sock)
                            connection.drop(answers, exc)
                            continue
                        if not connection.owed:
                            selector.unregister(connection.sock)
                        elif not connection.outbox:
                            selector.modify(connection.sock, EVENT_READ,
                                            connection)
            finally:
                # Still registered means still owed: past the deadline,
                # or the exchange was interrupted, perhaps mid-frame.
                for key in selector.get_map().values():
                    key.data.drop(answers, "no answer within %gs"
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
