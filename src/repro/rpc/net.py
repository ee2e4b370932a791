"""Asyncio TCP transport: the real network plane.

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
  order. ``submit_many`` therefore becomes genuinely concurrent socket
  I/O: completions resolve out of order and are consumed in plan order.
* **Flow control** — a per-connection semaphore bounds in-flight
  requests (the §2.1.2 window), so a fast client cannot bury a slow
  server in unacknowledged frames.
* **Zero copy** — frames are written with ``writer.writelines`` over
  :func:`~repro.rpc.codec.encode_message_parts`, so a fragment payload
  crosses from the caller's buffer to the socket without being copied
  into an intermediate wire image. ``writelines`` buffers the whole
  list before the coroutine can be suspended, so concurrent writers on
  one connection cannot interleave frame bytes.

The synchronous :class:`~repro.rpc.transport.Transport` API is bridged
onto a background event-loop thread with
``asyncio.run_coroutine_threadsafe`` — client code (the log layer, the
chaos engine, the retry stack) is oblivious to which plane it runs on.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from struct import Struct
from typing import Dict, List, Optional, Tuple

from repro import errors
from repro.rpc import messages as m
from repro.rpc.codec import (
    decode_message,
    encode_message_parts,
    wire_size,
)
from repro.rpc.completion import CompletedFuture
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

#: In-flight requests allowed per connection (the §2.1.2 window).
WINDOW = 32

#: Seconds a client waits for a TCP connect before calling the server
#: unreachable.
CONNECT_TIMEOUT_S = 5.0


def frame_parts(request_id: int, msg) -> List:
    """One wire frame as a buffer list ready for ``writer.writelines``.

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


class _LoopThread:
    """A daemon thread running an asyncio event loop forever."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True)
        self._thread.start()

    def run(self, coro):
        """Run ``coro`` on the loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        if not self.loop.is_running():
            self.loop.close()


class InProcessHost:
    """Host a set of ``StorageServer`` objects on loopback sockets.

    The event loop runs on a background thread, so synchronous test and
    bench code can talk to the servers through a :class:`TcpTransport`
    over real TCP while still holding direct Python references to the
    server objects (for crash injection, opcount assertions, damage).
    """

    def __init__(self, servers: Dict[str, object]) -> None:
        self.servers = dict(servers)
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self._listeners: Dict[str, asyncio.AbstractServer] = {}
        self._loop_thread: Optional[_LoopThread] = None

    def start(self) -> "InProcessHost":
        self._loop_thread = _LoopThread("swarm-host")
        for server in list(self.servers.values()):
            self.add_server(server)
        return self

    def add_server(self, server) -> Tuple[str, int]:
        """Host one more server (grown cluster, spares)."""
        listener = self._loop_thread.run(serve_server(server))
        self.servers[server.server_id] = server
        self._listeners[server.server_id] = listener
        sockname = listener.sockets[0].getsockname()
        self.addresses[server.server_id] = (sockname[0], sockname[1])
        return self.addresses[server.server_id]

    def close(self) -> None:
        if self._loop_thread is None:
            return

        async def _shutdown():
            for listener in self._listeners.values():
                listener.close()
                await listener.wait_closed()

        self._loop_thread.run(_shutdown())
        self._loop_thread.stop()
        self._loop_thread = None

    def __enter__(self) -> "InProcessHost":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()


class _Connection:
    """One multiplexed client connection with a bounded in-flight window."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.window = asyncio.Semaphore(WINDOW)
        self.pending: Dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.dead = False
        self.reader_task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self.reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                request_id, payload = await read_frame(self.reader)
                future = self.pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            self._fail_all(exc)
        except asyncio.CancelledError:
            self._fail_all(ConnectionResetError("connection closed"))
            raise

    def _fail_all(self, exc: BaseException) -> None:
        self.dead = True
        pending, self.pending = self.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    errors.ServerUnavailableError("connection lost: %s" % exc))

    async def request(self, msg) -> bytes:
        """Send one message, await its matching response payload."""
        async with self.window:
            if self.dead:
                raise errors.ServerUnavailableError("connection lost")
            request_id = self.next_id
            self.next_id += 1
            future = asyncio.get_running_loop().create_future()
            self.pending[request_id] = future
            try:
                # writelines buffers every part before this coroutine can
                # be suspended, so concurrent requests on this connection
                # cannot interleave frame bytes.
                self.writer.writelines(frame_parts(request_id, msg))
                await self.writer.drain()
            except (ConnectionError, OSError) as exc:
                self.pending.pop(request_id, None)
                self._fail_all(exc)
                raise errors.ServerUnavailableError(
                    "send failed: %s" % exc) from exc
            return await future

    async def close(self) -> None:
        if self.reader_task is not None:
            self.reader_task.cancel()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


class TcpTransport(Transport):
    """Client transport speaking the frame protocol over real sockets.

    ``addresses`` maps server ids to ``(host, port)``. Each server gets
    a small connection pool (:data:`POOL_SIZE`); requests round-robin
    over the pool and multiplex within each connection, bounded by
    :data:`WINDOW` in-flight frames per connection. The transport owns
    a background event-loop thread; all socket I/O happens there, and
    the synchronous :class:`Transport` API bridges onto it, so every
    existing wrapper — retry, fault injection, health probes — layers
    on top unchanged.
    """

    #: Read by the e2e benchmark to warm every pooled connection.
    pool_size = POOL_SIZE

    def __init__(self, addresses: Dict[str, Tuple[str, int]]) -> None:
        self.addresses = dict(addresses)
        self._pools: Dict[str, List[_Connection]] = {}
        self._rr: Dict[str, int] = {}
        self._loop_thread = _LoopThread("swarm-client")
        self._closed = False

    def add_server(self, server_id: str, address: Tuple[str, int]) -> None:
        """Register one more reachable server (reform spares)."""
        self.addresses[server_id] = address

    def server_ids(self) -> List[str]:
        return list(self.addresses)

    # -- connection management (event-loop thread only) ---------------------

    async def _connect(self, server_id: str) -> _Connection:
        address = self.addresses.get(server_id)
        if address is None:
            raise errors.ServerUnavailableError("no server %r" % server_id)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(address[0], address[1]),
                timeout=CONNECT_TIMEOUT_S)
        except (ConnectionError, OSError, asyncio.TimeoutError, socket.gaierror) as exc:
            raise errors.ServerUnavailableError(
                "cannot reach %s at %s: %s" % (server_id, address, exc)) from exc
        connection = _Connection(reader, writer)
        connection.start()
        return connection

    async def _checkout(self, server_id: str) -> _Connection:
        pool = self._pools.setdefault(server_id, [])
        pool[:] = [conn for conn in pool if not conn.dead]
        if len(pool) < self.pool_size:
            pool.append(await self._connect(server_id))
        index = self._rr.get(server_id, 0) % len(pool)
        self._rr[server_id] = index + 1
        return pool[index]

    async def _request(self, server_id: str, request) -> m.Response:
        connection = await self._checkout(server_id)
        payload = await connection.request(request)
        response = decode_message(payload)
        if isinstance(response, m.ErrorResponse):
            raise_error_response(response)
        return response

    async def _submit_one(self, server_id: str, request) -> CompletedFuture:
        try:
            return CompletedFuture(value=await self._request(server_id, request))
        except errors.SwarmError as exc:
            return CompletedFuture(exception=exc)

    # -- synchronous Transport API ------------------------------------------

    def call(self, server_id: str, request) -> m.Response:
        return self._loop_thread.run(self._request(server_id, request))

    def submit(self, server_id: str, request) -> CompletedFuture:
        return self._loop_thread.run(self._submit_one(server_id, request))

    def submit_many(self, plan: Plan) -> List[CompletedFuture]:
        """Launch the whole plan as concurrent socket I/O.

        Every operation is written to its server's connection without
        waiting for earlier answers; responses resolve out of order on
        the event loop and are returned as already-completed futures in
        plan order. Per-operation failures stay inside their futures.
        """
        plan = list(plan)
        if not plan:
            return []

        async def _gather():
            return await asyncio.gather(
                *(self._submit_one(server_id, request)
                  for server_id, request in plan))

        return list(self._loop_thread.run(_gather()))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True

        async def _shutdown():
            for pool in self._pools.values():
                for connection in pool:
                    await connection.close()

        self._loop_thread.run(_shutdown())
        self._loop_thread.stop()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
