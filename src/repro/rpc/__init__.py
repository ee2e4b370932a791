"""Client↔server communication.

Requests and responses are plain dataclasses
(:mod:`repro.rpc.messages`). Each one is a single row of
:data:`repro.rpc.codec.VERBS` — its wire tag, encoder, decoder, exact
size and server handler — so the binary codec and the server-side
:func:`~repro.rpc.codec.dispatch` are lookups into one table. Three
planes carry them, behind one
:class:`~repro.rpc.transport.Transport` interface:

* :class:`~repro.rpc.transport.LocalTransport` — direct in-process
  calls; used by correctness tests, examples, and anything that does not
  need timing.
* :class:`~repro.rpc.transport.SimTransport` — routes each operation
  through the discrete-event testbed (client CPU → network → server CPU
  → server disk → reply), so benchmarks measure contention the way the
  real cluster would experience it. Functional effects are the same.
* :class:`~repro.rpc.net.TcpTransport` — the same frames over real
  sockets, to in-process loopback hosts or ``repro.server.netd``
  daemons (imported from :mod:`repro.rpc.net`, which also holds the
  server half). The calling thread drives the client sockets itself:
  one exchange writes and reads every frame of a call or plan.

A plane implements ``call`` (and ``submit`` / ``submit_many`` where it
has genuinely overlapped work); the base class derives the rest.
Middleware — :class:`~repro.rpc.retry.RetryingTransport`, the chaos
engine's ``FaultyTransport`` — is a
:class:`~repro.rpc.transport.TransportWrapper` around ``inner``: it
intercepts ``call`` and ``submit_many`` and inherits everything else.
Client code fans out through :func:`~repro.rpc.completion.scatter_call`,
which keeps protocol errors in their futures and re-raises anything
else.
"""

from repro.rpc.messages import (
    CreateAclRequest,
    DeleteAclRequest,
    DeleteRequest,
    ErrorResponse,
    EvalScriptRequest,
    HoldsRequest,
    LastMarkedRequest,
    ListFidsRequest,
    ModifyAclRequest,
    MultiRetrieveRequest,
    PreallocateRequest,
    Response,
    RetrieveRequest,
    StoreRequest,
)
from repro.rpc.codec import decode_message, encode_message, wire_size
from repro.rpc.completion import (
    CompletedFuture,
    gather,
    scatter_call,
)
from repro.rpc.retry import RetryPolicy, RetryingTransport, wrap_transport
from repro.rpc.transport import (
    LocalTransport,
    SimTransport,
    Transport,
)

__all__ = [
    "CompletedFuture",
    "gather",
    "scatter_call",
    "wrap_transport",
    "CreateAclRequest",
    "DeleteAclRequest",
    "DeleteRequest",
    "ErrorResponse",
    "EvalScriptRequest",
    "HoldsRequest",
    "LastMarkedRequest",
    "ListFidsRequest",
    "ModifyAclRequest",
    "MultiRetrieveRequest",
    "PreallocateRequest",
    "Response",
    "RetrieveRequest",
    "StoreRequest",
    "decode_message",
    "encode_message",
    "wire_size",
    "LocalTransport",
    "RetryPolicy",
    "RetryingTransport",
    "SimTransport",
    "Transport",
]
