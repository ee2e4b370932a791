"""``python -m repro.server.netd`` — one storage server on a TCP socket.

Runs a single :class:`~repro.server.server.StorageServer` behind the
frame protocol from :mod:`repro.rpc.net`, as a real OS process. This is
the deployable shape of the network plane: launch one ``netd`` per
server, then point a :class:`~repro.rpc.net.TcpTransport` at the
printed addresses.

On successful bind the daemon prints one machine-parsable line::

    NETD READY <server_id> <host> <port>

and flushes it, so a launcher (tests, scripts) can harvest the bound
port when started with ``--port 0``. It then serves until killed —
which is exactly how the kill -9 recovery test uses it.
"""

from __future__ import annotations

import argparse
import socket
import sys

from repro.rpc.net import serve
from repro.server.config import ServerConfig
from repro.server.server import StorageServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.netd",
        description="Serve one Swarm storage server over TCP.")
    parser.add_argument("--server-id", required=True,
                        help="server name, e.g. s0")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback)")
    parser.add_argument("--port", type=int, default=0,
                        help="bind port; 0 picks a free port and prints it")
    parser.add_argument("--fragment-size", type=int, default=1 << 20,
                        help="fragment size in bytes")
    parser.add_argument("--total-slots", type=int, default=4096,
                        help="fragment slots on this server")
    parser.add_argument("--enforce-acls", action="store_true",
                        help="enable ACL checks on every operation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    server = StorageServer(ServerConfig(
        server_id=args.server_id,
        fragment_size=args.fragment_size,
        total_slots=args.total_slots,
        enforce_acls=args.enforce_acls,
    ))
    family = socket.AF_INET6 if ":" in args.host else socket.AF_INET
    listener = socket.create_server((args.host, args.port), family=family)
    host, port = listener.getsockname()[:2]
    print("NETD READY %s %s %d" % (args.server_id, host, port), flush=True)
    try:
        serve(server, listener)  # closes the listener when it returns
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
