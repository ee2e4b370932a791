#!/usr/bin/env python3
"""Three clients sharing one namespace over a Swarm cluster.

The paper's closing argument: distributed file systems belong *above*
Swarm, synchronizing only the clients that actually share. Here one
client hosts the namespace manager (itself an ordinary, recoverable
Swarm service); every client writes file data to its own striped log;
readers pull blocks straight from the storage servers — across client
boundaries, and even across a server failure.

Run: ``python examples/shared_namespace.py``
"""

from repro.cluster import build_local_cluster
from repro.shared.client import SharedDataService, SharedSwarmClient
from repro.shared.lease import LeaseManager
from repro.shared.manager import NamespaceManager


def main() -> None:
    cluster = build_local_cluster(num_servers=4, fragment_size=128 << 10)
    leases = LeaseManager()

    # Client 1 hosts the namespace manager on its stack.
    stacks, clients = {}, {}
    for client_id in (1, 2, 3):
        stack = cluster.make_stack(client_id)
        stacks[client_id] = stack
        if client_id == 1:
            manager = stack.push(NamespaceManager(10))
    for client_id in (1, 2, 3):
        data = stacks[client_id].push(SharedDataService(11))
        clients[client_id] = SharedSwarmClient(client_id, stacks[client_id],
                                               data, manager, leases)

    # Collaborate.
    clients[1].mkdir("/paper")
    clients[2].write_file("/paper/draft.tex", b"\\section{Swarm}\n" * 200)
    clients[3].write_file("/paper/data.csv", b"servers,MBps\n8,16.0\n")
    print("client 1 sees:", clients[1].listdir("/paper"))

    draft = clients[1].read_file("/paper/draft.tex")
    print("client 1 read client 2's draft: %d bytes, %d remote blocks"
          % (len(draft), clients[1].remote_block_reads))

    # Concurrent editing is serialized by write leases...
    leases.acquire("/paper/draft.tex", "client-3")
    try:
        clients[2].write_file("/paper/draft.tex", b"conflict!")
    except Exception as exc:
        print("client 2 write blocked by lease:", type(exc).__name__)
    leases.release("/paper/draft.tex", "client-3")

    # ...and versions keep caches honest.
    clients[2].write_file("/paper/draft.tex", b"\\section{Swarm v2}\n" * 300)
    print("client 1 sees version", clients[1].version("/paper/draft.tex"),
          "->", clients[1].read_file("/paper/draft.tex")[:20], "...")

    # A storage server dies: shared reads still work (parity).
    cluster.servers["s2"].crash()
    assert clients[3].read_file("/paper/draft.tex").startswith(
        b"\\section{Swarm v2}")
    print("server s2 down; shared reads still served via reconstruction")

    # Writes with a dead stripe-group member are degraded but safe
    # (parity covers the missing fragment); the client then reforms its
    # stripe group around the failure and continues cleanly.
    for stack in stacks.values():
        stack.log.reform_group(("s0", "s1", "s3"))

    # The manager host crashes: rebuild the namespace from its log.
    stacks[1].checkpoint_all()
    stack_m = cluster.make_stack(1)
    manager2 = stack_m.push(NamespaceManager(10))
    stack_m.push(SharedDataService(11))
    stack_m.recover_all()
    print("manager recovered; namespace:", manager2.listdir("/paper"))


if __name__ == "__main__":
    main()
