#!/usr/bin/env python3
"""Server failure, reconstruction, and cluster repair.

Demonstrates §2.4.3 end to end:

1. a client stripes data over four servers with rotated parity;
2. a server suffers total media loss (not just a crash);
3. reads keep working — the client's stripe table, learned from the
   headers of the stripes it wrote, names the survivors, and the client
   XORs them;
4. a ``RepairDaemon`` repairs the cluster by re-materializing every lost
   fragment onto a replacement server, after which a *second* failure
   elsewhere is still survivable.

Run: ``python examples/failure_recovery.py``
"""

from repro.cluster import build_local_cluster, FailureInjector
from repro.health import RepairDaemon
from repro.server import ServerConfig, StorageServer

SVC = 9


def main() -> None:
    cluster = build_local_cluster(num_servers=4, fragment_size=128 << 10)
    log = cluster.make_log(client_id=3)

    payloads = {i: bytes([i % 251]) * (3000 + 17 * i) for i in range(120)}
    addresses = {i: log.write_block(SVC, data, create_info=b"%d" % i)
                 for i, data in payloads.items()}
    log.checkpoint(SVC, b"cp").wait()

    victim = "s1"
    lost_fids = sorted(cluster.servers[victim].list_fids())
    print("server %s holds %d fragments" % (victim, len(lost_fids)))

    injector = FailureInjector(cluster)
    injector.wipe_server(victim)  # crash + discard the disk contents
    print("wiped %s (media loss); alive: %s" % (victim,
                                                injector.alive_servers()))

    # Reads still work: every block on the dead server is reconstructed.
    for i, data in payloads.items():
        assert log.read(addresses[i]) == data
    print("all 120 blocks readable through parity reconstruction")

    # Repair: bring up a replacement and re-materialize the lost
    # fragments onto it from the surviving stripes.
    replacement = StorageServer(ServerConfig("s1b",
                                             fragment_size=128 << 10))
    cluster.transport.add_server(replacement)
    daemon = RepairDaemon(cluster.transport, client_id=3, replacement="s1b",
                          locations=log.locations)
    repaired = daemon.run()
    assert repaired == len(lost_fids)
    assert sorted(replacement.list_fids()) == lost_fids
    print("re-materialized %d fragments onto s1b (%d by XOR)"
          % (repaired, daemon.reconstructor.reconstructions))

    # The cluster is whole again: lose a *different* server and survive.
    injector.crash_server("s3")
    sample = [0, 17, 55, 119]
    for i in sample:
        assert log.read(addresses[i]) == payloads[i]
    print("second failure (s3) survived; sample blocks %s verified" % sample)


if __name__ == "__main__":
    main()
