#!/usr/bin/env python3
"""Quickstart: a Swarm cluster in a few lines.

Builds four storage servers, writes blocks into a striped, parity-
protected log, reads them back, checkpoints, and survives a simulated
client crash via log rollforward.

Run: ``python examples/quickstart.py``
"""

from repro.cluster import build_local_cluster
from repro.log.recovery import recover_service_state
from repro.log.records import RecordType

MY_SERVICE = 42


def main() -> None:
    # Four storage servers, fragments of 256 KB (small for the demo).
    cluster = build_local_cluster(num_servers=4, fragment_size=256 << 10)
    log = cluster.make_log(client_id=1)

    # Append blocks. Addresses are final immediately; data is striped
    # with rotated parity when fragments fill or the log is flushed.
    addresses = []
    for i in range(100):
        data = ("record %03d " % i).encode() * 40
        addresses.append(log.write_block(MY_SERVICE, data,
                                         create_info=b"item-%d" % i))

    # Checkpoint: durable, and the recovery starting point.
    log.checkpoint(MY_SERVICE, b"my-service-state-v1").wait()
    print("wrote %d blocks in %d stripes (%.0f KB raw)"
          % (len(addresses), log.stripes_written,
             log.raw_bytes_written / 1024))

    # Read anything back by address.
    roundtrip = log.read(addresses[57])
    assert roundtrip.startswith(b"record 057")
    print("read back block 57: %r..." % roundtrip[:22])

    # More writes after the checkpoint, flushed but not checkpointed...
    for i in range(100, 110):
        log.write_block(MY_SERVICE, b"late-%d" % i, create_info=b"item-%d" % i)
    log.flush().wait()

    # ...then the client "crashes". A fresh client recovers: checkpoint
    # state plus every record written after it, in order.
    recovered = recover_service_state(
        cluster.transport, client_id=1,
        services={MY_SERVICE: False}).services[MY_SERVICE]
    creates = [r for r in recovered.records if r.rtype == RecordType.CREATE]
    print("recovered checkpoint %r with %d post-checkpoint block creations"
          % (recovered.checkpoint_state, len(creates)))
    assert recovered.checkpoint_state == b"my-service-state-v1"
    assert len(creates) == 10

    # Kill a server: reads keep working via parity reconstruction.
    cluster.servers["s1"].crash()
    still_there = log.read(addresses[57])
    assert still_there == roundtrip
    print("server s1 down; block 57 reconstructed from parity: ok")


if __name__ == "__main__":
    main()
