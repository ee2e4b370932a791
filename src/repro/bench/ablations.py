"""Ablations of the design choices DESIGN.md calls out.

The paper argues for several mechanisms qualitatively; these
experiments quantify them on the simulated testbed:

* **Fragment size** — why 1 MB fragments? Sweep fragment size and watch
  per-request overheads eat small fragments' bandwidth.
* **Parity on/off** — the redundancy tax on useful bandwidth.
* **Stripe-group width** — parity amortization vs reconstruction cost.
* **Client cache + prefetch** — the paper's own prescription for its
  1.7 MB/s read rate; we implement it and measure the win.
* **Flow-control window** — the §2.1.2 pipelining: how many outstanding
  fragment stores keep disk and network busy.
* **Degraded read** — what reading through a lost server costs over a
  healthy retrieve, for single-parity XOR and double-erasure RS.
* **Repair** — a killed server's fragments rebuilt onto a spare by the
  repair daemon: simulated time, bytes fetched per byte rebuilt, and
  the RPC bill by verb.
* **Write pipeline / read window** — a stripe's stores, and a scan's
  retrieves, charged as one overlapped scatter against serial round
  trips.
* **Fleet scaling** — width-8 stripes over 16/64/256-server views
  through the view-history placement, and how well concurrent
  clients overlap on the shared testbed.

Everything here runs on the simulated clock, so every figure is
deterministic; the tier-1 suite asserts the bounds these return.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.client import SimClientDriver
from repro.cluster.cluster import SimCluster
from repro.cluster.config import ClusterConfig
from repro.health.repair import RepairDaemon
from repro.log.address import make_fid
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc.transport import TransportWrapper
from repro.workloads.microbench import run_write_bench

#: Fleet sizes :func:`ablate_fleet_scaling` sweeps.
FLEET_SIZES = (16, 64, 256)


@dataclass
class AblationPoint:
    """One measured ablation point."""

    label: str
    value: float
    mb_per_s: float


def ablate_fragment_size(sizes=(64 << 10, 256 << 10, 1 << 20, 4 << 20),
                         blocks: int = 10_000) -> List[AblationPoint]:
    """Useful bandwidth vs fragment size (1 client, 4 servers)."""
    points = []
    for size in sizes:
        config = ClusterConfig(num_servers=4, num_clients=1,
                               fragment_size=size)
        result = run_write_bench(1, 4, blocks=blocks, config=config)
        points.append(AblationPoint("fragment=%dKB" % (size >> 10),
                                    float(size), result.useful_mb_per_s))
    return points


def ablate_parity(blocks: int = 10_000) -> Dict[str, float]:
    """Useful bandwidth with and without parity (4 servers).

    "Without parity" stripes each fragment on its own single-member
    stripe group — no redundancy, no XOR, no parity fragment.
    """
    with_parity = run_write_bench(1, 4, blocks=blocks).useful_mb_per_s

    cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
    driver = SimClientDriver(cluster, 0)
    process = cluster.sim.process(driver.write_blocks(blocks, 4096))
    cluster.sim.run()
    useful, _raw = process.value
    without_parity = useful / cluster.sim.now / 1e6
    return {"with_parity_4s": with_parity,
            "no_parity_1s": without_parity}


def ablate_stripe_width(widths=(2, 3, 4, 6, 8),
                        blocks: int = 10_000) -> List[AblationPoint]:
    """Useful bandwidth vs stripe-group width (= server count here)."""
    return [AblationPoint("width=%d" % width, float(width),
                          run_write_bench(1, width, blocks=blocks).useful_mb_per_s)
            for width in widths]


def ablate_flow_control(windows=(1, 2, 4, 8),
                        blocks: int = 10_000) -> List[AblationPoint]:
    """Raw bandwidth vs outstanding-fragment window (1 client, 4 servers)."""
    points = []
    for window in windows:
        config = ClusterConfig(num_servers=4, num_clients=1,
                               max_outstanding_fragments=window)
        result = run_write_bench(1, 4, blocks=blocks, config=config)
        points.append(AblationPoint("window=%d" % window, float(window),
                                    result.raw_mb_per_s))
    return points


def ablate_disjoint_groups(blocks: int = 10_000) -> Dict[str, float]:
    """Shared vs disjoint stripe groups (§2.1.2's scalability claim).

    Four clients over four servers, two ways: everyone striping over
    all four servers (shared), or two clients per disjoint pair
    (disjoint). Disjoint groups also bound failure domains: two server
    losses are survivable as long as they hit different groups.
    """
    results: Dict[str, float] = {}
    for mode in ("shared", "disjoint"):
        config = ClusterConfig(num_servers=4, num_clients=4)
        cluster = SimCluster(config)
        processes = []
        for index in range(4):
            if mode == "shared":
                group = cluster.stripe_group()
            else:
                pair = (["s0", "s1"] if index % 2 == 0 else ["s2", "s3"])
                group = cluster.stripe_group(pair)
            driver = SimClientDriver(cluster, index, group=group)
            processes.append(cluster.sim.process(
                driver.write_blocks(blocks, 4096)))
        cluster.sim.run()
        useful = sum(process.value[0] for process in processes)
        raw = sum(process.value[1] for process in processes)
        results["%s_useful" % mode] = useful / cluster.sim.now / 1e6
        results["%s_raw" % mode] = raw / cluster.sim.now / 1e6
    return results


def ablate_server_cache(reads: int = 10,
                        fragment_bytes: int = 1 << 20) -> Dict[str, float]:
    """Repeated whole-fragment reads with/without a server memory cache.

    The paper: "the prototype servers do not cache log fragments in
    memory ... [this] would greatly improve the performance of reads
    that miss in the client cache." Measured as elapsed seconds for
    ``reads`` back-to-back 1 MB retrieves of a hot fragment.
    """
    results: Dict[str, float] = {}
    for cached in (False, True):
        cluster = SimCluster(ClusterConfig(num_servers=1, num_clients=1))
        node = cluster.server_nodes["s0"]
        object.__setattr__(node.server.config, "cache_fragments",
                           8 if cached else 0)
        node.server.store(1, b"z" * fragment_bytes)
        transport = cluster.make_transport(0)

        def workload():
            for _ in range(reads):
                yield transport.submit_many(
                    [("s0", m.RetrieveRequest(fid=1))])[0]

        cluster.sim.run_process(workload())
        results["cached" if cached else "uncached"] = cluster.sim.now
    return results


def ablate_read_prefetch(blocks: int = 1500,
                         block_size: int = 4096) -> Dict[str, float]:
    """Read bandwidth: prototype path vs whole-fragment prefetch.

    The prototype read 4 KB blocks one RPC at a time (1.7 MB/s); the
    paper says prefetch "would greatly improve" it. With fragment
    prefetch a run of sequential reads costs one 1 MB transfer.
    """
    results: Dict[str, float] = {}
    for prefetch in (False, True):
        cluster = SimCluster(ClusterConfig(num_servers=2, num_clients=1))
        driver = SimClientDriver(cluster, 0)
        addresses = []

        def writer():
            for index in range(blocks):
                addresses.append(driver.log.write_block(
                    1, b"\xcd" * block_size))
                if index % 16 == 0:
                    yield from driver._charge_cpu()
                    yield from driver._throttle()
            ticket = driver.log.flush()
            yield cluster.sim.all_of(ticket.events)

        cluster.sim.run_process(writer())
        start = cluster.sim.now
        if prefetch:
            # One whole-fragment fetch per fragment, then local parsing:
            # model with fragment-sized retrieves.
            fids = sorted({addr.fid for addr in addresses})

            def reader():
                total = 0
                for fid in fids:
                    server_id = driver.log.known_location(fid)
                    response = yield driver.log.transport.submit_many(
                        [(server_id, m.RetrieveRequest(fid=fid))])[0]
                    total += len(response.payload)
                return total

            process = cluster.sim.process(reader())
        else:
            process = cluster.sim.process(driver.read_blocks(addresses))
        cluster.sim.run()
        useful_bytes = blocks * block_size
        results["prefetch" if prefetch else "per_block"] = (
            useful_bytes / (cluster.sim.now - start) / 1e6)
    return results


def _fill_stripes(num_servers: int, fragment_size: int, stripes: int,
                  spares: int = 0, **log_overrides):
    """A fresh testbed whose one client has flushed ``stripes`` stripes.

    The client stripes over the first ``num_servers`` servers; the
    testbed has ``spares`` more, which hold nothing.

    The simulation is idle between calls, so every RPC runs as a
    simulator process to completion and the simulated cost of whatever
    the caller did since its last ``log.transport.take_deferred_time()``
    — starting with these writes — is read off that call. Returns
    ``(cluster, log, addresses)``.
    """
    cluster = SimCluster(ClusterConfig(
        num_servers=num_servers + spares, num_clients=1,
        fragment_size=fragment_size))
    log = cluster.make_log(0, group=cluster.fleet()[:num_servers],
                           **log_overrides)
    block_size = 4096
    data_members = num_servers - log.config.parity_fragments
    blocks_per_stripe = data_members * (fragment_size // (block_size + 64))
    payload = b"\x3c" * block_size
    addresses = [log.write_block(1, payload)
                 for _ in range(stripes * blocks_per_stripe)]
    log.flush().wait()
    return cluster, log, addresses


def ablate_degraded_read(num_servers: int = 4, parity: int = 1,
                         coding: str = "xor",
                         fragment_size: int = 1 << 16) -> Dict[str, float]:
    """Degraded-read cost over a healthy retrieve, ``parity`` servers down.

    Writes three width-``num_servers`` stripes, crashes ``parity``
    servers at once, and compares rebuilding one lost fragment against
    one healthy whole-fragment retrieve. The rebuilding reconstructor
    shares the writer's location cache, so the stripe table names the
    stripe and its survivors: the rebuild is one overlapped round trip
    (every survivor fetched together, no descriptor probe), and the
    ratio stays far under the serial bound of ``num_servers - 1``:
    1.257 for width-4 XOR, 1.614 for a double erasure under RS(4+2).
    """
    cluster, log, addresses = _fill_stripes(
        num_servers, fragment_size, stripes=3,
        parity_fragments=parity, coding=coding)
    transport = log.transport
    placements = sorted(log.locations.locate_many(
        sorted({address.fid for address in addresses})).items())
    victims = sorted(cluster.server_nodes)[:parity]
    healthy_fid, healthy_server = next(
        (fid, sid) for fid, sid in placements if sid not in victims)
    transport.take_deferred_time()  # drain the write-path charges
    transport.call(healthy_server, m.RetrieveRequest(
        fid=healthy_fid, principal=log.config.principal))
    single_s = transport.take_deferred_time()
    for victim in victims:
        cluster.crash_server(victim)
        log.locations.evict_server(victim)
    # The first lost fragment with a neighbour still placed: the one the
    # pinned report figures rebuild.
    target = next(fid for fid, sid in placements
                  if sid == victims[0]
                  and (log.locations.get(fid + 1) is not None
                       or log.locations.get(fid - 1) is not None))
    Reconstructor(transport, principal=log.config.principal,
                  locations=log.locations).reconstruct(target)
    reconstruct_s = transport.take_deferred_time()
    return {
        "single_retrieve_ms": round(single_s * 1e3, 4),
        "reconstruct_ms": round(reconstruct_s * 1e3, 4),
        "ratio": round(reconstruct_s / single_s, 3),
    }


class _Bill(TransportWrapper):
    """Counts the requests sent through it, by verb."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.counts: Counter = Counter()

    def call(self, server_id, request):
        self.counts[type(request).__name__] += 1
        return self.inner.call(server_id, request)

    def submit_many(self, plan):
        plan = list(plan)
        self.counts.update(type(request).__name__ for _sid, request in plan)
        return self.inner.submit_many(plan)


def ablate_repair(num_servers: int = 4, parity: int = 1, coding: str = "xor",
                  fragment_size: int = 1 << 16) -> Dict[str, object]:
    """Repair of ``parity`` killed servers onto as many spares.

    Writes three width-``num_servers`` stripes, crashes ``parity`` of
    their servers at once, and runs a :class:`RepairDaemon` sharing the
    writer's location cache until every lost fragment is rebuilt,
    verified, on a spare. Returns the simulated time (the census, the
    rebuilds, the verified stores and the repair throttle), the bytes
    retrieved from the fleet per byte rebuilt, and the RPC bill by verb.
    """
    cluster, log, _addresses = _fill_stripes(
        num_servers, fragment_size, stripes=3, spares=parity,
        parity_fragments=parity, coding=coding)
    fleet = cluster.fleet()
    for victim in fleet[:parity]:
        cluster.crash_server(victim)
    servers = [node.server for node in cluster.server_nodes.values()]
    retrieved = sum(server.bytes_retrieved for server in servers)
    log.transport.take_deferred_time()  # drain the write-path charges
    bill = log.locations.transport = _Bill(log.transport)
    daemon = RepairDaemon(bill, log.config.client_id, fleet[num_servers:],
                          principal=log.config.principal,
                          locations=log.locations)
    daemon.run()
    seconds = log.transport.take_deferred_time()
    retrieved = sum(server.bytes_retrieved for server in servers) - retrieved
    return {
        "repair_ms": round(seconds * 1e3, 4),
        "fragments": daemon.fragments_repaired,
        "fetched_per_rebuilt": round(retrieved / daemon.bytes_repaired, 3),
        "rpcs": dict(sorted(bill.counts.items())),
    }


def ablate_write_pipeline(num_servers: int = 4, fragment_size: int = 1 << 16,
                          stripes: int = 3) -> Dict[str, float]:
    """Stripe stores as one concurrent scatter vs serial round trips.

    The same workload is written twice on fresh testbeds: with
    ``pipeline_stores`` off every fragment store of a closing stripe is
    charged its own round trip; on, the stores travel as concurrent
    simulator processes and contention comes from the NIC/fabric/disk
    model. ``overlap_ratio`` below 1.0 is the pipelining win.
    """
    def flush_seconds(pipelined: bool) -> float:
        _cluster, log, _addresses = _fill_stripes(
            num_servers, fragment_size, stripes, pipeline_stores=pipelined)
        return log.transport.take_deferred_time()

    serial_s = flush_seconds(False)
    pipelined_s = flush_seconds(True)
    return {
        "serial_flush_ms": round(serial_s * 1e3, 4),
        "pipelined_flush_ms": round(pipelined_s * 1e3, 4),
        "overlap_ratio": round(pipelined_s / serial_s, 3),
    }


def ablate_read_window(num_servers: int = 4, fragment_size: int = 1 << 16,
                       stripes: int = 4, window: int = 4) -> Dict[str, float]:
    """Sequential log scan: read-ahead ``window`` vs one retrieve at a time.

    With ``max_inflight`` 1 every fragment retrieve is charged its own
    serial round trip; with the window open the in-flight retrieves run
    as concurrent simulator processes. ``overlap_ratio`` below 1.0 is
    the read overlap.
    """
    def scan(max_inflight: int):
        _cluster, log, _addresses = _fill_stripes(
            num_servers, fragment_size, stripes)
        log.transport.take_deferred_time()  # drain the write-path charges
        reader = LogReader(log.reconstructor, max_inflight=max_inflight)
        fragments = sum(1 for _ in reader.fragments_from(make_fid(1, 1)))
        seconds = log.transport.take_deferred_time()
        return fragments * fragment_size / seconds / 1e6, seconds

    serial_mb_s, serial_s = scan(1)
    windowed_mb_s, windowed_s = scan(window)
    return {
        "serial_read_mb_s": round(serial_mb_s, 4),
        "sequential_read_mb_s": round(windowed_mb_s, 4),
        "overlap_ratio": round(windowed_s / serial_s, 3),
    }


def ablate_fleet_scaling(blocks: int = 1500, clients: int = 4,
                         stripe_width: int = 8) -> Dict[str, float]:
    """Reallocation-free scale-out: same stripes, ever larger fleets.

    ``clients`` concurrent clients each stripe ``stripe_width`` wide
    over the whole fleet through their own
    :class:`~repro.placement.Placement`, at every size in
    ``FLEET_SIZES`` (the view is the fleet; only the width is capped at
    ``MAX_STRIPE_WIDTH``). Aggregate useful append MB/s should not drop
    as the fleet grows. ``client_overlap_ratio`` is the 64-server
    concurrent run's elapsed time over the same work as ``clients``
    serial single-client runs; below 1.0 the clients genuinely overlap.
    """
    def run(servers: int, nclients: int):
        cluster = SimCluster(ClusterConfig(num_servers=servers,
                                           num_clients=nclients))
        processes = [cluster.sim.process(SimClientDriver(
            cluster, index,
            group=cluster.make_placement(stripe_width=stripe_width),
        ).write_blocks(blocks, 4096)) for index in range(nclients)]
        cluster.sim.run()
        for process in processes:
            if process.exception is not None:
                raise process.exception
        useful = sum(process.value[0] for process in processes)
        return useful / cluster.sim.now / 1e6, cluster.sim.now

    concurrent = {servers: run(servers, clients) for servers in FLEET_SIZES}
    results = {"servers=%d" % servers: round(mb_s, 3)
               for servers, (mb_s, _elapsed) in concurrent.items()}
    results["client_overlap_ratio"] = round(
        concurrent[64][1] / (clients * run(64, 1)[1]), 3)
    return results
