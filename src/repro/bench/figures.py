"""Drivers for every figure and in-text number of the evaluation.

Paper reference values (ICDCS '99, §1/§3.4/§5):

* Figure 3 (raw): 1 client 6.1 → 6.4 MB/s over 1→8 servers; 2 clients
  12.9 MB/s and 4 clients 19.3 MB/s at 8 servers; one server sustains
  7.7 MB/s under multi-client load.
* Figure 4 (useful): 1 client 3.0 MB/s at 2 servers → 5.5 at 4; 4
  clients 6.7 at 2 servers → 16.0 at 8 (within 17 % of raw).
* Figure 5 (MAB): Sting 9.4 s vs ext2fs 17.9 s; CPU utilization 93 %
  vs 57 %.
* §3.4 reads: 1.7 MB/s for uncached 4 KB reads.
* §3.3 disk: 10.3 MB/s upper bound for fragment-sized writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.client import SimClientDriver
from repro.cluster.cluster import SimCluster
from repro.cluster.config import ClusterConfig
from repro.workloads.mab import MabResult, run_mab_on_ext2, run_mab_on_sting
from repro.workloads.microbench import WriteBenchResult, run_write_bench

PAPER = {
    "fig3": {1: {1: 6.1, 8: 6.4}, 2: {8: 12.9}, 4: {8: 19.3}},
    "fig4": {1: {2: 3.0, 4: 5.5}, 4: {2: 6.7, 8: 16.0}},
    "fig5": {"sting_s": 9.4, "ext2_s": 17.9,
             "sting_util": 0.93, "ext2_util": 0.57},
    "read_mb_s": 1.7,
    "server_sustained_mb_s": 7.7,
    "disk_upper_bound_mb_s": 10.3,
}

DEFAULT_SERVER_COUNTS = (1, 2, 3, 4, 6, 8)
DEFAULT_CLIENT_COUNTS = (1, 2, 4)


@dataclass
class FigureSweep:
    """One figure's measured curves: client count → list of results."""

    name: str
    curves: Dict[int, List[WriteBenchResult]] = field(default_factory=dict)

    def series(self, clients: int, raw: bool) -> List:
        """``[(servers, MB/s), ...]`` for one curve."""
        return [(r.servers, r.raw_mb_per_s if raw else r.useful_mb_per_s)
                for r in self.curves.get(clients, [])]


def run_fig3_raw_bandwidth(client_counts=DEFAULT_CLIENT_COUNTS,
                           server_counts=DEFAULT_SERVER_COUNTS,
                           blocks: int = 10_000) -> FigureSweep:
    """Figure 3: aggregate raw write bandwidth (data+metadata+parity)."""
    sweep = FigureSweep("fig3")
    for clients in client_counts:
        sweep.curves[clients] = [
            run_write_bench(clients, servers, blocks=blocks)
            for servers in server_counts]
    return sweep


def run_fig4_useful_bandwidth(fig3: FigureSweep) -> FigureSweep:
    """Figure 4: useful write throughput (application bytes only).

    Read off Figure 3's runs: each :class:`WriteBenchResult` counts both
    the useful and the raw bytes, so Figure 4 is the same runs, not a
    second sweep. The minimum configuration is two servers — one for
    data, one for parity — exactly as in the paper.
    """
    sweep = FigureSweep("fig4")
    for clients, results in fig3.curves.items():
        sweep.curves[clients] = [r for r in results if r.servers >= 2]
    return sweep


@dataclass
class Fig5Result:
    """Figure 5 plus the in-text CPU-utilization comparison."""

    sting: MabResult
    ext2: MabResult

    @property
    def speedup(self) -> float:
        """ext2 elapsed / Sting elapsed (paper: ~1.9)."""
        return self.ext2.elapsed_s / self.sting.elapsed_s


def run_fig5_mab() -> Fig5Result:
    """Figure 5: Modified Andrew Benchmark, Sting vs ext2fs."""
    return Fig5Result(sting=run_mab_on_sting(), ext2=run_mab_on_ext2())


@dataclass
class ReadBenchResult:
    """§3.4's read measurement."""

    blocks: int
    block_size: int
    elapsed_s: float
    bytes_read: int
    prefetch: bool

    @property
    def mb_per_s(self) -> float:
        """Read bandwidth in decimal MB/s."""
        return self.bytes_read / self.elapsed_s / 1e6


def run_read_bandwidth(blocks: int = 2000, block_size: int = 4096,
                       servers: int = 2) -> ReadBenchResult:
    """Uncached sequential 4 KB reads, one RPC per block (paper: 1.7 MB/s).

    The client cache is cold and there is no prefetch — the exact
    configuration whose slowness the paper attributes to the missing
    caching/prefetch services.
    """
    cluster = SimCluster(ClusterConfig(num_servers=servers, num_clients=1))
    driver = SimClientDriver(cluster, 0)
    addresses = []

    def writer():
        for index in range(blocks):
            addresses.append(driver.log.write_block(
                1, b"\xcd" * block_size, create_info=index.to_bytes(8, "big")))
            if index % 16 == 0:
                yield from driver._charge_cpu()
                yield from driver._throttle()
        ticket = driver.log.flush()
        yield cluster.sim.all_of(ticket.events)

    cluster.sim.run_process(writer())
    start = cluster.sim.now
    process = cluster.sim.process(driver.read_blocks(addresses))
    cluster.sim.run()
    if process.exception is not None:
        raise process.exception
    return ReadBenchResult(blocks=blocks, block_size=block_size,
                           elapsed_s=cluster.sim.now - start,
                           bytes_read=process.value, prefetch=False)


@dataclass
class ServerSustainedResult:
    """§3.3/§3.4: one server under multi-client offered load."""

    clients: int
    raw_mb_per_s: float
    disk_upper_bound_mb_per_s: float


def run_server_sustained(clients: int = 4,
                         blocks: int = 10_000) -> ServerSustainedResult:
    """Drive one server from several clients; report its sustained rate
    (paper: 7.7 MB/s) against the raw disk bound (paper: 10.3 MB/s)."""
    result = run_write_bench(clients, 1, blocks=blocks)
    from repro.sim.disk import DiskModel

    disk = DiskModel()
    return ServerSustainedResult(
        clients=clients, raw_mb_per_s=result.raw_mb_per_s,
        disk_upper_bound_mb_per_s=disk.sequential_bandwidth(1 << 20) / 1e6)
