"""The write microbenchmark behind Figures 3 and 4.

"Log layer write performance was measured using a simple microbenchmark
that wrote 10,000 4 KB blocks into the log, then flushed the log to the
storage servers." Raw bandwidth counts every byte sent to servers
(data + log metadata + parity); useful bandwidth counts only the
application's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.client import SimClientDriver
from repro.cluster.cluster import SimCluster
from repro.cluster.config import ClusterConfig

DEFAULT_BLOCKS = 10_000
DEFAULT_BLOCK_SIZE = 4096


@dataclass
class WriteBenchResult:
    """One configuration's measured write bandwidth."""

    clients: int
    servers: int
    blocks_per_client: int
    block_size: int
    elapsed_s: float
    useful_bytes: int
    raw_bytes: int

    @property
    def useful_mb_per_s(self) -> float:
        """Figure 4's metric (decimal MB/s, as the paper plots)."""
        return self.useful_bytes / self.elapsed_s / 1e6

    @property
    def raw_mb_per_s(self) -> float:
        """Figure 3's metric."""
        return self.raw_bytes / self.elapsed_s / 1e6


def run_write_bench(clients: int, servers: int,
                    blocks: int = DEFAULT_BLOCKS,
                    block_size: int = DEFAULT_BLOCK_SIZE,
                    config: Optional[ClusterConfig] = None,
                    ) -> WriteBenchResult:
    """Run the microbenchmark on a fresh simulated cluster.

    Every client writes ``blocks`` blocks concurrently (as in the
    paper's multi-client configurations) and the clock stops when the
    last flush completes.
    """
    config = config or ClusterConfig(num_servers=servers, num_clients=clients)
    cluster = SimCluster(config)
    drivers = [SimClientDriver(cluster, index) for index in range(clients)]
    processes = [cluster.sim.process(d.write_blocks(blocks, block_size),
                                     name="client-%d" % i)
                 for i, d in enumerate(drivers)]
    cluster.sim.run()
    useful = 0
    raw = 0
    for process in processes:
        if process.exception is not None:
            raise process.exception
        client_useful, client_raw = process.value
        useful += client_useful
        raw += client_raw
    return WriteBenchResult(
        clients=clients, servers=servers, blocks_per_client=blocks,
        block_size=block_size, elapsed_s=cluster.sim.now,
        useful_bytes=useful, raw_bytes=raw)

