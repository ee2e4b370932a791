"""The Modified Andrew Benchmark (Figure 5).

Five phases over an Andrew-shaped source tree (Ousterhout's 1990
variant), followed by an unmount to force data to stable storage:

1. **mkdir** — create the directory hierarchy;
2. **copy**  — copy every source file into it;
3. **scan**  — stat every entry (``ls -lR``);
4. **read**  — read (grep) every file;
5. **compile** — compile the 17 ``.c`` files and link a binary
   (CPU-dominated; identical CPU work on both systems).

The same driver runs against Sting (on a simulated Swarm cluster) and
against the ext2 baseline (on the simulated local disk). The CPU cost
of each operation is identical across systems — what differs, exactly
as in the paper, is where the bytes go: Sting batches everything into
1 MB sequential log fragments shipped over the network, ext2 scatters
synchronous metadata and data over the disk. Elapsed time and CPU
utilization come out of those models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.cluster import SimCluster
from repro.cluster.config import ClusterConfig
from repro.baselines.ext2 import Ext2Fs
from repro.services.cache import CacheService
from repro.services.cleaner import CleanerService
from repro.services.stack import ServiceStack
from repro.sting.fs import StingFileSystem
from repro.workloads.generators import SyntheticTree, make_andrew_tree


@dataclass(frozen=True)
class MabCosts:
    """Per-operation CPU costs on the 200 MHz testbed.

    Identical for both file systems (the benchmark's CPU work does not
    depend on the FS); ``ext2_kernel_overhead_per_op`` is the extra
    buffer-cache/allocation work ext2 does per operation relative to
    Sting's simple append path.
    """

    syscall_s: float = 110e-6
    copy_per_byte: float = 450e-9      # user<->kernel + FS insertion
    grep_per_byte: float = 1200e-9     # phase 4 scans every byte
    stat_s: float = 90e-6
    compile_cpu_s: float = 8.2
    compile_read_per_byte: float = 500e-9
    object_fraction: float = 0.65      # .o bytes per source byte
    binary_bytes: int = 260_000
    ext2_kernel_overhead_per_op: float = 300e-6


@dataclass
class MabResult:
    """Measured outcome of one MAB run."""

    system: str
    elapsed_s: float
    cpu_busy_s: float
    io_busy_s: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def cpu_utilization(self) -> float:
        """CPU-busy fraction of elapsed time (the paper's 93 % / 57 %)."""
        if self.elapsed_s <= 0:
            return 0.0
        return min(1.0, self.cpu_busy_s / self.elapsed_s)


class _MabDriver:
    """Shared phase logic; subclasses supply FS operations and IO time."""

    def __init__(self, costs: MabCosts, tree: SyntheticTree) -> None:
        self.costs = costs
        self.tree = tree
        self.cpu_busy = 0.0
        self.phase_seconds: Dict[str, float] = {}
        self._phase_start = 0.0

    # FS hooks --------------------------------------------------------------

    def fs_mkdir(self, path: str) -> None:
        raise NotImplementedError

    def fs_write(self, path: str, data: bytes) -> None:
        raise NotImplementedError

    def fs_read(self, path: str) -> bytes:
        raise NotImplementedError

    def fs_stat(self, path: str) -> None:
        raise NotImplementedError

    def fs_unmount(self) -> None:
        raise NotImplementedError

    def io_seconds(self) -> float:
        """Total IO time charged so far (monotonic)."""
        raise NotImplementedError

    # Phase engine ----------------------------------------------------------

    def _cpu(self, seconds: float) -> None:
        self.cpu_busy += seconds

    def _begin_phase(self) -> None:
        self._phase_start = self.cpu_busy + self.io_seconds()

    def _end_phase(self, name: str) -> None:
        self.phase_seconds[name] = (self.cpu_busy + self.io_seconds()
                                    - self._phase_start)

    def run(self) -> None:
        """Execute all five phases plus the unmount."""
        costs = self.costs

        self._begin_phase()
        for directory in self.tree.directories:
            self._cpu(costs.syscall_s)
            self.fs_mkdir(directory)
        self._end_phase("mkdir")

        self._begin_phase()
        for path, data in self.tree.files:
            self._cpu(2 * costs.syscall_s + len(data) * costs.copy_per_byte)
            self.fs_write(path, data)
        self._end_phase("copy")

        self._begin_phase()
        for directory in self.tree.directories:
            self._cpu(costs.stat_s)
            self.fs_stat(directory)
        for path, _data in self.tree.files:
            self._cpu(costs.stat_s)
            self.fs_stat(path)
        self._end_phase("scan")

        self._begin_phase()
        for path, data in self.tree.files:
            self._cpu(costs.syscall_s + len(data) * costs.grep_per_byte)
            self.fs_read(path)
        self._end_phase("read")

        self._begin_phase()
        sources = self.tree.source_files
        self._cpu(costs.compile_cpu_s)
        for path, data in sources:
            self._cpu(len(data) * costs.compile_read_per_byte)
            self.fs_read(path)
            object_path = path[:-2] + ".o"
            object_bytes = max(512, int(len(data) * costs.object_fraction))
            self._cpu(costs.syscall_s)
            self.fs_write(object_path, b"\x7fOBJ" + b"\x00" * (object_bytes - 4))
            self._cpu(object_bytes * costs.copy_per_byte)
        self._cpu(costs.syscall_s)
        self.fs_write("/src/a.out", b"\x7fELF" + b"\x00" * (costs.binary_bytes - 4))
        self._cpu(costs.binary_bytes * costs.copy_per_byte)
        self._end_phase("compile")

        self._begin_phase()
        self.fs_unmount()
        self._end_phase("unmount")


class _StingDriver(_MabDriver):
    """MAB over Sting on a one-client/one-server SimCluster, matching
    the paper's Figure 5 configuration."""

    def __init__(self, costs: MabCosts, tree: SyntheticTree,
                 cluster: SimCluster) -> None:
        super().__init__(costs, tree)
        self.cluster = cluster
        self.transport = cluster.make_transport(0)
        from repro.log.config import LogConfig
        from repro.log.layer import LogLayer

        log = LogLayer(self.transport, cluster.stripe_group(),
                       LogConfig(client_id=1,
                                 fragment_size=cluster.config.fragment_size))
        self.stack = ServiceStack(log)
        self.stack.push(CleanerService(1))
        self.cache = self.stack.push(CacheService(2, capacity_bytes=32 << 20))
        self.fs = self.stack.push(StingFileSystem(3))
        self.fs.format()

    def fs_mkdir(self, path):
        self.fs.mkdir(path)

    def fs_write(self, path, data):
        self.fs.write_file(path, data)

    def fs_read(self, path):
        return self.fs.read_file(path)

    def fs_stat(self, path):
        self.fs.stat(path)

    def fs_unmount(self):
        self.fs.unmount()

    def io_seconds(self) -> float:
        return self.transport.deferred_time


class _Ext2Driver(_MabDriver):
    """MAB over the ext2 baseline on the simulated local disk."""

    def __init__(self, costs: MabCosts, tree: SyntheticTree,
                 fs: Optional[Ext2Fs] = None) -> None:
        super().__init__(costs, tree)
        self.fs = fs or Ext2Fs()

    def _cpu(self, seconds: float) -> None:
        # ext2 pays extra kernel work per operation (allocation, buffer
        # cache management) on top of the shared benchmark CPU costs.
        super()._cpu(seconds + self.costs.ext2_kernel_overhead_per_op)

    def fs_mkdir(self, path):
        self.fs.mkdir(path)

    def fs_write(self, path, data):
        self.fs.write_file(path, data)

    def fs_read(self, path):
        return self.fs.read_file(path)

    def fs_stat(self, path):
        self.fs.stat(path)

    def fs_unmount(self):
        self.fs.unmount()

    def io_seconds(self) -> float:
        return self.fs.disk_seconds


def run_mab_on_sting(costs: MabCosts = MabCosts(),
                     tree: Optional[SyntheticTree] = None,
                     servers: int = 1, clients: int = 1) -> MabResult:
    """Run MAB on Sting (paper configuration: 1 client, 1 server).

    ``clients`` sizes the simulated testbed (extra client machines on
    the switch); the benchmark workload itself still runs on client 0.
    """
    tree = tree or make_andrew_tree()
    cluster = SimCluster(ClusterConfig(num_servers=servers,
                                       num_clients=clients))
    driver = _StingDriver(costs, tree, cluster)
    driver.run()
    io = driver.io_seconds()
    return MabResult(system="sting", elapsed_s=driver.cpu_busy + io,
                     cpu_busy_s=driver.cpu_busy, io_busy_s=io,
                     phase_seconds=driver.phase_seconds)


def run_mab_on_ext2(costs: MabCosts = MabCosts(),
                    tree: Optional[SyntheticTree] = None) -> MabResult:
    """Run MAB on the ext2fs baseline (local simulated disk)."""
    tree = tree or make_andrew_tree()
    driver = _Ext2Driver(costs, tree)
    driver.run()
    io = driver.io_seconds()
    return MabResult(system="ext2fs", elapsed_s=driver.cpu_busy + io,
                     cpu_busy_s=driver.cpu_busy, io_busy_s=io,
                     phase_seconds=driver.phase_seconds)
