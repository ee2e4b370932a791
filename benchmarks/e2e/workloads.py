"""The four swarm-e2e workloads.

A workload makes its inputs once per run from the seed and then runs
any number of *identical* rounds over them: fresh cluster, the same
bytes, the same operations in the same order. A round has a set-up
(timed step by step; the steps add up to ``setup_s``) and three timed
phases — write, healthy read, degraded read — and every byte read is
compared with an in-memory oracle outside the timed windows. Because
the rounds are identical, the harness can compare any one timing with
the timing at the same position of every other round.

Only public API of ``repro`` is driven here. What the seed decides is
contents and order; sizes and popularity come from fixed quantile grids
(:func:`pareto_grid`, :func:`zipf_counts`), so byte totals and op
counts are the same for every seed and a difference between two runs is
timing, not a luckier draw.
"""

from __future__ import annotations

import random
import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster import build_local_cluster
from repro.rpc.retry import RetryPolicy
from repro.services import CacheService, CleanerService, LogicalDiskService
from repro.sting import StingFileSystem

PHASES = ("write", "read", "degraded")


class Phase:
    """The timed op windows of one phase of one round."""

    def __init__(self, tracer=None) -> None:
        self.durations: List[float] = []
        self.user_bytes = 0
        self.failed = 0
        self._tracer = tracer

    def timed(self, op: Callable, *args):
        """Run one operation inside a timed window; returns its result.

        An operation that raises counts as failed and yields ``None``;
        the first traceback of a phase goes to stderr so a broken run
        explains itself.
        """
        tracer = self._tracer
        if tracer is not None:
            tracer.window_begin()
        start = perf_counter()
        try:
            result = op(*args)
        except Exception:  # the benchmark keeps counting after a failed op
            result = None
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
        end = perf_counter()
        if tracer is not None:
            tracer.window_end(start, end)
        self.durations.append(end - start)
        return result

    def check(self, got, want) -> None:
        """Oracle comparison (outside the timed window)."""
        if got is None:
            return  # already counted by timed()
        if got != want:
            self.failed += 1
        else:
            self.user_bytes += len(want)


class Round:
    """Everything one round measured."""

    def __init__(self, tracer=None) -> None:
        # The set-up as consecutive steps that tile it without a gap
        # (cluster, TCP host, each dial, stack, each prefill op, flush).
        self.setup: List[float] = []
        self._mark = 0.0
        self.phases: Dict[str, Phase] = {name: Phase(tracer)
                                         for name in PHASES}
        # Exact counts; asserted identical across the rounds of a run.
        self.counts: Dict[str, int] = {}
        # Final-round client-crash recovery check.
        self.recovery_checked = 0
        self.recovery_failed = 0
        self.recover_all_s = 0.0

    def begin_setup(self) -> None:
        self._mark = perf_counter()

    def step(self) -> None:
        """End one set-up step; the next one starts at the same tick."""
        now = perf_counter()
        self.setup.append(now - self._mark)
        self._mark = now

    @property
    def setup_s(self) -> float:
        return sum(self.setup)

    @property
    def attempted(self) -> int:
        return (sum(len(p.durations) for p in self.phases.values())
                + self.recovery_checked)

    @property
    def failed(self) -> int:
        return (sum(p.failed for p in self.phases.values())
                + self.recovery_failed)


def pareto_grid(count: int, scale: int, cap: int) -> List[int]:
    """``count`` sizes at evenly spaced quantiles of Pareto(alpha=1).

    The same multiset for every seed (the seed only shuffles it), so a
    heavy tail cannot make one run move twice the bytes of another.
    """
    return [min(cap, int(scale / (1.0 - (i + 0.5) / count)))
            for i in range(count)]


def zipf_counts(items: int, draws: int, skew: float) -> List[int]:
    """How often each rank is drawn: expected Zipf counts, rounded by
    largest remainder so they sum to ``draws`` exactly."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(items)]
    total = sum(weights)
    exact = [draws * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(items), key=lambda r: (counts[r] - exact[r], r))
    for rank in by_remainder[:draws - sum(counts)]:
        counts[rank] += 1
    return counts


def _server_counters(cluster) -> Dict[str, int]:
    servers = list(cluster.servers.values())
    return {
        "bytes_stored": sum(s.bytes_stored for s in servers),
        "bytes_retrieved": sum(s.bytes_retrieved for s in servers),
        "rpcs": sum(s.store_ops + s.retrieve_ops + s.delete_ops
                    for s in servers),
    }


def _space_bytes(cluster) -> int:
    return sum(server.fragment_info(fid).length
               for server in cluster.servers.values()
               for fid in server.list_fids())


class Workload:
    """Base: cluster life cycle, counters, and the round skeleton."""

    name = ""
    why = ""
    tcp = False
    num_servers = 4
    fragment_size = 1 << 20
    log_overrides: Dict[str, object] = {}
    crash_groups: Sequence[Sequence[int]] = ((1,),)

    def make_inputs(self, seed: int):
        raise NotImplementedError

    # -- pieces subclasses fill in ------------------------------------------

    def build_services(self, stack):
        """Push this workload's services; returns a handle object."""
        raise NotImplementedError

    def prefill(self, svc, inputs, step: Callable[[], None]) -> None:
        """Write the set-up data, calling ``step()`` after each op."""
        raise NotImplementedError

    def write_phase(self, svc, inputs, phase: Phase) -> int:
        """Run the write phase; returns live user bytes at its end."""
        raise NotImplementedError

    def read_phase(self, svc, inputs, phase: Phase) -> None:
        raise NotImplementedError

    def degraded_phase(self, svc, inputs, phase: Phase) -> None:
        raise NotImplementedError

    def read_back_all(self, svc, inputs) -> List[bool]:
        """One boolean per oracle entry read through ``svc``."""
        raise NotImplementedError

    def layer_counts(self, svc) -> Dict[str, int]:
        """Exact counters of the cache and cleaner services; zero for a
        stack that has neither."""
        return {"cache_hits": 0, "cache_misses": 0,
                "cleaner_stripes": 0, "cleaner_moved_bytes": 0}

    # -- the round ----------------------------------------------------------

    def make_stack(self, cluster, transport):
        stack = cluster.make_stack(client_id=1, retry_policy=RetryPolicy(),
                                   transport=transport, **self.log_overrides)
        return stack, self.build_services(stack)

    def run_round(self, inputs, rnd: Round, final: bool = False) -> None:
        rnd.begin_setup()
        cluster = build_local_cluster(num_servers=self.num_servers,
                                      fragment_size=self.fragment_size)
        rnd.step()
        host = transport = None
        try:
            if self.tcp:
                host, transport = cluster.serve_tcp()
                rnd.step()
                # Dial both pooled connections to every server now, so
                # no connect() lands inside a timed window.
                for server_id in transport.server_ids():
                    for _ in range(transport.pool_size):
                        transport.probe(server_id)
                        rnd.step()
            stack, svc = self.make_stack(cluster, transport)
            rnd.step()
            self.prefill(svc, inputs, rnd.step)
            stack.flush().wait()
            rnd.step()
            self._phases(cluster, stack, svc, inputs, rnd)
            if final:
                self._recover(cluster, transport, inputs, rnd)
        finally:
            if transport is not None:
                transport.close()
            if host is not None:
                host.close()

    def _phases(self, cluster, stack, svc, inputs, rnd: Round) -> None:
        log = stack.log
        counts = rnd.counts
        at_start = _server_counters(cluster)
        live = self.write_phase(svc, inputs, rnd.phases["write"])
        after_write = _server_counters(cluster)
        counts["live_bytes"] = live
        counts["space_bytes"] = _space_bytes(cluster)
        self.read_phase(svc, inputs, rnd.phases["read"])
        after_read = _server_counters(cluster)
        healthy_retries = log.transport.retries
        for group in self.crash_groups:
            down = [cluster.servers[cluster.config.server_id(index)]
                    for index in group]
            for server in down:
                server.crash()
            self.degraded_phase(svc, inputs, rnd.phases["degraded"])
            for server in down:
                server.restart()
        at_end = _server_counters(cluster)
        counts["stored_bytes"] = (after_write["bytes_stored"]
                                  - at_start["bytes_stored"])
        counts["retrieved_bytes"] = (after_read["bytes_retrieved"]
                                     - after_write["bytes_retrieved"])
        counts["degraded_fetched_bytes"] = (at_end["bytes_retrieved"]
                                            - after_read["bytes_retrieved"])
        counts["rpcs"] = at_end["rpcs"] - at_start["rpcs"]
        counts["healthy_retries"] = healthy_retries
        counts["retries"] = log.transport.retries
        counts["retry_exhausted"] = log.transport.exhausted
        location = log.locations.stats()
        counts["location_hits"] = location["hits"]
        counts["location_misses"] = location["misses"]
        counts["location_broadcasts"] = location["broadcasts"]
        counts.update(self.layer_counts(svc))
        for name, phase in rnd.phases.items():
            counts[name + "_ops"] = len(phase.durations)
            counts[name + "_user_bytes"] = phase.user_bytes

    def _recover(self, cluster, transport, inputs, rnd: Round) -> None:
        """Client crash: a fresh client recovers from the servers alone
        and must read back exactly what the oracle holds."""
        try:
            stack, svc = self.make_stack(cluster, transport)
            start = perf_counter()
            stack.recover_all()
            rnd.recover_all_s = perf_counter() - start
            outcomes = self.read_back_all(svc, inputs)
        except Exception:  # counted, reported, and the run goes on
            traceback.print_exc(file=sys.stderr)
            outcomes = [False]
        rnd.recovery_checked = len(outcomes)
        rnd.recovery_failed = outcomes.count(False)


# ---------------------------------------------------------------------------
# Logical-disk workloads
# ---------------------------------------------------------------------------


class _DiskInputs:
    def __init__(self) -> None:
        self.prefill: Dict[int, bytes] = {}    # block number -> contents
        self.writes: List[tuple] = []          # (block number, contents)
        self.reads: List[int] = []
        self.degraded_seed = 0
        self.oracle: Dict[int, bytes] = {}


def _random_blocks(rng: random.Random, count: int, size: int) -> List[bytes]:
    pool = rng.randbytes(count * size)
    return [pool[i * size:(i + 1) * size] for i in range(count)]


class _DiskServices:
    def __init__(self, stack) -> None:
        self.disk = stack.push(LogicalDiskService(1))
        self.flush = stack.flush
        # Fragment each prefilled block landed in (block number -> fid).
        self.prefill_fid: Dict[int, int] = {}


class _DiskWorkload(Workload):
    def build_services(self, stack) -> _DiskServices:
        return _DiskServices(stack)

    def prefill(self, svc: _DiskServices, inputs, step) -> None:
        for block_no, data in inputs.prefill.items():
            svc.prefill_fid[block_no] = svc.disk.write(block_no, data).fid
            step()

    def _read_blocks(self, svc, inputs, block_nos, phase: Phase) -> None:
        read, oracle = svc.disk.read, inputs.oracle
        for block_no in block_nos:
            phase.check(phase.timed(read, block_no), oracle[block_no])

    def read_phase(self, svc: _DiskServices, inputs, phase: Phase) -> None:
        self._read_blocks(svc, inputs, inputs.reads, phase)

    def read_back_all(self, svc: _DiskServices, inputs) -> List[bool]:
        return [svc.disk.read(block_no) == data
                for block_no, data in inputs.oracle.items()]


class StreamWorkload(_DiskWorkload):
    """Large sequential writes, whole-block reads in seeded order."""

    BLOCK = 64 << 10
    BLOCKS = 1024
    PREFILL_BLOCKS = 256          # 16 MiB: a set-up of 30 ms and more
    # A 64 KiB read over LocalTransport is an 11 us copy, one pass over
    # the blocks a 12 ms phase: two passes, each its own permutation
    # (more would push 16 stream_tcp rounds past the run's time).
    READ_PASSES = 2
    DEGRADED_STRIDE = 8

    def __init__(self, name: str, tcp: bool, why: str) -> None:
        self.name, self.tcp, self.why = name, tcp, why

    def make_inputs(self, seed: int) -> _DiskInputs:
        rng = random.Random(seed)
        inputs = _DiskInputs()
        blocks = _random_blocks(rng, self.BLOCKS, self.BLOCK)
        inputs.writes = list(enumerate(blocks))
        # The prefill reuses the first blocks' bytes at block numbers
        # past the written range: no second 8 MiB of random data.
        inputs.prefill = {self.BLOCKS + i: blocks[i]
                          for i in range(self.PREFILL_BLOCKS)}
        inputs.reads = [block_no for _ in range(self.READ_PASSES)
                        for block_no in rng.sample(range(self.BLOCKS),
                                                   self.BLOCKS)]
        inputs.oracle = dict(inputs.prefill)
        inputs.oracle.update(inputs.writes)
        return inputs

    def write_phase(self, svc, inputs, phase: Phase) -> int:
        write = svc.disk.write

        def last_write(block_no, data):
            # The stream's closing flush belongs to the write it follows.
            write(block_no, data)
            svc.flush().wait()

        last = len(inputs.writes) - 1
        for index, (block_no, data) in enumerate(inputs.writes):
            phase.timed(last_write if index == last else write,
                        block_no, data)
            phase.user_bytes += len(data)
        return sum(len(data) for data in inputs.oracle.values())

    def degraded_phase(self, svc, inputs, phase: Phase) -> None:
        self._read_blocks(svc, inputs,
                          range(0, self.BLOCKS, self.DEGRADED_STRIDE), phase)


class SmallOpsWorkload(_DiskWorkload):
    """4 KiB synchronous overwrites and uncached random reads over TCP."""

    name = "smallops_tcp"
    tcp = True
    BLOCK = 4 << 10
    BLOCKS = 2048
    WRITES = 1000
    READS = 2000
    DEGRADED_FRAGMENTS = 8
    DEGRADED_PER_FRAGMENT = 8
    why = ("smallest messages over TCP: per-request cost (codec, dispatch, "
           "thread hand-off, per-store map commit) dominates; no cache "
           "service, so it is the cache-bypass control")

    def make_inputs(self, seed: int) -> _DiskInputs:
        rng = random.Random(seed)
        inputs = _DiskInputs()
        inputs.prefill = dict(enumerate(
            _random_blocks(rng, self.BLOCKS, self.BLOCK)))
        # Distinct targets: every seed overwrites exactly WRITES blocks.
        targets = rng.sample(range(self.BLOCKS), self.WRITES)
        inputs.writes = list(zip(
            targets, _random_blocks(rng, self.WRITES, self.BLOCK)))
        inputs.reads = rng.choices(range(self.BLOCKS), k=self.READS)
        inputs.degraded_seed = rng.getrandbits(32)
        inputs.oracle = dict(inputs.prefill)
        inputs.oracle.update(inputs.writes)
        return inputs

    def write_phase(self, svc, inputs, phase: Phase) -> int:
        def sync_write(block_no, data):
            svc.disk.write(block_no, data)
            svc.flush().wait()

        for block_no, data in inputs.writes:
            phase.timed(sync_write, block_no, data)
            phase.user_bytes += len(data)
        return self.BLOCKS * self.BLOCK

    def degraded_phase(self, svc, inputs, phase: Phase) -> None:
        # The same number of never-overwritten blocks from each of the
        # first full prefill fragments: how many of the reads need a
        # reconstruction is then fixed by the layout, not by the seed.
        overwritten = {block_no for block_no, _data in inputs.writes}
        by_fragment: Dict[int, List[int]] = {}
        for block_no, fid in svc.prefill_fid.items():
            if block_no not in overwritten:
                by_fragment.setdefault(fid, []).append(block_no)
        rng = random.Random(inputs.degraded_seed)
        picks: List[int] = []
        for fid in sorted(by_fragment)[:self.DEGRADED_FRAGMENTS]:
            picks.extend(rng.sample(by_fragment[fid],
                                    self.DEGRADED_PER_FRAGMENT))
        rng.shuffle(picks)
        self._read_blocks(svc, inputs, picks, phase)


# ---------------------------------------------------------------------------
# Sting file-system churn
# ---------------------------------------------------------------------------


class _FsInputs:
    def __init__(self) -> None:
        self.pool = b""
        self.dirs: List[str] = []
        self.prefill: List[tuple] = []     # (path, offset, size)
        self.writes: List[tuple] = []      # (path, offset, size) | (path,)
        self.reads: List[str] = []
        self.degraded: List[str] = []
        self.oracle: Dict[str, tuple] = {}  # path -> (offset, size)


class _FsServices:
    def __init__(self, stack, cache_bytes: int) -> None:
        self.cleaner = stack.push(CleanerService(1))
        self.cache = stack.push(CacheService(2, capacity_bytes=cache_bytes))
        self.fs = stack.push(StingFileSystem(3))
        self.read_hits = self.read_misses = 0     # healthy read phase only


class FsChurnWorkload(Workload):
    """Create/overwrite/unlink churn with a running cleaner, Zipf reads
    through a cache smaller than the working set, two-server loss."""

    name = "fs_churn_local"
    num_servers = 6
    fragment_size = 256 << 10
    log_overrides = {"coding": "rs", "parity_fragments": 2}
    # Each pair takes its turn being down while the same files are
    # read: every block read is on a dead server in exactly one turn,
    # so the number of reconstructions does not depend on where the
    # log happened to put the files.
    crash_groups = ((0, 3), (1, 4), (2, 5))
    PLAN_SEED = 1999
    DIRS = 16
    FILES = 300
    PASSES = 4
    UNLINKS_PER_PASS = 30
    SIZE_SCALE = 2 << 10
    SIZE_CAP = 128 << 10
    SYNC_EVERY = 80
    CLEAN_STRIPES = 8
    CACHE_BYTES = 2 << 20
    READS = 1500
    ZIPF_SKEW = 0.9
    DEGRADED_FILES = 34          # read once per crash group
    why = ("Sting over cleaner + cache on RS(4+2), wire bypassed: the only "
           "workload where write/space amplification, cleaner stalls and "
           "cache hit share move")

    def make_inputs(self, seed: int) -> _FsInputs:
        # Two generators. ``plan`` (a constant seed) fixes the schedule
        # in terms of *roles*: which role is written at what size,
        # unlinked, read, and in what order. The run's seed gives every
        # role its path (a shuffle of the file names inside each
        # directory) and every write its contents. So each seed drives
        # different names and bytes through the same log layout, and
        # the cleaner, the cache and the degraded reads do the same
        # work for every seed: what differs between two runs is time.
        plan = random.Random(self.PLAN_SEED)
        rng = random.Random(seed)
        inputs = _FsInputs()
        inputs.pool = pool = rng.randbytes(2 * self.SIZE_CAP)
        inputs.dirs = ["/d%02d" % d for d in range(self.DIRS)]
        roles = range(self.FILES)
        paths = [""] * self.FILES
        for d, directory in enumerate(inputs.dirs):
            in_dir = list(roles[d::self.DIRS])
            names = list(in_dir)
            rng.shuffle(names)
            for role, number in zip(in_dir, names):
                paths[role] = "%s/f%03d" % (directory, number)
        live_count = self.FILES - self.UNLINKS_PER_PASS

        def sizes(count: int) -> List[int]:
            grid = pareto_grid(count, self.SIZE_SCALE, self.SIZE_CAP)
            plan.shuffle(grid)
            return grid

        def write(role: int, size: int) -> tuple:
            return (paths[role], rng.randrange(len(pool) - size), size)

        inputs.prefill = [write(role, size)
                          for role, size in zip(roles, sizes(self.FILES))]
        oracle = {path: (offset, size)
                  for path, offset, size in inputs.prefill}
        gone: set = set()
        live: List[int] = []
        for _ in range(self.PASSES):
            # Only files that exist can be unlinked; the ones the last
            # pass unlinked are re-created by this pass's write_file.
            unlink = set(plan.sample([r for r in roles if r not in gone],
                                     self.UNLINKS_PER_PASS))
            live = [r for r in roles if r not in unlink]
            new_size = dict(zip(live, sizes(live_count)))
            order = list(roles)
            plan.shuffle(order)
            for role in order:
                if role in unlink:
                    inputs.writes.append((paths[role],))
                    del oracle[paths[role]]
                else:
                    op = write(role, new_size[role])
                    inputs.writes.append(op)
                    oracle[op[0]] = op[1:]
            gone = unlink
        inputs.oracle = oracle
        plan.shuffle(live)                 # popularity rank -> role
        counts = zipf_counts(live_count, self.READS, self.ZIPF_SKEW)
        inputs.reads = [paths[role] for role, count in zip(live, counts)
                        for _ in range(count)]
        plan.shuffle(inputs.reads)
        inputs.degraded = [
            paths[live[(k * live_count) // self.DEGRADED_FILES]]
            for k in range(self.DEGRADED_FILES)]
        plan.shuffle(inputs.degraded)
        return inputs

    def build_services(self, stack) -> _FsServices:
        return _FsServices(stack, self.CACHE_BYTES)

    def prefill(self, svc: _FsServices, inputs: _FsInputs, step) -> None:
        fs, pool = svc.fs, inputs.pool
        fs.format()
        step()
        for path in inputs.dirs:
            fs.mkdir(path)
            step()
        for path, offset, size in inputs.prefill:
            fs.write_file(path, pool[offset:offset + size])
            step()
        fs.sync()
        step()

    def write_phase(self, svc: _FsServices, inputs, phase: Phase) -> int:
        fs, cleaner, pool = svc.fs, svc.cleaner, inputs.pool
        clean_stripes = self.CLEAN_STRIPES

        def with_sync(op, *args):
            # The op that hits the periodic sync pays for it, cleaner
            # pass included: that stall is what write_p99_ms is for.
            op(*args)
            fs.sync()
            cleaner.clean(target_stripes=clean_stripes)

        for index, op in enumerate(inputs.writes, 1):
            if len(op) == 1:
                call = (fs.unlink, op[0])
                size = 0
            else:
                path, offset, size = op
                call = (fs.write_file, path, pool[offset:offset + size])
            if index % self.SYNC_EVERY == 0:
                phase.timed(with_sync, *call)
            else:
                phase.timed(*call)
            phase.user_bytes += size
        return sum(size for _offset, size in inputs.oracle.values())

    def _read_files(self, fs, inputs, paths, phase: Phase) -> None:
        pool, oracle = inputs.pool, inputs.oracle
        for path in paths:
            offset, size = oracle[path]
            phase.check(phase.timed(fs.read_file, path),
                        pool[offset:offset + size])

    def read_phase(self, svc: _FsServices, inputs, phase: Phase) -> None:
        hits, misses = svc.cache.hits, svc.cache.misses
        self._read_files(svc.fs, inputs, inputs.reads, phase)
        svc.read_hits = svc.cache.hits - hits
        svc.read_misses = svc.cache.misses - misses

    def degraded_phase(self, svc: _FsServices, inputs, phase: Phase) -> None:
        svc.cache.clear()
        self._read_files(svc.fs, inputs, inputs.degraded, phase)

    def layer_counts(self, svc: _FsServices) -> Dict[str, int]:
        return {
            "cache_hits": svc.read_hits,
            "cache_misses": svc.read_misses,
            "cleaner_stripes": svc.cleaner.stripes_cleaned,
            "cleaner_moved_bytes": svc.cleaner.bytes_moved,
        }

    def read_back_all(self, svc: _FsServices, inputs) -> List[bool]:
        pool = inputs.pool
        return [svc.fs.read_file(path) == pool[offset:offset + size]
                for path, (offset, size) in inputs.oracle.items()]


def all_workloads() -> List[Workload]:
    """The benchmark's workloads, in reporting order."""
    return [
        StreamWorkload(
            "stream_local", tcp=False,
            why=("write path with the wire bypassed: coding, checksums, "
                 "fragment build do the work, rpc.net/codec none; the "
                 "control for every wire optimisation")),
        StreamWorkload(
            "stream_tcp", tcp=True,
            why=("byte-identical work over loopback TCP: the honest "
                 "cross-plane ratio; bulk-frame read/parse and drain "
                 "costs show here")),
        SmallOpsWorkload(),
        FsChurnWorkload(),
    ]


def workload_named(name: str) -> Optional[Workload]:
    for workload in all_workloads():
        if workload.name == name:
            return workload
    return None
