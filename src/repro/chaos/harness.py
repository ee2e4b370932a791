"""The chaos harness: what every scenario repeats, defined once.

A scenario in :mod:`repro.chaos.runner` is a plain script of phases over
one :class:`Harness`, which owns the cluster and wire (and their
teardown), the seeded fault plan, the client stacks, the oracle-checked
op applier, flush / checkpoint accounting, fsck → repair → fsck,
recovery diffed against the oracle, and the report. The crash sweep
(:mod:`repro.chaos.sweep`) injects no wire faults and rebuilds its
cluster per kill, so it uses :func:`build_client`, :func:`fsck_repair`
and :func:`read_all` without a harness. :func:`replay` runs any of them
twice and compares the reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import FaultEvent, FaultPlan, FaultSpec
from repro.chaos.transport import FaultyTransport
from repro.cluster.cluster import build_local_cluster
from repro.cluster.failures import FailureInjector
from repro.errors import SwarmError
from repro.health import HealthMonitor, RepairDaemon
from repro.log.config import LogConfig
from repro.log.layer import LogLayer
from repro.rpc.retry import RetryPolicy
from repro.services.cleaner import CleanerService
from repro.services.logical_disk import LogicalDiskService
from repro.services.stack import ServiceStack
from repro.tools.fsck import check_client_log, repair_client_log

SERVICE_CLEANER = 9
SERVICE_DISK = 17
CLIENT_ID = 1
FRAGMENT_SIZE = 1 << 12

Op = Tuple[str, int, int, int]  # (kind, block_no, payload_seed, size)


def generate_ops(seed: int, n_ops: int = 48, max_blocks: int = 24,
                 max_size: int = 2048) -> List[Op]:
    """A seeded logical-disk op sequence (writes, overwrites, trims,
    reads). Same seed, same sequence."""
    rng = random.Random(seed ^ 0x5EED)
    ops: List[Op] = []
    for _ in range(n_ops):
        roll = rng.random()
        block_no = rng.randrange(max_blocks)
        if roll < 0.65:
            ops.append(("write", block_no, rng.randrange(1 << 30),
                        rng.randrange(16, max_size)))
        elif roll < 0.80:
            ops.append(("trim", block_no, 0, 0))
        else:
            ops.append(("read", block_no, 0, 0))
    return ops


def payload_of(payload_seed: int, size: int) -> bytes:
    """The bytes a write op carries: a function of its seed alone."""
    return random.Random(payload_seed).randbytes(size)


def oracle_state(ops: Sequence[Op]) -> Dict[int, bytes]:
    """Final logical-disk state of a fault-free run: the oracle."""
    state: Dict[int, bytes] = {}
    for kind, block_no, payload_seed, size in ops:
        if kind == "write":
            state[block_no] = payload_of(payload_seed, size)
        elif kind == "trim":
            state.pop(block_no, None)
    return state


def state_digest(state: Dict[int, bytes]) -> str:
    """sha256 over one logical-disk state, in block order."""
    acc = hashlib.sha256()
    for block_no in sorted(state):
        acc.update(b"%d:%d:" % (block_no, len(state[block_no])))
        acc.update(state[block_no])
    return acc.hexdigest()


def _digest_many(states: Sequence[Dict[int, bytes]]) -> str:
    """Combined digest across clients.

    A single client keeps the historical single-state digest, so every
    pinned seed digest and replay baseline stays byte-identical.
    """
    if len(states) == 1:
        return state_digest(states[0])
    acc = hashlib.sha256()
    for index, state in enumerate(states):
        acc.update(b"client%d:" % index)
        acc.update(state_digest(state).encode("ascii"))
    return acc.hexdigest()


@dataclass
class Client:
    """One client's full stack inside a (possibly multi-client) run.

    All clients share the same :class:`FaultyTransport` — one seeded
    fault schedule drives the whole fleet's wire — but each owns its
    log, services, oracle model, and (in the kill scenario) its own
    failure detector (``log.monitor``) and repair daemon, exactly like
    independent Swarm clients sharing a cluster.
    """

    client_id: int
    log: LogLayer
    stack: ServiceStack
    disk: LogicalDiskService
    cleaner: Optional[CleanerService] = None
    model: Dict[int, bytes] = field(default_factory=dict)
    daemon: Optional[RepairDaemon] = None


def build_client(transport, group, config: LogConfig, *,
                 cleaner_threshold: Optional[float] = None,
                 **log_kwargs) -> Client:
    """The one client-stack builder (log → service stack → optional
    cleaner → logical disk) for chaos clients, fresh recovering clients
    and the crash-sweep episode alike. ``log_kwargs`` (retry policy,
    verified reads, health monitor, crash injector) go to
    :class:`LogLayer` as is.
    """
    log = LogLayer(transport, group, config, **log_kwargs)
    stack = ServiceStack(log)
    cleaner = None
    if cleaner_threshold is not None:
        cleaner = stack.push(CleanerService(
            SERVICE_CLEANER, utilization_threshold=cleaner_threshold))
    disk = stack.push(LogicalDiskService(SERVICE_DISK))
    return Client(client_id=config.client_id, log=log, stack=stack,
                  disk=disk, cleaner=cleaner)


def read_all(disk: LogicalDiskService) -> Dict[int, bytes]:
    """Every block a logical disk holds, read back through its stack."""
    return {block_no: disk.read(block_no)
            for block_no in disk.block_numbers()}


def fsck_repair(transport, client_id: int, target_server: str,
                ) -> Tuple[List[str], int]:
    """fsck → repair → fsck for one client's log; returns ``(problems,
    fragments restored)``. A log that is not healthy is repaired onto
    ``target_server`` and checked again; a *lost* stripe before the
    repair and anything short of full health after it are problems.
    """
    problems: List[str] = []
    restored = 0
    fsck = check_client_log(transport, client_id)
    if not fsck.healthy:
        if not fsck.repairable:
            problems.append("data loss before repair: %s" % fsck.summary())
        restored = repair_client_log(transport, client_id,
                                     target_server=target_server)
        fsck = check_client_log(transport, client_id)
    if not fsck.healthy:
        problems.append("fsck unhealthy after repair: %s" % fsck.summary())
    return problems, restored


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    seed: int
    problems: List[str] = field(default_factory=list)
    fault_history: Tuple[FaultEvent, ...] = ()
    state_digest: str = ""
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.problems

    def summary(self) -> str:
        """One-line human summary (always names the seed)."""
        status = "OK" if self.ok else "FAILED (%d problems)" % len(self.problems)
        return ("chaos seed=%d: %s — %d faults, %d retries, "
                "%d ambiguous stores resolved, digest %s"
                % (self.seed, status, len(self.fault_history),
                   int(self.stats.get("retries", 0)),
                   int(self.stats.get("ambiguous_resolutions", 0)),
                   self.state_digest[:12]))


class Harness(contextlib.AbstractContextManager):
    """Cluster, wire, fault plan, clients, oracle and report of one run.

    Use as a context manager: leaving the block closes the TCP wire
    (transport, then host) however the block was left. A
    :class:`SwarmError` that escapes the block is *reported, not
    raised* — it becomes a ``problems`` entry on a report that is still
    completed, so the seed line prints and the run exits non-zero.
    Everything else (``ValueError``, a simulated ``ClientCrash``,
    programming errors, a bad configuration that fails before any
    client exists) propagates.
    """

    def __init__(self, seed: int, ops: Sequence[Op], *, num_servers: int,
                 num_clients: int = 1, fragment_size: int = FRAGMENT_SIZE,
                 wire: str = "local") -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if wire not in ("local", "tcp"):
            raise ValueError("wire must be 'local' or 'tcp'")
        self.seed = seed
        self.ops = list(ops)
        self.num_clients = num_clients
        self.report = ChaosReport(seed=seed)
        self.cluster = build_local_cluster(num_servers=num_servers,
                                           num_clients=num_clients,
                                           fragment_size=fragment_size)
        self.injector = FailureInjector(self.cluster)
        self.wire = self.cluster.transport
        self._teardown = contextlib.ExitStack()
        if wire == "tcp":
            # Same in-process servers, but the chaos clients' every RPC
            # now crosses a real socket; durable damage, fsck, and
            # fresh-client recovery keep direct access (they model
            # out-of-band repair). Callbacks run last-in first-out.
            host, self.wire = self.cluster.serve_tcp()
            self._teardown.callback(host.close)
            self._teardown.callback(self.wire.close)
        self.clients: List[Client] = []
        self.flush_failures = self.reads_checked = 0

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self._teardown.close()
        if not (isinstance(exc, SwarmError) and self.clients):
            return False
        self.report.problems.append("scenario aborted by %s: %s"
                                    % (exc_type.__name__, exc))
        self.finish()
        return True

    def start_clients(self, spec: Optional[FaultSpec],
                      log_overrides: Optional[Dict[str, object]], *,
                      make_group: Optional[Callable[[], object]] = None,
                      cleaner_threshold: Optional[float] = None,
                      monitored: bool = False) -> List[Client]:
        """Seed the fault plan, wrap the wire in it and build every
        client; :meth:`apply_op` deals them the op stream round-robin.

        ``log_overrides`` are extra :class:`LogConfig` fields for every
        client, the fresh recovering ones included; ``make_group``
        returns one client's stripe group or placement (default: all
        servers); ``monitored`` gives each its own failure detector.
        """
        self.plan = FaultPlan(self.seed, spec)
        self.faulty = FaultyTransport(self.wire, self.plan)
        self.log_overrides = dict(log_overrides or {})
        self.make_group = make_group or self.cluster.stripe_group
        self.cleaner_threshold = cleaner_threshold
        for index in range(self.num_clients):
            self.clients.append(self._client(
                self.faulty, self.make_group(), CLIENT_ID + index,
                retry_policy=RetryPolicy(seed=self.seed + index),
                verify_reads=True,
                health_monitor=(HealthMonitor(seed=self.seed + index)
                                if monitored else None)))
        return self.clients

    def _client(self, transport, group, client_id: int,
                **log_kwargs) -> Client:
        config = LogConfig(client_id=client_id,
                           fragment_size=self.cluster.config.fragment_size,
                           **self.log_overrides)
        return build_client(transport, group, config,
                            cleaner_threshold=self.cleaner_threshold,
                            **log_kwargs)

    def problem(self, client: Client, message: str) -> None:
        """Record a violated invariant, naming the client if several."""
        tag = ("" if self.num_clients == 1
               else "client %d: " % (client.client_id - CLIENT_ID))
        self.report.problems.append(tag + message)

    def apply_op(self, position: int) -> None:
        """Apply ``ops[position]`` to the client it was dealt to, keep
        that client's oracle model in step, and check reads against it."""
        client = self.clients[position % self.num_clients]
        kind, block_no, payload_seed, size = self.ops[position]
        if kind == "write":
            data = payload_of(payload_seed, size)
            client.disk.write(block_no, data)
            client.model[block_no] = data
        elif kind == "trim":
            client.disk.trim(block_no)
            client.model.pop(block_no, None)
        else:
            self.reads_checked += 1
            if client.disk.exists(block_no) != (block_no in client.model):
                self.problem(client, "block %d existence diverged mid-run"
                             % block_no)
            elif (block_no in client.model
                    and client.disk.read(block_no) != client.model[block_no]):
                self.problem(client, "read of block %d diverged mid-run"
                             % block_no)

    def _settle(self, ticket) -> None:
        # Under injected faults a flush may lose stores; a stripe short
        # of one member is recoverable through parity: count, don't raise.
        ticket.wait(allow_degraded=True)
        self.flush_failures += len(ticket.failures())

    def flush(self) -> None:
        """Flush every client, accepting degraded stripes."""
        for client in self.clients:
            self._settle(client.stack.flush())

    def checkpoint(self) -> None:
        """Flush every client, then checkpoint every service of every
        client. *All* clients flush before *any* checkpoints: the shared
        fault plan draws its decisions in RPC order, so the order is
        part of what a seed replays."""
        self.flush()
        for client in self.clients:
            for service in client.stack.layers:
                self._settle(client.stack.checkpoint(service))

    def verify_models(self, when: str) -> int:
        """Read every client's live blocks back against its model;
        returns the number of blocks read."""
        reads = 0
        for client in self.clients:
            for block_no in sorted(client.model):
                reads += 1
                if client.disk.read(block_no) != client.model[block_no]:
                    self.problem(client, "read of block %d diverged %s"
                                 % (block_no, when))
        return reads

    def fsck_repair(self, target_server: str) -> int:
        """fsck → repair → fsck every client's log; returns the
        number of fragments restored."""
        restored = 0
        for client in self.clients:
            problems, count = fsck_repair(self.cluster.transport,
                                          client.client_id, target_server)
            for message in problems:
                self.problem(client, message)
            restored += count
        return restored

    def recover(self) -> List[Client]:
        """Fresh clients (a simulated client crash — all in-memory
        state lost) recover from the log alone over the direct wire and
        must reproduce each oracle exactly. Returns them in client
        order; what they read back becomes the report digest. Each
        successor starts from a new ``make_group()`` — the configured
        group — and rolls any view history forward from the log.
        """
        fresh_clients, states = [], []
        for index, client in enumerate(self.clients):
            fresh = self._client(
                self.cluster.transport, self.make_group(), client.client_id)
            fresh.stack.recover_all()
            fresh_clients.append(fresh)
            recovered = read_all(fresh.disk)
            states.append(recovered)
            expected = oracle_state(self.ops[index::self.num_clients])
            diverged = sorted(
                block_no for block_no in set(recovered) | set(expected)
                if recovered.get(block_no) != expected.get(block_no))
            if diverged:
                self.problem(client, "recovered blocks %r differ from the "
                                     "oracle" % diverged)
        self.report.state_digest = _digest_many(states)
        return fresh_clients

    def finish(self, **scenario_stats) -> None:
        """Complete the report: fault history, the wire statistics
        every scenario reports, and the scenario's own counters on top."""
        report = self.report
        report.fault_history = tuple(self.plan.history)
        report.stats = {"ops": len(self.ops),
                        "reads_checked": self.reads_checked,
                        "faults_applied": self.faulty.faults_applied,
                        "flush_failures": self.flush_failures}
        for counter in ("retries", "backoff_charged_s", "exhausted",
                        "ambiguous_resolutions"):
            report.stats[counter] = sum(
                getattr(client.log.transport, counter)
                for client in self.clients)
        report.stats.update(scenario_stats)


def replay(scenario, seed: int, **kwargs):
    """Run ``scenario(seed, **kwargs)`` twice; returns ``(first,
    second, identical)``. Identical means every report field but the
    informational ``stats`` is equal — fault schedule event by event
    (or crash census and per-kill tuples), recovered-state digest,
    problems: what makes any failure reproducible from its seed.
    """
    first = scenario(seed, **kwargs)
    second = scenario(seed, **kwargs)
    identical = (dataclasses.replace(first, stats={})
                 == dataclasses.replace(second, stats={}))
    return first, second, identical
