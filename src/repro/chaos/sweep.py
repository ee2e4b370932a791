"""Crash-point sweep: kill the client at every instrumented write-path
step, recover a fresh one, and hold it to a durability oracle.

Unlike the scenarios in :mod:`repro.chaos.runner` the sweep injects no
wire faults and needs a pristine cluster per kill, so it runs outside a
:class:`~repro.chaos.harness.Harness` and shares only the module's
client-stack builder, ``fsck_repair`` and ``read_all``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.crashpoints import CRASH_POINTS, ClientCrash, CrashInjector
from repro.chaos.harness import (
    CLIENT_ID, FRAGMENT_SIZE, SERVICE_DISK, Client, Op, build_client,
    fsck_repair, generate_ops, oracle_state, payload_of, read_all,
    state_digest)
from repro.cluster.cluster import build_local_cluster
from repro.errors import SwarmError
from repro.log.config import LogConfig
from repro.placement import Placement

#: Record type for the small "note" records the sweep episode appends
#: through :meth:`LogLayer.write_record`. They exist to keep the
#: group-commit buffer busy (so ``group_commit_flush`` fires often and
#: mid-batch kills are exercised); the logical-disk service ignores any
#: record type it does not know, so they are invisible to the oracle.
CRASH_NOTE_RTYPE = 96

STRIPE_WIDTH = 4
#: High enough that the episode's rewrite pass always leaves stripes
#: for the cleaner to take.
CLEANER_THRESHOLD = 0.95


def _sweep_client(cluster, **log_kwargs) -> Client:
    """One client stack, cleaner included, starting from the initial
    placement view: all servers but the last, which the episode adds."""
    placement = Placement(sorted(cluster.servers)[:-1],
                          stripe_width=STRIPE_WIDTH)
    return build_client(
        cluster.transport, placement,
        LogConfig(client_id=CLIENT_ID, fragment_size=FRAGMENT_SIZE),
        cleaner_threshold=CLEANER_THRESHOLD, **log_kwargs)


def _run_crash_episode(seed: int, ops: Sequence[Op],
                       injector: CrashInjector, num_servers: int):
    """Drive the scripted crash-sweep episode against a fresh cluster.

    The script is deliberately eventful so every named crash point
    fires several times: group-commit fences and note records, three
    checkpoint generations (each re-embedding the placement view
    history), a mid-run ``grow_fleet`` view change, a deterministic
    full-rewrite pass that guarantees the cleaner has dead stripes to
    reclaim for *any* seed, and one cleaning pass.

    Returns ``(cluster, applied, acked, crashed)``: the cluster (left
    exactly as the crash found it), every op *attempted* in order, the
    length of the prefix of ``applied`` known durable (acked by a fence
    or checkpoint), and whether the injector fired.

    An op is appended to ``applied`` before it executes: a kill inside
    the op leaves it attempted-but-unacked, which is exactly the window
    the durability oracle must treat as "may or may not have happened —
    but never torn".
    """
    cluster = build_local_cluster(num_servers=num_servers, num_clients=1,
                                  fragment_size=FRAGMENT_SIZE)
    client = _sweep_client(cluster, verify_reads=True,
                           crash_injector=injector)
    log, stack, disk = client.log, client.stack, client.disk

    applied: List[Op] = []
    acked = 0
    crashed = False

    def fence() -> None:
        nonlocal acked
        stack.flush().wait()
        acked = len(applied)

    def checkpoint_all() -> None:
        nonlocal acked
        fence()
        for service in stack.layers:
            stack.checkpoint(service).wait()
        acked = len(applied)

    def apply_op(op: Op) -> None:
        applied.append(op)
        kind, block_no, payload_seed, size = op
        if kind == "write":
            disk.write(block_no, payload_of(payload_seed, size))
        elif kind == "trim":
            disk.trim(block_no)
        elif disk.exists(block_no):
            disk.read(block_no)

    def run_slice(chunk: Sequence[Op], base: int) -> None:
        for position, op in enumerate(chunk, start=base):
            apply_op(op)
            if (position + 1) % 6 == 0:
                fence()
            if (position + 1) % 7 == 0:
                log.write_record(SERVICE_DISK, CRASH_NOTE_RTYPE,
                                 b"note-%d" % position)

    third = len(ops) // 3
    try:
        run_slice(ops[:third], 0)
        checkpoint_all()
        log.grow_fleet([sorted(cluster.servers)[-1]])
        run_slice(ops[third:2 * third], third)
        checkpoint_all()
        # Deterministic rewrite pass: overwriting every live block kills
        # the blocks' old log copies, so the stripes holding them decay
        # below the cleaner's utilization threshold for any seed — the
        # cleaning pass below always has real work, and the cleaner
        # crash points always fire.
        for block_no in sorted(disk.block_numbers()):
            payload_seed = (seed * 1000003 + block_no) & 0x7FFFFFFF
            apply_op(("write", block_no, payload_seed, 512))
        checkpoint_all()
        client.cleaner.clean(target_stripes=4)
        fence()
        run_slice(ops[2 * third:], 2 * third)
        checkpoint_all()
    except ClientCrash:
        crashed = True
    return cluster, applied, acked, crashed


def _recover_crash_state(cluster) -> Dict[int, bytes]:
    """Fresh-client recovery against whatever the crash left behind.

    The recovering client starts from the *initial* placement view
    (the view history rolls forward from the log's VIEW_CHANGE records)
    and an empty location cache — nothing survives from the dead client
    but the servers' contents.
    """
    client = _sweep_client(cluster)
    client.stack.recover_all()
    return read_all(client.disk)


def _check_crash_oracle(report, ptag: str, recovered: Dict[int, bytes],
                        applied: Sequence[Op], acked: int) -> None:
    """The durability oracle for one crash.

    * Every op acked before the kill must be readable after recovery —
      the recovered value of each block starts from the acked state.
    * Ops attempted after the last ack may have happened or not
      (rollforward stops wherever the durable prefix ends), but each
      block must read back as *some* value it was actually assigned —
      never a torn hybrid, never a value from a later op without the
      earlier ones' effects on that block.
    * A block may be absent only if the acked state did not contain it
      or an unacked trim could have removed it.
    """
    acked_state = oracle_state(applied[:acked])
    candidates: Dict[int, set] = {
        block_no: {value} for block_no, value in acked_state.items()}
    for kind, block_no, payload_seed, size in applied[acked:]:
        if kind == "write":
            candidates.setdefault(block_no, {acked_state.get(block_no)})
            candidates[block_no].add(payload_of(payload_seed, size))
        elif kind == "trim":
            candidates.setdefault(block_no, {acked_state.get(block_no)})
            candidates[block_no].add(None)
    for block_no in sorted(recovered):
        allowed = candidates.get(block_no)
        if allowed is None:
            report.problems.append(
                "%srecovered block %d was never written" % (ptag, block_no))
        elif recovered[block_no] not in allowed:
            report.problems.append(
                "%srecovered block %d matches no applied value (torn write "
                "survived recovery)" % (ptag, block_no))
    for block_no, allowed in candidates.items():
        if block_no not in recovered and None not in allowed:
            report.problems.append(
                "%sacked block %d lost by the crash" % (ptag, block_no))


def _successor_writes_survive(cluster) -> bool:
    """The succession oracle for one crash.

    On the log exactly as the kill left it, a successor recovers, then
    writes and fences two blocks; a client recovering after it must
    read back exactly the successor's view — a torn stripe the kill
    left behind must not hide writes acked past it.
    """
    successor = _sweep_client(cluster)
    successor.stack.recover_all()
    for block_no in (100, 101):  # outside the episode's block range
        successor.disk.write(block_no, payload_of(block_no, 512))
    successor.stack.flush().wait()
    return _recover_crash_state(cluster) == read_all(successor.disk)


def _pick_occurrences(hits: int, cap: int) -> List[int]:
    """Which k-th occurrences of a point to arm, given it fired ``hits``
    times in the census. All of them when few; an evenly spaced sample
    (always including the first and last) when many."""
    if hits <= 0:
        return []
    if cap <= 1 or hits <= cap:
        return list(range(1, hits + 1)) if hits <= cap else [1]
    return sorted({1 + ((hits - 1) * i) // (cap - 1) for i in range(cap)})


@dataclass
class CrashSweepReport:
    """Outcome of one crash-point sweep."""

    seed: int
    problems: List[str] = field(default_factory=list)
    census: Dict[str, int] = field(default_factory=dict)
    pairs: List[Tuple[str, int, str, int]] = field(default_factory=list)
    """One ``(point, occurrence, recovered-state digest, fragments
    restored by repair)`` tuple per armed run, in sweep order."""
    state_digest: str = ""
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every crash survived its oracle."""
        return not self.problems

    def summary(self) -> str:
        """One-line human summary (always names the seed)."""
        status = ("OK" if self.ok
                  else "FAILED (%d problems)" % len(self.problems))
        return ("crash-sweep seed=%d: %s — %d points, %d (point, occurrence) "
                "pairs, %d fragments repaired, digest %s"
                % (self.seed, status,
                   sum(1 for count in self.census.values() if count),
                   len(self.pairs), int(self.stats.get("repaired", 0)),
                   self.state_digest[:12]))


def run_crash_sweep(seed: int, ops: Optional[Sequence[Op]] = None,
                    num_servers: int = 6, occ_cap: int = 4,
                    point: Optional[str] = None,
                    occurrence: Optional[int] = None) -> CrashSweepReport:
    """Kill the client at every instrumented crash point; verify recovery.

    The sweep runs the scripted episode once with an unarmed injector
    (the *census*: identical traffic, counting how often each point
    fires), then re-runs it from a fresh cluster for each chosen
    ``(point, occurrence)`` pair with the injector armed to raise
    :class:`ClientCrash` at exactly that hit. After each kill a fresh
    client recovers from the servers alone and five invariants are
    checked:

    1. **durability** — every op acked (fenced or checkpointed) before
       the kill is readable; every unacked op is atomic: present with
       one of its actually-applied values, or absent, never torn;
    2. **idempotence** — recovering twice from the untouched post-crash
       cluster yields byte-identical states;
    3. **fsck** — the log the crash left behind is healthy or
       repairable (never *lost*), repairing it reaches full health, and
       recovery after repair still equals recovery before it;
    4. **determinism** — the armed run's hook trace is a prefix of the
       census trace (the kill changed nothing before the kill), which
       is what makes any pair replayable from ``(seed, point, k)``;
    5. **succession** — on a re-run of the armed episode (fsck repair
       has sealed the first run's torn stripes), a successor that
       recovers, writes and fences two blocks loses none of them to
       the next recovery (:func:`_successor_writes_survive`).

    ``point``/``occurrence`` restrict the sweep to one point (and
    optionally one k-th hit) — the replay knob for debugging a single
    failing triple. ``occ_cap`` bounds the occurrences armed per point;
    within the cap they are evenly spaced across the census count,
    always including the first and last hit.
    """
    if point is not None and point not in CRASH_POINTS:
        raise ValueError("unknown crash point %r (have: %s)"
                         % (point, ", ".join(CRASH_POINTS)))
    if occurrence is not None and point is None:
        raise ValueError("occurrence requires a crash point")
    ops = (list(ops) if ops is not None
           else generate_ops(seed, n_ops=36, max_blocks=12))
    report = CrashSweepReport(seed=seed)

    # Census: the same episode end to end, no kill. Establishes the
    # per-point hit counts, the hook trace armed runs must prefix, and
    # a clean baseline (its recovery must equal the oracle exactly).
    census_injector = CrashInjector()
    cluster, applied, acked, crashed = _run_crash_episode(
        seed, ops, census_injector, num_servers)
    report.census = census_injector.census()
    if crashed:
        report.problems.append("census run crashed with an unarmed injector")
        return report
    if acked != len(applied):
        report.problems.append("census run ended with unacked ops "
                               "(episode script bug)")
    census_ops = len(applied)
    if _recover_crash_state(cluster) != oracle_state(applied):
        report.problems.append("census recovery diverged from the oracle")
    missing = [name for name in CRASH_POINTS
               if not report.census.get(name)]
    if missing:
        report.problems.append(
            "crash points never fired in the census: %s"
            % ", ".join(missing))

    if point is not None:
        occurrences = ([occurrence] if occurrence is not None
                       else _pick_occurrences(report.census.get(point, 0),
                                              occ_cap))
        targets = [(point, k) for k in occurrences]
    else:
        targets = [(name, k) for name in CRASH_POINTS
                   for k in _pick_occurrences(report.census.get(name, 0),
                                              occ_cap)]

    crashes = 0
    repaired_total = 0
    for name, k in targets:
        ptag = "%s@%d: " % (name, k)
        armed = CrashInjector(point=name, occurrence=k)
        cluster, applied, acked, crashed = _run_crash_episode(
            seed, ops, armed, num_servers)
        if not crashed:
            report.problems.append(ptag + "armed injector never fired")
            continue
        crashes += 1
        if armed.trace != census_injector.trace[:len(armed.trace)]:
            report.problems.append(
                ptag + "pre-kill hook trace diverged from the census")
        try:
            first = _recover_crash_state(cluster)
            second = _recover_crash_state(cluster)
        except SwarmError as exc:
            report.problems.append(ptag + "recovery failed: %s" % (exc,))
            continue
        if first != second:
            report.problems.append(
                ptag + "recovery is not idempotent (two recoveries of the "
                "same log differ)")
        _check_crash_oracle(report, ptag, first, applied, acked)
        problems, pair_repaired = fsck_repair(
            cluster.transport, CLIENT_ID,
            target_server=sorted(cluster.servers)[0])
        report.problems.extend(ptag + problem for problem in problems)
        if (pair_repaired and not problems
                and _recover_crash_state(cluster) != first):
            report.problems.append(
                ptag + "repair changed the recovered state")
        report.pairs.append((name, k, state_digest(first), pair_repaired))
        cluster, *_rerun = _run_crash_episode(
            seed, ops, CrashInjector(point=name, occurrence=k), num_servers)
        if not _successor_writes_survive(cluster):
            report.problems.append(
                ptag + "writes acked after recovery lost at the next one")
        repaired_total += pair_repaired

    acc = hashlib.sha256()
    for name, k, digest, pair_repaired in report.pairs:
        acc.update(b"%s:%d:%s:%d;"
                   % (name.encode("ascii"), k, digest.encode("ascii"),
                      pair_repaired))
    report.state_digest = acc.hexdigest()
    report.stats = {
        "ops": census_ops,
        "points_fired": sum(1 for count in report.census.values() if count),
        "pairs": len(targets),
        "crashes": crashes,
        "repaired": repaired_total,
    }
    return report
