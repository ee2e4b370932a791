"""Chaos scenarios: one seed, one hostile workload, hard invariants.

:func:`run_chaos` drives a logical-disk workload against a cluster whose
transport is wrapped in a :class:`~repro.chaos.transport.FaultyTransport`,
with the client stack configured the way a production deployment would
be: a retry policy over the transport and checksum-verified reads that
fall back to parity reconstruction. Mid-run it also damages committed
fragments durably (a bit flip and a torn image, via the failure
injector) and crashes/restarts the damaged server.

The run then asserts end-to-end invariants:

1. every read issued *during* the chaos matches a fault-free oracle
   (the same seeded op sequence applied to an in-memory model);
2. after the faults stop, ``swarm-fsck`` can bring the log back to
   fully healthy (no stripe is *lost* — zero data loss);
3. a fresh client recovering from the log alone reproduces exactly the
   oracle's final state;
4. the run is deterministic: the same seed yields the identical fault
   schedule and the identical recovered-state digest, so every failure
   is reproducible from one integer.

Violations are reported, not raised, so a test can print the seed with
the failure — rerunning with that seed replays the exact schedule.

:func:`run_kill_server` and :func:`run_cleaner_churn` hold the same
invariants under permanent server loss and under cleaning. Each is a
plain script of phases over one :class:`~repro.chaos.harness.Harness`;
the client-kill sweep lives in :mod:`repro.chaos.sweep`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.chaos.harness import (ChaosReport, FRAGMENT_SIZE, Harness, Op,
                                 generate_ops)
from repro.chaos.plan import FaultSpec, choose_kill_victims
from repro.errors import SwarmError
from repro.health import RepairDaemon
from repro.health.monitor import READMIT_PROBES
from repro.log.fragment import HEADER_SIZE, MAX_STRIPE_WIDTH
from repro.placement import Placement
from repro.rpc import messages as m
from repro.tools.fsck import check_client_log
from repro.util.packing import unpack_fids

DAMAGE_FRAGMENTS = 2     # committed fragments run_chaos damages durably
KILL_FLUSH_EVERY = 4     # run_kill_server: ops per flush after the kill
KILL_STRIPE_WIDTH = 8    # ... and its stripe width past MAX_STRIPE_WIDTH servers
CLEAN_EVERY = 16         # run_cleaner_churn: ops per cleaning pass
CLEANER_THRESHOLD = 0.9  # ... and its cleaner's utilization threshold


def run_chaos(seed: int, ops: Optional[Sequence[Op]] = None,
              spec: Optional[FaultSpec] = None, num_servers: int = 4,
              log_overrides: Optional[Dict[str, object]] = None,
              num_clients: int = 1, wire: str = "local") -> ChaosReport:
    """Execute one seeded chaos run; see the module docstring.

    ``log_overrides`` merges extra :class:`LogConfig` fields into the
    chaos clients' configuration (e.g. a wider ``max_inflight_reads``
    window, or group commit off) so the determinism and oracle
    invariants can be asserted across log configurations.

    With ``num_clients > 1`` the seeded op sequence is dealt round-robin
    across that many independent clients sharing one faulty wire; each
    client is checked against its own oracle and the report digest
    combines the per-client digests (a single client keeps the
    historical digest byte for byte).

    ``wire`` selects the plane under the fault injector: ``"local"``
    (direct function calls, the historical harness) or ``"tcp"`` (the
    same servers hosted on loopback sockets, reached through a
    :class:`~repro.rpc.net.TcpTransport`). The fault plan draws its
    decisions in plan order either way and the retry jitter is seeded,
    so the same seed must produce the same fault schedule *and* the
    same recovered-state digest on both wires — asserted by the net
    test suite, and the acceptance proof that chaos semantics survive
    the move to real sockets.
    """
    ops = list(ops) if ops is not None else generate_ops(seed)
    with Harness(seed, ops, num_servers=num_servers,
                 num_clients=num_clients, wire=wire) as h:
        h.start_clients(spec, log_overrides)
        victim = h.plan.durable_victim

        # Phase 1: first half of the workload under wire faults.
        half = len(ops) // 2
        for position in range(half):
            h.apply_op(position)
        h.flush()

        # Phase 2: durable damage on the durable victim's committed
        # fragments — one silent payload bit flip, one torn image.
        slots = h.cluster.servers[victim].slots
        damaged = [fid for fid in sorted(slots.fids())
                   if not (slots.info_of(fid) or {}).get("preallocated")
                   ][:DAMAGE_FRAGMENTS]
        for index, fid in enumerate(damaged):
            if index % 2 == 0:
                h.injector.corrupt_fragment(victim, fid,
                                            bit_index=8 * HEADER_SIZE + 5)
            else:
                h.injector.tear_fragment(victim, fid, keep_fraction=0.5)

        # Phase 3: rest of the workload — reads of damaged fragments must
        # come back correct through verification + reconstruction.
        for position in range(half, len(ops)):
            h.apply_op(position)
        h.checkpoint()

        # Phase 4: crash the damaged server outright; every live block must
        # still read back correctly (degraded reads). Then bring it back.
        h.injector.crash_server(victim)
        h.verify_models("with %s down" % victim)
        h.injector.restart_server(victim)

        # Phase 5: faults off; fsck must be able to restore full health
        # for every client's log.
        h.plan.stop()
        restored = h.fsck_repair(target_server=victim)

        # Phase 6: fresh clients recover from the log alone and must
        # reproduce each oracle exactly.
        h.recover()
        h.finish(clients=num_clients, damaged_fragments=len(damaged),
                 fsck_restored=restored)
    return h.report


def run_kill_server(seed: int, ops: Optional[Sequence[Op]] = None,
                    num_servers: Optional[int] = None,
                    fragment_size: int = FRAGMENT_SIZE, victims: int = 1,
                    log_overrides: Optional[Dict[str, object]] = None,
                    num_clients: int = 1, restart: bool = False,
                    ) -> ChaosReport:
    """The self-healing scenario: crash members, never restart them.

    ``victims`` servers of the stripe group are crashed simultaneously
    mid-workload *and stay down*; with ``victims > 1`` the log is
    configured with Reed–Solomon coding carrying ``m = victims`` parity
    members per stripe (and one spare per victim), so even a stripe
    that lost a member to every kill stays recoverable. Everything that
    follows must happen without operator intervention:

    1. the failure detector declares the member dead from RPC outcomes
       alone (retry exhaustions and failed probes);
    2. the dead verdict reforms the stripe group onto the configured
       spare automatically — the harness never calls ``reform_group``;
    3. the repair daemon re-materializes every fragment the dead
       server held onto the spare, throttled, while wire faults are
       still being injected on the survivors;
    4. with the victim *still crashed*: mid-run reads matched a
       fault-free oracle, fsck reports every stripe fully healthy (no
       degraded stripe left — full redundancy restored), and a fresh
       client recovers the exact oracle state.

    Every client stripes through its own
    :class:`~repro.placement.Placement` over all servers but the
    spares: as wide as that view up to ``MAX_STRIPE_WIDTH`` servers
    (the historical scenario), ``KILL_STRIPE_WIDTH`` wide beyond — what
    makes the 64- and 256-server versions of this scenario runnable at
    all. ``num_clients > 1`` deals the op stream round-robin across
    independent clients, each with its own detector, daemon, and
    placement instance, all sharing one faulty wire.

    The write-availability gap — ops applied between the crash and the
    last automatic reform across every client — is measured and
    reported in ``stats``.

    With ``restart=True`` the scenario gains a readmission epilogue:
    after repair completes and fsck passes (victims still down), every
    victim is restarted *with its pre-crash disk state intact*. Each
    client's failure detector must walk it back through the probation
    path — dead → probation → healthy, never straight to trusted — and
    the stale fragments it still serves (including any torn by faults
    mid-store) must be caught by checksum verification and answered
    from the repaired copies instead. The final fresh-client recovery
    then runs with the victims *up*, so the rollforward scan itself may
    be handed stale images and must reject them.
    """
    if victims < 1:
        raise ValueError("victims must be >= 1")
    if num_servers is None:
        num_servers = 5 if victims == 1 else 2 * victims + 4
    wide_fleet = num_servers > MAX_STRIPE_WIDTH
    overrides = dict(log_overrides or {})
    if victims > 1:
        # Surviving a simultaneous multi-kill needs one parity member
        # per victim in every stripe: Reed–Solomon with m = victims.
        overrides.setdefault("coding", "rs")
        overrides.setdefault("parity_fragments", victims)
    ops = list(ops) if ops is not None else generate_ops(seed, n_ops=64)
    with Harness(seed, ops, num_servers=num_servers,
                 num_clients=num_clients, fragment_size=fragment_size) as h:
        all_servers = sorted(h.cluster.servers)
        group_servers, spares = all_servers[:-victims], all_servers[-victims:]

        def make_group():
            """A fresh placement for one client: each carries its own
            view history, so every client — and every fresh-recovery
            client — gets its own instance over the configured group."""
            return Placement(
                group_servers, overrides.get("parity_fragments", 1), spares,
                KILL_STRIPE_WIDTH if wide_fleet else MAX_STRIPE_WIDTH)

        # Up to MAX_STRIPE_WIDTH servers every stripe spans the whole
        # view: the victims are a seeded draw, and durable damage is
        # pinned to the first server that is going to die — its torn /
        # flipped fragments vanish with it, so the scenario proves repair
        # rebuilds them from survivors rather than quietly re-reading them.
        # Past that, a stripe only touches ``KILL_STRIPE_WIDTH`` of the
        # view's servers, so a randomly chosen fleet member would likely
        # never be in any client's write path — and a detector fed purely
        # by its own traffic would
        # (rightly) never indict it. The victims are instead chosen at
        # crash time from the view positions every client is about to
        # rotate through (the rotation cursor is seed-deterministic, so
        # the choice replays bit-identically), and the durable victim
        # stays the plan's own seeded draw.
        kill_list = ([] if wide_fleet
                     else choose_kill_victims(seed, group_servers, victims))
        spec = FaultSpec(pinned_victim=kill_list[0]) if kill_list else None
        clients = h.start_clients(spec, overrides, make_group=make_group,
                                  monitored=True)

        def start_daemon(client) -> None:
            client.daemon = RepairDaemon(
                client.log.transport, client.client_id,
                replacement=list(spares),
                principal=client.log.config.principal,
                locations=client.log.locations)

        # Phase 1: first third of the workload under wire faults only.
        crash_at = len(ops) // 3
        for position in range(crash_at):
            h.apply_op(position)
        h.flush()

        # Phase 2: kill the victims — they never come back. Keep the
        # workload flowing in small flushed chunks: the flushes' failed
        # stores and the reads' failed retrieves are exactly the evidence
        # every client's failure detector needs. Measure how many ops
        # land before the automatic reforms complete on every client.
        if wide_fleet:
            view = clients[0].log.group.servers
            cursor = max(c.log.next_stripe_number for c in clients)
            kill_list.extend(sorted(view[(cursor + 1 + j) % len(view)]
                                    for j in range(victims)))
        victim = kill_list[0]
        for dead in kill_list:
            h.injector.crash_server(dead)
        reform_gap_ops = -1
        for position in range(crash_at, len(ops)):
            h.apply_op(position)
            ops_since_crash = position - crash_at + 1
            if ops_since_crash % KILL_FLUSH_EVERY == 0:
                h.flush()
            for client in clients:
                if (client.daemon is None
                        and len(client.log.reforms) >= victims):
                    # Phase 3 (overlapped): the moment this client's group
                    # has reformed away from every victim, start its
                    # background repair onto the spares and interleave it
                    # with the remaining foreground ops — wire faults on.
                    start_daemon(client)
                    client.daemon.discover()
            if (reform_gap_ops < 0
                    and all(len(c.log.reforms) >= victims for c in clients)):
                reform_gap_ops = ops_since_crash
            for client in clients:
                if client.daemon is not None:
                    client.daemon.step()
        h.checkpoint()

        for client in clients:
            if not client.log.reforms:
                h.problem(client, "no automatic reform: %s died but the "
                                  "group never changed" % victim)
            elif len(client.log.reforms) < victims:
                h.problem(client, "only %d reforms for %d killed servers"
                          % (len(client.log.reforms), victims))
            else:
                for dead in kill_list:
                    if dead in client.log.group.servers:
                        h.problem(client, "dead server %s still in the "
                                          "stripe group after reform" % dead)
                for spare in spares:
                    if spare not in client.log.group.servers:
                        h.problem(client, "spare %s was not drafted into "
                                          "the reformed group" % spare)
            for dead in kill_list:
                status = client.log.monitor.status(dead)
                if status != "dead":
                    h.problem(client, "detector verdict for crashed %s is "
                                      "%r, expected dead" % (dead, status))

        # Drain the repair queues (a final sweep catches stripes flushed
        # after the first discovery), still under wire faults.
        for client in clients:
            if client.daemon is None and client.log.reforms:
                start_daemon(client)
            if client.daemon is not None:
                client.daemon.discover()
                while not client.daemon.done:
                    client.daemon.step()
        daemons = [c.daemon for c in clients if c.daemon is not None]

        # Phase 4: faults off, victim still crashed. Full redundancy must
        # be back: every stripe of every client's log healthy — not
        # merely readable-degraded.
        h.plan.stop()
        for client in clients:
            fsck = check_client_log(h.cluster.transport, client.client_id)
            if not fsck.healthy:
                h.problem(client, "fsck not fully healthy after repair "
                                  "(victim down): %s" % fsck.summary())

        # Phase 4.5 (restart variant): the victims return with their
        # pre-crash state. Readmission must go through probation — a
        # restarted server is evidence, not trust — and the stale copies it
        # still serves must lose to checksum verification, never win a read.
        readmitted = stale_reads_checked = 0
        if restart:
            for dead in kill_list:
                h.injector.restart_server(dead)
            for client in clients:
                monitor = client.log.monitor
                for dead in kill_list:
                    for _ in range(4 * READMIT_PROBES):
                        if monitor.status(dead) == "healthy":
                            break
                        monitor.probe(dead)
                    if monitor.status(dead) != "healthy":
                        h.problem(client, "restarted %s never readmitted "
                                          "(status %r)"
                                  % (dead, monitor.status(dead)))
                    elif ((dead, "dead", "probation")
                            not in monitor.transitions):
                        h.problem(client, "restarted %s was readmitted "
                                          "without probation" % dead)
                    else:
                        readmitted += 1
                # Forget every placement for a fragment a victim still
                # holds, so the next read has to re-locate it — and may be
                # offered the victim's stale (possibly torn) copy. Verified
                # reads must reject it and fall back to the repaired one.
                for dead in kill_list:
                    try:
                        response = h.cluster.transport.call(
                            dead, m.ListFidsRequest(
                                client_id=client.client_id,
                                principal=client.log.config.principal))
                    except SwarmError:
                        continue
                    stale_fids, _end = unpack_fids(response.payload)
                    for fid in stale_fids:
                        client.log.locations.evict(fid)
            stale_reads_checked = h.verify_models(
                "after %d restarts" % len(kill_list))

        # Phase 5: fresh clients recover from the log alone — with every
        # victim still dead (or, in the restart variant, back up and
        # serving stale copies) — and must reproduce each oracle exactly.
        # Every successor starts from the *configured* group and must
        # roll its view history forward from the log.
        fresh_clients = h.recover()
        for client, fresh in zip(clients, fresh_clients):
            if (client.log.reforms
                    and fresh.log.placement.view_epoch
                    < client.log.placement.view_epoch):
                h.problem(client, "placement view history did not recover: "
                                  "fresh epoch %d < writer epoch %d"
                          % (fresh.log.placement.view_epoch,
                             client.log.placement.view_epoch))

        monitor_reports = [c.log.monitor.health_report() for c in clients]
        h.finish(
            clients=num_clients,
            reform_gap_ops=reform_gap_ops,
            victims_killed=len(kill_list),
            fragments_repaired=sum(d.fragments_repaired for d in daemons),
            bytes_repaired=sum(d.bytes_repaired for d in daemons),
            repair_throttle_s=sum(d.throttle_charged_s for d in daemons),
            probes=sum(entry["probes"]
                       for monitor_report in monitor_reports
                       for entry in monitor_report["servers"].values()),
            health_transitions=sum(len(monitor_report["transitions"])
                                   for monitor_report in monitor_reports),
            restarted=len(kill_list) if restart else 0,
            readmitted=readmitted,
            stale_reads_checked=stale_reads_checked)
    return h.report


def run_cleaner_churn(seed: int, ops: Optional[Sequence[Op]] = None,
                      num_servers: int = 4,
                      log_overrides: Optional[Dict[str, object]] = None,
                      ) -> ChaosReport:
    """Cleaner-under-churn scenario: clean live stripes mid-chaos.

    A heavily overwriting workload (small block-number space, so early
    stripes die fast) runs under wire faults with a cleaner in the
    stack. Every ``CLEAN_EVERY`` ops the harness flushes, checkpoints
    every service, and runs a cleaning pass — the cleaner's batched
    multi-range harvest and pipelined re-append therefore execute while
    faults are still being injected. Invariants: mid-run reads match the
    fault-free oracle, cleaning actually reclaims stripes, fsck comes
    back healthy once faults stop, and a fresh client (cleaner included)
    recovers the oracle state exactly — no block lost to a move.
    """
    ops = (list(ops) if ops is not None
           else generate_ops(seed, n_ops=64, max_blocks=12))
    with Harness(seed, ops, num_servers=num_servers) as h:
        [client] = h.start_clients(None, log_overrides,
                                   cleaner_threshold=CLEANER_THRESHOLD)
        cleaner = client.cleaner
        clean_passes = 0

        def clean_pass() -> None:
            nonlocal clean_passes
            h.checkpoint()
            cleaner.clean(target_stripes=4)
            clean_passes += 1

        for position in range(len(ops)):
            h.apply_op(position)
            if (position + 1) % CLEAN_EVERY == 0:
                clean_pass()
                # Cleaning must never disturb the logical state.
                h.verify_models("after cleaning pass %d" % clean_passes)
        clean_pass()

        # Faults off: the surviving log must be fully repairable and a
        # fresh client (with its own cleaner, so cleaner-state recovery
        # is exercised too) must reproduce the oracle.
        h.plan.stop()
        restored = h.fsck_repair(target_server=sorted(h.cluster.servers)[0])
        [fresh] = h.recover()
        if fresh.cleaner._live != cleaner._live:
            h.problem(client, "cleaner liveness map did not recover")

        h.finish(clean_passes=clean_passes,
                 stripes_cleaned=cleaner.stripes_cleaned,
                 blocks_moved=cleaner.blocks_moved,
                 bytes_moved=cleaner.bytes_moved,
                 deletes_requeued=cleaner.deletes_requeued,
                 fsck_restored=restored)
    return h.report
