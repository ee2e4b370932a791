"""CLI for chaos runs: ``python -m repro.chaos --seed N``.

Runs one seeded chaos workload and prints the report; ``--replay`` runs
the seed twice and additionally checks that the fault schedule and the
recovered-state digest replayed identically. Exit status is non-zero on
any violated invariant, with the seed in the output so the failure can
be reproduced with the same command.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.chaos.crashpoints import CRASH_POINTS
from repro.chaos.harness import generate_ops, replay
from repro.chaos.runner import run_chaos, run_cleaner_churn, run_kill_server
from repro.chaos.sweep import run_crash_sweep

#: scenario flag, in precedence order -> (function, default op count,
#: block-number space); ``chaos`` is what runs without a flag. The
#: cleaner and crash-sweep scenarios churn a small block space so early
#: stripes actually die. Without ``--servers`` each function keeps its
#: own default server count (scenario-derived for ``--kill-server``).
SCENARIOS = {
    "crash_sweep": (run_crash_sweep, 36, 12),
    "kill_server": (run_kill_server, 64, 24),
    "cleaner": (run_cleaner_churn, 64, 12),
    "chaos": (run_chaos, 48, 24),
}


def parse_args(argv: Optional[Sequence[str]] = None,
               ) -> Tuple[Callable, int, Dict[str, object], bool]:
    """Parse and validate the command line without running anything:
    ``(scenario, seed, scenario kwargs, replay?)``, or exit status 2."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run a deterministic chaos workload against a local "
                    "cluster and check zero-data-loss invariants.")
    parser.add_argument("--seed", type=int, required=True,
                        help="fault-schedule seed (reuse to reproduce a run)")
    parser.add_argument("--ops", type=int, default=None,
                        help="number of workload operations "
                             "(default 48; 64 with --kill-server)")
    parser.add_argument("--servers", type=int, default=None,
                        help="storage servers in the cluster "
                             "(default 4; 5 with --kill-server)")
    parser.add_argument("--kill-server", action="store_true",
                        help="self-healing scenario: crash stripe-group "
                             "members permanently; require automatic reform "
                             "onto the spares, full background repair, and "
                             "zero data loss with the victims still down")
    parser.add_argument("--victims", type=int, default=1,
                        help="servers to kill in --kill-server (default 1; "
                             "2+ switches the log to Reed-Solomon coding "
                             "with m = victims parity members per stripe)")
    parser.add_argument("--clients", type=int, default=1,
                        help="independent clients sharing the faulty wire "
                             "(default 1); the seeded op stream is dealt "
                             "round-robin and every client is checked "
                             "against its own oracle")
    parser.add_argument("--cleaner", action="store_true",
                        help="cleaner-under-churn scenario: overwrite-heavy "
                             "workload with periodic cleaning passes under "
                             "wire faults; require zero data loss across "
                             "the cleaner's batched moves")
    parser.add_argument("--crash-sweep", action="store_true",
                        help="client-kill sweep: run a scripted write-path "
                             "episode, kill the client at every instrumented "
                             "crash point in turn, and require recovery to "
                             "satisfy the durability oracle each time")
    parser.add_argument("--crash-point", default=None, metavar="NAME",
                        choices=list(CRASH_POINTS),
                        help="restrict --crash-sweep to one named crash "
                             "point (one of: %s)" % ", ".join(CRASH_POINTS))
    parser.add_argument("--occurrence", type=int, default=None, metavar="K",
                        help="with --crash-point, arm exactly the K-th hit "
                             "of that point (the single-triple replay knob)")
    parser.add_argument("--restart", action="store_true",
                        help="with --kill-server: bring the victims back "
                             "with their pre-crash state after repair; "
                             "require probation-path readmission and stale "
                             "copies losing to checksum verification")
    parser.add_argument("--net", action="store_true",
                        help="run the plain chaos scenario over the real "
                             "wire: the same servers hosted on loopback TCP "
                             "sockets, faults injected above the "
                             "TcpTransport; the seed must produce the same "
                             "digest as the local wire")
    parser.add_argument("--replay", action="store_true",
                        help="run twice and verify the schedule replays "
                             "identically")
    args = parser.parse_args(argv)

    if args.victims != 1 and not args.kill_server:
        parser.error("--victims only applies to --kill-server")
    if args.restart and not args.kill_server:
        parser.error("--restart only applies to --kill-server")
    if (args.crash_point or args.occurrence) and not args.crash_sweep:
        parser.error("--crash-point/--occurrence only apply to --crash-sweep")
    if args.occurrence is not None and args.crash_point is None:
        parser.error("--occurrence requires --crash-point")
    if args.occurrence is not None and args.occurrence < 1:
        parser.error("--occurrence must be >= 1")
    if args.clients < 1:
        parser.error("--clients must be >= 1")
    if args.clients != 1 and (args.cleaner or args.crash_sweep):
        parser.error("--cleaner and --crash-sweep are single-client "
                     "scenarios")
    if args.net and (args.cleaner or args.crash_sweep or args.kill_server):
        parser.error("--net applies to the plain chaos scenario only")
    chosen = next((name for name in SCENARIOS if getattr(args, name, False)),
                  "chaos")
    scenario, default_ops, max_blocks = SCENARIOS[chosen]
    n_ops = args.ops if args.ops is not None else default_ops
    kwargs: Dict[str, object] = {
        "ops": generate_ops(args.seed, n_ops=n_ops, max_blocks=max_blocks)}
    if args.servers is not None:
        kwargs["num_servers"] = args.servers
    if args.kill_server:
        kwargs.update(victims=args.victims, restart=args.restart)
    if args.crash_sweep:
        kwargs.update(point=args.crash_point, occurrence=args.occurrence)
    elif not args.cleaner:
        kwargs["num_clients"] = args.clients
        if args.net:
            kwargs["wire"] = "tcp"
    return scenario, args.seed, kwargs, args.replay


def main(argv: Optional[Sequence[str]] = None) -> int:
    scenario, seed, kwargs, replay_twice = parse_args(argv)
    if replay_twice:
        *reports, identical = replay(scenario, seed, **kwargs)
    else:
        reports, identical = [scenario(seed, **kwargs)], True
    for report in reports:
        print(report.summary())
    for report in reports:
        for problem in report.problems:
            print("  problem: %s" % problem)
    if not identical:
        print("REPLAY DIVERGED for seed %d" % seed)
    return 0 if identical and all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
