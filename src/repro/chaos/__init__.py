"""Deterministic, seed-driven chaos engine.

Everything here exists to answer one question reproducibly: *does the
client survive a hostile cluster without losing data?* A
:class:`~repro.chaos.plan.FaultPlan` turns one integer seed into a
complete fault schedule; a :class:`~repro.chaos.transport.FaultyTransport`
wraps any real transport and applies that schedule per call (dropped
requests, lost replies, delays, duplicates, torn stores, silent payload
bit flips); the scenarios in :mod:`repro.chaos.runner` — phase scripts
over one :class:`~repro.chaos.harness.Harness` — drive a whole workload
under a plan and diff the outcome against a fault-free oracle, and
:mod:`repro.chaos.sweep` kills the client at every write-path step.

Replaying the same seed replays the identical fault schedule, so a
failure found in CI is reproduced locally with one number.
"""

from repro.chaos.crashpoints import CRASH_POINTS, ClientCrash, CrashInjector
from repro.chaos.plan import DEFAULT_SPEC, FaultEvent, FaultPlan, FaultSpec
from repro.chaos.transport import FaultyTransport
from repro.chaos.harness import ChaosReport, generate_ops, replay
from repro.chaos.runner import run_chaos
from repro.chaos.sweep import CrashSweepReport, run_crash_sweep

__all__ = [
    "CRASH_POINTS",
    "ChaosReport",
    "ClientCrash",
    "CrashInjector",
    "CrashSweepReport",
    "DEFAULT_SPEC",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultyTransport",
    "generate_ops",
    "replay",
    "run_chaos",
    "run_crash_sweep",
]
