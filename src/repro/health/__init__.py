"""Self-healing: failure detection, automatic reform, background repair.

The paper's availability claim — a client "continues operating despite
a server failure" — needs three cooperating pieces, and this package
closes that loop:

* :class:`~repro.health.monitor.HealthMonitor` — a per-server failure
  detector fed by the retry layer's RPC outcomes. An EWMA of failures
  plus consecutive-failure counting moves a server ``healthy →
  suspect → dead``; seeded idempotent probes grant probation and
  readmission once the server answers again.
* Automatic stripe-group reform — the log layer subscribes to the
  monitor and, on a ``dead`` verdict, reforms its group onto a spare
  (declared in :class:`~repro.log.config.LogConfig`) without operator
  intervention. The reaction is
  :meth:`~repro.log.layer.LogLayer._on_health_transition`, wired in by
  the log layer's ``health_monitor=`` argument.
* :class:`~repro.health.repair.RepairDaemon` — a background scrubber
  that enumerates stripes touching a dead server, re-materializes the
  lost fragments onto the replacement under a repair-bandwidth
  throttle, and records progress so a crashed repair resumes instead
  of restarting. fsck's repair runs through it too.
"""

from repro.health.monitor import (
    DEAD,
    HEALTHY,
    HealthMonitor,
    PROBATION,
    ServerHealth,
    SUSPECT,
)
from repro.health.repair import RepairDaemon

__all__ = [
    "DEAD",
    "HEALTHY",
    "HealthMonitor",
    "PROBATION",
    "RepairDaemon",
    "ServerHealth",
    "SUSPECT",
]
