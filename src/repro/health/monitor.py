"""Per-server failure detection.

The monitor never issues traffic of its own for scoring: it is *fed*
by the layers that already talk to servers — every attempt outcome the
:class:`~repro.rpc.retry.RetryingTransport` sees (synchronous calls,
scatter fan-outs, simulated processes as they resolve, retry
exhaustions) becomes one observation here. The score per server is two
signals the spec-sheet failure detectors (Lustre's health network,
SWIM-style suspicion) also use:

* an **EWMA of failures** — smooth evidence, robust to one-off drops;
* a **consecutive-failure count** — sharp evidence; a chaos plan with
  bounded fault bursts can never push a *live* server past a small
  count, so a long run of straight failures means the server is down,
  not flaky.

State machine::

    healthy --(ewma high + consecutive)--> suspect
    suspect --(more consecutive / retry exhaustions)--> dead
    dead    --(successful probe or call)--> probation
    probation --(READMIT_PROBES successes)--> healthy
    probation --(any failure)--> dead

Verdicts are *pushed*: subscribers (the log layer's auto-reform hook)
register callbacks and are told about every transition synchronously,
so a ``dead`` verdict raised mid-write can reform the stripe group
before the next stripe is placed.

Probing is seeded and deterministic: every ``PROBE_INTERVAL``
observations the monitor sends one idempotent ``HoldsRequest`` (empty
fid list — pure liveness, no side effects) to the next non-healthy
server in rotation. A replayed chaos run therefore probes at the same
points and makes identical readmission decisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import SwarmError

HEALTHY = "healthy"
SUSPECT = "suspect"
DEAD = "dead"
PROBATION = "probation"

TransitionHook = Callable[[str, str, str], None]
"""``hook(server_id, old_status, new_status)``."""


# Detector thresholds, tuned against the chaos engine's survivable
# envelope: a fault plan forces a clean call after ``max_consecutive``
# (default 3) consecutive faulted calls to one server, so a *live*
# server never accumulates more than 3 straight failures — while a
# crashed one fails every call. DEAD_CONSECUTIVE (6) and
# DEAD_EXHAUSTIONS (2) therefore only ever fire on servers that are
# genuinely unreachable, never on merely flaky ones.
EWMA_ALPHA = 0.3          # weight of the newest observation in the EWMA
SUSPECT_EWMA = 0.5        # EWMA at or above which a server may be suspect
SUSPECT_CONSECUTIVE = 3   # consecutive failures (with the EWMA) to suspect
DEAD_CONSECUTIVE = 6      # consecutive failures that alone prove death
DEAD_EXHAUSTIONS = 2      # retry exhaustions in a row that prove death
PROBE_INTERVAL = 8        # observations between probes of non-healthy servers
READMIT_PROBES = 3        # successes a server in probation needs to return


@dataclass
class ServerHealth:
    """The monitor's verdict state for one server.

    Outcome counts are not kept here: the retry layer's ``per_server``
    counts every RPC outcome once (see
    :meth:`~repro.rpc.retry.RetryingTransport.health_report`).
    """

    server_id: str
    status: str = HEALTHY
    ewma: float = 0.0
    consecutive_failures: int = 0
    consecutive_exhaustions: int = 0
    probation_successes: int = 0
    # Probe counters (never reset; the chaos runner reads ``probes``).
    probes: int = 0
    probe_successes: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat counter view for :meth:`HealthMonitor.health_report`."""
        return {
            "status": self.status,
            "ewma": self.ewma,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_exhaustions": self.consecutive_exhaustions,
            "probes": self.probes,
            "probe_successes": self.probe_successes,
        }


class HealthMonitor:
    """Scores per-server RPC outcomes into health verdicts.

    Attach it to a :class:`~repro.rpc.retry.RetryingTransport` (pass it
    as the transport's ``monitor``) and every call outcome feeds the
    detector; or drive :meth:`observe` / :meth:`note_exhausted`
    directly in tests.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._servers: Dict[str, ServerHealth] = {}
        self._transport = None  # probe channel (below the retry layer)
        self._hooks: List[TransitionHook] = []
        self._observations = 0
        self.transitions: List[Tuple[str, str, str]] = []
        """Every ``(server_id, old, new)`` transition, in order."""

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, transport) -> None:
        """Bind the probe channel and pre-register its servers.

        ``transport`` should sit *below* the retry layer — probes are
        single unretried calls, so a probe against a dead server costs
        one RPC, not a whole backoff ladder.
        """
        self._transport = transport
        for server_id in transport.server_ids():
            self._state(server_id)

    def on_transition(self, hook: TransitionHook) -> None:
        """Subscribe to status transitions (called synchronously)."""
        self._hooks.append(hook)

    def _state(self, server_id: str) -> ServerHealth:
        state = self._servers.get(server_id)
        if state is None:
            state = self._servers[server_id] = ServerHealth(server_id)
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self, server_id: str) -> str:
        """Current verdict for ``server_id`` (unknown servers: healthy)."""
        return self._state(server_id).status

    def is_usable(self, server_id: str) -> bool:
        """Whether new stripes may be placed on ``server_id``."""
        return self._state(server_id).status in (HEALTHY, SUSPECT)

    def health_report(self) -> Dict[str, object]:
        """Structured snapshot: per-server verdict state, transitions,
        and the number of outcomes observed."""
        return {
            "servers": {sid: state.as_dict()
                        for sid, state in sorted(self._servers.items())},
            "transitions": list(self.transitions),
            "observations": self._observations,
        }

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def observe(self, server_id: str, ok: bool) -> None:
        """Feed one RPC outcome. ``ok`` means the server *answered* —
        a definitive application error (not-found, ACL denial) is still
        proof of life; only unreachability counts as failure."""
        self._observations += 1
        self._score(self._state(server_id), ok)
        self._maybe_probe()

    def note_exhausted(self, server_id: str) -> None:
        """A whole retry ladder against ``server_id`` failed."""
        state = self._state(server_id)
        state.consecutive_exhaustions += 1
        if state.consecutive_exhaustions >= DEAD_EXHAUSTIONS:
            self._transition(state, DEAD)

    def _score(self, state: ServerHealth, ok: bool) -> None:
        """Fold one outcome into the EWMA and the consecutive counts,
        then run the state machine."""
        if ok:
            state.ewma *= (1.0 - EWMA_ALPHA)
            state.consecutive_failures = 0
            state.consecutive_exhaustions = 0
            self._on_success(state)
        else:
            state.ewma = (1.0 - EWMA_ALPHA) * state.ewma + EWMA_ALPHA
            state.consecutive_failures += 1
            self._on_failure(state)

    def _on_success(self, state: ServerHealth) -> None:
        if state.status == SUSPECT:
            self._transition(state, HEALTHY)
        elif state.status == DEAD:
            # The server answered real traffic: treat like a successful
            # probe — probation, not instant readmission.
            state.probation_successes = 1
            self._transition(state, PROBATION)
        elif state.status == PROBATION:
            state.probation_successes += 1
            if state.probation_successes >= READMIT_PROBES:
                self._transition(state, HEALTHY)

    def _on_failure(self, state: ServerHealth) -> None:
        if state.status == PROBATION:
            state.probation_successes = 0
            self._transition(state, DEAD)
            return
        if state.consecutive_failures >= DEAD_CONSECUTIVE:
            self._transition(state, DEAD)
            return
        if (state.status == HEALTHY
                and state.consecutive_failures >= SUSPECT_CONSECUTIVE
                and state.ewma >= SUSPECT_EWMA):
            self._transition(state, SUSPECT)

    def _transition(self, state: ServerHealth, new_status: str) -> None:
        if state.status == new_status:
            return
        old, state.status = state.status, new_status
        if new_status == HEALTHY:
            state.probation_successes = 0
            state.consecutive_exhaustions = 0
        self.transitions.append((state.server_id, old, new_status))
        for hook in self._hooks:
            hook(state.server_id, old, new_status)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def probe(self, server_id: str) -> bool:
        """Send one idempotent liveness probe; feeds the state machine.

        A successful probe moves ``dead → probation`` and counts toward
        readmission; a failed one confirms the verdict. Returns the
        probe's success. No-op (False) when no transport is attached.
        """
        if self._transport is None:
            return False
        state = self._state(server_id)
        state.probes += 1
        try:
            self._transport.probe(server_id)
        except SwarmError:
            ok = False
        else:
            ok = True
            state.probe_successes += 1
        # Probe outcomes go through the same scoring as real traffic so
        # readmission needs genuine evidence, not one lucky packet.
        self.observe_probe(server_id, ok)
        return ok

    def observe_probe(self, server_id: str, ok: bool) -> None:
        """Score a probe outcome (no recursive probe scheduling)."""
        self._score(self._state(server_id), ok)

    def _maybe_probe(self) -> None:
        """Every ``PROBE_INTERVAL`` observations, probe one non-healthy
        server (rotating, so all suspects get coverage)."""
        if self._transport is None:
            return
        if self._observations % PROBE_INTERVAL != 0:
            return
        candidates = sorted(sid for sid, st in self._servers.items()
                            if st.status != HEALTHY)
        if not candidates:
            return
        # Seeded choice: a replayed run probes the same servers at the
        # same observation counts.
        self.probe(candidates[self._rng.randrange(len(candidates))])
