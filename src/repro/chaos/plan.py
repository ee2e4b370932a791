"""Seeded fault plans: one integer → one reproducible fault schedule.

A :class:`FaultPlan` is consulted once per transport call and decides —
from a seeded RNG and nothing else — whether that call is faulted and
how. Replaying the same seed against the same workload therefore
replays the identical schedule, which is what makes chaos failures
debuggable: the plan also records every decision in :attr:`FaultPlan.history`
so two runs can be diffed event by event.

Two structural rules keep chaos runs *survivable by construction*, so
the runner can assert zero data loss instead of "usually fine":

* **Durable damage is confined to one server.** Torn stores and silent
  bit flips (the faults that damage or misreport committed bytes) only
  ever hit the plan's ``durable_victim``. Stripes place one member per
  server, so at most one member of any stripe is ever damaged — always
  within reach of single-parity reconstruction.
* **Fault bursts are bounded.** After ``max_consecutive`` consecutive
  faulted calls to one server the next call is forced clean. With the
  bound below a retry policy's attempt limit, a retried operation
  against a live server always succeeds eventually.

Wire faults (drops, delays, duplicates) rotate across servers: every
``victim_window`` decisions the targeted server advances, so the whole
cluster gets exercised over a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import ConfigError
from repro.rpc import messages as m

#: Request types the plan may fault. Mutating-but-not-idempotent
#: operations (ACL management, scripts) are excluded: duplicating or
#: tearing them has no safe client-side resolution, and none of them is
#: on the data path the chaos engine is probing.
FAULTABLE_REQUESTS = (
    m.StoreRequest,
    m.RetrieveRequest,
    m.MultiRetrieveRequest,
    m.DeleteRequest,
    m.PreallocateRequest,
    m.HoldsRequest,
    m.LastMarkedRequest,
)

WIRE_FAULTS = ("drop_request", "drop_response", "delay", "duplicate")
DURABLE_FAULTS = ("torn_store", "bit_flip")


def choose_kill_victims(seed: int, candidates: Sequence[str],
                        count: int = 1) -> List[str]:
    """Pick the servers a kill-server scenario will crash.

    Drawn from a dedicated RNG stream (not the plan's), so adding the
    kill decision never perturbs the wire-fault schedule of the same
    seed — the property replay checks depend on. Candidates are sorted
    first: the choice depends on the seed and the membership, never on
    dict ordering. ``count == 1`` reproduces the draw historical
    single-kill seeds were pinned against; larger counts sample without
    replacement and return the victims sorted.
    """
    pool = sorted(candidates)
    if count < 1:
        raise ConfigError("kill-victim count must be >= 1")
    if count > len(pool):
        raise ConfigError("cannot kill %d of %d candidate servers"
                          % (count, len(pool)))
    rng = random.Random(seed ^ 0xD1ED)
    if count == 1:
        return [rng.choice(pool)]
    return sorted(rng.sample(pool, count))


def choose_kill_victim(seed: int, candidates: Sequence[str]) -> str:
    """Single-victim compatibility wrapper for :func:`choose_kill_victims`."""
    return choose_kill_victims(seed, candidates, 1)[0]


@dataclass(frozen=True)
class FaultSpec:
    """Fault rates and shape knobs for a :class:`FaultPlan`.

    Rates are per-call probabilities; the four wire rates are compared
    against one draw cumulatively, so their sum is the overall wire
    fault rate and must stay ≤ 1.
    """

    drop_request: float = 0.10
    drop_response: float = 0.08
    delay: float = 0.08
    duplicate: float = 0.05
    torn_store: float = 0.20
    bit_flip: float = 0.25
    delay_s: float = 0.005
    victim_window: int = 16
    max_consecutive: int = 3
    pinned_victim: Optional[str] = None

    def validate(self) -> None:
        rates = (self.drop_request, self.drop_response, self.delay,
                 self.duplicate, self.torn_store, self.bit_flip)
        if any(not 0.0 <= rate <= 1.0 for rate in rates):
            raise ConfigError("fault rates must be in [0, 1]")
        wire = (self.drop_request + self.drop_response + self.delay
                + self.duplicate)
        if wire > 1.0:
            raise ConfigError("wire fault rates sum to %.3f > 1" % wire)
        if self.victim_window < 1:
            raise ConfigError("victim_window must be >= 1")
        if self.max_consecutive < 1:
            raise ConfigError("max_consecutive must be >= 1")


DEFAULT_SPEC = FaultSpec()


@dataclass(frozen=True)
class FaultEvent:
    """One fault decision, recorded for replay comparison."""

    index: int
    kind: str
    server_id: str
    request: str
    fid: int = -1
    arg: int = 0
    """Fault-specific argument (the bit index for ``bit_flip``)."""


class FaultPlan:
    """Seed-driven per-call fault schedule.

    Construct with a seed, :meth:`attach` the server set (done by
    :class:`~repro.chaos.transport.FaultyTransport`), then
    :meth:`decide` is consulted once per call. :meth:`stop` disables
    all further faults — the runner uses it before fsck and recovery.
    """

    def __init__(self, seed: int, spec: Optional[FaultSpec] = None) -> None:
        self.seed = seed
        self.spec = spec if spec is not None else DEFAULT_SPEC
        self.spec.validate()
        self._rng = random.Random(seed)
        self.history: List[FaultEvent] = []
        self.durable_victim: Optional[str] = None
        self._servers: List[str] = []
        self._consecutive: Dict[str, int] = {}
        self._torn_fids: Set[int] = set()
        self._decisions = 0
        self._active = True

    def attach(self, server_ids: Sequence[str]) -> None:
        """Bind the plan to a server set (sorted for determinism)."""
        self._servers = sorted(server_ids)
        if not self._servers:
            raise ConfigError("fault plan needs at least one server")
        self._consecutive = {sid: 0 for sid in self._servers}
        if self.spec.pinned_victim is not None:
            if self.spec.pinned_victim not in self._servers:
                raise ConfigError("pinned victim %r is not a server"
                                  % self.spec.pinned_victim)
            self.durable_victim = self.spec.pinned_victim
        else:
            self.durable_victim = self._rng.choice(self._servers)

    def stop(self) -> None:
        """Disable all further faults (history is kept)."""
        self._active = False

    @property
    def active(self) -> bool:
        """Whether the plan is still injecting faults."""
        return self._active

    @property
    def current_victim(self) -> Optional[str]:
        """Server currently targeted by wire faults (rotates)."""
        if not self._servers:
            return None
        window = self._decisions // self.spec.victim_window
        return self._servers[window % len(self._servers)]

    # ------------------------------------------------------------------

    def decide(self, server_id: str, request) -> Optional[FaultEvent]:
        """Fault decision for one call; None means the call runs clean."""
        if not self._active or self.durable_victim is None:
            return None
        if not isinstance(request, FAULTABLE_REQUESTS):
            return None
        victim = self.current_victim
        self._decisions += 1
        if self._consecutive.get(server_id, 0) >= self.spec.max_consecutive:
            # Budget spent: force a clean call so bounded retries always
            # reach a live server.
            self._consecutive[server_id] = 0
            return None
        kind = self._choose(server_id, victim, request)
        if kind is None:
            self._consecutive[server_id] = 0
            return None
        self._consecutive[server_id] = self._consecutive.get(server_id, 0) + 1
        fid = getattr(request, "fid", -1)
        arg = 0
        if kind == "bit_flip":
            arg = self._rng.randrange(1 << 30)
        if kind == "torn_store":
            self._torn_fids.add(fid)
        event = FaultEvent(index=len(self.history), kind=kind,
                           server_id=server_id,
                           request=type(request).__name__, fid=fid, arg=arg)
        self.history.append(event)
        return event

    def _choose(self, server_id: str, victim: Optional[str],
                request) -> Optional[str]:
        spec = self.spec
        roll = self._rng.random()
        if server_id == self.durable_victim:
            if (isinstance(request, m.StoreRequest)
                    and request.fid not in self._torn_fids
                    and roll < spec.torn_store):
                return "torn_store"
            if isinstance(request, m.RetrieveRequest) and roll < spec.bit_flip:
                return "bit_flip"
        if server_id != victim:
            return None
        threshold = 0.0
        for kind, rate in (("drop_request", spec.drop_request),
                           ("drop_response", spec.drop_response),
                           ("delay", spec.delay),
                           ("duplicate", spec.duplicate)):
            threshold += rate
            if roll < threshold:
                if kind == "drop_response" and isinstance(
                        request, (m.RetrieveRequest, m.MultiRetrieveRequest)):
                    # A lost retrieve reply is indistinguishable from a
                    # dropped request to the client and has no durable
                    # side effect; keep the cheaper shape.
                    return "drop_request"
                return kind
        return None
