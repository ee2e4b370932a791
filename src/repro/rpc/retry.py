"""Bounded retries with exponential backoff for transport calls.

The paper's availability story assumes a server failure is *detected*
and routed around; real deployments also see servers that are merely
flaky — a dropped request, a lost reply, a transient refusal. This
module adds the standard remedy: a :class:`RetryPolicy` (bounded
attempts, exponential backoff with seeded jitter, a per-call deadline)
applied by a :class:`RetryingTransport` wrapper that any client-side
component (log layer, reader, reconstructor) can interpose over its
real transport.

Time handling: the functional transports are timeless, so backoff is
*virtual* — it is charged to the wrapped transport's deferred-time
ledger when one exists (:class:`~repro.rpc.transport.SimTransport`),
and merely accounted otherwise. No wall-clock sleeping ever happens,
which keeps tests fast and the simulated figures honest.

At-least-once hazards: a store whose *response* was lost has already
executed, so its retry fails with ``FragmentExistsError``. The wrapper
resolves the ambiguity with a read-repair: fetch the committed bytes,
accept them if they match the intent, otherwise delete the damaged
(torn) fragment and store it again. Deletes are idempotent the same
way — ``FragmentNotFoundError`` on a retried delete means the first
attempt won.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro import errors
from repro.rpc import messages as m
from repro.rpc.completion import CompletedFuture, capture
from repro.rpc.transport import TransportWrapper

TRANSIENT_ERRORS = (errors.ServerUnavailableError,)
"""Errors worth retrying: the server may answer the next attempt.
Everything else (not found, exists, ACL denials, bad requests) is a
definitive answer and is surfaced immediately."""


def _failed_transiently(future) -> bool:
    """Whether ``future`` resolved to an error worth retrying."""
    return future.triggered and isinstance(future.exception,
                                           TRANSIENT_ERRORS)


def wrap_transport(transport, policy: Optional["RetryPolicy"], monitor=None,
                   sleep=None):
    """Interpose a :class:`RetryingTransport` when a policy is given.

    The one canonical way client components (log layer, reader,
    reconstructor) accept an optional retry policy: ``None`` returns
    the transport unchanged, anything else wraps it exactly once.
    ``monitor`` (a :class:`~repro.health.monitor.HealthMonitor`) is fed
    every per-server outcome the wrapper sees; it requires a policy,
    because without the wrapper nothing would feed it. ``sleep`` is the
    wall-clock backoff hook for real-wire transports (see
    :class:`RetryingTransport`).
    """
    if policy is None:
        if monitor is not None:
            raise errors.ConfigError(
                "a health monitor needs a retry policy to feed it")
        if sleep is not None:
            raise errors.ConfigError(
                "a retry sleep hook needs a retry policy to drive it")
        return transport
    return RetryingTransport(transport, policy, monitor=monitor, sleep=sleep)


def charge_delay(transport, seconds: float) -> bool:
    """Charge ``seconds`` of simulated time to ``transport``.

    Walks wrapper chains (``.inner``) looking for a deferred-time
    ledger; returns False when the stack is purely functional (timeless)
    and the delay is accounting-only. The ledger is charged only
    outside a running simulation: it is read by the next out-of-run
    measurement, so a delay decided inside a run would land in a
    figure it never delayed.
    """
    node = transport
    while node is not None:
        ledger = getattr(node, "deferred_time", None)
        if ledger is not None:
            if node.submit_is_synchronous:
                node.deferred_time = ledger + seconds
            return True
        node = getattr(node, "inner", None)
    return False


class RetryPolicy:
    """How hard to try before declaring a server unreachable.

    Backoff for attempt ``n`` (1-based) is
    ``min(max_backoff_s, base_backoff_s * multiplier**(n-1))`` scaled by
    a seeded jitter factor in ``[1-jitter, 1+jitter]`` — seeded so a
    replayed chaos run makes identical backoff decisions. The running
    sum of backoffs is compared against ``deadline_s``: a call whose
    virtual elapsed time would exceed the deadline stops retrying.
    """

    def __init__(self, max_attempts: int = 5, base_backoff_s: float = 0.002,
                 multiplier: float = 2.0, max_backoff_s: float = 0.25,
                 deadline_s: float = float("inf"), jitter: float = 0.5,
                 seed: int = 0) -> None:
        if max_attempts < 1:
            raise errors.ConfigError("max_attempts must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise errors.ConfigError("jitter must be in [0, 1)")
        self.max_attempts = max_attempts
        self.base_backoff_s = base_backoff_s
        self.multiplier = multiplier
        self.max_backoff_s = max_backoff_s
        self.deadline_s = deadline_s
        self.jitter = jitter
        self.seed = seed
        self._rng = random.Random(seed)

    def backoff_for(self, attempt: int) -> float:
        """Backoff after failed attempt ``attempt`` (1-based), jittered."""
        base = min(self.max_backoff_s,
                   self.base_backoff_s * self.multiplier ** (attempt - 1))
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return base


class RetryingTransport(TransportWrapper):
    """Applies a :class:`RetryPolicy` to every synchronous call, and
    counts every RPC outcome it passes.

    Wraps any transport; only transient errors are retried, with the
    at-least-once resolutions described in the module docstring. A
    running simulation's process path passes through unretried, but
    not unseen: each such future is scored (per-server counts and the
    failure detector) once, when it resolves. This is the one place an
    RPC outcome is counted.
    """

    def __init__(self, inner, policy: RetryPolicy, monitor=None,
                 sleep=None) -> None:
        super().__init__(inner)
        self.policy = policy
        self.monitor = monitor
        # Wall-clock backoff: over a real wire (the TCP plane) there is
        # no deferred-time ledger to charge, so the backoff must *be*
        # waited, not merely accounted. ``sleep`` (e.g. ``time.sleep``)
        # is called with the backoff seconds whenever no ledger
        # absorbed them; the default None keeps functional tests
        # timeless exactly as before.
        self.sleep = sleep
        if monitor is not None:
            # Probes go out below the retry layer: one RPC each, not a
            # whole backoff ladder against a server already known sick.
            monitor.attach(inner)
        # Statistics (read by the chaos runner and tests).
        self.retries = 0
        self.backoff_charged_s = 0.0
        self.exhausted = 0
        self.ambiguous_resolutions = 0
        self.per_server: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Health accounting
    # ------------------------------------------------------------------

    def _stats(self, server_id: str) -> Dict[str, float]:
        stats = self.per_server.get(server_id)
        if stats is None:
            stats = self.per_server[server_id] = {
                "successes": 0, "failures": 0, "retries": 0,
                "exhausted": 0, "backoff_s": 0.0,
            }
        return stats

    def _observe(self, server_id: str, ok: bool) -> None:
        """One attempt outcome: count it and feed the failure detector.

        ``ok`` means the server answered — definitive application
        errors (not-found, exists, ACL denials) are proof of life and
        are reported as successes; only transient unreachability counts
        against a server's health.
        """
        self._stats(server_id)["successes" if ok else "failures"] += 1
        if self.monitor is not None:
            self.monitor.observe(server_id, ok)

    def _note_exhausted(self, server_id: str) -> None:
        self.exhausted += 1
        self._stats(server_id)["exhausted"] += 1
        if self.monitor is not None:
            self.monitor.note_exhausted(server_id)

    def health_report(self) -> Dict[str, object]:
        """Structured per-server outcome counters (one source of truth
        for the monitor, the chaos runner, and the tests)."""
        return {
            "totals": {
                "retries": self.retries,
                "backoff_charged_s": self.backoff_charged_s,
                "exhausted": self.exhausted,
                "ambiguous_resolutions": self.ambiguous_resolutions,
            },
            "servers": {sid: dict(stats)
                        for sid, stats in sorted(self.per_server.items())},
        }

    def _wait(self, backoff: float) -> None:
        """Spend one backoff: simulated ledger first, wall clock second."""
        if not charge_delay(self.inner, backoff) and self.sleep is not None:
            self.sleep(backoff)

    # ------------------------------------------------------------------

    def call(self, server_id: str, request, _resolve: bool = True):
        # The first attempt is inline: an answered call (the common
        # case by far) must not pay for building a plan, a future list
        # and a loop it never enters.
        try:
            response = self.inner.call(server_id, request)
        except TRANSIENT_ERRORS as exc:
            self._observe(server_id, ok=False)
            failed = CompletedFuture(exception=exc)
        except errors.SwarmError:
            # A definitive application error: the server answered.
            self._observe(server_id, ok=True)
            raise
        else:
            self._observe(server_id, ok=True)
            return response
        return self._retry([(server_id, request)], [failed], self._call_each,
                           _resolve)[0].result()

    def _call_each(self, plan) -> List[CompletedFuture]:
        """One attempt of every operation of ``plan``, one call each."""
        return [capture(self.inner.call, server_id, request)
                for server_id, request in plan]

    def submit_many(self, plan):
        """Fan out with per-operation retries, keeping the overlap.

        The whole plan goes to the inner transport in one scatter;
        only the operations that failed transiently are re-scattered
        (see :meth:`_retry`). A running simulation's process path passes
        through unretried (a simulated process cannot be re-run from
        inside the run), and each of its futures is observed when it
        resolves.
        """
        plan = list(plan)
        if not self.submit_is_synchronous:
            futures = self.inner.submit_many(plan)
            return [self._scored_on_resolve(server_id, future)
                    for (server_id, _request), future in zip(plan, futures)]
        futures = list(self.inner.submit_many(plan))
        self._observe_scatter(plan, futures)
        return self._retry(plan, futures, self.inner.submit_many, True)

    def _retry(self, plan, futures, attempt_all, resolve: bool):
        """The retry loop: re-attempt what failed transiently, in rounds.

        ``futures`` are the observed outcomes of the first attempt of
        ``plan``; ``attempt_all`` runs one more attempt of a sub-plan.
        Only the operations that failed transiently are re-attempted,
        with the round's backoffs overlapping each other the same way
        the operations do (the ledger is charged the round's *maximum*
        backoff, not the sum). A retried operation that collides with
        its own earlier, reply-lost attempt is resolved per operation
        (:meth:`_disambiguated`): an existing fragment on a retried
        preallocate/store, or a missing fragment on a retried delete,
        means the first attempt won. An operation still failing after
        ``max_attempts``, or whose next backoff would pass the
        deadline, is counted exhausted and keeps its last failure.
        """
        policy = self.policy
        elapsed = [0.0] * len(plan)
        for attempt in range(1, policy.max_attempts):
            retry_indices = []
            for index, future in enumerate(futures):
                if _failed_transiently(future):
                    backoff = policy.backoff_for(attempt)
                    if elapsed[index] + backoff > policy.deadline_s:
                        continue  # over deadline: counted exhausted below
                    elapsed[index] += backoff
                    retry_indices.append((index, backoff))
            if not retry_indices:
                break
            # The operations back off concurrently: charge the slowest.
            round_backoff = max(backoff for _i, backoff in retry_indices)
            self.retries += len(retry_indices)
            for index, backoff in retry_indices:
                stats = self._stats(plan[index][0])
                stats["retries"] += 1
                stats["backoff_s"] += backoff
            self.backoff_charged_s += round_backoff
            self._wait(round_backoff)
            retry_plan = [plan[index] for index, _backoff in retry_indices]
            retried = attempt_all(retry_plan)
            self._observe_scatter(retry_plan, retried)
            for (index, _backoff), future in zip(retry_indices, retried):
                futures[index] = self._disambiguated(plan[index], future,
                                                     resolve)
        for index, future in enumerate(futures):
            if _failed_transiently(future):
                self._note_exhausted(plan[index][0])
        return futures

    def _scored_on_resolve(self, server_id: str, future):
        """``future`` (a simulator process, or a completion a fault
        resolved at submit time), observed when it resolves."""
        future.add_callback(lambda done: self._observe(
            server_id, not _failed_transiently(done)))
        return future

    def _observe_scatter(self, plan, futures) -> None:
        """Feed one scatter round's per-operation outcomes."""
        for (server_id, _request), future in zip(plan, futures):
            if future.triggered:
                self._observe(server_id, not _failed_transiently(future))

    def _disambiguated(self, operation, future, resolve: bool):
        """Resolve a retried operation's at-least-once ambiguity.

        ``resolve`` is False inside :meth:`_resolve_already_exists`:
        that suppresses only the *recursive* exists-resolution — a
        retried delete that finds nothing has still deleted.
        """
        server_id, request = operation
        if future.ok:
            return future
        if resolve and isinstance(future.exception,
                                  errors.FragmentExistsError):
            resolved = self._resolve_already_exists(server_id, request)
            if resolved is not None:
                self.ambiguous_resolutions += 1
                return CompletedFuture(value=resolved)
        if (isinstance(future.exception, errors.FragmentNotFoundError)
                and isinstance(request, m.DeleteRequest)):
            # The earlier attempt deleted it; only the reply was lost.
            self.ambiguous_resolutions += 1
            return CompletedFuture(value=m.Response())
        return future

    # ------------------------------------------------------------------

    def _resolve_already_exists(self, server_id: str,
                                request) -> Optional[m.Response]:
        """Disambiguate ``FragmentExistsError`` on a retried write.

        For a preallocate, existing *is* success. For a store, compare
        the committed bytes against the intent: equal means the earlier
        attempt committed and only its reply was lost; different means
        the fragment is torn (a partial store was made durable), so
        delete and write it whole again. Returns None when the
        resolution itself fails — the caller then reports the original
        error and the stripe stays degraded-but-recoverable.
        """
        if isinstance(request, m.PreallocateRequest):
            return m.Response()
        if not isinstance(request, m.StoreRequest):
            return None
        try:
            if self._committed(server_id, request):
                return m.Response()
            self.call(server_id, m.DeleteRequest(
                fid=request.fid, principal=request.principal),
                _resolve=False)
            try:
                return self.call(server_id, request, _resolve=False)
            except errors.FragmentExistsError:
                # The re-store's own reply was lost and its retry
                # collided with itself; compare once more, no further.
                return m.Response() if self._committed(
                    server_id, request) else None
        except errors.SwarmError:
            return None

    def _committed(self, server_id: str, request: m.StoreRequest) -> bool:
        """Whether the server holds exactly the bytes ``request`` stores."""
        probe = self.call(server_id, m.RetrieveRequest(
            fid=request.fid, principal=request.principal), _resolve=False)
        return bytes(probe.payload) == bytes(request.data)
