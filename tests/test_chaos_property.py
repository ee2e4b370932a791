"""Property-based chaos tests: seeded fault schedules × op sequences.

The core property: for any workload and any fault plan whose durable
damage is confined to one server per stripe, a client stack with
retries + verified degraded reads loses no data — the state recovered
from the log alone equals a fault-free oracle, fsck can restore full
health, and replaying the seed reproduces the identical fault schedule.

Seeds come from ``CHAOS_SEEDS`` (comma-separated) so CI can mix fixed
seeds with a per-run one; every assertion message embeds the seed — the
failure is reproduced with ``python -m repro.chaos --seed <seed>``.
"""

import os

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev env
    HAVE_HYPOTHESIS = False

from repro.chaos.plan import FaultSpec
from repro.chaos.harness import generate_ops, oracle_state, replay
from repro.chaos.runner import run_chaos, run_cleaner_churn, run_kill_server

SEEDS = [int(s) for s in
         os.environ.get("CHAOS_SEEDS", "101,202,303").split(",") if s.strip()]

#: Hotter than the default spec: every fault kind well above its
#: default rate, faster victim rotation. Still within the survivable
#: envelope (one durable victim, bounded bursts).
HOT_SPEC = FaultSpec(drop_request=0.2, drop_response=0.15, delay=0.1,
                     duplicate=0.1, torn_store=0.4, bit_flip=0.4,
                     victim_window=8)


def _fail(report, what):
    pytest.fail("chaos seed=%d: %s\n  %s\n  reproduce: "
                "python -m repro.chaos --seed %d"
                % (report.seed, what, "\n  ".join(report.problems) or "-",
                   report.seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_zero_data_loss(seed):
    report = run_chaos(seed)
    if not report.ok:
        _fail(report, "invariants violated")


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_replays_identically(seed):
    first, second, identical = replay(run_chaos, seed)
    if not (first.ok and second.ok):
        _fail(first if not first.ok else second, "invariants violated")
    assert identical, (
        "chaos seed=%d: replay diverged (histories %s, digests %s vs %s)"
        % (seed, "equal" if first.fault_history == second.fault_history
           else "differ", first.state_digest[:12], second.state_digest[:12]))


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_hot_spec_exercises_every_fault_kind(seed):
    report = run_chaos(seed, ops=generate_ops(seed, n_ops=80), spec=HOT_SPEC)
    if not report.ok:
        _fail(report, "invariants violated under hot spec")
    kinds = {event.kind for event in report.fault_history}
    # The hot spec at 80 ops reliably triggers the durable faults plus
    # at least one wire fault; requiring all six would flake on seeds
    # whose rotation skips a kind.
    assert "torn_store" in kinds or "bit_flip" in kinds, (
        "chaos seed=%d: hot spec fired no durable faults (%s)"
        % (seed, sorted(kinds)))
    assert report.stats["faults_applied"] >= 5, (
        "chaos seed=%d: only %d faults applied under hot spec"
        % (seed, report.stats["faults_applied"]))


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_server_self_heals_with_zero_data_loss(seed):
    report = run_kill_server(seed)
    if not report.ok:
        _fail(report, "self-healing invariants violated (reproduce with "
                      "--kill-server)")
    assert report.stats["reform_gap_ops"] >= 0, (
        "chaos seed=%d: no automatic reform happened" % seed)
    assert report.stats["fragments_repaired"] > 0, (
        "chaos seed=%d: repair daemon did no work — the scenario is "
        "vacuous" % seed)


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_kill_server_replays_identically(seed):
    first, second, identical = replay(run_kill_server, seed)
    if not (first.ok and second.ok):
        _fail(first if not first.ok else second,
              "self-healing invariants violated (reproduce with "
              "--kill-server)")
    assert identical, (
        "chaos seed=%d: kill-server replay diverged (histories %s, "
        "digests %s vs %s)"
        % (seed, "equal" if first.fault_history == second.fault_history
           else "differ", first.state_digest[:12], second.state_digest[:12]))


#: The pre-pipelining write path: each store its own one-op plan, no
#: group commit.
SERIAL_PATH = {"pipeline_stores": False, "group_commit_bytes": 0}


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_chaos_outcome_invariant_across_write_path_configs(seed):
    """The recovered state must not depend on the write-path
    configuration: group commit reorders nothing and a scattered plan
    changes only overlap, so every config converges on the same oracle
    state.
    (The fault *schedules* legitimately differ — a scattered plan draws
    its decisions before any store executes, a serial path interleaves
    them — but each is deterministic under replay, which the replay
    tests assert per config.)"""
    base = run_chaos(seed)
    assert base.ok, base.problems
    other = run_chaos(seed, log_overrides=SERIAL_PATH)
    assert other.ok, (
        "chaos seed=%d overrides=%r: %s" % (seed, SERIAL_PATH, other.problems))
    assert other.state_digest == base.state_digest, (
        "chaos seed=%d: recovered state depends on %r" % (seed, SERIAL_PATH))


#: Read-ahead wide open: recovery and verification scans keep up to
#: four retrieves in flight.
READ_AHEAD = {"max_inflight_reads": 4}

#: The pre-windowing read path: one fragment ahead, exactly today's
#: serial prefetch.
SERIAL_READS = {"max_inflight_reads": 1}


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_zero_data_loss_with_read_ahead(seed):
    """The full chaos matrix must hold with the read window open —
    recovery rollforward prefetches through wire faults and torn
    stores, falling back to parity mid-window."""
    report = run_chaos(seed, log_overrides=READ_AHEAD)
    if not report.ok:
        _fail(report, "invariants violated with max_inflight_reads=4")


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_chaos_replays_identically_with_read_ahead(seed):
    first, second, identical = replay(run_chaos, seed,
                                      log_overrides=READ_AHEAD)
    if not (first.ok and second.ok):
        _fail(first if not first.ok else second,
              "invariants violated with max_inflight_reads=4")
    assert identical, (
        "chaos seed=%d: read-ahead replay diverged (histories %s, "
        "digests %s vs %s)"
        % (seed, "equal" if first.fault_history == second.fault_history
           else "differ", first.state_digest[:12], second.state_digest[:12]))


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_outcome_invariant_across_read_window(seed):
    """The read window must change overlap only, never outcomes:
    window=1 is exactly the old one-ahead prefetch, and any deeper
    window recovers the identical state, digest for digest."""
    base = run_chaos(seed)
    assert base.ok, base.problems
    for overrides in (SERIAL_READS, READ_AHEAD):
        other = run_chaos(seed, log_overrides=overrides)
        assert other.ok, (
            "chaos seed=%d overrides=%r: %s"
            % (seed, overrides, other.problems))
        assert other.state_digest == base.state_digest, (
            "chaos seed=%d: recovered state depends on %r"
            % (seed, overrides))


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_server_self_heals_with_read_ahead(seed):
    """Degraded reads mid-window: with a stripe-group member dead for
    good, every window the recovery scan dispatches contains fragments
    only parity can produce."""
    report = run_kill_server(seed, log_overrides=READ_AHEAD)
    if not report.ok:
        _fail(report, "self-healing invariants violated with "
                      "max_inflight_reads=4")
    assert report.stats["fragments_repaired"] > 0, (
        "chaos seed=%d: repair daemon did no work under read-ahead — "
        "the scenario is vacuous" % seed)


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_kill_server_replays_identically_with_both_windows(seed):
    first, second, identical = replay(
        run_kill_server, seed, log_overrides=READ_AHEAD)
    if not (first.ok and second.ok):
        _fail(first if not first.ok else second,
              "self-healing invariants violated with read-ahead")
    assert identical, (
        "chaos seed=%d: kill-server replay diverged with the read window "
        "open" % seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_cleaner_churn_zero_data_loss(seed):
    """The cleaner's batched harvest + pipelined re-append under wire
    faults: periodic cleaning passes move live blocks through the
    windowed read path and nothing is lost."""
    report = run_cleaner_churn(seed)
    if not report.ok:
        _fail(report, "cleaner-churn invariants violated (reproduce "
                      "with --cleaner)")
    assert report.stats["clean_passes"] > 0, (
        "chaos seed=%d: no cleaning pass ran — the scenario is vacuous"
        % seed)


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_cleaner_churn_replays_identically(seed):
    first, second, identical = replay(run_cleaner_churn, seed)
    if not (first.ok and second.ok):
        _fail(first if not first.ok else second,
              "cleaner-churn invariants violated (reproduce with "
              "--cleaner)")
    assert identical, (
        "chaos seed=%d: cleaner-churn replay diverged (histories %s, "
        "digests %s vs %s)"
        % (seed, "equal" if first.fault_history == second.fault_history
           else "differ", first.state_digest[:12], second.state_digest[:12]))


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_cleaner_churn_with_read_ahead(seed):
    report = run_cleaner_churn(seed, log_overrides=READ_AHEAD)
    if not report.ok:
        _fail(report, "cleaner-churn invariants violated with "
                      "max_inflight_reads=4")


def test_ops_and_oracle_are_deterministic():
    ops = generate_ops(12345)
    assert ops == generate_ops(12345)
    assert ops != generate_ops(12346)
    assert oracle_state(ops) == oracle_state(list(ops))


if HAVE_HYPOTHESIS:
    op_strategy = st.one_of(
        st.tuples(st.just("write"), st.integers(0, 11),
                  st.integers(0, 2 ** 20), st.integers(16, 1024)),
        st.tuples(st.just("trim"), st.integers(0, 11), st.just(0),
                  st.just(0)),
        st.tuples(st.just("read"), st.integers(0, 11), st.just(0),
                  st.just(0)),
    )

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 20),
           ops=st.lists(op_strategy, min_size=4, max_size=24))
    def test_property_recovered_state_matches_oracle(seed, ops):
        report = run_chaos(seed, ops=ops)
        assert report.ok, (
            "chaos seed=%d ops=%r: %s" % (seed, ops, report.problems))
        replay = run_chaos(seed, ops=ops)
        assert replay.fault_history == report.fault_history, (
            "chaos seed=%d: fault schedule did not replay" % seed)
        assert replay.state_digest == report.state_digest, (
            "chaos seed=%d: recovered state did not replay" % seed)
else:  # pragma: no cover
    @pytest.mark.skip(reason="hypothesis not installed")
    def test_property_recovered_state_matches_oracle():
        pass
