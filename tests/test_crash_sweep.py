"""Tests for the client crash-point registry, injector, and sweep."""

import pytest

from repro.chaos.crashpoints import CRASH_POINTS, ClientCrash, CrashInjector
from repro.chaos.harness import replay
from repro.chaos.runner import run_kill_server
from repro.chaos.sweep import _pick_occurrences, run_crash_sweep


class TestRegistry:
    def test_at_least_eight_named_points(self):
        assert len(CRASH_POINTS) >= 8
        assert len(set(CRASH_POINTS)) == len(CRASH_POINTS)

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            CrashInjector(point="no-such-point")

    def test_occurrence_is_one_based(self):
        with pytest.raises(ValueError):
            CrashInjector(point=CRASH_POINTS[0], occurrence=0)


class TestInjector:
    def test_census_counts_without_raising(self):
        injector = CrashInjector()
        for _ in range(3):
            injector.hit("stripe_seal")
        injector.hit("scatter_dispatch")
        census = injector.census()
        assert census["stripe_seal"] == 3
        assert census["scatter_dispatch"] == 1
        assert census["cleaner_fence"] == 0
        assert injector.crashed_at is None

    def test_armed_raises_at_kth_hit_only(self):
        injector = CrashInjector(point="stripe_seal", occurrence=2)
        injector.hit("stripe_seal")          # hit 1: survives
        injector.hit("scatter_dispatch")     # other points never trigger
        with pytest.raises(ClientCrash) as info:
            injector.hit("stripe_seal")      # hit 2: dies
        assert info.value.point == "stripe_seal"
        assert info.value.occurrence == 2
        assert injector.crashed_at == ("stripe_seal", 2)

    def test_trace_numbers_hits_per_point(self):
        injector = CrashInjector()
        injector.hit("stripe_seal")
        injector.hit("scatter_dispatch")
        injector.hit("stripe_seal")
        assert injector.trace == [("stripe_seal", 1),
                                  ("scatter_dispatch", 1),
                                  ("stripe_seal", 2)]

    def test_client_crash_escapes_except_exception(self):
        """A simulated kill -9 must not be swallowed by the write path's
        ``except Exception`` guards."""
        assert issubclass(ClientCrash, BaseException)
        assert not issubclass(ClientCrash, Exception)


class TestOccurrencePicking:
    def test_all_occurrences_when_few(self):
        assert _pick_occurrences(3, cap=4) == [1, 2, 3]

    def test_evenly_spaced_sample_when_many(self):
        picks = _pick_occurrences(40, cap=4)
        assert picks[0] == 1
        assert picks[-1] == 40
        assert 2 <= len(picks) <= 4
        assert picks == sorted(set(picks))

    def test_zero_hits_picks_nothing(self):
        assert _pick_occurrences(0, cap=4) == []


class TestSweep:
    def test_mid_scatter_kill_holds_oracle(self):
        report = run_crash_sweep(7, point="scatter_dispatch", occurrence=2)
        assert report.ok, report.problems
        assert report.pairs
        assert report.pairs[0][0] == "scatter_dispatch"

    def test_post_store_pre_ack_kill_holds_oracle(self):
        """The classic window: data durable, client dies unacked —
        recovery must surface it (or atomically not), never tear it."""
        report = run_crash_sweep(7, point="post_store_pre_ack",
                                 occurrence=1)
        assert report.ok, report.problems

    def test_checkpoint_table_kill_recovers_previous_generation(self):
        report = run_crash_sweep(7, point="checkpoint_table_append",
                                 occurrence=1)
        assert report.ok, report.problems

    def test_cleaner_fence_kill_duplicates_converge(self):
        """Dying between the cleaner's re-append and its deletes leaves
        both copies of every moved block durable; rollforward must
        apply a single consistent winner."""
        report = run_crash_sweep(7, point="cleaner_fence", occurrence=1)
        assert report.ok, report.problems

    def test_full_sweep_covers_every_point_and_replays(self):
        first, second, identical = replay(run_crash_sweep, 11, occ_cap=1)
        assert first.ok, first.problems
        assert second.ok, second.problems
        assert identical
        for name in CRASH_POINTS:
            assert first.census.get(name, 0) >= 1, (
                "crash point %s never fired" % name)
        assert len(first.pairs) >= len(CRASH_POINTS)
        assert first.state_digest == second.state_digest


class TestKillServerRestart:
    def test_victim_readmitted_via_probation(self):
        report = run_kill_server(77, restart=True)
        assert report.ok, report.problems
        assert report.stats["restarted"] == 1
        assert report.stats["readmitted"] == 1
        assert report.stats["stale_reads_checked"] > 0

    def test_restart_replays_bit_identically(self):
        first = run_kill_server(31, restart=True)
        second = run_kill_server(31, restart=True)
        assert first.ok, first.problems
        assert first.state_digest == second.state_digest
        assert first.stats == second.stats
