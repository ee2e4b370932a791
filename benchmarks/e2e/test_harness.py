"""Self-test of the swarm-e2e harness.

Run with ``python3 benchmarks/e2e/run.py --selftest`` or
``pytest benchmarks/e2e``. The tests are plain functions with plain
asserts so both runners can call them.
"""

from __future__ import annotations

import json

import run

harness, _import_s = run.load_harness()

import tracing  # noqa: E402  (needs the path load_harness set up)
import workloads  # noqa: E402


# -- statistics ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    assert harness.tail_percentile(samples, 0.99) == 989   # 10 beyond
    assert harness.tail_percentile(list(range(1024)), 0.99) == 1013
    for too_few in (999, 500, 10):
        try:
            harness.tail_percentile(list(range(too_few)), 0.99)
        except ValueError:
            pass
        else:
            raise AssertionError("p99 of %d samples accepted" % too_few)
    assert harness.tail_percentile(list(range(100)), 0.9) == 89


def test_iqr_is_the_quartile_distance():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert harness.median(values) == 4.0
    assert harness.iqr(values) == 4.0           # quartiles 2 and 6
    assert harness.iqr([3.0]) == 0.0


def test_quiet_mean_averages_the_best_eighth():
    values = [float(v) for v in (16, 1, 15, 2, 14, 3, 13, 4,
                                 12, 5, 11, 6, 10, 7, 9, 8)]
    assert harness.quiet_mean(values) == 1.5
    assert harness.quiet_mean(values, "higher") == 15.5
    assert harness.quiet_mean([5.0, 7.0]) == 5.0        # at least one


def test_quiet_round_drops_a_disturbance_at_any_position():
    # Eight identical rounds of three ops and two set-up steps; the host
    # hits a different position in each of three of them.
    rounds = []
    for hit in (None, 0, None, 1, None, 2, None, None):
        rnd = workloads.Round()
        rnd.setup = [0.010, 0.020 + (0.5 if hit == 0 else 0.0)]
        rnd.counts = {"rpcs": 7}
        for phase in rnd.phases.values():
            phase.durations = [1.0, 2.0, 3.0]
            phase.user_bytes = 600
            if hit is not None:
                phase.durations[hit] += 10.0
        rounds.append(rnd)
    quiet = harness.quiet_round(rounds)
    assert quiet.setup == [0.010, 0.020] and quiet.setup_s == 0.030
    assert quiet.counts == {"rpcs": 7}
    for phase in quiet.phases.values():
        assert phase.durations == [1.0, 2.0, 3.0]
        assert phase.user_bytes == 600
    # Round by round, three of the eight sums carry the disturbance.
    assert sorted(sum(r.phases["read"].durations) for r in rounds)[-3:] == [
        16.0, 16.0, 16.0]


def test_set_up_steps_tile_the_set_up():
    rnd = workloads.Round()
    rnd.begin_setup()
    for _ in range(3):
        rnd.step()
    assert len(rnd.setup) == 3 and min(rnd.setup) >= 0
    assert rnd.setup_s == sum(rnd.setup)


def test_schedule_warms_up_then_counts_or_fills_the_time():
    assert list(harness.schedule(0, 16, 2)) == [
        (False, False), (False, False), (True, False), (True, True)]
    assert list(harness.schedule(0, 16, 1)) == [(False, False), (True, True)]
    timed = list(harness.schedule(0.0, 3, None))   # no time: the floor
    assert timed[harness.WARMUP_ROUNDS:] == [
        (True, False), (True, False), (True, True)]


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_same_thread_children():
    #        key parent start end
    spans = [[0, -1, 0.0, 10.0],        # window
             [1, 0, 1.0, 4.0],          #   a
             [2, 1, 2.0, 3.0],          #     b
             [1, 0, 5.0, 9.0]]          #   a again
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_nest_finds_parents_from_the_intervals_alone():
    # Records arrive in return order (inner calls first), two threads
    # interleaved; an enclosing span may share its child's start tick.
    records = [(2, 7, 2.0, 3.0),        # b, inside a
               (1, 7, 1.0, 4.0),        # a, inside the window
               (3, 9, 2.5, 3.5),        # other thread, no parent
               (1, 7, 5.0, 9.0),        # a again
               (2, 7, 5.0, 6.0),        # b starting with its parent
               (0, 7, 0.0, 10.0)]       # the window
    by_thread = tracing.nest(records)
    assert by_thread[7] == [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0],
                            [2, 1, 2.0, 3.0], [1, 0, 5.0, 9.0],
                            [2, 3, 5.0, 6.0]]
    assert by_thread[9] == [[3, -1, 2.5, 3.5]]


def test_fold_moves_loop_thread_work_out_of_the_wait():
    keys = [tracing.WINDOW,
            ("rpc.net", "TcpTransport.call"),
            ("rpc.codec", "decode_message"),
            ("rpc.dispatch", "dispatch"),
            ("server.server", "StorageServer.store"),
            ("log.layer", "LogLayer.read")]
    caller = [[0, -1, 0.0, 10.0],       # window: 10 s
              [5, 0, 0.5, 9.5],         #   log.layer: 9 s, 1 s of its own
              [1, 1, 1.0, 9.0]]         #     blocked on the wire: 8 s
    loop = [[2, -1, 2.0, 3.0],          # codec 1 s
            [3, -1, 4.0, 7.0],          # dispatch 3 s ...
            [4, 1, 5.0, 6.0]]           #   ... of which the server 1 s
    budget = tracing.fold({1: caller, 2: loop}, keys, caller_thread=1,
                          keep=("TcpTransport.call",))
    assert budget.wall == 10.0
    assert budget.unattributed == 1.0
    assert budget.wait_s == 8.0
    assert budget.loop_busy_s == 4.0
    assert budget.self_s["rpc.net"] == 4.0          # 8 waited - 4 busy
    assert budget.self_s["rpc.codec"] == 1.0
    assert budget.self_s["rpc.dispatch"] == 2.0
    assert budget.self_s["server.server"] == 1.0
    assert budget.self_s["log.layer"] == 1.0
    assert sum(budget.self_s.values()) + budget.unattributed == budget.wall
    assert budget.durations == {"TcpTransport.call": [8.0]}
    assert budget.calls["rpc.dispatch"] == 1


# -- wrappers -----------------------------------------------------------------


def test_install_and_uninstall_leave_every_name_as_it_was():
    targets = list(tracing.iter_targets())
    assert len(targets) > 150
    assert {layer for layer, _o, _a, _d in targets} == set(tracing.LAYERS)
    before = [vars(owner)[attr] for _l, owner, attr, _d in targets]
    tracer = tracing.Tracer()
    for _ in range(2):      # the traced run installs once per traced round
        tracer.install()
        try:
            during = [vars(owner)[attr] for _l, owner, attr, _d in targets]
            assert all(new is not old for new, old in zip(during, before))
            # Installed but no window open: calls go straight through.
            from repro.log.fragment import crc32_of
            from repro.util.checksums import crc32_of as original
            assert crc32_of(b"swarm") == original(b"swarm")
            assert tracer.records == []
        finally:
            tracer.uninstall()
        after = [vars(owner)[attr] for _l, owner, attr, _d in targets]
        assert all(new is old for new, old in zip(after, before))
    assert len(tracer.keys) == len(targets) + 1     # no key added twice


def test_wrapper_records_spans_only_inside_a_window():
    from time import perf_counter

    tracer = tracing.Tracer()
    calls = []
    inner = tracer.wrap("log.fragment", "inner", calls.append)
    outer = tracer.wrap("log.layer", "outer", lambda x: inner(x) or x)
    assert outer(1) == 1 and tracer.records == []
    start = perf_counter()
    tracer.window_begin()
    assert outer(21) == 21
    try:
        tracer.wrap("log.layer", "boom", lambda: 1 / 0)()
    except ZeroDivisionError:
        pass                            # a raising call is still a span
    tracer.window_end(start, perf_counter())
    by_thread, wire_bytes = tracer.take_round()
    (spans,) = by_thread.values()
    assert [tracer.keys[span[0]][1] for span in spans] == [
        "op_window", "outer", "inner", "boom"]
    assert [span[1] for span in spans] == [-1, 0, 1, 0]
    assert wire_bytes == 0
    assert calls == [1, 21] and tracer.records == []


# -- workload generators ------------------------------------------------------


def test_size_and_popularity_grids_do_not_depend_on_the_seed():
    grid = workloads.pareto_grid(300, 2 << 10, 128 << 10)
    assert len(grid) == 300 and min(grid) >= 2 << 10 and max(grid) == 128 << 10
    counts = workloads.zipf_counts(270, 1500, 0.9)
    assert sum(counts) == 1500
    assert counts == sorted(counts, reverse=True)


def test_inputs_repeat_for_a_seed_and_totals_hold_across_seeds():
    workload = workloads.workload_named("fs_churn_local")
    first, again, other = (workload.make_inputs(seed) for seed in (7, 7, 8))
    assert first.writes == again.writes and first.reads == again.reads
    assert first.writes != other.writes

    def totals(inputs):
        return (sum(op[2] for op in inputs.writes if len(op) == 3),
                sum(size for _offset, size in inputs.oracle.values()),
                sum(inputs.oracle[path][1] for path in inputs.reads),
                sum(inputs.oracle[path][1] for path in inputs.degraded))

    assert totals(first) == totals(other)


# -- the contract file --------------------------------------------------------


def test_benchmark_json_names_what_the_harness_reports():
    with open(run.REPO / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert ([w["name"] for w in spec["workloads"]]
            == [w.name for w in workloads.all_workloads()])
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(harness.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(harness.PER_LAYER))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- two-round smoke of every workload ----------------------------------------


def _smoke(name: str):
    workload = workloads.workload_named(name)
    plain = harness.run_workload(workload, seed=3, seconds=0, traced=False,
                                 rounds=2)
    assert plain.correct, plain.count_diffs
    assert plain.failed == 0 and plain.attempted > 2000
    for metric, _unit, _better in harness.END_TO_END:
        assert plain.metrics[metric].value > 0, metric
    traced = harness.run_workload(workload, seed=3, seconds=0, traced=True,
                                  rounds=2)
    assert traced.correct, traced.count_diffs
    assert set(traced.metrics) == {m for m, _u, _b in harness.PER_LAYER}
    assert traced.counts == plain.counts       # tracing changes no count
    return traced.metrics


def _layer_is_idle(metrics, layer: str) -> bool:
    return all(summary.value == 0 for name, summary in metrics.items()
               if name.startswith(layer + "."))


def test_smoke_stream_local():
    metrics = _smoke("stream_local")
    assert _layer_is_idle(metrics, "rpc.net")
    assert _layer_is_idle(metrics, "rpc.codec")
    assert _layer_is_idle(metrics, "services.cleaner")
    assert metrics["log.coding.self_ms_per_mb"].value > 0


def test_smoke_stream_tcp():
    metrics = _smoke("stream_tcp")
    assert metrics["rpc.net.wait_ms_per_mb"].value > 0
    assert metrics["rpc.net.self_ms_per_mb"].value > 0
    assert metrics["rpc.codec.calls_per_mb"].value > 0
    assert metrics["rpc.net.wire_bytes_per_user_byte"].value > 1
    assert _layer_is_idle(metrics, "services.cleaner")


def test_smoke_smallops_tcp():
    metrics = _smoke("smallops_tcp")
    assert metrics["server.slots.commit_us_p50"].value > 0
    assert _layer_is_idle(metrics, "services.cache")
    assert _layer_is_idle(metrics, "services.cleaner")


def test_smoke_fs_churn_local():
    metrics = _smoke("fs_churn_local")
    assert _layer_is_idle(metrics, "rpc.net")
    assert _layer_is_idle(metrics, "rpc.codec")
    assert metrics["services.cleaner.stripes_cleaned"].value > 0
    assert 0.5 < metrics["services.cache.hit_share"].value < 1.0
    assert metrics["sting.self_ms_per_mb"].value > 0
