"""Round loop, statistics, metric definitions and reporting of swarm-e2e.

A run is R identical rounds of one workload (see ``workloads``): op i
of every round is the same operation on the same bytes against an
identically built cluster. The run therefore de-noises at the smallest
unit that repeats: every single timing (an op, a set-up step) becomes
the mean of the quietest eighth of the R timings at its position
(:func:`quiet_mean`, :func:`quiet_round`), and the end-to-end metrics
are computed once, from that quiet round. The median and the
inter-quartile range of the same metric computed round by round are
printed beside it, so a noisy host shows in the output. Exact counts
must be identical in every round.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import zlib
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import tracing
from workloads import PHASES, Round, Workload

MB = 1e6
WARMUP_ROUNDS = 2
MIN_ROUNDS = 16            # measured rounds, untraced run
MIN_TRACED_PAIRS = 8       # measured (plain, traced) pairs, traced run
OUT_DIR = Path(__file__).resolve().parent / "out"

#: name, unit, better — what a user of the system sees. Bounds live in
#: BENCHMARK.json (set from CALIBRATION.md).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("write_mb_s", "MB/s", "higher"),
    ("read_mb_s", "MB/s", "higher"),
    ("degraded_read_mb_s", "MB/s", "higher"),
    ("write_p50_ms", "ms", "lower"),
    ("write_p99_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("stored_bytes_per_user_byte", "B/B", "lower"),
    ("retrieved_bytes_per_user_byte", "B/B", "lower"),
    ("space_bytes_per_live_byte", "B/B", "lower"),
    ("rpcs_per_mb", "1/MB", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

_LAYER_EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    # Measured like an end-to-end metric, on the untraced rounds, but it
    # does not repeat well enough on a shared host to be gated (README):
    # reported here, where nothing is bounded.
    ("read_p99_ms", "ms", "lower"),
    ("services.cache.hit_share", "share", "higher"),
    ("services.cleaner.run_share", "share", "lower"),
    ("services.cleaner.moved_bytes_per_user_byte", "B/B", "lower"),
    ("services.cleaner.stripes_cleaned", "count", "higher"),
    ("services.cleaner.clean_ms_p50", "ms", "lower"),
    ("log.layer.flush_wait_ms_p50", "ms", "lower"),
    ("log.location.hit_share", "share", "higher"),
    ("log.location.broadcasts", "count", "lower"),
    ("log.reconstruct.reconstructions", "count", "lower"),
    ("log.reconstruct.fetched_bytes_per_user_byte", "B/B", "lower"),
    ("log.recovery.recover_all_ms", "ms", "lower"),
    ("rpc.retry.retries_per_rpc", "1/rpc", "lower"),
    ("rpc.retry.exhausted", "count", "lower"),
    ("rpc.net.wait_ms_per_mb", "ms/MB", "lower"),
    ("rpc.net.frames_per_mb", "1/MB", "lower"),
    ("rpc.net.wire_bytes_per_user_byte", "B/B", "lower"),
    ("rpc.net.call_ms_p50", "ms", "lower"),
    ("rpc.net.scatter_ms_p50", "ms", "lower"),
    ("server.server.store_ms_p50", "ms", "lower"),
    ("server.server.retrieve_ms_p50", "ms", "lower"),
    ("server.slots.commit_us_p50", "us", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("harness.host_spin_ms", "ms", "lower"),
    ("harness.import_s", "s", "lower"),
    ("harness.inputs_s", "s", "lower"),
    ("harness.rounds", "count", "higher"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    spec for layer in tracing.LAYERS
    for spec in ((layer + ".self_ms_per_mb", "ms/MB", "lower"),
                 (layer + ".calls_per_mb", "1/MB", "lower"))
) + _LAYER_EXTRAS

#: name -> (unit, better) of every metric a run can print.
SPECS: Dict[str, Tuple[str, str]] = {
    name: (unit, better) for name, unit, better in END_TO_END + PER_LAYER}

#: Spans whose individual durations feed a per-call median.
_KEPT_SPANS = ("CleanerService.clean", "FlushTicket.wait",
               "TcpTransport.call", "TcpTransport.submit_many",
               "StorageServer.store", "StorageServer.retrieve",
               "SlotTable.commit")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def quiet_mean(values: Sequence[float], better: str = "lower") -> float:
    """Mean of the best eighth of ``values`` (at least one).

    The values are timings of identical work, so what separates them is
    the host, and a shared host's noise is one-sided: a vCPU descheduled
    for some milliseconds, or a spell of seconds to minutes in which
    everything runs 20-50 % slower. The median follows however many of
    the values a spell happened to cover; the eighth least disturbed
    needs only an eighth of the run to be calm, and moves less between
    runs of unchanged code. It is not the minimum: a single value can be
    lucky (work done in another op's window by another thread).
    What it cannot see is a change that slows only some of the values;
    the median and IQR over rounds printed beside it can.
    """
    ranked = sorted(values, reverse=(better == "higher"))
    best = ranked[:max(1, round(len(ranked) / 8))]
    return sum(best) / len(best)


def quiet_round(rounds: Sequence[Round]) -> Round:
    """The round the host did not disturb: each op and each set-up step
    timed as the quiet mean of the timings at its position over
    ``rounds``.

    An op of 10 us to 1 ms is shorter than a slice of stolen CPU, so at
    most positions most rounds are clean and the few that were hit drop
    out entirely; a sum over a whole round (0.3-1.5 s) always carries
    its share of every disturbance. The tail percentile of the quiet
    round is the tail of what the *program* makes slow (a stripe close,
    a sync with a cleaner pass), not of where the host happened to
    stall.
    """
    first = rounds[0]
    quiet = Round()
    quiet.counts = first.counts
    quiet.setup = [quiet_mean(column)
                   for column in zip(*(rnd.setup for rnd in rounds))]
    for name, phase in quiet.phases.items():
        phase.user_bytes = first.phases[name].user_bytes
        phase.durations = [
            quiet_mean(column) for column in
            zip(*(rnd.phases[name].durations for rnd in rounds))]
    return quiet


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = 10) -> float:
    """Nearest-rank ``q`` percentile, refused unless at least
    ``min_beyond`` samples lie beyond it: a tail read off fewer is one
    outlier, not a percentile."""
    count = len(samples)
    rank = math.ceil(q * count)
    if count - rank < min_beyond:
        raise ValueError("%g percentile of %d samples leaves %d beyond it; "
                         "need %d" % (q * 100, count, count - rank,
                                      min_beyond))
    return sorted(samples)[rank - 1]


def host_spin() -> float:
    """Milliseconds a fixed piece of CPU work takes (about 200 ms on the
    calibration host): printed with every run so a slow or busy host
    explains a slow run."""
    buffer = bytes(range(256)) * 4096
    start = perf_counter()
    crc = 0
    for _ in range(200):
        crc = zlib.crc32(buffer, crc)
    total = 0
    for i in range(3_000_000):
        total += i & 7
    return (perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# Per-round metrics
# ---------------------------------------------------------------------------


def round_end_to_end(rnd: Round) -> Dict[str, float]:
    """The timed and counted end-to-end metrics of one round."""
    phases, counts = rnd.phases, rnd.counts
    write, read, degraded = (phases[name] for name in PHASES)
    user_bytes = sum(phase.user_bytes for phase in phases.values())

    def mb_s(phase) -> float:
        return phase.user_bytes / MB / sum(phase.durations)

    return {
        "write_mb_s": mb_s(write),
        "read_mb_s": mb_s(read),
        "degraded_read_mb_s": mb_s(degraded),
        "write_p50_ms": median(write.durations) * 1e3,
        "write_p99_ms": tail_percentile(write.durations, 0.99) * 1e3,
        "read_p50_ms": median(read.durations) * 1e3,
        "read_p99_ms": tail_percentile(read.durations, 0.99) * 1e3,
        "stored_bytes_per_user_byte":
            counts["stored_bytes"] / write.user_bytes,
        "retrieved_bytes_per_user_byte":
            counts["retrieved_bytes"] / read.user_bytes,
        "space_bytes_per_live_byte":
            counts["space_bytes"] / counts["live_bytes"],
        "rpcs_per_mb": counts["rpcs"] / (user_bytes / MB),
        "setup_s": rnd.setup_s,
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def round_per_layer(rnd: Round, budget: tracing.Budget,
                    wire_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced round."""
    counts = rnd.counts
    user_bytes = sum(phase.user_bytes for phase in rnd.phases.values())
    user_mb = user_bytes / MB
    out: Dict[str, float] = {}
    for layer in tracing.LAYERS:
        out[layer + ".self_ms_per_mb"] = budget.self_s[layer] * 1e3 / user_mb
        out[layer + ".calls_per_mb"] = budget.calls[layer] / user_mb

    def p50(span: str, scale: float) -> float:
        return median(budget.durations.get(span, ())) * scale

    out.update({
        "services.cache.hit_share": _share(
            counts["cache_hits"],
            counts["cache_hits"] + counts["cache_misses"]),
        "services.cleaner.run_share": _share(
            sum(budget.durations.get("CleanerService.clean", ())),
            budget.wall),
        "services.cleaner.moved_bytes_per_user_byte": _share(
            counts["cleaner_moved_bytes"], counts["write_user_bytes"]),
        "services.cleaner.stripes_cleaned": counts["cleaner_stripes"],
        "services.cleaner.clean_ms_p50": p50("CleanerService.clean", 1e3),
        "log.layer.flush_wait_ms_p50": p50("FlushTicket.wait", 1e3),
        "log.location.hit_share": _share(
            counts["location_hits"],
            counts["location_hits"] + counts["location_misses"]),
        "log.location.broadcasts": counts["location_broadcasts"],
        "log.reconstruct.reconstructions":
            budget.calls_by_name.get("Reconstructor.reconstruct", 0),
        "log.reconstruct.fetched_bytes_per_user_byte": _share(
            counts["degraded_fetched_bytes"], counts["degraded_user_bytes"]),
        "rpc.retry.retries_per_rpc": _share(counts["retries"],
                                            counts["rpcs"]),
        "rpc.retry.exhausted": counts["retry_exhausted"],
        "rpc.net.wait_ms_per_mb": budget.wait_s * 1e3 / user_mb,
        "rpc.net.frames_per_mb":
            budget.calls_by_name.get("frame_parts", 0) / user_mb,
        "rpc.net.wire_bytes_per_user_byte":
            wire_bytes / user_bytes,
        "rpc.net.call_ms_p50": p50("TcpTransport.call", 1e3),
        "rpc.net.scatter_ms_p50": p50("TcpTransport.submit_many", 1e3),
        "server.server.store_ms_p50": p50("StorageServer.store", 1e3),
        "server.server.retrieve_ms_p50": p50("StorageServer.retrieve", 1e3),
        "server.slots.commit_us_p50": p50("SlotTable.commit", 1e6),
        "trace.unattributed_share": _share(budget.unattributed, budget.wall),
    })
    return out


def _windows_s(rnd: Round) -> float:
    return sum(sum(phase.durations) for phase in rnd.phases.values())


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Summary:
    """One metric of a run: the reported value, and the median, IQR and
    count of the metric computed round by round, shown beside it. The
    value is the metric of the quiet round where there is one (the
    end-to-end metrics), else the quiet mean over the rounds."""

    def __init__(self, name: str, values: Sequence[float],
                 value: Optional[float] = None) -> None:
        self.values = list(values)
        self.value = (quiet_mean(values, SPECS[name][1])
                      if value is None else value)
        self.median = median(values)
        self.iqr = iqr(values)
        self.n = len(values)


def summarise(per_round: Sequence[Dict[str, float]],
              quiet: Optional[Dict[str, float]] = None) -> Dict[str, Summary]:
    return {name: Summary(name, [values[name] for values in per_round],
                          quiet[name] if quiet else None)
            for name in per_round[0]}


class RunResult:
    def __init__(self, workload: Workload, seed: int, traced: bool) -> None:
        self.workload = workload.name
        self.seed = seed
        self.traced = traced
        self.metrics: Dict[str, Summary] = {}
        self.attempted = 0
        self.failed = 0
        self.count_diffs: List[str] = []
        self.counts: Dict[str, int] = {}
        self.rounds = 0
        self.host_spin_ms = 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.count_diffs

    def contract_line(self) -> str:
        """The one JSON object the driver reads off the last line."""
        specs = PER_LAYER if self.traced else END_TO_END
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name].value,
                               "unit": unit}
                        for name, unit, _better in specs},
        })


def schedule(seconds: float, min_rounds: int,
             count: Optional[int]) -> Iterator[Tuple[bool, bool]]:
    """Yield ``(measured, last)`` once per round the caller is to run:
    the warm-up rounds first (``measured`` false), then rounds until
    ``min_rounds`` are done and the next one would end past ``seconds``
    — or exactly ``count`` rounds when that is given (the smoke tests).
    The caller runs the round between two yields; that is what is timed."""
    for _ in range(min(WARMUP_ROUNDS, count or WARMUP_ROUNDS)):
        yield False, False
    start = perf_counter()
    done = 0
    last = False
    while not last:
        if count is not None:
            last = done + 1 >= count
        else:
            elapsed = perf_counter() - start
            per_round = elapsed / done if done else 0.0
            last = (done + 1 >= min_rounds
                    and elapsed + 2 * per_round >= seconds)
        done += 1
        yield True, last


class _RoundRunner:
    """Runs rounds of one workload, checks them against each other."""

    def __init__(self, workload: Workload, inputs, result: RunResult) -> None:
        self.workload, self.inputs, self.result = workload, inputs, result
        self._rounds_run = 0

    def one(self, tracer=None, final: bool = False) -> Round:
        gc.collect()
        rnd = Round(tracer)
        self.workload.run_round(self.inputs, rnd, final=final)
        self._rounds_run += 1
        result = self.result
        result.attempted += rnd.attempted
        result.failed += rnd.failed
        if not result.counts:
            result.counts = dict(rnd.counts)
        elif rnd.counts != result.counts and not result.count_diffs:
            result.count_diffs = [
                "%s: %r in round 1, %r in round %d"
                % (key, result.counts.get(key), rnd.counts.get(key),
                   self._rounds_run)
                for key in sorted(set(result.counts) | set(rnd.counts))
                if result.counts.get(key) != rnd.counts.get(key)]
        return rnd


def run_workload(workload: Workload, seed: int, seconds: float,
                 traced: bool, rounds: Optional[int] = None,
                 import_s: float = 0.0) -> RunResult:
    """One run of one workload; untraced (end-to-end metrics) or traced
    (per-layer metrics, from rounds run with the wrappers installed).
    ``rounds`` fixes the number of measured rounds (smoke tests only)."""
    result = RunResult(workload, seed, traced)
    result.host_spin_ms = host_spin()
    start = perf_counter()
    inputs = workload.make_inputs(seed)
    inputs_s = perf_counter() - start
    runner = _RoundRunner(workload, inputs, result)
    if not traced:
        kept = []
        for measured, last in schedule(seconds, MIN_ROUNDS, rounds):
            rnd = runner.one(final=last)
            if measured:
                kept.append(rnd)
        result.metrics = summarise([round_end_to_end(rnd) for rnd in kept],
                                   round_end_to_end(quiet_round(kept)))
        result.metrics["peak_rss_mb"] = Summary("peak_rss_mb", [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB])
        result.rounds = len(kept)
        return result

    # Traced run: plain and traced rounds take turns, so both kinds see
    # the same host. The wrappers are on only while a traced round runs;
    # each round's spans are folded as soon as it ends.
    tracer = tracing.Tracer()
    per_pair: List[Dict[str, float]] = []
    plains: List[Round] = []
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    spans: Dict[int, list] = {}
    recover_all_s = 0.0
    for measured, last in schedule(seconds, MIN_TRACED_PAIRS, rounds):
        plain = runner.one(final=last)
        tracer.install()
        try:
            traced_round = runner.one(tracer)
        finally:
            tracer.uninstall()
        spans, wire_bytes = tracer.take_round()
        recover_all_s = plain.recover_all_s
        if measured:
            budget = tracing.fold(spans, tracer.keys, tracer.caller_thread,
                                  keep=_KEPT_SPANS)
            per_pair.append(round_per_layer(traced_round, budget, wire_bytes))
            plains.append(plain)
            plain_walls.append(_windows_s(plain))
            traced_walls.append(_windows_s(traced_round))
    result.metrics = summarise(per_pair)
    result.metrics["read_p99_ms"] = Summary(
        "read_p99_ms",
        [round_end_to_end(rnd)["read_p99_ms"] for rnd in plains],
        round_end_to_end(quiet_round(plains))["read_p99_ms"])
    result.metrics.update({name: Summary(name, [value]) for name, value in (
        # Both walls summarised the way every metric is, then compared.
        ("trace.overhead_share", quiet_mean(traced_walls, "lower")
                                 / quiet_mean(plain_walls, "lower") - 1.0),
        ("log.recovery.recover_all_ms", recover_all_s * 1e3),
        ("harness.host_spin_ms", result.host_spin_ms),
        ("harness.import_s", import_s),
        ("harness.inputs_s", inputs_s),
        ("harness.rounds", len(per_pair)))})
    result.rounds = len(per_pair)
    write_trace(workload.name, tracer, spans)   # the last round's
    return result


def write_trace(name: str, tracer: tracing.Tracer,
                by_thread: Dict[int, list]) -> Path:
    """Write the last traced round's spans, compactly, for inspection."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s.json" % name)
    with open(path, "w") as out:
        json.dump({
            "columns": ["key", "parent", "start_s", "end_s"],
            "keys": [list(key) for key in tracer.keys],
            "caller_thread": tracer.caller_thread,
            "threads": {str(tid): spans for tid, spans in by_thread.items()},
        }, out, separators=(",", ":"))
    return path


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(result: RunResult, out=sys.stdout) -> None:
    """Every metric by name: unit, value, median and IQR over rounds,
    count."""
    counts = result.counts
    print("== %s  seed=%d  %s  rounds=%d (+%d warm-up)  ops/round: %s  "
          "host_spin=%.1f ms"
          % (result.workload, result.seed,
             "traced" if result.traced else "untraced", result.rounds,
             WARMUP_ROUNDS,
             ", ".join("%s %d" % (name, counts.get(name + "_ops", 0))
                       for name in PHASES),
             result.host_spin_ms), file=out)
    for name, summary in result.metrics.items():
        unit, better = SPECS[name]
        spread = ("median %.5g iqr %.4g (%.1f%%)"
                  % (summary.median, summary.iqr,
                     100 * _share(summary.iqr, summary.median))
                  if summary.n > 1 else "single value")
        print("  %-46s %12.5g %-6s %-38s n=%-3d %s better"
              % (name, summary.value, unit, spread, summary.n, better),
              file=out)
    if result.traced:
        total = sum(result.metrics[layer + ".self_ms_per_mb"].value
                    for layer in tracing.LAYERS)
        overhead = result.metrics["trace.overhead_share"].value
        print("  budget: layers %.4g ms/MB + unattributed %.1f%% of traced "
              "wall; tracing overhead %s"
              % (total,
                 100 * result.metrics["trace.unattributed_share"].value,
                 "%.1f%%" % (100 * overhead) if overhead >= 0 else
                 "unresolved (%.1f%%: the host moved more than the "
                 "wrappers cost)" % (100 * overhead)),
              file=out)
    print("  ops attempted %d, failed %d, healthy-phase retries %d"
          % (result.attempted, result.failed,
             counts.get("healthy_retries", 0)), file=out)
    for diff in result.count_diffs:
        print("  COUNT DIFFERS BETWEEN ROUNDS  " + diff, file=out)


def write_details(result: RunResult) -> Path:
    """Values, medians, IQRs, per-round values and counts as JSON (read
    by calibrate.py)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("result-%s-%s.json"
                      % (result.workload,
                         "traced" if result.traced else "untraced"))
    with open(path, "w") as out:
        json.dump({
            "workload": result.workload, "seed": result.seed,
            "traced": result.traced, "rounds": result.rounds,
            "correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "counts": result.counts,
            "host_spin_ms": result.host_spin_ms,
            "metrics": {name: {"value": s.value, "median": s.median,
                               "iqr": s.iqr, "n": s.n,
                               "per_round": s.values}
                        for name, s in result.metrics.items()},
        }, out, indent=1)
    return path
