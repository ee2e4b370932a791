#!/usr/bin/env python3
"""Calibrate swarm-e2e on this host: how far does each metric move when
nothing changed? Writes ``CALIBRATION.md`` next to this file.

    python3 benchmarks/e2e/calibrate.py [--reps 5] [--seeds 10]
    python3 benchmarks/e2e/calibrate.py --render   # same runs, new bounds

Four passes, every run a fresh ``run.py`` subprocess:

* *repeats* — the whole benchmark ``--reps`` times back to back on the
  default seed: per metric x workload the median, (max-min)/median
  between runs — the figure ISSUE 12 wants within a tenth for every
  gated timed metric — and the IQR over the rounds inside a run;
* *seeds* — each workload once per seed 1..``--seeds``: the spread the
  PR driver computes (distance between the quartiles of the runs'
  values over their median), for the value a run reports (the metric
  of its quiet round: every op timed as the mean of the quietest eighth
  of the rounds at its position) and, from the same rounds, for the
  plain median over rounds — the evidence for the choice of estimator;
* *traced* — one traced run per workload: the budget line and the
  controls (layers that must read zero where they are bypassed);
* *co-tenant* — the seeds pass again while :func:`cotenant` competes
  for the benchmark's CPU: what the estimators are worth on a host
  busier than this one, such as the PR driver's.

The bounds in ``BENCHMARK.json`` are set by hand from the tables this
prints (``needed`` column). The runs' detail records are kept in
``out/calibration-runs.json``; after editing the bounds, ``--render``
rewrites the report from them without measuring again.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import run

HERE = Path(__file__).resolve().parent
FLOORS = {"_mb_s": 0.10, "_p50_ms": 0.10, "_p99_ms": 0.20,
          "peak_rss_mb": 0.10, "setup_s": 0.25, "": 0.01}
MAX_BOUND = 0.25            # the driver contract's cap on a bound
REPEAT_LIMIT = 0.10         # ISSUE 12: run-to-run spread of a gated timing


def run_once(workload: str, seed: int, traced: bool, seconds: float) -> dict:
    """One run.py subprocess; returns its detail record."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced))]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    detail = HERE / "out" / ("result-%s-%s.json"
                             % (workload, "traced" if traced else "untraced"))
    with open(detail) as handle:
        return json.load(handle)


def cotenant(seed: int) -> None:
    """A neighbour on a shared host, pinned to the CPU the benchmark
    pins itself to: every 5-40 s it redraws how much of the CPU it
    wants (0, 30, 60 or 100 %) and takes it in slices of 4-30 ms.
    Runs until terminated."""
    run.pin_to_one_cpu()
    rng = random.Random(seed)
    while True:
        duty = rng.choice([0.0, 0.3, 0.6, 1.0])
        spell_ends = time.perf_counter() + rng.uniform(5, 40)
        while time.perf_counter() < spell_ends:
            period = rng.uniform(0.004, 0.03)
            busy_until = time.perf_counter() + period * duty
            while time.perf_counter() < busy_until:
                pass
            time.sleep(period * (1 - duty) if duty else 0.05)


def best_quarter(values: List[float], better: str) -> float:
    """Mean of the best quarter of per-round values: what the first
    version of this benchmark reported."""
    ranked = sorted(values, reverse=(better == "higher"))
    best = ranked[:max(1, round(len(ranked) / 4))]
    return sum(best) / len(best)


def spread(values: List[float]) -> float:
    """The driver's spread: quartile distance over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def floor_for(metric: str) -> float:
    return next(floor for suffix, floor in FLOORS.items()
                if metric.endswith(suffix))


def is_timed(metric: str) -> bool:
    return metric.endswith(("_mb_s", "_ms", "setup_s"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--render", action="store_true",
                        help="rewrite the report from the last runs")
    args = parser.parse_args(argv)
    run.load_harness()
    import tracing
    from workloads import all_workloads

    names = [w.name for w in all_workloads()]
    with open(run.REPO / "BENCHMARK.json") as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}

    saved = HERE / "out" / "calibration-runs.json"
    if args.render:
        with open(saved) as handle:
            repeats, seeds, traced, busy = json.load(handle)
    else:
        repeats = {name: [] for name in names}
        for rep in range(args.reps):
            for name in names:
                print("repeat %d/%d %s" % (rep + 1, args.reps, name),
                      flush=True)
                repeats[name].append(
                    run_once(name, run.DEFAULT_SEED, False, args.seconds))
        seeds = {name: [] for name in names}
        for seed in range(1, args.seeds + 1):
            for name in names:
                print("seed %d/%d %s" % (seed, args.seeds, name), flush=True)
                seeds[name].append(run_once(name, seed, False, args.seconds))
        traced = {}
        for name in names:
            print("traced %s" % name, flush=True)
            traced[name] = run_once(name, run.DEFAULT_SEED, True,
                                    args.seconds)
        neighbour = multiprocessing.get_context("spawn").Process(
            target=cotenant, args=(run.DEFAULT_SEED,), daemon=True)
        neighbour.start()
        try:
            busy = {name: [] for name in names}
            for seed in range(1, args.seeds + 1):
                for name in names:
                    print("co-tenant, seed %d/%d %s"
                          % (seed, args.seeds, name), flush=True)
                    busy[name].append(
                        run_once(name, seed, False, args.seconds))
        finally:
            neighbour.terminate()
            neighbour.join()
        with open(saved, "w") as handle:
            json.dump([repeats, seeds, traced, busy], handle)
    reps = len(repeats[names[0]])
    seed_count = len(seeds[names[0]])
    # Everything an untraced run measures: the gated metrics (those
    # BENCHMARK.json bounds) and the ones measured the same way but
    # reported ungated.
    metrics = list(repeats[names[0]][0]["metrics"])
    spins = [r["host_spin_ms"] for runs in list(repeats.values())
             + list(seeds.values()) for r in runs]

    out: List[str] = []
    emit = out.append
    emit("# swarm-e2e calibration\n")
    emit("Written by `python3 benchmarks/e2e/calibrate.py --reps %d --seeds "
         "%d --seconds %g`; do not edit by hand. Host: %s, Python %s, "
         "host_spin over the %d untraced runs: min %.0f, median %.0f, max "
         "%.0f ms. No code changed between any two runs below: every "
         "difference is the host. A run's value is the metric of its quiet "
         "round (`quiet_round`: every op and set-up step timed as the mean of "
         "the quietest eighth of the rounds at its position); where a column "
         "says `median of rounds` the metric was computed round by round and "
         "the rounds summarised by their median instead.\n"
         % (reps, seed_count, args.seconds, platform.platform(),
            platform.python_version(), len(spins), min(spins),
            statistics.median(spins), max(spins)))

    emit("## 1. Same seed, %d runs back to back\n" % reps)
    emit("`run spread` = (max - min) / median of the runs' values, "
         "`... median of rounds` the same for the runs' medians over rounds; "
         "`round IQR` = median over runs of (IQR over the rounds of a run / "
         "their median). Exact-count metrics must read 0 in all three. "
         "ISSUE 12 asks every gated timed metric to stay within %.0f %% "
         "here; `gate` says whether BENCHMARK.json bounds the metric and, "
         "for a timed one, whether it met that.\n" % (100 * REPEAT_LIMIT))
    over_limit: List[str] = []
    worst_repeat = {metric: 0.0 for metric in metrics}
    for name in names:
        runs = repeats[name]
        emit("### %s (%s measured rounds per run)\n"
             % (name, "/".join(str(r["rounds"]) for r in runs)))
        emit("| metric | value | run spread | ... median of rounds "
             "| round IQR | gate |")
        emit("|---|---:|---:|---:|---:|---|")
        for metric in metrics:
            values = [r["metrics"][metric]["value"] for r in runs]
            mid = statistics.median(values)
            between = (max(values) - min(values)) / mid
            medians = [r["metrics"][metric]["median"] for r in runs]
            between_medians = ((max(medians) - min(medians))
                               / statistics.median(medians))
            within = statistics.median(
                r["metrics"][metric]["iqr"] / r["metrics"][metric]["median"]
                for r in runs)
            worst_repeat[metric] = max(worst_repeat[metric], between)
            if metric not in bounds:
                gate = "not gated"
            elif not is_timed(metric) or metric == "setup_s":
                gate = "gated"
            elif between <= REPEAT_LIMIT:
                gate = "gated, within %.0f %%" % (100 * REPEAT_LIMIT)
            else:
                gate = "gated, **over %.0f %%**" % (100 * REPEAT_LIMIT)
                over_limit.append("`%s` on `%s` (%.1f %%)"
                                  % (metric, name, 100 * between))
            emit("| %s | %.5g | %.1f%% | %.1f%% | %.1f%% | %s |"
                 % (metric, mid, 100 * between, 100 * between_medians,
                    100 * within, gate))
        emit("")
    same_counts = all(r["counts"] == runs[0]["counts"] and r["correct"]
                      for runs in repeats.values() for r in runs)
    emit("Exact counts identical in every run of a workload, no failed "
         "operation: **%s**.\n" % ("yes" if same_counts else "NO"))
    if over_limit:
        gated_timed = [m for m in metrics
                       if m in bounds and is_timed(m) and m != "setup_s"]
        emit("**ISSUE 12's repeatability criterion is not met on this host.** "
             "These gated timed metrics moved by more than %.0f %% between "
             "%d runs of unchanged code: %s. That is %d of the %d gated timed "
             "metrics on at least one workload. They stay gated, at the bound "
             "section 2 gives them: the host has calm and busy spells that "
             "differ by 30-50 %% (see host_spin above) and any timing can "
             "land in both within five runs. Read a difference below the "
             "`run spread` column as unresolved, not as a change.\n"
             % (100 * REPEAT_LIMIT, reps, ", ".join(over_limit),
                sum(any("`%s` on" % m in entry for entry in over_limit)
                    for m in gated_timed), len(gated_timed)))
    else:
        emit("Every gated timed metric stayed within %.0f %% between the %d "
             "runs.\n" % (100 * REPEAT_LIMIT, reps))

    emit("## 2. Ten-seed spread (what the PR driver computes)\n")
    emit("One run per seed 1..%d; spread = (Q3 - Q1) / median of the runs' "
         "values, quartiles as `statistics.quantiles(values, n=4)`. The "
         "driver refuses the benchmark when a spread exceeds the bound; the "
         "target is a spread below a third of it.\n" % seed_count)
    emit("| metric | " + " | ".join(names)
         + " | bound | needed | verdict |")
    emit("|---|" + "---:|" * (len(names) + 2) + "---|")

    def seed_spreads(metric: str, field: str) -> List[float]:
        return [spread([r["metrics"][metric][field] for r in seeds[name]])
                for name in names]

    for metric in metrics:
        cells = seed_spreads(metric, "value")
        needed = max(floor_for(metric), 2 * worst_repeat[metric],
                     3 * max(cells))
        if metric not in bounds:
            bound, verdict = "-", "not gated: reported with the layer metrics"
        else:
            bound = "%.0f%%" % (100 * bounds[metric])
            verdict = ("ok" if metric == "setup_s"
                       or max(cells) <= bounds[metric] / 3 else
                       "within bound" if max(cells) <= bounds[metric] else
                       "TOO NOISY")
        emit("| %s | %s | %s | %.1f%% | %s |"
             % (metric, " | ".join("%.2f%%" % (100 * c) for c in cells),
                bound, 100 * needed, verdict))
    emit("")
    emit("`needed` = max(floor, 2 x worst run spread of section 1 (ISSUE "
         "12's rule), 3 x worst seed spread (the driver's)); `bound` is what "
         "BENCHMARK.json holds, capped by the driver's contract at %.0f%%. "
         "A gated metric that needs more than the cap keeps the cap "
         "(verdict `within bound`: its spread is inside the bound but not "
         "inside a third of it). `setup_s` is exempt from the spread rule "
         "and carries the largest bound.\n" % (100 * MAX_BOUND))
    emit("### The same runs, each summarised by the median of its rounds\n")
    emit("ISSUE 12 specified the median over rounds as a run's value. This "
         "is its ten-seed spread over exactly the rounds of the table above; "
         "`ratio` is the worst spread here over the worst there.\n")
    emit("| metric | " + " | ".join(names) + " | ratio |")
    emit("|---|" + "---:|" * (len(names) + 1))
    for metric in metrics:
        if not is_timed(metric):
            continue
        cells = seed_spreads(metric, "median")
        emit("| %s | %s | %.1f |"
             % (metric, " | ".join("%.2f%%" % (100 * c) for c in cells),
                max(cells) / max(seed_spreads(metric, "value"))))
    emit("")

    emit("## 3. Traced pass: budget and controls\n")
    emit("Per workload, layer self time in ms per user MB (all three phases), "
         "over %s traced rounds, each paired with an untraced round run just "
         "before it.\n"
         % "/".join(str(traced[name]["rounds"]) for name in names))
    emit("| layer | " + " | ".join(names) + " |")
    emit("|---|" + "---:|" * len(names))
    for layer in tracing.LAYERS:
        emit("| %s | %s |" % (layer, " | ".join(
            "%.4g" % traced[name]["metrics"][layer + ".self_ms_per_mb"]["value"]
            for name in names)))
    for label, key in (("unattributed share of traced wall",
                        "trace.unattributed_share"),
                       ("tracing overhead (traced / untraced wall - 1)",
                        "trace.overhead_share"),
                       ("cache hit share", "services.cache.hit_share"),
                       ("cleaner run share", "services.cleaner.run_share"),
                       ("recover_all ms", "log.recovery.recover_all_ms")):
        emit("| *%s* | %s |" % (label, " | ".join(
            "%.3g" % traced[name]["metrics"][key]["value"]
            for name in names)))
    emit("")

    def idle(name: str, layer: str) -> bool:
        return all(entry["value"] == 0
                   for key, entry in traced[name]["metrics"].items()
                   if key.startswith(layer + "."))

    def overhead(name: str) -> float:
        return traced[name]["metrics"]["trace.overhead_share"]["value"]

    controls = [
        ("rpc.net.* and rpc.codec.* are zero on the _local workloads",
         all(idle(name, layer) for name in names if name.endswith("_local")
             for layer in ("rpc.net", "rpc.codec"))),
        ("services.cleaner.* is zero outside fs_churn_local",
         all(idle(name, "services.cleaner") for name in names
             if name != "fs_churn_local")),
        ("services.cache.* is zero (no cache service) on smallops_tcp",
         idle("smallops_tcp", "services.cache")),
        ("unattributed share <= 10% on stream_local and fs_churn_local",
         all(traced[name]["metrics"]["trace.unattributed_share"]["value"]
             <= 0.10 for name in ("stream_local", "fs_churn_local"))),
    ]
    for text, holds in controls:
        emit("- %s: **%s**" % (text, "holds" if holds else "VIOLATED"))
    emit("- tracing overhead within the 15 %% target: %s"
         % ", ".join("%s **%s**" % (
             name, "unresolved (negative)" if overhead(name) < 0 else
             "yes" if overhead(name) <= 0.15 else
             "no (%.1f %%)" % (100 * overhead(name))) for name in names))
    emit("")
    emit("## 4. Ten seeds beside a busy neighbour\n")
    emit("Section 2 again while `calibrate.cotenant` competes for the "
         "benchmark's CPU: every 5-40 s it redraws its demand (0, 30, 60 or "
         "100 %) and takes it in slices of 4-30 ms, so some runs are calm, "
         "some lose over half the CPU, and most see both. This is a "
         "stand-in for a host busier than this one (the PR driver's), not a "
         "measurement of it. Per cell: the spread of the value a run "
         "reports (quiet round) / of the best quarter of rounds (what the "
         "first version reported) / of the median over rounds (ISSUE 12), "
         "all three from the same rounds.\n")
    emit("| metric | " + " | ".join(names) + " |")
    emit("|---|" + "---|" * len(names))
    for metric in metrics:
        if not is_timed(metric):
            continue
        better = "higher" if metric.endswith("_mb_s") else "lower"
        emit("| %s | %s |" % (metric, " | ".join(
            "%.1f / %.1f / %.1f %%" % tuple(
                100 * spread([pick(r["metrics"][metric]) for r in busy[name]])
                for pick in (lambda m: m["value"],
                             lambda m: best_quarter(m["per_round"], better),
                             lambda m: m["median"]))
            for name in names)))
    emit("")

    def median_of(runs, metric: str) -> float:
        return statistics.median(r["metrics"][metric]["value"] for r in runs)

    shift, metric, name = max(
        (abs(median_of(busy[name], metric) / median_of(seeds[name], metric)
             - 1), metric, name)
        for name in names for metric in bounds if is_timed(metric))
    emit("The driver also compares the medians of two sets of ten runs. "
         "Largest difference between a gated timed metric's median here and "
         "in section 2: %.1f %% (`%s` on `%s`).\n"
         % (100 * shift, metric, name))
    (HERE / "CALIBRATION.md").write_text("\n".join(out))
    print("wrote %s" % (HERE / "CALIBRATION.md"))
    return 0 if same_counts and all(ok for _t, ok in controls) else 1


if __name__ == "__main__":
    sys.exit(main())
