"""Ablations of Swarm's design choices (see DESIGN.md §3, ABL-*).

Not paper figures — these quantify the design arguments the paper makes
qualitatively: fragment sizing, the parity tax, stripe-width
amortization, and write pipelining depth.
"""

import hashlib

import pytest

from repro.bench.ablations import (
    ablate_degraded_read,
    ablate_fleet_scaling,
    ablate_flow_control,
    ablate_fragment_size,
    ablate_parity,
    ablate_read_window,
    ablate_stripe_width,
    ablate_write_pipeline,
)


@pytest.mark.benchmark(group="ablations")
def test_fragment_size_sweet_spot(benchmark, record):
    points = benchmark.pedantic(ablate_fragment_size, rounds=1, iterations=1)
    rates = {point.label: point.mb_per_s for point in points}
    record(**rates)
    # Tiny fragments drown in per-request overhead; huge ones serialize
    # badly behind the flow-control window. The useful band is flat-ish
    # in the middle — which is why 1 MB was a sane prototype choice.
    assert rates["fragment=64KB"] < max(rates.values())
    assert rates["fragment=4096KB"] < max(rates.values())


@pytest.mark.benchmark(group="ablations")
def test_parity_tax(benchmark, record):
    results = benchmark.pedantic(ablate_parity, rounds=1, iterations=1)
    record(**results)
    # Redundancy costs useful bandwidth relative to a no-parity log;
    # the 4-server striped configuration keeps it under ~40 %.
    assert results["with_parity_4s"] < results["no_parity_1s"]
    assert results["with_parity_4s"] > 0.55 * results["no_parity_1s"]


@pytest.mark.benchmark(group="ablations")
def test_stripe_width_amortization(benchmark, record):
    points = benchmark.pedantic(ablate_stripe_width, rounds=1, iterations=1)
    rates = [point.mb_per_s for point in points]
    record(**{point.label: point.mb_per_s for point in points})
    # Useful bandwidth is non-decreasing (within noise) with width.
    assert rates[-1] > 1.3 * rates[0]


@pytest.mark.benchmark(group="ablations")
def test_flow_control_window(benchmark, record):
    points = benchmark.pedantic(ablate_flow_control, rounds=1, iterations=1)
    rates = {int(point.value): point.mb_per_s for point in points}
    record(**{point.label: point.mb_per_s for point in points})
    # One outstanding fragment stalls the pipeline; a small window
    # recovers the loss, after which returns diminish (§2.1.2).
    assert rates[4] > rates[1]
    assert rates[8] < rates[4] * 1.15


@pytest.mark.benchmark(group="ablations")
def test_disjoint_stripe_groups(benchmark, record):
    """§2.1.2: disjoint groups minimize server contention (raw rate up)
    at the price of narrower stripes (parity fraction up)."""
    from repro.bench.ablations import ablate_disjoint_groups

    results = benchmark.pedantic(ablate_disjoint_groups, rounds=1,
                                 iterations=1)
    record(**results)
    # Less contention: raw bandwidth is at least as good disjoint.
    assert results["disjoint_raw"] >= 0.95 * results["shared_raw"]
    # Narrower stripes: useful bandwidth pays the parity tax.
    assert results["disjoint_useful"] < results["shared_useful"]


@pytest.mark.benchmark(group="ablations")
def test_server_fragment_cache(benchmark, record):
    """The server-side read fix §3.4 anticipates, quantified."""
    from repro.bench.ablations import ablate_server_cache

    results = benchmark.pedantic(ablate_server_cache, rounds=1,
                                 iterations=1)
    record(**results)
    assert results["cached"] < 0.9 * results["uncached"]


@pytest.mark.benchmark(group="ablations")
@pytest.mark.parametrize("ablation, kwargs", [
    (ablate_degraded_read, {}),
    (ablate_degraded_read, {"num_servers": 6, "parity": 2, "coding": "rs"}),
    (ablate_write_pipeline, {}),
    (ablate_read_window, {}),
    (ablate_fleet_scaling, {}),
], ids=["degraded_read_xor", "degraded_read_rs2", "write_pipeline",
        "read_window", "fleet_scaling"])
def test_overlap_and_scaling_ratios(benchmark, record, ablation, kwargs):
    """Recorded here at full size; their bounds are tier-1 asserts
    (``tests/test_scatter_gather.py``, ``test_write_pipeline.py``,
    ``test_read_pipeline.py``, ``test_placement.py``)."""
    results = benchmark.pedantic(ablation, kwargs=kwargs, rounds=1,
                                 iterations=1)
    record(**results)
    assert all(value > 0 for value in results.values())


#: sha256 of ``python -m repro.bench --quick``'s report. Every number in
#: it comes off the simulated clock, so the report is exact: a digest
#: that moves means some figure or ablation moved, and a PR that moves
#: one on purpose says so and re-pins this.
QUICK_REPORT_SHA256 = (
    "a1482bff1f21404772d08d63cbd5b3cbaa236a7a449e642b8dd5bb0fa69255e6")


def test_quick_report_is_pinned(capsys):
    from repro.bench.__main__ import main

    assert main(["--quick"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == QUICK_REPORT_SHA256, \
        report
