"""Run every experiment and print the paper-vs-measured report.

Usage::

    python -m repro.bench            # full sweeps (~18 s)
    python -m repro.bench --quick    # reduced block counts (~6 s)
"""

from __future__ import annotations

import argparse

from repro.bench.ablations import (
    FLEET_SIZES,
    ablate_degraded_read,
    ablate_fleet_scaling,
    ablate_flow_control,
    ablate_fragment_size,
    ablate_parity,
    ablate_read_prefetch,
    ablate_read_window,
    ablate_repair,
    ablate_stripe_width,
    ablate_write_pipeline,
)
from repro.bench.figures import (
    run_fig3_raw_bandwidth,
    run_fig4_useful_bandwidth,
    run_fig5_mab,
    run_read_bandwidth,
    run_server_sustained,
)
from repro.bench.report import (
    format_figure_table,
    format_mab_table,
    format_read_result,
    format_server_result,
)


def main(argv=None) -> int:
    """Entry point for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run every simulated-testbed experiment and print "
                    "the paper-vs-measured report.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced block counts (a quarter of the "
                             "run time)")
    quick = parser.parse_args(argv).quick
    blocks = 2_500 if quick else 10_000

    print("== Figure 3: raw write bandwidth (MB/s) ==")
    print("paper: 1 client 6.1 -> 6.4 over 1..8 servers; "
          "2 clients 12.9 @8; 4 clients 19.3 @8")
    fig3 = run_fig3_raw_bandwidth(blocks=blocks)
    print(format_figure_table(fig3, raw=True))
    print()

    print("== Figure 4: useful write throughput (MB/s) ==")
    print("paper: 1 client 3.0 @2 -> 5.5 @4; 4 clients 6.7 @2 -> 16.0 @8")
    fig4 = run_fig4_useful_bandwidth(fig3)
    print(format_figure_table(fig4, raw=False))
    print()

    print("== Figure 5: Modified Andrew Benchmark ==")
    print(format_mab_table(run_fig5_mab()))
    print()

    print("== In-text numbers ==")
    print(format_read_result(run_read_bandwidth(
        blocks=500 if quick else 2000)))
    print(format_server_result(run_server_sustained(blocks=blocks)))
    print()

    print("== Ablations ==")
    for point in ablate_fragment_size(blocks=blocks):
        print("fragment size %-16s useful %.2f MB/s" % (point.label,
                                                        point.mb_per_s))
    parity = ablate_parity(blocks=blocks)
    print("parity ablation: with=%.2f MB/s (4 servers), "
          "without=%.2f MB/s (1 server)" % (parity["with_parity_4s"],
                                            parity["no_parity_1s"]))
    for point in ablate_stripe_width(blocks=blocks):
        print("stripe %-12s useful %.2f MB/s" % (point.label, point.mb_per_s))
    for point in ablate_flow_control(blocks=blocks):
        print("flow %-12s raw %.2f MB/s" % (point.label, point.mb_per_s))
    prefetch = ablate_read_prefetch(blocks=300 if quick else 1500)
    print("reads: per-block %.2f MB/s vs fragment-prefetch %.2f MB/s"
          % (prefetch["per_block"], prefetch["prefetch"]))
    for label, degraded in (
            ("width-4 xor", ablate_degraded_read()),
            ("rs(4+2), two down", ablate_degraded_read(
                num_servers=6, parity=2, coding="rs"))):
        print("degraded read %-18s %.1f ms vs healthy %.1f ms (%.3fx)"
              % (label, degraded["reconstruct_ms"],
                 degraded["single_retrieve_ms"], degraded["ratio"]))
    xor_repair = ablate_repair()
    rs_repair = ablate_repair(num_servers=6, parity=2, coding="rs")
    print("repair onto spares: width-4 xor one down %.1f ms (%.3f B fetched "
          "per B rebuilt), rs(4+2) two down %.1f ms (%.3f)"
          % (xor_repair["repair_ms"], xor_repair["fetched_per_rebuilt"],
             rs_repair["repair_ms"], rs_repair["fetched_per_rebuilt"]))
    write = ablate_write_pipeline()
    print("stripe stores: pipelined %.1f ms vs serial %.1f ms (%.3fx)"
          % (write["pipelined_flush_ms"], write["serial_flush_ms"],
             write["overlap_ratio"]))
    scan = ablate_read_window()
    print("log scan: window=4 %.2f MB/s vs window=1 %.2f MB/s (%.3fx time)"
          % (scan["sequential_read_mb_s"], scan["serial_read_mb_s"],
             scan["overlap_ratio"]))
    fleet = ablate_fleet_scaling(blocks=250 if quick else 1500)
    print("fleet scaling (4 clients, width 8): %s MB/s; "
          "concurrent/serial elapsed %.3f"
          % (", ".join("%d servers %.2f" % (n, fleet["servers=%d" % n])
                       for n in FLEET_SIZES),
             fleet["client_overlap_ratio"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
