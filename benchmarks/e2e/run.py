#!/usr/bin/env python3
"""swarm-e2e: the repository's end-to-end benchmark.

    python3 benchmarks/e2e/run.py                       all four workloads
    python3 benchmarks/e2e/run.py --trace               ... plus the traced pass
    python3 benchmarks/e2e/run.py --workload stream_tcp --seed 7 \\
            --seconds 26 --trace 0                      one run (driver form)
    python3 benchmarks/e2e/run.py --selftest            harness self-test

One workload runs in this process; with no ``--workload`` each one gets
a fresh subprocess, so allocator state and peak RSS never leak from one
workload into the next. The last line of a single-workload run is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
DEFAULT_SEED = 1999
#: Kept out of development runs; use it (and only it) when a later
#: change claims a gain, so the claim is checked on inputs nobody tuned
#: against.
HELD_OUT_SEED = 4242
DEFAULT_SECONDS = 26


def pin_to_one_cpu() -> None:
    """Run on the highest CPU this process may use.

    The TCP plane has three threads sharing the GIL; left unpinned the
    scheduler migrates them between cores and one process can settle
    into a state three times slower than another. One CPU loses nothing
    (the GIL serialises them anyway) and removes that bimodality.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def steady_allocator() -> None:
    """Make glibc keep freed memory instead of handing it back.

    Every round builds and drops a cluster holding tens of MiB in 64 KiB
    to 1 MiB buffers. By default glibc serves such blocks with mmap and
    returns them with munmap until its moving threshold has crept past
    them, so the first twenty-odd rounds of ``stream_local`` ran
    10-15 % slower than the later ones (page faults on fresh mappings,
    which a shared host also makes erratic), and a run's value depended
    on how many rounds fit. Fixing both thresholds ends the drift. It
    is a setting of this process, made before ``repro`` is imported, and
    the same for both sides of any comparison.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return                          # not glibc: nothing to steady
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3         # <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)                 # its maximum
    mallopt(m_trim_threshold, 1 << 30)


def load_harness():
    """Import the harness (and with it ``repro``); returns it and the
    import time. Pinning must already have happened."""
    if not (REPO / "src" / "repro").is_dir():
        sys.exit("swarm-e2e: %s has no src/repro to measure" % REPO)
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    start = perf_counter()
    import harness
    return harness, perf_counter() - start


def run_one(args) -> int:
    harness, import_s = load_harness()
    from workloads import workload_named

    workload = workload_named(args.workload)
    if workload is None:
        sys.exit("swarm-e2e: no workload %r" % args.workload)
    result = harness.run_workload(workload, args.seed, args.seconds,
                                  traced=bool(args.trace), import_s=import_s)
    harness.report(result)
    harness.write_details(result)
    print(result.contract_line(), flush=True)
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Each workload in its own subprocess; traced pass on request."""
    load_harness()                      # fail early, before any child
    from workloads import all_workloads

    status = 0
    for traced in ([0, 1] if args.trace else [0]):
        for workload in all_workloads():
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload.name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(traced)]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            # The child's last line is the driver's JSON; keep the table.
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines \
                    or not json.loads(lines[-1])["correct"]:
                print("  FAILED (exit %d)" % child.returncode)
                status = 1
    print("swarm-e2e: %s" % ("all workloads correct" if status == 0
                             else "FAILURES above"))
    return status


def selftest() -> int:
    load_harness()
    import test_harness

    failures = 0
    for name in sorted(vars(test_harness)):
        if not name.startswith("test_"):
            continue
        try:
            getattr(test_harness, name)()
        except Exception as exc:    # report every failing check, then fail
            failures += 1
            print("FAIL %s: %s: %s" % (name, type(exc).__name__, exc))
        else:
            print("ok   %s" % name)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run measures (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced pass: per-layer metrics")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    steady_allocator()
    if args.selftest:
        return selftest()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
