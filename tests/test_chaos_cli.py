"""Every ``python -m repro.chaos`` line CI runs must still parse, and the
seeded replays CI relies on are still there.

``ci.yml`` drives the chaos scenarios through the CLI, and the CLI picks
the scenario from its ``SCENARIOS`` table; a flag renamed or a table
entry dropped would strand a CI job that tier-1 never notices. This
reads the workflow file, takes every runnable chaos line (comment lines
only document how to reproduce) and hands it to ``parse_args`` — parse
and flag-pair validation, no scenario run.
"""

import pathlib
import shlex

import pytest

from repro.chaos.__main__ import SCENARIOS, parse_args

CI_YML = pathlib.Path(__file__).parent.parent / ".github/workflows/ci.yml"
MODULE = "python -m repro.chaos "


def _ci_chaos_commands():
    commands = []
    for line in CI_YML.read_text().splitlines():
        if MODULE in line and not line.lstrip().startswith("#"):
            flags = line.split(MODULE, 1)[1]
            commands.append(flags.replace("${{ github.run_id }}", "1"))
    return commands


def test_every_ci_chaos_line_parses():
    commands = _ci_chaos_commands()
    assert commands, "no chaos lines found in %s" % CI_YML
    # The held-out kill-server seed replays in the heal job.
    assert "--kill-server --seed 4242 --replay" in commands
    # The chaos job replays the plain local-wire variants, whose fault
    # schedule depends on how many retrieves degraded reads issue.
    assert "--seed 101 --replay" in commands
    assert "--seed 202 --replay" in commands
    assert "--clients 2 --seed 4242 --replay" in commands
    # Verified reads re-fetch no corrupt copy, which moves these two
    # fault schedules; the chaos job replays both.
    assert "--cleaner --seed 4242 --replay" in commands
    # Every kill in the crash sweep ends in fsck -> repair -> fsck; the
    # crash job replays the held-out seed too.
    assert "--crash-sweep --seed 4242 --replay" in commands
    # Seeds 2 and 3 kill mid-scatter where a torn stripe used to hide
    # the successor's acked writes (the sweep's succession clause).
    assert "--crash-sweep --seed 2 --replay" in commands
    assert "--crash-sweep --seed 3 --replay" in commands
    # The crash job's restart step replays the held-out seed: the one
    # scenario whose readmission reads READMIT_PROBES.
    assert "--kill-server --restart --seed 4242 --replay" in commands
    scenarios = {function for function, _ops, _blocks in SCENARIOS.values()}
    for command in commands:
        try:
            scenario, seed, kwargs, _replay = parse_args(shlex.split(command))
        except SystemExit:
            pytest.fail("ci.yml line no longer parses: %s%s"
                        % (MODULE, command))
        assert scenario in scenarios
        assert isinstance(seed, int) and kwargs["ops"]


def test_ci_replays_the_sting_suites_under_the_run_seed():
    lines = [line.strip() for line in CI_YML.read_text().splitlines()
             if not line.lstrip().startswith("#")]
    assert ("run: PYTHONPATH=src python -m pytest tests/test_sting_property.py"
            " tests/test_sting_recovery.py tests/test_sting_fs.py"
            " --hypothesis-seed=${{ github.run_id }} -q") in lines
