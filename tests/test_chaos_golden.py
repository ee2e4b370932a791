"""Golden fingerprints and CLI contract of the chaos scenarios CI runs.

Every refactor of the log layer, the wire or the chaos runner is judged
by "digests unchanged". This module pins them: each scenario variant
``.github/workflows/ci.yml`` drives through ``python -m repro.chaos`` is
run here with the CLI's own defaults for two pinned seeds and the
held-out seed 4242, and its whole observable outcome — fault schedule,
crash census, per-kill digests, recovered-state digest, problems, stats
— is hashed to a 16-hex fingerprint that must not move. The second half drives the CLI entry
point itself in-process: every variant exits 0 naming its seed, every
rejected flag combination exits 2.

A fingerprint that changes means behaviour changed. If that was the
point of the PR, regenerate with ``_fingerprint`` and say so in the PR.
"""

import hashlib

import pytest

from repro.chaos.__main__ import main
from repro.chaos.harness import generate_ops
from repro.chaos.runner import run_chaos, run_cleaner_churn, run_kill_server
from repro.chaos.sweep import run_crash_sweep

#: variant -> (CLI flags, scenario, n_ops, max_blocks, scenario kwargs);
#: the last four are what ``repro.chaos.__main__`` derives from the flags.
VARIANTS = {
    "chaos": (
        [], run_chaos, 48, 24, {"num_servers": 4, "num_clients": 1}),
    "chaos-2-clients": (
        ["--clients", "2"],
        run_chaos, 48, 24, {"num_servers": 4, "num_clients": 2}),
    "kill-server": (
        ["--kill-server"], run_kill_server, 64, 24,
        {"num_servers": None, "victims": 1, "restart": False,
         "num_clients": 1}),
    "kill-2-victims": (
        ["--kill-server", "--victims", "2"], run_kill_server, 64, 24,
        {"num_servers": None, "victims": 2, "restart": False,
         "num_clients": 1}),
    "kill-restart": (
        ["--kill-server", "--restart"], run_kill_server, 64, 24,
        {"num_servers": None, "victims": 1, "restart": True,
         "num_clients": 1}),
    "kill-64-servers": (
        ["--kill-server", "--servers", "64", "--clients", "2"],
        run_kill_server, 64, 24,
        {"num_servers": 64, "victims": 1, "restart": False,
         "num_clients": 2}),
    "cleaner": (
        ["--cleaner"], run_cleaner_churn, 64, 12, {"num_servers": 4}),
    "crash-sweep": (
        ["--crash-sweep"], run_crash_sweep, 36, 12,
        {"num_servers": 6, "point": None, "occurrence": None}),
}

GOLDEN = {
    ("chaos", 101): "71bd3469624cf4fb",
    ("chaos", 202): "2d80324b163d1dd9",
    ("chaos", 4242): "c483cd48b8cdb096",
    ("chaos-2-clients", 101): "8fa4b2cbd58b2d20",
    ("chaos-2-clients", 202): "a33a49d3d56709a0",
    ("chaos-2-clients", 4242): "9f1687e2283d06bf",
    ("cleaner", 101): "3bac07f99579c066",
    ("cleaner", 202): "020f9106e05d36d8",
    ("cleaner", 4242): "616d7c30da5a6814",
    # Regression seed: a lost reply on the re-store that repairs a torn
    # fragment used to abort the scenario with FragmentExistsError.
    ("cleaner", 555): "e55735824246ab17",
    ("crash-sweep", 101): "3755241bbb8c63f3",
    ("crash-sweep", 202): "7760f5182703f442",
    ("crash-sweep", 4242): "36236fcc71ef10c8",
    ("kill-2-victims", 101): "2ef1ef25297da1d6",
    ("kill-2-victims", 202): "f76f9e40d213d241",
    ("kill-2-victims", 4242): "2f4f3853ce903f47",
    ("kill-64-servers", 101): "bda741ffd1d8cedc",
    ("kill-64-servers", 202): "fb326340cd6c44fc",
    ("kill-64-servers", 4242): "72c8e2b52d36236d",
    ("kill-restart", 101): "e7ec45ee33dcd0d7",
    ("kill-restart", 202): "0a55e5f0a56d6037",
    ("kill-restart", 4242): "31dbe80a53ab3a65",
    ("kill-server", 101): "14c9b6962e7b0bd0",
    ("kill-server", 202): "d986f1bc1e99503f",
    ("kill-server", 4242): "c5d04a0783ce40f2",
}


def _fingerprint(report) -> str:
    """16 hex digits over everything a scenario report exposes."""
    parts = []
    for name in ("fault_history", "census", "pairs", "state_digest",
                 "problems"):
        value = getattr(report, name, None)
        if isinstance(value, dict):
            value = sorted(value.items())
        parts.append(repr(value))
    parts.append(repr(sorted(report.stats.items())))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("variant, seed", sorted(GOLDEN))
def test_fingerprint_is_pinned(variant, seed):
    _flags, scenario, n_ops, max_blocks, kwargs = VARIANTS[variant]
    report = scenario(seed, ops=generate_ops(seed, n_ops=n_ops,
                                             max_blocks=max_blocks),
                      **kwargs)
    assert report.ok, report.problems
    assert _fingerprint(report) == GOLDEN[variant, seed]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_cli_variant_exits_zero_naming_its_seed(variant, capsys):
    # One variant also takes the --replay path (two runs, compared).
    replay = ["--replay"] if variant == "chaos" else []
    assert main(VARIANTS[variant][0] + ["--seed", "101"] + replay) == 0
    assert "seed=101" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--victims", "2"],
    ["--restart"],
    ["--crash-point", "stripe_seal"],
    ["--crash-sweep", "--occurrence", "1"],
    ["--crash-sweep", "--crash-point", "stripe_seal", "--occurrence", "0"],
    ["--clients", "0"],
    ["--cleaner", "--clients", "2"],
    ["--net", "--cleaner"],
], ids=" ".join)
def test_cli_rejects_flag_combination(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--seed", "101"] + flags)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
