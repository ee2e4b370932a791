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
    ("chaos", 101): "5a598249ff9b67bf",
    ("chaos", 202): "30010432f5719274",
    ("chaos", 4242): "c6729e0fdfdbabb8",
    ("chaos-2-clients", 101): "6f6f147a67e79443",
    ("chaos-2-clients", 202): "c6d6d8dcddf0da7b",
    ("chaos-2-clients", 4242): "505aa81cc2111357",
    ("cleaner", 101): "eaa01dfe8a7a1a49",
    ("cleaner", 202): "f473c1981cd819d6",
    ("cleaner", 4242): "3680aa732b517f63",
    # Regression seed: a lost reply on the re-store that repairs a torn
    # fragment used to abort the scenario with FragmentExistsError.
    ("cleaner", 555): "e55735824246ab17",
    ("crash-sweep", 101): "3755241bbb8c63f3",
    ("crash-sweep", 202): "7760f5182703f442",
    ("crash-sweep", 4242): "36236fcc71ef10c8",
    ("kill-2-victims", 101): "d725252a4644362a",
    ("kill-2-victims", 202): "fb11f0803e8bb0a6",
    ("kill-2-victims", 4242): "e28c73e12ef674d5",
    ("kill-64-servers", 101): "0598cfd2ccaa73be",
    ("kill-64-servers", 202): "992222ba6292e89f",
    ("kill-64-servers", 4242): "9017b6746cc382bb",
    ("kill-restart", 101): "781a81cad34e0307",
    ("kill-restart", 202): "02014d18e38cade1",
    ("kill-restart", 4242): "a9a3094ee1a1a58e",
    ("kill-server", 101): "b7bc2a7894c9d07f",
    ("kill-server", 202): "8f8217a283ada933",
    ("kill-server", 4242): "a04ff022e3ae9af3",
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
