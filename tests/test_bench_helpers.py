"""Tests for the measurement helpers and report formatting."""

import pytest

from repro.bench import figures
from repro.bench.__main__ import main
from repro.bench.figures import (
    Fig5Result,
    FigureSweep,
    ReadBenchResult,
    ServerSustainedResult,
    run_fig3_raw_bandwidth,
    run_fig4_useful_bandwidth,
)
from repro.bench.report import (
    format_figure_table,
    format_mab_table,
    format_read_result,
    format_server_result,
)
from repro.workloads.mab import MabResult
from repro.workloads.microbench import WriteBenchResult


def _result(clients, servers, useful, raw, elapsed=1.0):
    return WriteBenchResult(clients=clients, servers=servers,
                            blocks_per_client=100, block_size=4096,
                            elapsed_s=elapsed,
                            useful_bytes=int(useful * 1e6 * elapsed),
                            raw_bytes=int(raw * 1e6 * elapsed))


class TestWriteBenchResult:
    def test_rates(self):
        result = _result(1, 2, useful=3.0, raw=6.0, elapsed=2.0)
        assert result.useful_mb_per_s == pytest.approx(3.0)
        assert result.raw_mb_per_s == pytest.approx(6.0)


class TestFigureTable:
    def test_rows_and_columns(self):
        sweep = FigureSweep("fig3")
        sweep.curves[1] = [_result(1, 2, 3.0, 6.0), _result(1, 4, 4.5, 6.2)]
        sweep.curves[4] = [_result(4, 2, 6.7, 13.4)]
        table = format_figure_table(sweep, raw=False)
        lines = table.splitlines()
        assert "1 client (MB/s)" in lines[0]
        assert "4 clients (MB/s)" in lines[0]
        assert any(line.startswith("| 2 |") for line in lines)
        assert any(line.startswith("| 4 |") for line in lines)
        assert "3.0" in table and "6.7" in table

    def test_raw_mode_switches_metric(self):
        sweep = FigureSweep("fig3")
        sweep.curves[1] = [_result(1, 2, 3.0, 6.0)]
        assert "6.0" in format_figure_table(sweep, raw=True)
        assert "6.0" not in format_figure_table(sweep, raw=False)

    def test_series_helper(self):
        sweep = FigureSweep("fig4")
        sweep.curves[1] = [_result(1, 4, 4.5, 6.2), _result(1, 2, 3.0, 6.0)]
        series = sweep.series(1, raw=False)
        assert series == [(4, pytest.approx(4.5)), (2, pytest.approx(3.0))]


@pytest.mark.usefixtures("two_second_allowance")
def test_fig4_reads_fig3_runs_without_simulating(monkeypatch):
    calls = []

    def counting_bench(clients, servers, blocks):
        calls.append((clients, servers))
        return _result(clients, servers, useful=1.0, raw=2.0)

    monkeypatch.setattr(figures, "run_write_bench", counting_bench)
    fig3 = run_fig3_raw_bandwidth(client_counts=(1, 4),
                                  server_counts=(1, 2, 8), blocks=10)
    assert len(calls) == 6
    del calls[:]
    fig4 = run_fig4_useful_bandwidth(fig3)
    assert calls == []
    assert sorted(fig4.curves) == [1, 4]
    for clients, curve in fig4.curves.items():
        expected = [r for r in fig3.curves[clients] if r.servers >= 2]
        assert [r.servers for r in curve] == [2, 8]
        assert all(got is want for got, want in zip(curve, expected))


class TestMabTable:
    def test_contains_both_systems_and_speedup(self):
        result = Fig5Result(
            sting=MabResult("sting", elapsed_s=9.0, cpu_busy_s=8.5,
                            io_busy_s=0.5),
            ext2=MabResult("ext2fs", elapsed_s=17.0, cpu_busy_s=9.0,
                           io_busy_s=8.0))
        table = format_mab_table(result)
        assert "Sting" in table and "ext2fs" in table
        assert "1.89x" in table
        assert "94%" in table  # 8.5/9.0

    def test_speedup_property(self):
        result = Fig5Result(
            sting=MabResult("sting", 10.0, 9.0, 1.0),
            ext2=MabResult("ext2fs", 20.0, 10.0, 10.0))
        assert result.speedup == pytest.approx(2.0)


class TestInTextFormatting:
    def test_read_result(self):
        text = format_read_result(ReadBenchResult(
            blocks=100, block_size=4096, elapsed_s=1.0,
            bytes_read=1_200_000, prefetch=False))
        assert "1.20 MB/s" in text
        assert "1.7" in text  # paper value alongside

    def test_server_result(self):
        text = format_server_result(ServerSustainedResult(
            clients=4, raw_mb_per_s=8.0,
            disk_upper_bound_mb_per_s=10.6))
        assert "8.0" in text and "7.7" in text and "10.3" in text


class TestMabResult:
    def test_utilization(self):
        result = MabResult("x", elapsed_s=10.0, cpu_busy_s=9.3,
                           io_busy_s=0.7)
        assert result.cpu_utilization == pytest.approx(0.93)

    def test_zero_elapsed(self):
        assert MabResult("x", 0.0, 0.0, 0.0).cpu_utilization == 0.0


class TestCommandLine:
    """``python -m repro.bench`` parses its flags before any sweep runs."""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "--quick" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--smoke"])
        assert exit_info.value.code == 2
        assert "--smoke" in capsys.readouterr().err
