"""Tests for the CLI and the report generator."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_episode_defaults(self):
        args = build_parser().parse_args(["episode"])
        assert args.scenario == "S1"
        assert args.fault == "relative_distance"
        assert args.aeb == "disabled"

    def test_intervention_flags(self):
        args = build_parser().parse_args(
            ["episode", "--driver", "--check", "--aeb", "independent"]
        )
        assert args.driver and args.check
        assert args.aeb == "independent"

    def test_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["episode", "--fault", "gps"])


class TestCommands:
    def test_episode_command_runs(self, capsys):
        rc = main(["episode", "--scenario", "S1", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "outcome:" in out
        assert "min TTC:" in out

    def test_episode_with_aeb_prevents(self, capsys):
        rc = main(
            ["episode", "--fault", "relative_distance", "--aeb", "independent"]
        )
        assert rc == 0
        assert "prevented:  True" in capsys.readouterr().out

    def test_fig6_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig6.csv"
        rc = main(["fig6", "--csv", str(csv_path)])
        assert rc == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("time,ego_speed")


class TestReport:
    def test_small_report_contains_all_tables(self, tmp_path, monkeypatch):
        from repro.analysis.report import ReportConfig, generate_report
        from repro.core.executor import ExecutionPolicy
        from repro.core.platform import SimulationPlatform

        # The whole DAG at a 1,000-step horizon (CI runs this report at
        # the paper horizon).  The private cache and the in-process
        # executor keep the short-horizon results, which the paper-horizon
        # digests key, out of every other cache and process.
        monkeypatch.setattr(SimulationPlatform, "MAX_STEPS", 1000)
        text = generate_report(
            ReportConfig(
                repetitions=1,
                seed=5,
                reaction_times=(2.5,),
                execution=ExecutionPolicy("serial"),
                cache_dir=str(tmp_path / "cache"),
            )
        )
        for marker in ("Table IV", "Table V", "Table VI", "Table VII",
                       "Table VIII", "Fig. 5", "Fig. 6"):
            assert marker in text, marker
