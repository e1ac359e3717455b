"""CLI tests for the scheduler commands and configuration fail-fast paths.

Covers ``repro dispatch`` (in-process backend end to end, byte-compared
against ``repro campaign``), ``repro worker`` driven through ``main()``
on a real spec file, ``repro cache list|verify|gc``, the ``--backend``
flag on ``campaign``/``report`` (routing plus flag-conflict errors), and
the environment fail-fast bugfixes: a malformed ``REPRO_CACHE_DIR`` or
``REPRO_JOBS`` and an out-of-range ``--shard`` must exit 2 with a
message naming the culprit — never a traceback.
"""

import json
import os

import pytest

from repro.analysis.report import ReportConfig, _run_report_campaign
from repro.attacks.campaign import CampaignSpec
from repro.attacks.fi import FaultType
from repro.cli import build_parser, main
from repro.core.cache import CampaignCache, read_digest_sidecar
from repro.core.scheduler import (
    CampaignPlan,
    SubprocessFleetBackend,
    write_job_spec,
)
from repro.safety.arbitration import InterventionConfig

#: Quick grid shared across the command tests: 2 episodes, 300 steps.
GRID = [
    "--fault", "relative_distance", "--scenario", "S1",
    "--scenario-param", "initial_gap=60",
    "--reps", "2", "--seed", "7", "--driver", "--max-steps", "300",
]


def grid_spec():
    return CampaignSpec(
        fault_types=[FaultType.RELATIVE_DISTANCE],
        scenario_ids=("S1",),
        initial_gaps=(60.0,),
        repetitions=2,
        seed=7,
    )


class TestBatchLanesFlag:
    def test_campaign_batch_lanes_matches_serial_bytes(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        assert main(["campaign", *GRID, "-o", str(serial)]) == 0
        batch = tmp_path / "batch.jsonl"
        rc = main(
            [
                "campaign", *GRID,
                "--executor", "batch", "--lanes", "1",
                "-o", str(batch),
            ]
        )
        assert rc == 0
        assert batch.read_bytes() == serial.read_bytes()
        capsys.readouterr()

    def test_malformed_repro_batch_lanes_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BATCH_LANES", "many")
        assert main(["campaign", *GRID]) == 2
        assert "REPRO_BATCH_LANES" in capsys.readouterr().err

    def test_nonpositive_repro_batch_lanes_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BATCH_LANES", "0")
        assert main(["campaign", *GRID]) == 2
        assert "REPRO_BATCH_LANES" in capsys.readouterr().err

    def test_worker_command_forwards_lanes(self):
        backend = SubprocessFleetBackend(workers=1, executor="batch", lanes=3)
        command = backend.worker_command("spec.json")
        assert "--lanes" in command
        assert command[command.index("--lanes") + 1] == "3"
        assert command[command.index("--executor") + 1] == "batch"


class TestDispatchCommand:
    def test_in_process_dispatch_matches_campaign_bytes(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        assert main(["campaign", *GRID, "-o", str(serial)]) == 0
        out = tmp_path / "dispatch.jsonl"
        rc = main(
            [
                "dispatch", *GRID,
                "--backend", "in-process",
                "--shards", "2",
                "--workdir", str(tmp_path / "wd"),
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == serial.read_bytes()
        # The merged file carries the full-campaign digest sidecar, and
        # the workdir holds one shard JSONL + sidecar per planned shard.
        assert read_digest_sidecar(str(out)) is not None
        shard_files = sorted(
            n for n in os.listdir(tmp_path / "wd") if n.endswith(".jsonl")
        )
        assert len(shard_files) == 2
        assert "wrote 2 episodes" in capsys.readouterr().out

    def test_campaign_backend_flag_routes_through_scheduler(
        self, tmp_path, capsys
    ):
        serial = tmp_path / "serial.jsonl"
        assert main(["campaign", *GRID, "-o", str(serial)]) == 0
        out = tmp_path / "scheduled.jsonl"
        rc = main(
            [
                "campaign", *GRID,
                "--backend", "in-process",
                "--workdir", str(tmp_path / "wd"),
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == serial.read_bytes()

    def test_unknown_backend_exits_2_naming_registered(self, capsys):
        assert main(["campaign", *GRID, "--backend", "slurm"]) == 2
        err = capsys.readouterr().err
        assert "unknown worker backend 'slurm'" in err
        assert "in-process" in err and "subprocess" in err

    def test_backend_conflicts_with_shard_and_resume(self, capsys):
        assert (
            main(
                ["campaign", *GRID, "--backend", "in-process", "--shard", "1/2"]
            )
            == 2
        )
        assert "--shard" in capsys.readouterr().err
        assert (
            main(["campaign", *GRID, "--backend", "in-process", "--resume"]) == 2
        )
        assert "--resume" in capsys.readouterr().err

    def test_ssh_command_requires_ssh_backend(self, capsys):
        rc = main(
            [
                "dispatch", *GRID,
                "--backend", "subprocess",
                "--ssh-command", "ssh host {command}",
            ]
        )
        assert rc == 2
        assert "--ssh-command" in capsys.readouterr().err

    def test_ssh_command_keeps_executor_jobs_and_lanes(self):
        from repro.cli import _backend_kwargs

        args = build_parser().parse_args(
            [
                "dispatch", *GRID,
                "--backend", "ssh", "--ssh-command", "ssh h {command}",
                "--executor", "batch", "--jobs", "2", "--lanes", "8",
            ]
        )
        backend = _backend_kwargs(args)["backend"]
        wrapped = backend.worker_command("spec.json")[-1]
        assert wrapped.startswith("ssh h ")
        for flag in ("--executor batch", "--jobs 2", "--lanes 8"):
            assert flag in wrapped, flag


class TestWorkerCommand:
    def test_worker_executes_a_spec_file(self, tmp_path, capsys):
        plan = CampaignPlan.build(
            grid_spec(), InterventionConfig(driver=True), shards=2, max_steps=300
        )
        job = plan.jobs[0]
        spec_path = str(tmp_path / "job.spec.json")
        write_job_spec(job, spec_path, output=job.file_name())
        assert main(["worker", "--spec", spec_path]) == 0
        err = capsys.readouterr().err
        assert (
            f"worker: shard 1/2: 0 episodes already recorded; "
            f"executing {job.total} of {job.total}" in err
        )
        output = tmp_path / job.file_name()
        assert output.exists()
        assert read_digest_sidecar(str(output)) == job.digest()

        # A second invocation resumes the complete file: zero executed.
        assert main(["worker", "--spec", spec_path]) == 0
        err = capsys.readouterr().err
        assert (
            f"worker: shard 1/2: {job.total} episodes already recorded; "
            f"executing 0 of {job.total}" in err
        )

    def test_worker_ignores_environment_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        # Cache policy is resolved by the scheduler at dispatch time: a
        # spec without a cache_dir means the plan runs uncached, and the
        # worker must not leak results into (or serve them from) its own
        # REPRO_CACHE_DIR environment.
        env_cache = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_cache))
        plan = CampaignPlan.build(
            grid_spec(), InterventionConfig(driver=True), shards=1, max_steps=300
        )
        job = plan.jobs[0]
        spec_path = str(tmp_path / "job.spec.json")
        write_job_spec(job, spec_path, output=job.file_name())
        assert main(["worker", "--spec", spec_path]) == 0
        assert not env_cache.exists()

    def test_worker_refuses_tampered_spec(self, tmp_path, capsys):
        plan = CampaignPlan.build(
            grid_spec(), InterventionConfig(driver=True), shards=1, max_steps=300
        )
        job = plan.jobs[0]
        spec_path = tmp_path / "job.spec.json"
        write_job_spec(job, str(spec_path), output=job.file_name())
        spec_path.write_text(
            spec_path.read_text().replace(job.digest(), "0" * 64)
        )
        assert main(["worker", "--spec", str(spec_path)]) == 2
        assert "disagree on campaign identity" in capsys.readouterr().err


class TestCacheCommand:
    def seeded_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        rc = main(["campaign", *GRID, "--cache-dir", cache_dir,
                   "-o", str(tmp_path / "c.jsonl")])
        assert rc == 0
        return cache_dir

    def test_list_table_and_json(self, tmp_path, capsys):
        cache_dir = self.seeded_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "list", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "digest" in out
        assert main(["cache", "list", "--cache-dir", cache_dir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root"] == cache_dir
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["episodes"] == 2

    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        cache_dir = self.seeded_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        assert "1 ok, 0 corrupt" in capsys.readouterr().out
        cache = CampaignCache(cache_dir)
        entry = cache.path(cache.keys()[0])
        with open(entry, "a") as handle:
            handle.write("{broken\n")
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "0 ok, 1 corrupt" in out
        assert os.path.exists(entry)  # verify never deletes

    def test_gc_honours_keep_days(self, tmp_path, capsys):
        cache_dir = self.seeded_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--keep-days", "30"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--keep-days", "0"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert CampaignCache(cache_dir, create=False).keys() == []

    def test_gc_requires_keep_days(self, tmp_path, capsys):
        cache_dir = self.seeded_cache(tmp_path)
        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 2
        assert "--keep-days" in capsys.readouterr().err

    def test_requires_a_cache_directory(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "list"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_env_cache_dir_is_honoured(self, tmp_path, monkeypatch, capsys):
        cache_dir = self.seeded_cache(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        capsys.readouterr()
        assert main(["cache", "list"]) == 0
        assert "1 entries" in capsys.readouterr().out


class TestEnvironmentFailFast:
    def test_bad_cache_dir_env_names_variable_from_grid_command(
        self, tmp_path, monkeypatch, capsys
    ):
        bogus = tmp_path / "a-file"
        bogus.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(bogus))
        # table4 has no --cache-dir guard of its own: the env default is
        # consulted deep inside run_campaign, and must still surface as a
        # clean exit-2 message naming the variable, not a traceback.
        assert main(["table4", "--reps", "1"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_CACHE_DIR" in err and str(bogus) in err

    def test_bad_cache_dir_env_fails_campaign_command(
        self, tmp_path, monkeypatch, capsys
    ):
        bogus = tmp_path / "a-file"
        bogus.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(bogus))
        assert main(["campaign", *GRID]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_jobs_env_names_variable(self, value, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", value)
        assert main(["campaign", *GRID]) == 2
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err and value in err

    @pytest.mark.parametrize("text", ["5/4", "0/4", "4/0"])
    def test_out_of_range_shard_is_a_clean_argparse_error(self, text, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", "--shard", text])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--shard" in err and "shard" in err
        assert "Traceback" not in err


class TestReportBackendRouting:
    def test_report_flags_reach_report_config(self):
        args = build_parser().parse_args(
            ["report", "--backend", "in-process", "--workers", "3",
             "--workdir", "wd"]
        )
        from repro.cli import _report_config_from_args

        config = _report_config_from_args(args)
        assert config.backend == "in-process"
        assert config.workers == 3
        assert config.workdir == "wd"

    def test_report_campaign_routes_through_dispatch(self, tmp_path, monkeypatch):
        calls = {}

        def fake_dispatch(campaign, interventions, **kwargs):
            calls["backend"] = kwargs["backend"]
            calls["workers"] = kwargs["workers"]
            from repro.core.experiment import CampaignResult

            return CampaignResult(intervention=interventions.label(), results=[])

        import repro.core.scheduler as scheduler

        monkeypatch.setattr(scheduler, "dispatch_campaign", fake_dispatch)
        config = ReportConfig(backend="subprocess", workers=2)
        result = _run_report_campaign(
            config, grid_spec(), InterventionConfig(driver=True)
        )
        assert result.results == []
        assert calls == {"backend": "subprocess", "workers": 2}

    def test_report_without_backend_keeps_direct_path(self, monkeypatch):
        import repro.core.scheduler as scheduler

        def boom(*a, **k):
            raise AssertionError("dispatch_campaign must not be called")

        monkeypatch.setattr(scheduler, "dispatch_campaign", boom)
        config = ReportConfig()
        result = _run_report_campaign(
            config,
            CampaignSpec(
                fault_types=[FaultType.NONE],
                scenario_ids=("S1",),
                initial_gaps=(60.0,),
                repetitions=1,
                seed=3,
            ),
            InterventionConfig(),
        )
        assert len(result.results) == 1
