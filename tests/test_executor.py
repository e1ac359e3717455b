"""Tests for the campaign execution engine and result serialization.

Covers the executor determinism contract (serial == parallel, bit for
bit), EpisodeResult round-trips through to_dict/from_dict and JSONL,
the undefined-minima normalization in aggregate(), and the campaign /
benchmark input validation added alongside the engine.
"""

import json

import pytest

from repro.attacks.campaign import CampaignSpec, EpisodeSpec
from repro.attacks.fi import FaultType
from repro.core import executor as executor_module
from repro.core.executor import (
    BatchExecutor,
    EpisodeTask,
    ParallelExecutor,
    ProgressTracker,
    SerialExecutor,
    default_jobs,
)
from repro.core.experiment import CampaignResult, run_campaign
from repro.core.hazards import AccidentType
from repro.core.metrics import (
    EpisodeResult,
    InterventionActivity,
    aggregate,
    load_results,
    save_results,
)
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig

#: Small-but-real campaign used across the determinism tests: 4 episodes
#: (2 scenarios x 2 repetitions) under a relative-distance attack.
SMALL_SPEC = CampaignSpec(
    fault_types=[FaultType.RELATIVE_DISTANCE],
    scenario_ids=("S1", "S4"),
    initial_gaps=(60.0,),
    repetitions=2,
    seed=99,
)
SMALL_CFG = InterventionConfig(driver=True, aeb=AebsConfig.COMPROMISED)


def _benign_tasks(count, ml_at=()):
    """``count`` short fault-free tasks; positions in ``ml_at`` carry an
    unpicklable lambda ``ml_factory`` (the pickle-probe hazard)."""
    tasks = []
    for rep in range(count):
        spec = EpisodeSpec(
            scenario_id="S1",
            initial_gap=60.0,
            fault_type=FaultType.NONE,
            repetition=rep,
            seed=7 + rep,
        )
        if rep in ml_at:
            tasks.append(
                EpisodeTask.make(
                    spec,
                    InterventionConfig(ml=True),
                    ml_factory=lambda: _DummyMl(),  # repro-lint: disable=unpicklable-submission
                    max_steps=200,
                )
            )
        else:
            tasks.append(EpisodeTask.make(spec, InterventionConfig(), max_steps=200))
    return tasks


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


class PoolContract:
    """Behaviours both process-pool executors share, one test body each.

    ``ParallelExecutor`` and ``BatchParallelExecutor`` run the one pool
    loop with a different in-process executor inside each worker; a
    subclass per pool class (``pool_cls``) runs every test below.
    """

    pool_cls: type

    def test_chunk_boundaries_do_not_change_results(self):
        serial = run_campaign(
            SMALL_SPEC, SMALL_CFG, executor=SerialExecutor(), max_steps=1000
        )
        for chunk_size in (1, 3, 100):
            pooled = run_campaign(
                SMALL_SPEC,
                SMALL_CFG,
                executor=self.pool_cls(jobs=2, chunk_size=chunk_size),
                max_steps=1000,
            )
            assert pooled.results == serial.results, chunk_size

    def test_jobs_one_short_circuits_in_process(self, monkeypatch):
        tasks = _benign_tasks(3)
        serial = SerialExecutor().run(tasks)
        monkeypatch.setattr(executor_module, "_ProcessPool", _no_pool)
        assert self.pool_cls(jobs=1).run(tasks) == serial
        assert self.pool_cls(jobs=4).run(tasks[:1]) == serial[:1]

    def test_non_picklable_payload_falls_back_with_warning(self):
        tasks = _benign_tasks(2, ml_at=(0, 1))
        with pytest.warns(RuntimeWarning, match="not picklable"):
            pooled = self.pool_cls(jobs=2).run(tasks)
        assert pooled == SerialExecutor().run(tasks)

    def test_unpicklable_payload_in_later_position_falls_back(self):
        # Campaigns mix arms: probing only tasks[0] would green-light a
        # list whose lambda ml_factory sits further in and then explode
        # inside the process pool mid-campaign.  A non-first non-picklable
        # payload must fall back in-process just like a first one.
        tasks = _benign_tasks(3, ml_at=(2,))
        with pytest.warns(RuntimeWarning, match="not picklable"):
            pooled = self.pool_cls(jobs=2).run(tasks)
        assert pooled == SerialExecutor().run(tasks)

    def test_progress_is_monotonic_and_complete(self):
        calls = []
        run_campaign(
            SMALL_SPEC,
            SMALL_CFG,
            executor=self.pool_cls(jobs=2, chunk_size=1),
            progress=lambda done, total: calls.append((done, total)),
            max_steps=500,
        )
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert calls[-1] == (4, 4)
        assert all(t == 4 for _, t in calls)

    def test_empty_episode_list(self):
        campaign = run_campaign(
            [], InterventionConfig(), executor=self.pool_cls(jobs=2)
        )
        assert campaign.results == []

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            self.pool_cls(jobs=0)
        with pytest.raises(ValueError, match="chunk_size"):
            self.pool_cls(jobs=2, chunk_size=0)


class TestExecutorDeterminism(PoolContract):
    pool_cls = ParallelExecutor

    def test_serial_and_parallel_results_identical(self):
        serial = run_campaign(
            SMALL_SPEC, SMALL_CFG, executor=SerialExecutor(), max_steps=1500
        )
        parallel = run_campaign(
            SMALL_SPEC, SMALL_CFG, executor=ParallelExecutor(jobs=2), max_steps=1500
        )
        assert serial.results == parallel.results
        assert serial.intervention == parallel.intervention

    def test_jobs_kwarg_matches_serial_default(self):
        default = run_campaign(SMALL_SPEC, SMALL_CFG, max_steps=1000)
        explicit = run_campaign(SMALL_SPEC, SMALL_CFG, jobs=2, max_steps=1000)
        assert default.results == explicit.results


class _DummyMl:
    """Minimal MlController used to exercise the ml_factory path."""

    def reset(self):
        pass

    def step(self, features, y_op, dt):
        return y_op, False


class TestExecutorConstruction:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=2, chunk_size=0)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert default_jobs() == 5

    def test_default_jobs_rejects_malformed_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()

    def test_cli_reports_malformed_repro_jobs_cleanly(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_JOBS", "fast")
        assert main(["episode", "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_JOBS must be a positive integer" in err
        # Commands without a --jobs flag never read the env var.
        assert main(["fig5"]) == 0

    def test_progress_tracker_counts(self):
        calls = []
        tracker = ProgressTracker(5, lambda d, t: calls.append((d, t)))
        tracker.advance(2)
        tracker.advance(3)
        assert calls == [(2, 5), (5, 5)]

    def test_progress_tracker_rejects_negative_total(self):
        with pytest.raises(ValueError, match="total"):
            ProgressTracker(-1, None)

    def test_progress_tracker_rejects_nonpositive_advance(self):
        calls = []
        tracker = ProgressTracker(3, lambda d, t: calls.append((d, t)))
        with pytest.raises(ValueError, match="count"):
            tracker.advance(0)
        with pytest.raises(ValueError, match="count"):
            tracker.advance(-2)
        # A rejected advance must not move the counter or notify.
        assert tracker.done == 0
        assert calls == []

    def test_progress_completes_under_chunked_batch_dispatch(self):
        # 5 episodes through lanes=2 dispatch as chunks of 2/2/1; the
        # (done, total) contract — monotonic, constant total, final call
        # exactly (total, total) — must survive the uneven final chunk.
        specs = [
            EpisodeSpec(
                scenario_id="S1",
                initial_gap=60.0,
                fault_type=FaultType.NONE,
                repetition=rep,
                seed=11 + rep,
            )
            for rep in range(5)
        ]
        tasks = [
            EpisodeTask.make(spec, InterventionConfig(), max_steps=50)
            for spec in specs
        ]
        calls = []
        BatchExecutor(lanes=2).run(
            tasks, progress=lambda d, t: calls.append((d, t))
        )
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert all(t == 5 for _, t in calls)
        assert calls[-1] == (5, 5)


def _attacked_result() -> EpisodeResult:
    """A fully-populated result, as a real attack episode produces."""
    result = EpisodeResult(
        scenario_id="S4",
        initial_gap=60.0,
        fault_type="relative_distance",
        seed=123456789,
        intervention="driver+check",
        accident=AccidentType.A1,
        accident_time=12.34,
        h1=True,
        h2=False,
        steps=1234,
        duration=12.34,
        min_ttc=0.82,
        min_tfcw=3.1,
        following_distance=27.5,
        hardest_brake_fraction=0.93,
        min_lane_distance=0.41,
        max_speed=22.3,
        attack_first_activation=6.0,
        attack_activated=True,
    )
    result.aeb.record(True, 7.0, 0.01)
    result.driver_brake.record(True, 8.0, 0.01)
    result.driver_brake.record(False, 8.01, 0.01)
    return result


class TestEpisodeResultSerialization:
    def test_round_trip_populated(self):
        result = _attacked_result()
        clone = EpisodeResult.from_dict(result.to_dict())
        assert clone == result

    def test_round_trip_defaults_with_inf_sentinels(self):
        result = EpisodeResult()
        data = result.to_dict()
        # The sentinels must serialize as None (inf is invalid JSON) ...
        assert data["min_ttc"] is None
        assert data["min_tfcw"] is None
        assert data["min_lane_distance"] is None
        json.dumps(data, allow_nan=False)  # must not raise
        # ... and deserialize back to the exact in-memory sentinel.
        clone = EpisodeResult.from_dict(data)
        assert clone == result
        assert clone.min_ttc == float("inf")

    def test_channels_round_trip(self):
        result = _attacked_result()
        clone = EpisodeResult.from_dict(result.to_dict())
        assert clone.aeb == result.aeb
        assert clone.driver_brake.activation_count == 1
        assert clone.driver_brake._prev_active is False

    def test_activity_round_trip(self):
        activity = InterventionActivity()
        activity.record(True, 1.0, 0.01)
        activity.record(True, 1.01, 0.01)
        clone = InterventionActivity.from_dict(activity.to_dict())
        assert clone == activity

    def test_accident_enum_round_trip(self):
        for accident in (None, AccidentType.A1, AccidentType.A2):
            result = EpisodeResult(accident=accident)
            assert EpisodeResult.from_dict(result.to_dict()).accident is accident


class TestJsonlPersistence:
    def test_save_load_round_trip(self, tmp_path):
        results = [_attacked_result(), EpisodeResult(scenario_id="S1")]
        path = tmp_path / "campaign.jsonl"
        assert save_results(results, path) == 2
        assert load_results(path) == results

    def test_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        save_results([EpisodeResult()], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["min_ttc"] is None
        assert "Infinity" not in lines[0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        save_results([EpisodeResult(seed=1), EpisodeResult(seed=2)], path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert [r.seed for r in load_results(path)] == [1, 2]

    def test_malformed_interior_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_results([EpisodeResult(seed=9)], path)
        path.write_text('{"not": "an episode"}\n' + path.read_text())
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_results(path)

    def test_truncated_final_line_loads_prefix(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        save_results([EpisodeResult(seed=1), EpisodeResult(seed=2)], path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2 + len(text) // 4])  # cut line 2
        with pytest.warns(RuntimeWarning, match="malformed final record"):
            prefix = load_results(path)
        assert [r.seed for r in prefix] == [1]

    def test_corrupt_interior_record_reports_location(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        save_results([EpisodeResult(seed=1), EpisodeResult(seed=2)], path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"accident": null', '"accident": "bogus"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt.jsonl:1"):
            load_results(path)

    def test_campaign_result_save_load(self, tmp_path):
        campaign = CampaignResult(
            intervention="driver+check", results=[_attacked_result()]
        )
        path = tmp_path / "campaign.jsonl"
        campaign.save(path)
        reloaded = CampaignResult.load(path)
        assert reloaded.intervention == "driver+check"
        assert reloaded.results == campaign.results

    def test_campaign_result_load_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        reloaded = CampaignResult.load(path)
        assert reloaded.intervention == "none"
        assert reloaded.results == []

    def test_campaign_result_load_rejects_mixed_interventions(self, tmp_path):
        path = tmp_path / "merged.jsonl"
        save_results(
            [
                EpisodeResult(seed=1, intervention="none"),
                EpisodeResult(seed=2, intervention="driver"),
            ],
            path,
        )
        with pytest.raises(ValueError, match="mixed intervention labels"):
            CampaignResult.load(path)
        # load_results stays available for explicit mixed-file handling.
        assert len(load_results(path)) == 2


class TestUndefinedMinimaAggregation:
    def test_aggregate_normalizes_inf_to_none(self):
        stats = aggregate([EpisodeResult(), EpisodeResult()])
        assert stats.min_ttc is None
        assert stats.min_tfcw is None
        assert stats.min_lane_distance is None

    def test_aggregate_keeps_defined_minima(self):
        defined = EpisodeResult(min_ttc=1.5, min_tfcw=2.0, min_lane_distance=0.3)
        stats = aggregate([defined, EpisodeResult()])
        assert stats.min_ttc == 1.5
        assert stats.min_tfcw == 2.0
        assert stats.min_lane_distance == 0.3

    def test_tables_render_undefined_minima_as_dash(self):
        from repro.analysis.tables import (
            Table4Row,
            render_table4,
            render_table5,
        )

        row = Table4Row(
            scenario_id="S1",
            hazard_count=0,
            accident_count=0,
            episodes=1,
            following_distance=None,
            hardest_brake_pct=0.0,
            min_ttc=None,
            min_tfcw=None,
        )
        text = render_table4([row])
        assert "inf" not in text
        assert " - " in text
        text5 = render_table5({"S1": None})
        assert "inf" not in text5
        assert "-" in text5.splitlines()[-1]

    def test_render_fmt_handles_nonfinite_floats(self):
        from repro.analysis.render import _fmt

        assert _fmt(float("inf")) == "-"
        assert _fmt(float("nan")) == "-"
        assert _fmt(1.234) == "1.23"


class TestCampaignSpecValidation:
    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="fault_types"):
            CampaignSpec(fault_types=[])
        with pytest.raises(ValueError, match="scenario_ids"):
            CampaignSpec(scenario_ids=())
        with pytest.raises(ValueError, match="initial_gaps"):
            CampaignSpec(initial_gaps=())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate fault_types"):
            CampaignSpec(fault_types=[FaultType.NONE, FaultType.NONE])
        with pytest.raises(ValueError, match="duplicate scenario_ids"):
            CampaignSpec(scenario_ids=("S1", "S1"))
        with pytest.raises(ValueError, match="duplicate initial_gaps"):
            CampaignSpec(initial_gaps=(60.0, 60.0))

    def test_rejects_nonpositive_gaps(self):
        with pytest.raises(ValueError, match="initial_gaps"):
            CampaignSpec(initial_gaps=(60.0, 0.0))
        with pytest.raises(ValueError, match="initial_gaps"):
            CampaignSpec(initial_gaps=(-5.0,))

    def test_accepts_paper_grid(self):
        spec = CampaignSpec()
        assert spec.repetitions == 10


class TestBenchRepetitionsValidation:
    def _repetitions(self):
        import importlib.util
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "_bench_utils.py"
        )
        spec = importlib.util.spec_from_file_location("_bench_utils", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.repetitions

    def test_default_and_override(self, monkeypatch):
        repetitions = self._repetitions()
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_REPS", raising=False)
        assert repetitions(3) == 3
        monkeypatch.setenv("REPRO_REPS", "7")
        assert repetitions(3) == 7
        monkeypatch.setenv("REPRO_FULL", "1")
        assert repetitions(3) == 10

    def test_malformed_reps_actionable_error(self, monkeypatch):
        repetitions = self._repetitions()
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_REPS", "a lot")
        with pytest.raises(ValueError, match="REPRO_REPS must be a positive"):
            repetitions()

    def test_nonpositive_reps_rejected(self, monkeypatch):
        repetitions = self._repetitions()
        monkeypatch.delenv("REPRO_FULL", raising=False)
        for bad in ("0", "-3"):
            monkeypatch.setenv("REPRO_REPS", bad)
            with pytest.raises(ValueError, match="REPRO_REPS"):
                repetitions()


class TestEpisodeTask:
    def test_make_normalizes_kwargs(self):
        spec = EpisodeSpec(
            scenario_id="S1",
            initial_gap=60.0,
            fault_type=FaultType.NONE,
            repetition=0,
            seed=1,
        )
        task = EpisodeTask.make(spec, InterventionConfig(), max_steps=100, dt=0.01)
        assert task.platform_kwargs == (("dt", 0.01), ("max_steps", 100))

    def test_task_is_picklable(self):
        import pickle

        spec = EpisodeSpec(
            scenario_id="S1",
            initial_gap=60.0,
            fault_type=FaultType.NONE,
            repetition=0,
            seed=1,
        )
        task = EpisodeTask.make(spec, InterventionConfig(), max_steps=100)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
