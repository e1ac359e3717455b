"""Integration tests: hazards, metrics, the closed-loop platform."""

import math

import pytest

from repro.attacks.campaign import CampaignSpec
from repro.attacks.fi import FaultType
from repro.core.experiment import run_campaign, run_episode
from repro.core.hazards import AccidentType
from repro.core.metrics import EpisodeResult, InterventionActivity, aggregate
from repro.core.platform import SimulationPlatform
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from tests.conftest import episode


class TestInterventionActivity:
    def test_records_first_activation(self):
        act = InterventionActivity()
        act.record(False, 0.0, 0.01)
        act.record(True, 1.0, 0.01)
        assert act.triggered
        assert act.first_time == 1.0

    def test_duration_accumulates(self):
        act = InterventionActivity()
        for i in range(100):
            act.record(True, i * 0.01, 0.01)
        assert act.active_duration == pytest.approx(1.0)

    def test_mean_activation_duration(self):
        act = InterventionActivity()
        for i in range(50):
            act.record(True, i * 0.01, 0.01)
        for i in range(50, 60):
            act.record(False, i * 0.01, 0.01)
        for i in range(60, 90):
            act.record(True, i * 0.01, 0.01)
        assert act.activation_count == 2
        assert act.mean_activation_duration == pytest.approx(0.4)

    def test_zero_when_never_active(self):
        assert InterventionActivity().mean_activation_duration == 0.0


class TestAggregate:
    def make_results(self):
        ok = EpisodeResult(fault_type="relative_distance")
        ok.attack_activated = True
        crash = EpisodeResult(fault_type="relative_distance")
        crash.attack_activated = True
        crash.accident = AccidentType.A1
        return [ok, crash]

    def test_rates(self):
        stats = aggregate(self.make_results())
        assert stats.a1_rate == 0.5
        assert stats.a2_rate == 0.0
        assert stats.prevented_rate == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestPlatformValidation:
    def test_ml_requires_controller(self):
        with pytest.raises(ValueError):
            SimulationPlatform(episode(), InterventionConfig(ml=True))

    def test_max_steps_validation(self):
        with pytest.raises(ValueError):
            SimulationPlatform(episode(), InterventionConfig(), max_steps=0)


class TestFaultFreeEpisodes:
    def test_s1_completes_without_accident(self):
        result = run_episode(episode("S1"), InterventionConfig())
        assert result.accident is None
        assert result.steps == 10_000
        assert result.following_distance is not None
        assert 20.0 < result.following_distance < 40.0

    def test_min_tfcw_formula(self):
        # min t_fcw = 2.5 + v_min/4.9 must be below the cruise-speed value.
        result = run_episode(episode("S1"), InterventionConfig())
        assert result.min_tfcw < 2.5 + 22.352 / 4.9

    def test_hardest_brake_moderate_in_s1(self):
        result = run_episode(episode("S1"), InterventionConfig())
        assert 0.15 < result.hardest_brake_fraction < 0.6

    def test_lane_keeping_in_benign_run(self):
        result = run_episode(episode("S1"), InterventionConfig())
        assert result.min_lane_distance > 0.1
        assert not result.h2

    def test_s4_is_dangerous_even_without_attack(self):
        crashes = 0
        for seed in range(6):
            r = run_episode(episode("S4", seed=seed * 17), InterventionConfig())
            crashes += r.crashed
        assert crashes >= 1  # the paper: 10/20 S4 accidents fault-free

    def test_no_attack_activation_recorded(self):
        result = run_episode(episode("S1"), InterventionConfig())
        assert not result.attack_activated
        assert not result.prevented


class TestAttackEpisodes:
    def test_rd_attack_causes_forward_collision(self):
        result = run_episode(
            episode("S1", fault=FaultType.RELATIVE_DISTANCE), InterventionConfig()
        )
        assert result.accident is AccidentType.A1
        assert result.attack_activated

    def test_curvature_attack_causes_lane_departure(self):
        result = run_episode(
            episode("S1", fault=FaultType.DESIRED_CURVATURE), InterventionConfig()
        )
        assert result.accident is AccidentType.A2

    def test_mixed_attack_is_lateral_dominated(self):
        a2 = 0
        for seed in (1, 2, 3, 4):
            r = run_episode(
                episode("S1", fault=FaultType.MIXED, seed=seed * 101),
                InterventionConfig(),
            )
            if r.accident is AccidentType.A2:
                a2 += 1
        assert a2 >= 3

    def test_aeb_independent_prevents_rd_attack(self):
        result = run_episode(
            episode("S1", fault=FaultType.RELATIVE_DISTANCE),
            InterventionConfig(aeb=AebsConfig.INDEPENDENT),
        )
        assert result.accident is None
        assert result.prevented
        assert result.aeb.triggered

    def test_aeb_compromised_fails_rd_attack(self):
        result = run_episode(
            episode("S1", fault=FaultType.RELATIVE_DISTANCE),
            InterventionConfig(aeb=AebsConfig.COMPROMISED),
        )
        assert result.accident is AccidentType.A1

    def test_fcw_raised_under_attack_with_driver(self):
        result = run_episode(
            episode("S1", fault=FaultType.RELATIVE_DISTANCE),
            InterventionConfig(driver=True),
        )
        assert result.driver_brake.triggered

    def test_attack_timing_recorded(self):
        result = run_episode(
            episode("S1", gap=230.0, fault=FaultType.RELATIVE_DISTANCE),
            InterventionConfig(),
        )
        # At a 230 m initial gap the 80 m trigger cannot fire immediately.
        assert result.attack_first_activation is not None
        assert result.attack_first_activation > 5.0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        spec = episode("S3", fault=FaultType.MIXED, seed=777)
        a = run_episode(spec, InterventionConfig(driver=True))
        b = run_episode(spec, InterventionConfig(driver=True))
        assert a.accident == b.accident
        assert a.accident_time == b.accident_time
        assert a.min_ttc == b.min_ttc
        assert a.hardest_brake_fraction == b.hardest_brake_fraction

    def test_different_seeds_differ(self):
        a = run_episode(episode("S1", seed=1), InterventionConfig())
        b = run_episode(episode("S1", seed=2), InterventionConfig())
        assert a.min_ttc != b.min_ttc


class TestTrace:
    def test_trace_recorded_when_requested(self):
        platform = SimulationPlatform(
            episode("S1"), InterventionConfig(), record_trace=True, max_steps=1000,
        )
        platform.run()
        assert platform.trace is not None
        assert len(platform.trace.time) == 1000 // SimulationPlatform.TRACE_EVERY
        assert len(platform.trace.ego_speed) == len(platform.trace.time)

    def test_trace_does_not_change_result(self):
        # AEB, FCW and driver braking all trigger before the crash, so every
        # intervention recorder is exercised with and without the trace.
        spec = episode("S1", fault=FaultType.RELATIVE_DISTANCE, seed=3)
        config = InterventionConfig(
            driver=True, safety_check=True, aeb=AebsConfig.COMPROMISED
        )
        plain = SimulationPlatform(spec, config).run()
        traced = SimulationPlatform(spec, config, record_trace=True)
        result = traced.run()
        assert plain.aeb.triggered and plain.fcw.triggered
        assert plain.driver_brake.triggered
        assert result.to_dict() == plain.to_dict()
        assert len(traced.trace.time) == math.ceil(
            result.steps / SimulationPlatform.TRACE_EVERY
        )

    def test_no_trace_by_default(self):
        platform = SimulationPlatform(episode("S1"), InterventionConfig(), max_steps=100)
        platform.run()
        assert platform.trace is None


class TestCampaignRunner:
    def test_reduced_campaign_runs(self):
        spec = CampaignSpec(
            fault_types=[FaultType.RELATIVE_DISTANCE],
            scenario_ids=["S1"],
            initial_gaps=[60.0],
            repetitions=2,
        )
        campaign = run_campaign(spec, InterventionConfig(), max_steps=4000)
        assert len(campaign.results) == 2
        assert campaign.intervention == "none"

    def test_ml_requires_factory(self):
        spec = CampaignSpec(repetitions=1)
        with pytest.raises(ValueError):
            run_campaign(spec, InterventionConfig(ml=True))

    def test_progress_callback(self):
        calls = []
        spec = CampaignSpec(
            fault_types=[FaultType.NONE], scenario_ids=["S1"],
            initial_gaps=[60.0], repetitions=2,
        )
        run_campaign(
            spec, InterventionConfig(), progress=lambda d, t: calls.append((d, t)),
            max_steps=200,
        )
        assert calls == [(1, 2), (2, 2)]

    def test_by_fault_type_grouping(self):
        spec = CampaignSpec(
            scenario_ids=["S1"], initial_gaps=[60.0], repetitions=1,
        )
        campaign = run_campaign(spec, InterventionConfig(), max_steps=3000)
        groups = campaign.by_fault_type()
        assert set(groups) == {"relative_distance", "desired_curvature", "mixed"}
