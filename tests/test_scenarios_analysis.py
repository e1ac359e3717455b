"""Tests for scenario construction and the analysis layer."""

import pytest

from repro.analysis.figures import fig6_series, speed_drop
from repro.analysis.render import ascii_plot, format_table
from repro.analysis.tables import (
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    table4_driving_performance,
    table5_lane_distance,
    table6_row,
    table7_reaction_sweep,
    table8_friction_sweep,
)
from repro.attacks.campaign import CampaignSpec
from repro.attacks.fi import FaultType
from repro.core.experiment import CampaignResult, run_campaign
from repro.core.metrics import EpisodeResult
from repro.core.hazards import AccidentType
from repro.safety.arbitration import InterventionConfig
from repro.sim.scenarios import (
    EGO_SPEED,
    INITIAL_GAPS,
    SCENARIO_IDS,
    ScenarioConfig,
    build_scenario,
)
from repro.utils.units import mph_to_ms


class TestScenarioConstruction:
    def test_all_scenarios_build(self):
        for sid in SCENARIO_IDS:
            world = build_scenario(ScenarioConfig(scenario_id=sid, seed=1))
            assert world.ego.speed == pytest.approx(EGO_SPEED)
            assert world.agents  # at least one traffic actor

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario_id="S7")

    def test_initial_gap_respected(self):
        for gap in INITIAL_GAPS:
            world = build_scenario(
                ScenarioConfig(scenario_id="S1", initial_gap=gap, seed=1, jitter=False)
            )
            measured = world.lead_gap()
            assert measured == pytest.approx(gap, abs=0.5)

    def test_s5_has_cut_in_vehicle(self):
        world = build_scenario(ScenarioConfig(scenario_id="S5", seed=1))
        names = [a.actor.name for a in world.agents]
        assert "CutIn" in names

    def test_s6_has_two_leads(self):
        world = build_scenario(ScenarioConfig(scenario_id="S6", seed=1))
        assert len(world.agents) == 2

    def test_s3_lead_starts_faster(self):
        world = build_scenario(ScenarioConfig(scenario_id="S3", seed=1, jitter=False))
        assert world.actors[0].speed == pytest.approx(mph_to_ms(40.0), abs=0.01)

    def test_jitter_varies_with_seed(self):
        a = build_scenario(ScenarioConfig(scenario_id="S1", seed=1)).lead_gap()
        b = build_scenario(ScenarioConfig(scenario_id="S1", seed=2)).lead_gap()
        assert a != b

    def test_jitter_deterministic_per_seed(self):
        a = build_scenario(ScenarioConfig(scenario_id="S1", seed=5)).lead_gap()
        b = build_scenario(ScenarioConfig(scenario_id="S1", seed=5)).lead_gap()
        assert a == b


class TestRender:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text
        assert "-" in lines[-1]

    def test_format_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_ascii_plot_skips_nan(self):
        text = ascii_plot([0, 1, 2], [1.0, float("nan"), 3.0], label="x")
        assert "x" in text
        assert "*" in text

    def test_ascii_plot_empty(self):
        assert "(no data)" in ascii_plot([], [], label="y")


@pytest.fixture(scope="module")
def small_fault_free_campaign():
    spec = CampaignSpec(
        fault_types=[FaultType.NONE],
        scenario_ids=["S1", "S4"],
        initial_gaps=[60.0],
        repetitions=2,
        seed=9,
    )
    return run_campaign(spec, InterventionConfig(), max_steps=6000)


class TestTables:
    def test_table4_rows(self, small_fault_free_campaign):
        rows = table4_driving_performance(small_fault_free_campaign)
        ids = [r.scenario_id for r in rows]
        assert ids == ["S1", "S4"]
        assert all(r.episodes == 2 for r in rows)
        text = render_table4(rows)
        assert "Table IV" in text

    def test_table5(self, small_fault_free_campaign):
        distances = table5_lane_distance(small_fault_free_campaign)
        assert set(distances) == {"S1", "S4"}
        assert "Table V" in render_table5(distances)

    def test_table6_row_requires_results(self):
        with pytest.raises(ValueError):
            table6_row([], "none")

    def test_table6_render(self):
        r = EpisodeResult(fault_type="relative_distance")
        r.attack_activated = True
        r.accident = AccidentType.A1
        row = table6_row([r], "none")
        assert row.a1_pct == 100.0
        assert "Table VI" in render_table6([row])

    def test_table7_shape(self):
        r = EpisodeResult(fault_type="mixed")
        r.attack_activated = True
        campaign = CampaignResult("driver", [r])
        table = table7_reaction_sweep({1.0: campaign, 2.5: campaign})
        assert set(table) == {"mixed"}
        assert set(table["mixed"]) == {1.0, 2.5}
        assert "Table VII" in render_table7(table)

    def test_table8_shape(self):
        r = EpisodeResult(fault_type="relative_distance")
        r.attack_activated = True
        campaign = CampaignResult("x", [r])
        table = table8_friction_sweep({"default": campaign, "75% off": campaign})
        assert "Table VIII" in render_table8(table)


class TestFigures:
    def test_fig6_trace_shows_attack_cascade(self):
        series = fig6_series(seed=42, max_steps=6000)
        assert series.result.attack_activated
        # perceived RD diverges above the true gap while the attack is on
        diverged = any(
            p - t > 5.0
            for p, t in zip(series.trace.perceived_rd, series.trace.true_gap)
            if p == p and t == t
        )
        assert diverged
        csv = series.to_csv()
        assert csv.splitlines()[0].startswith("time,")

    def test_speed_drop_helper(self):
        series = fig6_series(seed=42, max_steps=6000)
        assert speed_drop(series) >= 0.0
