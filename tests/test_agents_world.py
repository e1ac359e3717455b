"""Unit tests for repro.sim.agents, repro.sim.world and repro.sim.sensors."""

import pytest

from repro.sim.agents import (
    AgentBinding,
    CruiseBehavior,
    CutInBehavior,
    LaneChangeAwayBehavior,
    SpeedChangeBehavior,
    SuddenStopBehavior,
    bumper_gap,
)
from repro.sim.sensors import GroundTruthSensor
from repro.sim.track import build_straight_map
from repro.sim.vehicle import EgoVehicle, KinematicActor
from repro.sim.weather import FrictionCondition
from repro.sim.world import World
from tests.conftest import Oscillator

DT = 0.01


def make_world(ego_speed=20.0, lead_gap=None, lead_speed=13.0, lead_lane_d=0.0):
    road = build_straight_map()
    ego = EgoVehicle(road, s=50.0, d=0.0, speed=ego_speed)
    world = World(road, ego)
    if lead_gap is not None:
        lead_s = ego.front_s + lead_gap + 2.35
        lead = KinematicActor(road, s=lead_s, d=lead_lane_d, speed=lead_speed, name="LV")
        world.add_agent(AgentBinding(lead, CruiseBehavior(lead_speed)))
    return world


class TestBehaviors:
    def test_cruise_holds_speed(self):
        world = make_world(lead_gap=40.0, lead_speed=13.0)
        for _ in range(500):
            world.ego.apply_controls(0.0, 0.0)
            world.step(DT)
        assert world.actors[0].speed == pytest.approx(13.0, abs=0.2)

    def test_speed_change_triggers_on_gap(self):
        behavior = SpeedChangeBehavior(13.0, 18.0, trigger_gap=30.0, rate=1.0)
        world = make_world(ego_speed=20.0, lead_gap=50.0)
        world.agents[0].behavior = behavior
        for _ in range(3000):
            world.ego.apply_controls(0.0, 0.0)
            world.step(DT)
            if behavior.triggered:
                break
        assert behavior.triggered
        assert bumper_gap(world.actors[0], world.ego) < 31.0

    def test_sudden_stop_reaches_standstill(self):
        behavior = SuddenStopBehavior(13.0, trigger_gap=45.0, decel=8.0)
        world = make_world(ego_speed=20.0, lead_gap=50.0)
        world.agents[0].behavior = behavior
        for _ in range(4000):
            world.ego.apply_controls(-3.0, 0.0)  # ego brakes too
            world.step(DT)
        assert behavior.triggered
        assert world.actors[0].speed == 0.0

    def test_sudden_stop_validates_decel(self):
        with pytest.raises(ValueError):
            SuddenStopBehavior(13.0, trigger_gap=30.0, decel=0.0)

    def test_cut_in_moves_to_target_lane(self):
        road = build_straight_map()
        ego = EgoVehicle(road, s=50.0, d=0.0, speed=20.0)
        world = World(road, ego)
        cut = KinematicActor(road, s=80.0, d=3.7, speed=13.0, name="CutIn")
        world.add_agent(AgentBinding(cut, CutInBehavior(13.0, trigger_gap=30.0)))
        for _ in range(4000):
            world.ego.apply_controls(0.0, 0.0)
            world.step(DT)
            if world.collision:
                break
        assert cut.d_target == 0.0

    def test_lane_change_away_departs(self):
        road = build_straight_map()
        ego = EgoVehicle(road, s=50.0, d=0.0, speed=20.0)
        world = World(road, ego)
        lv = KinematicActor(road, s=90.0, d=0.0, speed=13.0, name="LV-near")
        world.add_agent(
            AgentBinding(lv, LaneChangeAwayBehavior(13.0, trigger_gap=35.0, target_d=3.7))
        )
        for _ in range(6000):
            world.ego.apply_controls(0.0, 0.0)
            world.step(DT)
            if lv.d > 3.0:
                break
        assert lv.d > 3.0


class TestWorldDetection:
    def test_forward_collision_detected(self):
        world = make_world(ego_speed=25.0, lead_gap=10.0, lead_speed=0.0)
        world.agents[0].behavior = None
        for _ in range(500):
            world.ego.apply_controls(0.0, 0.0)
            world.step(DT)
            if world.collision:
                break
        assert world.collision is not None
        assert not world.collision.lateral
        assert world.collision.relative_speed > 0.0

    def test_no_collision_when_following(self):
        world = make_world(ego_speed=13.0, lead_gap=30.0, lead_speed=13.0)
        for _ in range(2000):
            world.ego.apply_controls(0.0, 0.0)
            world.step(DT)
        assert world.collision is None

    def test_lateral_collision_classified(self):
        # A car halfway between lanes brushing the ego is a side impact.
        world = make_world(ego_speed=25.0, lead_gap=8.0, lead_speed=13.0, lead_lane_d=1.6)
        world.agents[0].behavior = None
        for _ in range(1000):
            world.ego.apply_controls(0.0, 0.0)
            world.step(DT)
            if world.collision:
                break
        assert world.collision is not None
        assert world.collision.lateral

    def test_off_road_right(self):
        world = make_world()
        world.ego.d = -3.0
        world.step(DT)
        assert world.off_road

    def test_adjacent_lane_is_not_off_road(self):
        world = make_world()
        world.ego.d = 3.7  # centred in the adjacent lane
        world.step(DT)
        assert not world.off_road
        assert world.off_lane

    def test_beyond_adjacent_lane_is_off_road(self):
        world = make_world()
        world.ego.d = 6.8
        world.step(DT)
        assert world.off_road

    def test_lane_line_distances_centered(self):
        world = make_world()
        right, left = world.lane_line_distances()
        expected = (3.7 - world.ego.params.width) / 2
        assert right == pytest.approx(expected, abs=1e-6)
        assert left == pytest.approx(expected, abs=1e-6)

    def test_lane_line_distances_follow_nearest_lane(self):
        world = make_world()
        world.ego.d = 3.7  # adjacent lane centre
        right, left = world.lane_line_distances()
        expected = (3.7 - world.ego.params.width) / 2
        assert right == pytest.approx(expected, abs=1e-6)

    def test_lead_selection_nearest(self):
        world = make_world(ego_speed=20.0, lead_gap=40.0)
        road = world.road
        far = KinematicActor(road, s=world.ego.s + 120.0, d=0.0, speed=13.0, name="far")
        world.add_agent(AgentBinding(far, None))
        assert world.lead_actor().name == "LV"

    def test_lead_ignores_adjacent_lane(self):
        world = make_world(ego_speed=20.0, lead_gap=40.0, lead_lane_d=3.7)
        assert world.lead_actor() is None

    def test_lead_corridor_parameter(self):
        world = make_world(ego_speed=20.0, lead_gap=40.0, lead_lane_d=3.0)
        assert world.lead_actor() is None
        assert world.lead_actor(corridor=3.5) is not None


class TestSensors:
    def test_lead_measurement_values(self):
        world = make_world(ego_speed=20.0, lead_gap=40.0, lead_speed=13.0)
        sensor = GroundTruthSensor(world)
        lead = sensor.lead()
        assert lead is not None
        assert lead.gap == pytest.approx(40.0, abs=0.1)
        assert lead.relative_speed == pytest.approx(7.0, abs=0.01)

    def test_lead_cache_per_timestamp(self):
        world = make_world(ego_speed=20.0, lead_gap=40.0)
        sensor = GroundTruthSensor(world)
        assert sensor.lead() is sensor.lead()  # cached object identity

    def test_radar_lead_wider_than_camera(self):
        world = make_world(ego_speed=20.0, lead_gap=40.0, lead_lane_d=2.8)
        sensor = GroundTruthSensor(world)
        assert sensor.lead() is None
        assert sensor.radar_lead() is not None

    def test_human_lead_corridor(self):
        world = make_world(ego_speed=20.0, lead_gap=40.0, lead_lane_d=2.5)
        sensor = GroundTruthSensor(world)
        assert sensor.lead() is None
        assert sensor.lead_human() is not None

    def test_cut_in_observation(self):
        road = build_straight_map()
        ego = EgoVehicle(road, s=50.0, d=0.0, speed=20.0)
        world = World(road, ego)
        cut = KinematicActor(road, s=80.0, d=3.7, speed=13.0, name="CutIn")
        cut.d_target = 0.0  # actively merging
        world.add_agent(AgentBinding(cut, None))
        sensor = GroundTruthSensor(world)
        obs = sensor.cut_in()
        assert obs is not None
        assert obs.gap > 0.0

    def test_no_cut_in_when_lane_keeping(self):
        road = build_straight_map()
        ego = EgoVehicle(road, s=50.0, d=0.0, speed=20.0)
        world = World(road, ego)
        cruise = KinematicActor(road, s=80.0, d=3.7, speed=13.0, name="neighbour")
        world.add_agent(AgentBinding(cruise, None))
        sensor = GroundTruthSensor(world)
        assert sensor.cut_in() is None


class TestFriction:
    def test_condition_validation(self):
        with pytest.raises(ValueError):
            FrictionCondition("bad", 0.0)

    def test_max_deceleration(self):
        cond = FrictionCondition("wet", 0.5)
        assert cond.max_deceleration == pytest.approx(4.9)


class TestBehaviorRegistry:
    def test_behavior_kind_exact_type_only(self):
        from repro.sim.agents import behavior_kind

        assert behavior_kind(CruiseBehavior(13.0)) == "cruise"
        assert behavior_kind(SuddenStopBehavior(13.0, 40.0, 8.0)) == "sudden_stop"

        class TunedCruise(CruiseBehavior):
            def update(self, actor, ego, t):  # changed semantics
                actor.accel_cmd = 0.0

        # A subclass may override update, so it must NOT match the fast
        # path of its base class.
        assert behavior_kind(TunedCruise(13.0)) is None
        assert behavior_kind(object()) is None
        assert behavior_kind(None) is None

    def test_registry_covers_builtin_set(self):
        from repro.sim.agents import BEHAVIOR_REGISTRY

        assert set(BEHAVIOR_REGISTRY) == {
            "cruise",
            "speed_change",
            "sudden_stop",
            "cut_in",
            "lane_change_away",
        }


class TestBehaviorBatchRefusal:
    def _worlds(self):
        """An all-builtin lane, then one carrying a third-party
        behaviour."""
        road = build_straight_map()
        mixed = World(road, EgoVehicle(road, s=50.0, d=0.0, speed=20.0))
        lead = KinematicActor(road, s=90.0, d=0.0, speed=13.0, name="LV")
        mixed.add_agent(AgentBinding(lead, SuddenStopBehavior(13.0, 35.0, 8.0)))
        side = KinematicActor(road, s=70.0, d=3.7, speed=14.0, name="3P")
        mixed.add_agent(AgentBinding(side, Oscillator()))
        road = build_straight_map()
        pure = World(road, EgoVehicle(road, s=50.0, d=0.0, speed=20.0))
        lead = KinematicActor(road, s=90.0, d=0.0, speed=13.0, name="LV")
        pure.add_agent(AgentBinding(lead, CutInBehavior(13.0, 45.0, target_d=0.0)))
        return [pure, mixed]

    def test_unknown_behaviour_lane_refused(self):
        # A third-party behaviour has no array twin: the lane runs on the
        # scalar loop instead (the executor-level byte-compare lives in
        # tests/test_batch_handoff.py::TestRefusedLanes).
        from repro.sim.batch_agents import BehaviorBatch, behavior_refusal

        pure, mixed = self._worlds()
        assert behavior_refusal(pure) is None
        assert "Oscillator" in behavior_refusal(mixed)
        BehaviorBatch([pure])
        with pytest.raises(
            ValueError, match=r"lane 1 cannot join the lockstep: agent '3P' runs Oscillator"
        ):
            BehaviorBatch([pure, mixed])
