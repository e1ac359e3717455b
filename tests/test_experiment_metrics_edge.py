"""Edge-case tests for metrics aggregation and experiment plumbing."""

from repro.core.hazards import AccidentType, HazardMonitor
from repro.core.metrics import EpisodeResult, aggregate, group_by
from repro.sim.agents import AgentBinding, CruiseBehavior
from repro.sim.track import build_straight_map
from repro.sim.vehicle import EgoVehicle, KinematicActor
from repro.sim.world import World


class TestHazardMonitor:
    def make_world(self, gap=40.0, ego_speed=20.0, lead_speed=13.0):
        road = build_straight_map()
        ego = EgoVehicle(road, s=50.0, d=0.0, speed=ego_speed)
        world = World(road, ego)
        lead = KinematicActor(
            road, s=ego.front_s + gap + 2.35, d=0.0, speed=lead_speed, name="LV"
        )
        world.add_agent(AgentBinding(lead, CruiseBehavior(lead_speed)))
        return world

    def test_h1_on_low_ttc(self):
        world = self.make_world(gap=10.0, ego_speed=20.0, lead_speed=13.0)
        monitor = HazardMonitor()
        world.step(0.01)
        monitor.update(world)
        assert monitor.h1.occurred  # ttc = 10/7 = 1.4 s < 2.5 s

    def test_h1_on_tight_headway(self):
        world = self.make_world(gap=5.0, ego_speed=20.0, lead_speed=20.0)
        monitor = HazardMonitor()
        world.step(0.01)
        monitor.update(world)
        assert monitor.h1.occurred  # 5 m < 0.35 * 20

    def test_h2_on_lane_line_proximity(self):
        world = self.make_world()
        world.ego.d = 0.88  # body within 0.1 m of the left line
        monitor = HazardMonitor()
        world.step(0.01)
        monitor.update(world)
        assert monitor.h2.occurred

    def test_no_hazard_when_nominal(self):
        world = self.make_world(gap=40.0, ego_speed=14.0, lead_speed=13.4)
        monitor = HazardMonitor()
        world.step(0.01)
        monitor.update(world)
        assert not monitor.h1.occurred and not monitor.h2.occurred

    def test_a2_implies_h2_latched(self):
        world = self.make_world()
        world.ego.d = -3.2  # off the road to the right
        monitor = HazardMonitor()
        world.step(0.01)
        accident = monitor.update(world)
        assert accident is AccidentType.A2
        assert monitor.h2.occurred

    def test_accident_is_terminal_and_stable(self):
        world = self.make_world()
        world.ego.d = -3.2
        monitor = HazardMonitor()
        world.step(0.01)
        first = monitor.update(world)
        world.ego.d = 0.0  # "recovers" — but the accident already latched
        world.step(0.01)
        second = monitor.update(world)
        assert first is second is AccidentType.A2
        assert monitor.accident_time is not None

    def test_first_time_recorded_once(self):
        world = self.make_world(gap=10.0)
        monitor = HazardMonitor()
        world.step(0.01)
        monitor.update(world)
        t_first = monitor.h1.first_time
        world.step(0.01)
        monitor.update(world)
        assert monitor.h1.first_time == t_first

    # The four edge cases below pin the exact scalar semantics the batch
    # screen (repro.sim.batch_hazards) must reproduce: what a latched
    # accident short-circuits, what a zero ego speed does to the headway
    # rule, which collisions latch A1 vs A2, and which hazard an accident
    # latch marks.

    def test_zero_speed_headway_never_fires(self):
        # headway threshold = 0.35 * 0 = 0 and gap is clamped >= 0, so a
        # standing ego can violate no headway no matter how close the lead.
        world = self.make_world(gap=0.5, ego_speed=0.0, lead_speed=0.0)
        monitor = HazardMonitor()
        world.step(0.01)
        monitor.update(world)
        assert not monitor.h1.occurred

    def test_latched_accident_short_circuits_hazard_marks(self):
        # Latch A2 (off-road) under nominal H1 conditions, then create a
        # blatant H1 situation: update() must return early and mark nothing.
        world = self.make_world(gap=40.0, ego_speed=14.0, lead_speed=13.4)
        world.ego.d = -3.2
        monitor = HazardMonitor()
        world.step(0.01)
        assert monitor.update(world) is AccidentType.A2
        assert not monitor.h1.occurred
        world.ego.d = 0.0
        world.ego.speed = 20.0
        lead = world.agents[0].actor
        lead.s = world.ego.front_s + 3.0 + 0.5 * lead.params.length
        lead.speed = 0.0
        world.step(0.01)
        assert monitor.update(world) is AccidentType.A2
        assert not monitor.h1.occurred  # short-circuit: no new marks

    def test_forward_collision_latches_a1_and_marks_h1(self):
        # Standing ego overlapping a standing in-lane actor: neither H1
        # rule can fire (closing = 0, headway threshold = 0), so h1 is
        # marked by the A1 latch alone, stamped with the collision time.
        world = self.make_world(gap=5.0, ego_speed=0.0, lead_speed=0.0)
        lead = world.agents[0].actor
        lead.s = world.ego.s  # full longitudinal overlap, same lane
        world.step(0.01)
        monitor = HazardMonitor()
        accident = monitor.update(world)
        assert accident is AccidentType.A1
        assert world.collision is not None and not world.collision.lateral
        assert monitor.h1.occurred
        assert monitor.h1.first_time == world.collision.time
        assert not monitor.h2.occurred

    def test_lateral_collision_latches_a2_and_marks_h2(self):
        # Same overlap but offset past 60% of the lane half-width: the
        # collision is lateral, so it latches A2 (and marks h2, not h1).
        world = self.make_world(gap=5.0, ego_speed=0.0, lead_speed=0.0)
        lead = world.agents[0].actor
        lead.s = world.ego.s
        lead.d = 1.5  # > 0.6 * lane_half, < body-overlap width
        world.step(0.01)
        monitor = HazardMonitor()
        accident = monitor.update(world)
        assert accident is AccidentType.A2
        assert world.collision is not None and world.collision.lateral
        assert monitor.h2.occurred
        assert monitor.h2.first_time == world.collision.time
        assert not monitor.h1.occurred


class TestGrouping:
    def results(self):
        r1 = EpisodeResult(scenario_id="S1", fault_type="mixed")
        r2 = EpisodeResult(scenario_id="S1", fault_type="none")
        r3 = EpisodeResult(scenario_id="S2", fault_type="mixed")
        return [r1, r2, r3]

    def test_group_by_scenario(self):
        groups = group_by(self.results(), "scenario_id")
        assert len(groups["S1"]) == 2
        assert len(groups["S2"]) == 1

    def test_group_by_fault(self):
        groups = group_by(self.results(), "fault_type")
        assert set(groups) == {"mixed", "none"}


class TestAggregateEdgeCases:
    def test_no_attacked_episodes_prevented_zero(self):
        stats = aggregate([EpisodeResult()])
        assert stats.prevented_rate == 0.0

    def test_mitigation_time_none_when_never_triggered(self):
        stats = aggregate([EpisodeResult()])
        assert stats.aeb_mitigation_time is None
        assert stats.driver_brake_mitigation_time is None

    def test_following_distance_none_when_never_following(self):
        stats = aggregate([EpisodeResult()])
        assert stats.mean_following_distance is None

    def test_min_over_episodes(self):
        a = EpisodeResult()
        a.min_ttc = 3.0
        b = EpisodeResult()
        b.min_ttc = 1.5
        assert aggregate([a, b]).min_ttc == 1.5

    def test_hazard_rate(self):
        a = EpisodeResult()
        a.h1 = True
        b = EpisodeResult()
        assert aggregate([a, b]).hazard_rate == 0.5
