"""Unit tests for repro.sim.vehicle and repro.sim.powertrain."""

import pytest

from repro.sim.powertrain import Powertrain, PowertrainParams
from repro.sim.track import build_straight_map
from repro.sim.vehicle import EgoVehicle, KinematicActor, VehicleParams
from repro.utils.units import G

DT = 0.01


def settle(vehicle, steps, accel=0.0, steer=0.0, mu=1.0, driver=False):
    vehicle.apply_controls(accel, steer, driver_steering=driver)
    for _ in range(steps):
        vehicle.step(DT, mu=mu)


class TestPowertrain:
    def test_engine_derates_with_speed(self):
        pt = Powertrain()
        assert pt.max_engine_accel(0.0) > pt.max_engine_accel(30.0)

    def test_full_brake_approaches_one_g(self):
        pt = Powertrain()
        achieved = 0.0
        for _ in range(200):
            achieved = pt.actuate(-G, 20.0, DT)
        assert achieved == pytest.approx(-G - pt.params.rolling_resistance
                                         - pt.params.drag_coefficient * 400.0, abs=0.2)

    def test_brake_lag_delays_response(self):
        pt = Powertrain()
        first = pt.actuate(-5.0, 20.0, DT)
        assert first > -5.0  # pressure still building

    def test_stopped_vehicle_does_not_creep_backwards(self):
        pt = Powertrain()
        achieved = pt.actuate(0.0, 0.0, DT)
        assert achieved == pytest.approx(0.0)

    def test_drag_slows_coasting(self):
        pt = Powertrain()
        achieved = pt.actuate(0.0, 30.0, DT)
        assert achieved < 0.0

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            Powertrain().actuate(0.0, 10.0, 0.0)

    def test_adas_brake_authority_below_hydraulic(self):
        params = PowertrainParams()
        assert params.adas_brake_authority < params.max_brake_decel


class TestEgoVehicle:
    def test_rejects_negative_speed(self):
        road = build_straight_map()
        with pytest.raises(ValueError):
            EgoVehicle(road, speed=-1.0)

    def test_straight_line_coasting(self):
        road = build_straight_map()
        ego = EgoVehicle(road, s=0.0, speed=20.0)
        settle(ego, 100)
        assert ego.s == pytest.approx(20.0, abs=0.5)
        assert abs(ego.d) < 1e-6

    def test_acceleration_increases_speed(self):
        road = build_straight_map()
        ego = EgoVehicle(road, speed=10.0)
        settle(ego, 200, accel=2.0)
        assert ego.speed > 12.5

    def test_braking_stops_vehicle(self):
        road = build_straight_map()
        ego = EgoVehicle(road, speed=10.0)
        settle(ego, 400, accel=-G)
        assert ego.speed == pytest.approx(0.0, abs=0.05)

    def test_speed_never_negative(self):
        road = build_straight_map()
        ego = EgoVehicle(road, speed=1.0)
        settle(ego, 500, accel=-G)
        assert ego.speed == 0.0

    def test_steering_produces_lateral_motion(self):
        road = build_straight_map()
        ego = EgoVehicle(road, speed=15.0)
        settle(ego, 200, steer=0.02)
        assert ego.d > 0.1

    def test_steering_rate_limited(self):
        road = build_straight_map()
        ego = EgoVehicle(road, speed=15.0)
        ego.apply_controls(0.0, 0.5)
        ego.step(DT)
        assert ego.steer <= ego.params.adas_steer_rate * DT + 1e-9

    def test_driver_steering_rate_faster(self):
        road = build_straight_map()
        a = EgoVehicle(road, speed=15.0)
        a.apply_controls(0.0, 0.5, driver_steering=False)
        a.step(DT)
        b = EgoVehicle(road, speed=15.0)
        b.apply_controls(0.0, 0.5, driver_steering=True)
        b.step(DT)
        assert b.steer > a.steer

    def test_friction_circle_limits_curvature_on_ice(self):
        road = build_straight_map()
        dry = EgoVehicle(road, speed=22.0)
        icy = EgoVehicle(road, speed=22.0)
        for veh, mu in ((dry, 1.0), (icy, 0.25)):
            veh.apply_controls(0.0, 0.1)
            for _ in range(300):
                veh.step(DT, mu=mu)
        assert icy.sliding
        assert abs(icy.d) < abs(dry.d)  # the icy car runs wide (less turn)

    def test_emergency_braking_arrests_lateral_drift(self):
        road = build_straight_map()
        coasting = EgoVehicle(road, speed=22.0)
        braking = EgoVehicle(road, speed=22.0)
        settle(coasting, 150, accel=0.0, steer=0.05)
        settle(braking, 150, accel=-8.8, steer=0.05)
        assert braking.d < coasting.d

    def test_low_friction_lengthens_braking(self):
        road = build_straight_map()
        dry = EgoVehicle(road, speed=20.0)
        icy = EgoVehicle(road, speed=20.0)
        settle(dry, 600, accel=-G, mu=1.0)
        settle(icy, 600, accel=-G, mu=0.25)
        assert dry.speed == pytest.approx(0.0, abs=0.05)
        assert icy.speed > 5.0

    def test_bumper_positions(self):
        road = build_straight_map()
        ego = EgoVehicle(road, s=100.0)
        assert ego.front_s == pytest.approx(100.0 + ego.params.length / 2)
        assert ego.rear_s == pytest.approx(100.0 - ego.params.length / 2)


class TestKinematicActor:
    def test_cruises_along_road(self):
        road = build_straight_map()
        actor = KinematicActor(road, s=0.0, d=0.0, speed=13.0)
        for _ in range(100):
            actor.step(DT)
        assert actor.s == pytest.approx(13.0, abs=0.1)

    def test_accel_command_friction_clamped(self):
        road = build_straight_map()
        actor = KinematicActor(road, s=0.0, d=0.0, speed=13.0)
        actor.accel_cmd = -50.0
        actor.step(DT, mu=0.25)
        assert actor.accel == pytest.approx(-0.25 * G)

    def test_lane_change_slews_lateral_offset(self):
        road = build_straight_map()
        actor = KinematicActor(road, s=0.0, d=0.0, speed=13.0)
        actor.d_target = 3.7
        for _ in range(100):
            actor.step(DT)
        assert 0.5 < actor.d < 3.7

    def test_lateral_speed_sign(self):
        road = build_straight_map()
        actor = KinematicActor(road, s=0.0, d=0.0, speed=13.0)
        actor.d_target = 3.7
        assert actor.lateral_speed() > 0
        actor.d_target = -3.7
        assert actor.lateral_speed() < 0
        actor.d_target = 0.0
        assert actor.lateral_speed() == 0.0

    def test_rejects_negative_speed(self):
        road = build_straight_map()
        with pytest.raises(ValueError):
            KinematicActor(road, s=0.0, d=0.0, speed=-2.0)


class TestVehicleParams:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            VehicleParams(length=-1.0)

    def test_rejects_bad_steer_limit(self):
        with pytest.raises(ValueError):
            VehicleParams(max_steer=2.0)
