"""Unit tests for the priority arbitration (AEB > driver > ML > ADAS)."""

from repro.adas.controlsd import AdasCommand
from repro.safety.aebs import AebsConfig, AebsState
from repro.safety.arbitration import Arbitrator, InterventionConfig
from repro.safety.driver import DriverAction

DT = 0.01


def aeb_state(phase=0, brake=0.0, fcw=False):
    return AebsState(fcw=fcw, phase=phase, brake_accel=brake, ttc=5.0)


def driver_action(brake=False, brake_accel=0.0, steer=False, steer_angle=0.0):
    return DriverAction(
        brake_active=brake,
        brake_accel=brake_accel,
        steer_active=steer,
        steer_angle=steer_angle,
    )


def resolve(arb, adas=AdasCommand(1.0, 0.01), ml=None, ml_rec=False, aeb=None, drv=None,
            steer_now=0.0):
    return arb.resolve(
        adas_cmd=adas,
        ml_cmd=ml,
        ml_recovery=ml_rec,
        aebs_state=aeb,
        driver_action=drv,
        current_steer=steer_now,
        dt=DT,
    )


class TestBasePath:
    def test_adas_passthrough(self):
        arb = Arbitrator(InterventionConfig())
        final = resolve(arb)
        assert final.accel == 1.0
        assert final.long_authority == "adas"

    def test_ml_recovery_replaces_adas(self):
        arb = Arbitrator(InterventionConfig(ml=True))
        final = resolve(arb, ml=AdasCommand(-2.0, 0.0), ml_rec=True)
        assert final.accel == -2.0
        assert final.long_authority == "ml"

    def test_ml_inactive_uses_adas(self):
        arb = Arbitrator(InterventionConfig(ml=True))
        final = resolve(arb, ml=AdasCommand(-2.0, 0.0), ml_rec=False)
        assert final.accel == 1.0

    def test_checker_clamps_base_path(self):
        arb = Arbitrator(InterventionConfig(safety_check=True))
        final = resolve(arb, adas=AdasCommand(-9.0, 0.0))
        assert final.accel == -3.5

    def test_checker_does_not_clamp_aeb(self):
        arb = Arbitrator(InterventionConfig(safety_check=True, aeb=AebsConfig.INDEPENDENT))
        final = resolve(arb, aeb=aeb_state(phase=3, brake=-9.8))
        assert final.accel == -9.8

    def test_checker_does_not_clamp_driver(self):
        arb = Arbitrator(InterventionConfig(safety_check=True, driver=True))
        final = resolve(arb, drv=driver_action(brake=True, brake_accel=-6.5))
        assert final.accel == -6.5


class TestPriorities:
    def test_aeb_beats_driver_longitudinal(self):
        arb = Arbitrator(InterventionConfig(driver=True, aeb=AebsConfig.INDEPENDENT))
        final = resolve(
            arb,
            aeb=aeb_state(phase=1, brake=-8.82),
            drv=driver_action(brake=True, brake_accel=-6.5),
        )
        assert final.accel == -8.82
        assert final.long_authority == "aeb"

    def test_aeb_blocks_driver_steering(self):
        arb = Arbitrator(InterventionConfig(driver=True, aeb=AebsConfig.INDEPENDENT))
        final = resolve(
            arb,
            aeb=aeb_state(phase=1, brake=-8.82),
            drv=driver_action(steer=True, steer_angle=0.2),
        )
        assert final.steer != 0.2  # stays with the base path
        assert arb.stats.aeb_blocked_driver_steps == 1

    def test_priority_ablation_lets_driver_steer_under_aeb(self):
        arb = Arbitrator(
            InterventionConfig(
                driver=True, aeb=AebsConfig.INDEPENDENT, aeb_overrides_driver=False
            )
        )
        final = resolve(
            arb,
            aeb=aeb_state(phase=1, brake=-8.82),
            drv=driver_action(steer=True, steer_angle=0.2),
        )
        assert final.steer == 0.2

    def test_driver_brake_freezes_steering(self):
        arb = Arbitrator(InterventionConfig(driver=True))
        final = resolve(
            arb,
            drv=driver_action(brake=True, brake_accel=-6.5),
            steer_now=0.123,
        )
        assert final.accel == -6.5
        assert final.steer == 0.123  # Table II: no change in steering angle
        assert final.lat_authority == "frozen"

    def test_frozen_steer_held_across_steps(self):
        arb = Arbitrator(InterventionConfig(driver=True))
        resolve(arb, drv=driver_action(brake=True, brake_accel=-6.5), steer_now=0.1)
        final = resolve(
            arb, drv=driver_action(brake=True, brake_accel=-6.5), steer_now=0.05
        )
        assert final.steer == 0.1  # frozen at braking onset, not current

    def test_freeze_clears_after_brake_ends(self):
        arb = Arbitrator(InterventionConfig(driver=True))
        resolve(arb, drv=driver_action(brake=True, brake_accel=-6.5), steer_now=0.1)
        resolve(arb, drv=driver_action())
        final = resolve(
            arb, drv=driver_action(brake=True, brake_accel=-6.5), steer_now=0.2
        )
        assert final.steer == 0.2  # new freeze at the new onset angle

    def test_driver_steering_without_brake(self):
        arb = Arbitrator(InterventionConfig(driver=True))
        final = resolve(arb, drv=driver_action(steer=True, steer_angle=-0.1))
        assert final.steer == -0.1
        assert final.driver_steering
        assert final.lat_authority == "driver"


class TestLabels:
    def test_default_label(self):
        assert InterventionConfig().label() == "none"

    def test_combined_label(self):
        cfg = InterventionConfig(driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT)
        assert cfg.label() == "driver+check+aeb_independent"

    def test_custom_name_wins(self):
        assert InterventionConfig(name="row7").label() == "row7"

    def test_reset_clears_stats(self):
        arb = Arbitrator(InterventionConfig(driver=True, aeb=AebsConfig.INDEPENDENT))
        resolve(arb, aeb=aeb_state(phase=1, brake=-8.82),
                drv=driver_action(steer=True, steer_angle=0.2))
        arb.reset()
        assert arb.stats.aeb_blocked_driver_steps == 0
