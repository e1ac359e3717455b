"""Priority-based arbitration of safety interventions.

The paper (Section IV): "To address conflicts among safety interventions,
we assign different priorities to the various safety mechanisms in our
simulations, with AEB having the highest priority and safety checking the
lowest."  The resulting authority order, highest first:

1. **AEBS** — latched emergency braking; while braking it *overrides human
   inputs*, so driver steering corrections are blocked (the root cause of
   the mixed-attack conflict in the paper's Observation 4).
2. **Driver** — emergency braking (steering frozen at its braking-onset
   angle, Table II: "no changes in the steering angle") or corrective
   steering.
3. **ML mitigation** — replaces the ADAS command while in recovery mode.
4. **ADAS** — the nominal OpenPilot command.
5. **Safety checker** — not an actuator: it clamps whatever flows through
   the ADAS/ML command path (AEBS and the driver's pedals are physically
   separate authorities).

``aeb_overrides_driver`` exists as an explicit knob so the ablation bench
can evaluate the alternative hierarchy the paper calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adas.controlsd import AdasCommand
from repro.safety.aebs import AebsConfig, AebsState
from repro.safety.driver import DriverAction
from repro.safety.panda import SafetyChecker


@dataclass(frozen=True)
class InterventionConfig:
    """Which safety interventions are enabled (one Table VI row).

    Attributes:
        driver: human-driver reactions enabled.
        safety_check: PANDA-style firmware range checking enabled.
        aeb: AEBS configuration (disabled / compromised / independent).
        ml: ML-based mitigation (Algorithm 1) enabled.
        driver_reaction_time: override of the driver's mean reaction time
            [s] (None keeps the model default of 2.5 s).
        aeb_overrides_driver: hierarchy knob (paper default True).
        name: display label for reports.
    """

    driver: bool = False
    safety_check: bool = False
    aeb: AebsConfig = AebsConfig.DISABLED
    ml: bool = False
    driver_reaction_time: Optional[float] = None
    aeb_overrides_driver: bool = True
    name: str = ""

    def label(self) -> str:
        """Short label like ``driver+check+aeb_indep``."""
        if self.name:
            return self.name
        parts = []
        if self.driver:
            parts.append("driver")
        if self.safety_check:
            parts.append("check")
        if self.aeb is not AebsConfig.DISABLED:
            parts.append(f"aeb_{self.aeb.value}")
        if self.ml:
            parts.append("ml")
        return "+".join(parts) if parts else "none"


@dataclass(frozen=True)
class FinalCommand:
    """The arbitrated actuator command.

    Attributes:
        accel: longitudinal acceleration command [m/s^2].
        steer: road-wheel steering command [rad].
        driver_steering: True when the (faster) human steering rate applies.
        long_authority: who owns the longitudinal channel
            (``adas``/``ml``/``driver``/``aeb``).
        lat_authority: who owns the lateral channel
            (``adas``/``ml``/``driver``/``frozen``).
    """

    accel: float
    steer: float
    driver_steering: bool
    long_authority: str
    lat_authority: str


@dataclass
class ArbitrationStats:
    """Conflict bookkeeping for analysis."""

    aeb_blocked_driver_steps: int = 0
    driver_brake_frozen_steer_steps: int = 0


class Arbitrator:
    """Resolves one step's commands according to the fixed hierarchy."""

    def __init__(self, config: InterventionConfig) -> None:
        self.config = config
        self.checker = SafetyChecker() if config.safety_check else None
        self.stats = ArbitrationStats()
        self._frozen_steer: Optional[float] = None

    def reset(self) -> None:
        """Clear per-episode state."""
        if self.checker is not None:
            self.checker.reset()
        self.stats = ArbitrationStats()
        self._frozen_steer = None

    def resolve(
        self,
        adas_cmd: AdasCommand,
        ml_cmd: Optional[AdasCommand],
        ml_recovery: bool,
        aebs_state: Optional[AebsState],
        driver_action: Optional[DriverAction],
        current_steer: float,
        dt: float,
    ) -> FinalCommand:
        """Arbitrate one control step.

        Args:
            adas_cmd: the nominal ADAS command.
            ml_cmd: the ML baseline's command (if the ML layer ran).
            ml_recovery: True while Algorithm 1 is in recovery mode.
            aebs_state: AEBS output (None when AEBS is not instantiated).
            driver_action: driver output (None when no driver is modelled).
            current_steer: the vehicle's current road-wheel angle [rad]
                (used to freeze steering at driver-brake onset).
            dt: control period [s].
        """
        # --- Base path: ADAS or ML, through the firmware checker ---------
        if ml_recovery and ml_cmd is not None:
            base = ml_cmd
            long_auth = lat_auth = "ml"
        else:
            base = adas_cmd
            long_auth = lat_auth = "adas"
        if self.checker is not None:
            base = self.checker.check(base, dt)

        accel, steer = base.accel, base.steer
        driver_steering = False

        aeb_braking = aebs_state is not None and aebs_state.phase > 0
        driver_braking = driver_action is not None and driver_action.brake_active
        driver_steering_wanted = (
            driver_action is not None and driver_action.steer_active
        )

        # --- Driver-brake steering freeze bookkeeping --------------------
        if driver_braking:
            if self._frozen_steer is None:
                self._frozen_steer = current_steer
        else:
            self._frozen_steer = None

        # --- Longitudinal channel ----------------------------------------
        if aeb_braking:
            accel = aebs_state.brake_accel
            long_auth = "aeb"
        elif driver_braking:
            accel = driver_action.brake_accel
            long_auth = "driver"

        # --- Lateral channel ----------------------------------------------
        if aeb_braking and self.config.aeb_overrides_driver:
            # AEB owns the vehicle: human steering inputs are rejected.
            if driver_steering_wanted or driver_braking:
                self.stats.aeb_blocked_driver_steps += 1
            # steering stays with the (possibly attacked) base path
        elif driver_braking:
            # Table II: emergency braking with no change in steering angle.
            steer = self._frozen_steer if self._frozen_steer is not None else steer
            lat_auth = "frozen"
            self.stats.driver_brake_frozen_steer_steps += 1
        elif driver_steering_wanted:
            steer = driver_action.steer_angle
            driver_steering = True
            lat_auth = "driver"

        return FinalCommand(
            accel=accel,
            steer=steer,
            driver_steering=driver_steering,
            long_authority=long_auth,
            lat_authority=lat_auth,
        )
