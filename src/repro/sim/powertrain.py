"""Powertrain and brake actuation model.

Maps a commanded longitudinal acceleration (positive = throttle, negative =
brake) to the acceleration the vehicle can actually realise *before* the
friction circle is applied:

* engine force derates with speed (power-limited at highway speed);
* brake pressure builds with a first-order lag (~0.15 s), so even a
  full-brake command takes a couple of tenths of a second to bite —
  exactly the delay that makes late hard braking dangerous;
* rolling resistance and aerodynamic drag always act.

The friction clamp itself lives in :mod:`repro.sim.vehicle` because it
couples longitudinal and lateral acceleration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.utils.mathx import clamp, interp1d
from repro.utils.units import G


@dataclass
class PowertrainParams:
    """Tuning constants for :class:`Powertrain`.

    Attributes:
        engine_speed_knots: speeds [m/s] for the engine-derate table.
        engine_accel_knots: max engine acceleration [m/s^2] at each knot.
        max_brake_decel: deceleration a full-brake command requests
            [m/s^2]; defaults to 1 g to match the paper's full-braking
            threshold ``t_fb = V / 9.8``.
        adas_brake_authority: deceleration ceiling of the ACC brake
            interface [m/s^2].  Production ACC actuates brakes through a
            request channel capped well below the hydraulic limit (roughly
            0.4 g); only the AEB path and the driver's pedal have
            full-brake authority.  This cap is why OpenPilot "collides due
            to an insufficient emergency braking distance, despite
            triggering the FCW alarm" in the paper's S4.
        brake_lag: brake-pressure first-order time constant [s].
        rolling_resistance: speed-independent drag deceleration [m/s^2].
        drag_coefficient: aero drag deceleration per (m/s)^2 [1/m].
    """

    engine_speed_knots: List[float] = field(
        default_factory=lambda: [0.0, 10.0, 22.0, 30.0, 40.0]
    )
    engine_accel_knots: List[float] = field(
        default_factory=lambda: [3.2, 2.8, 2.2, 1.5, 0.9]
    )
    max_brake_decel: float = G
    adas_brake_authority: float = 4.0
    brake_lag: float = 0.15
    rolling_resistance: float = 0.04
    drag_coefficient: float = 0.00035


class Powertrain:
    """Stateful actuation model (carries the brake-pressure lag)."""

    def __init__(self, params: PowertrainParams | None = None) -> None:
        self.params = params or PowertrainParams()
        self._brake_decel = 0.0  # current realised brake deceleration [m/s^2]

    def reset(self) -> None:
        """Release brakes (start of an episode)."""
        self._brake_decel = 0.0

    def max_engine_accel(self, speed: float) -> float:
        """Maximum engine acceleration available at ``speed`` [m/s^2]."""
        p = self.params
        return interp1d(speed, p.engine_speed_knots, p.engine_accel_knots)

    def actuate(self, accel_cmd: float, speed: float, dt: float) -> float:
        """Realise ``accel_cmd`` and return achieved acceleration [m/s^2].

        Args:
            accel_cmd: commanded acceleration; negative values are brake
                requests (magnitude clamped to ``max_brake_decel``).
            speed: current forward speed [m/s].
            dt: step size [s].
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self.params
        if accel_cmd >= 0.0:
            target_brake = 0.0
            engine = min(accel_cmd, self.max_engine_accel(speed))
        else:
            target_brake = clamp(-accel_cmd, 0.0, p.max_brake_decel)
            engine = 0.0
        # First-order brake pressure dynamics (release is faster than apply).
        lag = p.brake_lag if target_brake > self._brake_decel else 0.5 * p.brake_lag
        alpha = dt / (lag + dt)
        self._brake_decel += alpha * (target_brake - self._brake_decel)
        drag = p.rolling_resistance + p.drag_coefficient * speed * speed
        if speed <= 0.01 and engine <= 0.0:
            drag = 0.0  # a stopped car does not creep backwards
        return engine - self._brake_decel - drag
