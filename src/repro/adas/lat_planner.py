"""ALC lateral planner: desired curvature to road-wheel steering angle.

OpenPilot's lateral stack tracks the model's *desired curvature* output.
The planner here applies a short first-order smoothing (the lateral MPC's
effective bandwidth) and converts curvature to a road-wheel angle through
the bicycle-model relation ``steer = atan(wheelbase * curvature)``.

Lane-centring *feedback* intentionally lives in the perception surrogate's
desired-curvature head (see :mod:`repro.adas.perception`) — that is where
the end-to-end model computes it, and it is the quantity the paper's
curvature fault injection biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.mathx import clamp
from repro.utils.npmath import np_clamp


@dataclass(frozen=True)
class LatPlannerParams:
    """Tuning constants for :class:`LatPlanner`.

    Attributes:
        smoothing: first-order time constant on the tracked curvature [s].
        wheelbase: bicycle-model wheelbase [m] (must match the vehicle).
        max_steer: road-wheel angle saturation [rad].
    """

    smoothing: float = 0.08
    wheelbase: float = 2.7
    max_steer: float = 0.5


class LatPlanner:
    """Maps desired curvature to a steering-angle command."""

    def __init__(self, params: LatPlannerParams | None = None) -> None:
        self.params = params or LatPlannerParams()
        self._curvature = 0.0

    def reset(self) -> None:
        """Clear the smoothing state (start of an episode)."""
        self._curvature = 0.0

    def plan(self, desired_curvature: float, dt: float) -> float:
        """Compute the road-wheel steering command [rad].

        Args:
            desired_curvature: the perception head output (post-FI) [1/m].
            dt: control period [s].
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self.params
        alpha = dt / (p.smoothing + dt)
        self._curvature += alpha * (desired_curvature - self._curvature)
        steer = math.atan(p.wheelbase * self._curvature)
        return clamp(steer, -p.max_steer, p.max_steer)


def lat_plan_arrays(
    curvature: np.ndarray,
    desired_curvature: np.ndarray,
    dt: float,
    smoothing: np.ndarray,
    wheelbase: np.ndarray,
    max_steer: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`LatPlanner.plan`, bit-exact per lane.

    ``curvature`` is the smoothing state entering the step; returns
    ``(steer_command, curvature_next)``.  ``atan`` stays a per-lane
    :mod:`math` call — libm transcendentals are the only operations NumPy
    does not guarantee bit-identical elementwise.
    """
    alpha = dt / (smoothing + dt)
    curv_next = curvature + alpha * (desired_curvature - curvature)
    product = wheelbase * curv_next
    steer = np.array([math.atan(v) for v in product.tolist()])
    return np_clamp(steer, -max_steer, max_steer), curv_next
