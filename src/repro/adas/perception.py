"""Perception surrogate — the DNN-output stand-in and the FI tap point.

The paper injects faults *at the output of the perception module* ("we
directly emulate the effect of the patches by injecting attacks into the DNN
output"), so reproducing the experiments requires a module whose outputs are
behaviour-equivalent to OpenPilot's supercombo heads, not a neural network:

* **lead**: relative distance RD and relative speed RS to the in-lane lead;
* **lane lines**: body-side distances to the left/right lane lines;
* **desired curvature**: the end-to-end lateral output OpenPilot's lateral
  planner tracks; here a curvature feed-forward from the visible road plus
  a lane-centring feedback term, which is what the e2e model effectively
  learns.

Two documented OpenPilot pathologies are modelled because the paper's
results depend on them:

1. **Close-range blind spot** — "once the ego vehicle gets within a certain
   range, such as 2 meters, OpenPilot is unable to detect the lead vehicle
   through the camera" (paper, Fig. 6).  Below ``blind_range`` the lead
   output is dropped, which under an RD attack makes the ego re-accelerate
   just before impact.
2. **Imperfect lane centring** — weak centring gains plus output noise and
   feed-forward latency produce the 0.07-0.63 m minimum lane-line distances
   of Table V, including degradation on high-speed curves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sim.sensors import GroundTruthSensor
from repro.utils.mathx import clamp
from repro.utils.npmath import np_clamp
from repro.utils.rng import RngStreams


@dataclass(frozen=True)
class PerceptionOutput:
    """One 100 Hz frame of DNN-surrogate outputs.

    This is exactly the record the fault-injection engine rewrites.

    Attributes:
        lead_valid: True if a lead vehicle is detected.
        lead_rd: perceived relative distance RD to the lead [m].
        lead_rs: perceived relative (closing) speed RS [m/s].
        lane_left: body-side distance to the left lane line [m].
        lane_right: body-side distance to the right lane line [m].
        desired_curvature: curvature the lateral planner should track [1/m].
    """

    lead_valid: bool
    lead_rd: float
    lead_rs: float
    lane_left: float
    lane_right: float
    desired_curvature: float

    def with_lead(self, rd: float, rs: float | None = None) -> "PerceptionOutput":
        """Copy with a rewritten lead measurement (used by the FI engine)."""
        return replace(
            self, lead_rd=rd, lead_rs=self.lead_rs if rs is None else rs
        )

    def with_curvature(self, curvature: float) -> "PerceptionOutput":
        """Copy with a rewritten desired curvature (used by the FI engine)."""
        return replace(self, desired_curvature=curvature)


@dataclass(frozen=True)
class PerceptionParams:
    """Tuning constants for :class:`PerceptionModel`.

    Attributes:
        detection_range: camera lead-detection range [m].
        blind_range: RD below which the camera loses the lead [m].
        centering_gain: curvature feedback per metre of lateral offset
            [1/m per m].
        heading_gain: curvature feedback per radian of relative heading.
        curvature_lookahead: metres of road ahead averaged for the
            curvature feed-forward.
        ff_lag: first-order lag of the curvature feed-forward [s] (model
            latency entering/leaving curves).
        rd_noise: std of RD output noise [m].
        rs_noise: std of RS output noise [m/s].
        lane_noise: std of lane-line distance noise [m].
        curvature_noise: std of desired-curvature noise [1/m].
        max_curvature: output saturation for desired curvature [1/m].
    """

    detection_range: float = 120.0
    blind_range: float = 2.0
    centering_gain: float = 0.0010
    heading_gain: float = 0.05
    curvature_lookahead: float = 25.0
    ff_lag: float = 0.25
    rd_noise: float = 0.15
    rs_noise: float = 0.05
    lane_noise: float = 0.02
    curvature_noise: float = 2.0e-5
    max_curvature: float = 0.13


class PerceptionModel:
    """Produces :class:`PerceptionOutput` frames from ground truth."""

    def __init__(
        self,
        sensor: GroundTruthSensor,
        streams: RngStreams,
        params: PerceptionParams | None = None,
    ) -> None:
        self.sensor = sensor
        self.params = params or PerceptionParams()
        self._rng = streams.get("perception")
        self._ff_curvature = 0.0  # lagged feed-forward state

    def run(self, dt: float) -> PerceptionOutput:
        """Produce one perception frame (call once per control step)."""
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self.params
        world = self.sensor.world
        ego = world.ego

        # --- Lead head -------------------------------------------------
        lead = self.sensor.lead()
        lead_valid = (
            lead is not None
            and lead.gap <= p.detection_range
            and lead.gap >= p.blind_range
        )
        if lead_valid and lead is not None:
            rd = lead.gap + float(self._rng.normal(0.0, p.rd_noise))
            rs = lead.relative_speed + float(self._rng.normal(0.0, p.rs_noise))
            rd = max(rd, 0.0)
        else:
            rd, rs = 0.0, 0.0

        # --- Lane-line head --------------------------------------------
        dist_right, dist_left = self.sensor.lane_line_distances()
        lane_left = dist_left + float(self._rng.normal(0.0, p.lane_noise))
        lane_right = dist_right + float(self._rng.normal(0.0, p.lane_noise))

        # --- Desired-curvature head ------------------------------------
        # Feed-forward: lagged view of the road ahead (model latency).
        k_road = self.sensor.road_curvature(p.curvature_lookahead)
        alpha = dt / (p.ff_lag + dt)
        self._ff_curvature += alpha * (k_road - self._ff_curvature)
        # Feedback: the e2e model steers back toward the centre of the
        # lane it currently detects itself in (the *nearest* lane — after
        # drifting fully into the adjacent lane the model re-centres
        # there, exactly like a camera-based lane detector).
        lane = world.road.nearest_lane(ego.d)
        offset = ego.d - world.road.lane_center(lane)
        k_des = (
            self._ff_curvature
            - p.centering_gain * offset
            - p.heading_gain * ego.psi
            + float(self._rng.normal(0.0, p.curvature_noise))
        )
        k_des = clamp(k_des, -p.max_curvature, p.max_curvature)

        return PerceptionOutput(
            lead_valid=lead_valid,
            lead_rd=rd,
            lead_rs=rs,
            lane_left=lane_left,
            lane_right=lane_right,
            desired_curvature=k_des,
        )

    def reset(self) -> None:
        """Clear the feed-forward lag state (start of an episode)."""
        self._ff_curvature = 0.0


def perception_head_arrays(
    dt: float,
    lead_present: "np.ndarray",
    gap: "np.ndarray",
    rel_speed: "np.ndarray",
    noise: "np.ndarray",
    dist_right: "np.ndarray",
    dist_left: "np.ndarray",
    k_road: "np.ndarray",
    offset: "np.ndarray",
    psi: "np.ndarray",
    ff_curvature: "np.ndarray",
    detection_range: "np.ndarray",
    blind_range: "np.ndarray",
    centering_gain: "np.ndarray",
    heading_gain: "np.ndarray",
    ff_lag: "np.ndarray",
    rd_noise: "np.ndarray",
    rs_noise: "np.ndarray",
    lane_noise: "np.ndarray",
    curvature_noise: "np.ndarray",
    max_curvature: "np.ndarray",
) -> tuple[
    "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray",
    "np.ndarray", "np.ndarray",
]:
    """Vectorized :meth:`PerceptionModel.run`, bit-exact per lane.

    One row per lane.  ``noise`` is an ``(n, 5)`` array of *standard
    normal* draws laid out ``[rd, rs, lane_left, lane_right, curvature]``;
    rows for lanes without a valid lead carry draws only in columns 2..4
    (the scalar path draws nothing for the lead head there).  The caller
    owns the per-lane draw-order bookkeeping (see
    :class:`repro.sim.batch_control.BatchControlStack`).

    Returns ``(lead_valid, rd, rs, lane_left, lane_right,
    desired_curvature, ff_curvature_next)``.
    """
    lead_valid = lead_present & (gap <= detection_range) & (gap >= blind_range)
    # rng.normal(0.0, s) computes 0.0 + s * standard_normal(); keep the
    # `0.0 +` so a negative-zero draw normalises exactly like the scalar.
    rd = gap + (0.0 + rd_noise * noise[:, 0])
    rd = np.where(rd < 0.0, 0.0, rd)  # max(rd, 0.0): rd wins ties
    rd = np.where(lead_valid, rd, 0.0)
    rs = np.where(lead_valid, rel_speed + (0.0 + rs_noise * noise[:, 1]), 0.0)

    lane_left = dist_left + (0.0 + lane_noise * noise[:, 2])
    lane_right = dist_right + (0.0 + lane_noise * noise[:, 3])

    alpha = dt / (ff_lag + dt)
    ff_next = ff_curvature + alpha * (k_road - ff_curvature)
    k_des = (
        ff_next
        - centering_gain * offset
        - heading_gain * psi
        + (0.0 + curvature_noise * noise[:, 4])
    )
    k_des = np_clamp(k_des, -max_curvature, max_curvature)
    return lead_valid, rd, rs, lane_left, lane_right, k_des, ff_next
