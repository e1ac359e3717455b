"""Ground-truth sensing.

Everything the perception surrogate, the independent-sensor AEBS, and the
driver model know about the world flows through :class:`GroundTruthSensor`.
It reports *physical truth*; imperfection (noise, the close-range camera
blind spot, adversarial faults) is layered on top by
:mod:`repro.adas.perception` and :mod:`repro.attacks`.

The paper's AEBS configuration (3) — "activated and utilizes inputs from an
independent, secure data source" — reads this sensor directly, which is
exactly why it survives perception attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.world import World

#: Lateral half-width [m] of the independent AEBS radar's tracking
#: corridor (see :meth:`GroundTruthSensor.radar_lead`).
RADAR_CORRIDOR = 3.5

#: Lateral half-width [m] of the human driver's visual lead corridor
#: (see :meth:`GroundTruthSensor.lead_human`).
HUMAN_CORRIDOR = 3.2

#: Default longitudinal search range [m] of the cut-in scan (see
#: :meth:`GroundTruthSensor.cut_in`); the batch engine's control view
#: screens for exactly this range.
CUT_IN_GAP_RANGE = 60.0


@dataclass(frozen=True)
class LeadMeasurement:
    """Ground-truth state of the in-lane lead vehicle.

    Attributes:
        gap: bumper-to-bumper relative distance RD [m].
        relative_speed: closing speed RS = v_ego - v_lead [m/s]
            (positive when closing).
        lead_speed: lead vehicle speed [m/s].
        lateral_offset: lead centre offset from the ego lane centre [m].
    """

    gap: float
    relative_speed: float
    lead_speed: float
    lateral_offset: float


@dataclass(frozen=True)
class CutInObservation:
    """An adjacent-lane vehicle moving into the ego lane.

    Attributes:
        gap: longitudinal bumper gap to the encroaching vehicle [m].
        lateral_distance: remaining lateral distance to the ego lane
            centre [m].
    """

    gap: float
    lateral_distance: float


class GroundTruthSensor:
    """Physical-truth measurements of the world around the ego vehicle."""

    def __init__(self, world: World) -> None:
        self.world = world
        self._cache_time = -1.0
        self._cache_lead: Optional[LeadMeasurement] = None

    def lead(self) -> Optional[LeadMeasurement]:
        """The in-lane lead vehicle, or None if none is in range.

        The measurement is cached per world timestamp: several platform
        components (perception, fault injection, AEBS, driver, hazards)
        query it each 100 Hz step.
        """
        if self.world.time == self._cache_time:
            return self._cache_lead
        actor = self.world.lead_actor()
        if actor is None:
            measurement = None
        else:
            ego = self.world.ego
            measurement = LeadMeasurement(
                gap=max(0.0, actor.rear_s - ego.front_s),
                relative_speed=ego.speed - actor.speed,
                lead_speed=actor.speed,
                lateral_offset=actor.d - self.world.road.lane_center(0),
            )
        self._cache_time = self.world.time
        self._cache_lead = measurement
        return measurement

    def radar_lead(
        self, corridor: float = RADAR_CORRIDOR
    ) -> Optional[LeadMeasurement]:
        """The lead as an independent AEBS radar tracks it.

        Radar object tracking locks onto the threat vehicle and keeps it
        while there is any body overlap in the field of view — it does not
        drop the object just because the (drifting) ego has left its lane.
        This wide corridor is why AEB "prevents the ego vehicle from
        driving out of the lane" in the paper: the re-acceleration toward
        the lead during a drift keeps the radar threat alive and triggers
        braking to a standstill.
        """
        actor = self.world.lead_actor(corridor=corridor)
        if actor is None:
            return None
        ego = self.world.ego
        return LeadMeasurement(
            gap=max(0.0, actor.rear_s - ego.front_s),
            relative_speed=ego.speed - actor.speed,
            lead_speed=actor.speed,
            lateral_offset=actor.d - self.world.road.lane_center(0),
        )

    def lead_human(
        self, corridor: float = HUMAN_CORRIDOR
    ) -> Optional[LeadMeasurement]:
        """The lead as a *human driver* sees it (wide visual corridor).

        A driver looking through the windshield keeps seeing the vehicle
        ahead even when the lane-bound perception stack has dropped it
        (e.g. during an attack-induced drift), so the driver model's
        triggers use this wider query.
        """
        actor = self.world.lead_actor(corridor=corridor)
        if actor is None:
            return None
        ego = self.world.ego
        return LeadMeasurement(
            gap=max(0.0, actor.rear_s - ego.front_s),
            relative_speed=ego.speed - actor.speed,
            lead_speed=actor.speed,
            lateral_offset=actor.d - self.world.road.lane_center(0),
        )

    def cut_in(
        self, gap_range: float = CUT_IN_GAP_RANGE
    ) -> Optional[CutInObservation]:
        """Detect a vehicle encroaching from an adjacent lane.

        A driver notices a cut-in when a nearby adjacent-lane vehicle has
        visible lateral motion toward the ego lane (Table II's "Other
        Vehicle Cutting in" trigger).
        """
        ego = self.world.ego
        lane_half = 0.5 * self.world.road.lane_width
        for binding in self.world.agents:
            actor = binding.actor
            offset = abs(actor.d - ego.d)
            if offset <= lane_half:
                continue  # already in-lane: that is a lead, not a cut-in
            gap = actor.rear_s - ego.front_s
            if not -5.0 < gap < gap_range:
                continue
            moving_in = (actor.d_target - actor.d) * (ego.d - actor.d) > 0.0
            if moving_in and abs(actor.d_target - actor.d) > 0.3:
                return CutInObservation(gap=max(gap, 0.0), lateral_distance=offset)
        return None

    def lane_line_distances(self) -> tuple:
        """``(right, left)`` body-side distances to the ego lane lines [m]."""
        return self.world.lane_line_distances()

    def road_curvature(self, lookahead: float = 30.0) -> float:
        """Mean road curvature ahead of the ego [1/m]."""
        world = self.world
        return world.road.curvature_ahead(world.ego.s, lookahead)
