"""The world: actors, stepping, collision and lane-departure detection.

The world owns the road, the friction condition, the ego vehicle and all
traffic actors.  The closed-loop platform (``repro.core.platform``) applies
actuator commands to the ego, then calls :meth:`World.step`, which ticks the
traffic behaviours, integrates every vehicle, and refreshes the collision /
departure flags the hazard detectors consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.agents import AgentBinding
from repro.sim.road import Road
from repro.sim.vehicle import EgoVehicle, KinematicActor
from repro.sim.weather import FrictionCondition


@dataclass
class CollisionEvent:
    """A detected ego collision.

    Attributes:
        time: simulation time [s].
        actor_name: name of the struck traffic actor.
        relative_speed: ego speed minus actor speed at impact [m/s].
        lateral: True if the struck actor was outside the ego's lane centre
            corridor (side impact), False for a plain forward collision.
    """

    time: float
    actor_name: str
    relative_speed: float
    lateral: bool


class World:
    """A stepped 2-D highway world.

    Args:
        road: road geometry.
        ego: the ADAS-controlled vehicle.
        friction: road-surface condition (defaults to dry).
    """

    def __init__(
        self,
        road: Road,
        ego: EgoVehicle,
        friction: Optional[FrictionCondition] = None,
    ) -> None:
        self.road = road
        self.ego = ego
        self.friction = friction or FrictionCondition("default", 1.0)
        self.agents: List[AgentBinding] = []
        self.time = 0.0
        self.collision: Optional[CollisionEvent] = None
        self.off_lane = False
        self.off_road = False
        # ``(ego.d, lane_line_distances())`` of the latest query; NaN
        # never equals a d, so the first query computes.
        self._lane_lines: Tuple[float, Tuple[float, float]] = (math.nan, (0.0, 0.0))

    def add_agent(self, binding: AgentBinding) -> None:
        """Register a traffic actor."""
        self.agents.append(binding)

    @property
    def actors(self) -> List[KinematicActor]:
        """All traffic actors (without their behaviours)."""
        return [b.actor for b in self.agents]

    def step(self, dt: float) -> None:
        """Advance the world by ``dt``: behaviours, dynamics, detection."""
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        mu = self.friction.mu
        for binding in self.agents:
            binding.update(self.ego, self.time)
        self.ego.step(dt, mu=mu)
        for binding in self.agents:
            binding.actor.step(dt, mu=mu)
        self.time += dt
        self._detect_collision()
        self._detect_departure()

    # ------------------------------------------------------------------ #
    # Detection
    # ------------------------------------------------------------------ #

    def _detect_collision(self) -> None:
        """Rectangle-overlap collision test in Frenet coordinates."""
        if self.collision is not None:
            return
        ego = self.ego
        half_len_e = 0.5 * ego.params.length
        half_wid_e = 0.5 * ego.params.width
        for binding in self.agents:
            actor = binding.actor
            ds = abs(actor.s - ego.s)
            dd = abs(actor.d - ego.d)
            if ds < half_len_e + 0.5 * actor.params.length and dd < (
                half_wid_e + 0.5 * actor.params.width
            ):
                lane_half = 0.5 * self.road.lane_width
                self.collision = CollisionEvent(
                    time=self.time,
                    actor_name=actor.name,
                    relative_speed=ego.speed - actor.speed,
                    lateral=abs(actor.d - ego.d) > lane_half * 0.6,
                )
                return

    #: How far the ego centre must cross its lane line before the run
    #: counts as "driving out of the lane" (the paper's A2).  0.9 m past
    #: the line puts the whole car body outside the lane.
    OFF_LANE_MARGIN = 0.9

    def _detect_departure(self) -> None:
        """Flag lane/road departure of the ego vehicle.

        ``off_lane`` latches once the ego centre is ``OFF_LANE_MARGIN``
        beyond a lane line of its own lane (the paper's A2 "driving out of
        the lane"), and ``off_road`` once the whole body leaves the paved
        lanes.
        """
        ego = self.ego
        right, left = self.road.lane_bounds(0)
        if ego.d < right - self.OFF_LANE_MARGIN or ego.d > left + self.OFF_LANE_MARGIN:
            self.off_lane = True
        road_right, road_left = self.road.road_bounds()
        half_wid = 0.5 * ego.params.width
        if ego.d + half_wid < road_right or ego.d - half_wid > road_left:
            self.off_road = True

    # ------------------------------------------------------------------ #
    # Queries used by sensors, hazard detection and metrics
    # ------------------------------------------------------------------ #

    #: Lateral half-width of the lead-selection corridor [m].  A camera or
    #: radar keeps tracking a lead while there is body overlap, so the
    #: corridor is wider than the strict lane-half (1.85 m); during an
    #: attack-induced drift the lead therefore stays in view until the ego
    #: is nearly out of the lane, *then* drops — at which point the ACC
    #: accelerates toward the set speed (the cascade behind the paper's
    #: observation that AEB can stop lateral accidents).
    LEAD_CORRIDOR = 2.0

    #: Longitudinal search range [m] of every lead query (perception
    #: sensor, AEBS radar, driver vision and the hazard monitor alike).
    LEAD_RANGE = 250.0

    def lead_actor(
        self, corridor: Optional[float] = None
    ) -> Optional[KinematicActor]:
        """Nearest in-corridor actor ahead of the ego within
        :data:`LEAD_RANGE`.

        Args:
            corridor: lateral half-width [m]; defaults to
                :data:`LEAD_CORRIDOR` (the sensor corridor).  The driver
                model passes a wider value — a human looking out of the
                windshield still sees a car ahead that the lane-bound
                perception stack has dropped.
        """
        ego = self.ego
        if corridor is None:
            corridor = self.LEAD_CORRIDOR
        best: Optional[KinematicActor] = None
        best_gap = self.LEAD_RANGE
        for binding in self.agents:
            actor = binding.actor
            if abs(actor.d - ego.d) > corridor:
                continue
            gap = actor.rear_s - ego.front_s
            if -actor.params.length < gap < best_gap:
                best = actor
                best_gap = max(gap, 0.0)
        return best

    def lead_gap(self) -> Optional[float]:
        """Bumper-to-bumper gap to the in-lane lead [m], if any."""
        lead = self.lead_actor()
        if lead is None:
            return None
        return max(0.0, lead.rear_s - self.ego.front_s)

    def lane_line_distances(self) -> Tuple[float, float]:
        """Distances [m] from the ego body sides to its *current* lane's
        lines.

        Returns ``(right, left)``; negative means that side of the car has
        crossed the line.  This is the quantity behind the paper's Table V
        and the H2 hazard ("closer than 0.1 m to a lane line").  The lane
        is the nearest one — a vehicle that has fully drifted into the
        adjacent lane is measured against that lane's lines, as a
        camera-based lane detector would report.

        A step queries it several times at one ``ego.d``, the only input
        that changes after the scenario is built, so the latest answer is
        kept until ``ego.d`` moves (``-0.0`` and ``+0.0`` give the same
        answer).
        """
        d = self.ego.d
        last_d, distances = self._lane_lines
        if d == last_d:
            return distances
        lane = self.road.nearest_lane(d)
        right, left = self.road.lane_bounds(lane)
        half_wid = 0.5 * self.ego.params.width
        distances = ((d - half_wid) - right, left - (d + half_wid))
        self._lane_lines = (d, distances)
        return distances

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"World(t={self.time:.2f}s, ego={self.ego!r}, "
            f"agents={len(self.agents)}, mu={self.friction.mu})"
        )
