"""Hazard and accident detection (the paper's Section IV-C).

* **A1** — forward collision with the lead vehicle.
* **A2** — driving out of the lane, or colliding with side vehicles.
* **H1** — violating the safety distance to the lead (may escalate to A1).
* **H2** — driving too close to a lane line (e.g. 0.1 m; may escalate
  to A2).

Accidents are terminal: the platform stops the episode when one latches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.world import World


class AccidentType(enum.Enum):
    """Terminal accident classes."""

    A1 = "A1"  # forward collision with the lead vehicle
    A2 = "A2"  # lane departure or side collision


@dataclass
class HazardRecord:
    """First-occurrence bookkeeping for one hazard/accident class."""

    occurred: bool = False
    first_time: Optional[float] = None

    def mark(self, time: float) -> None:
        """Latch the first occurrence."""
        if not self.occurred:
            self.occurred = True
            self.first_time = time


@dataclass
class HazardMonitor:
    """Per-step hazard and accident detection over a :class:`World`.

    Attributes:
        ttc_hazard_threshold: H1 latches when the true TTC to the lead
            falls below this [s].
        headway_fraction: H1 also latches when the true gap falls below
            this fraction of the ego speed (a headway-seconds rule) [s].
        lane_distance_hazard: H2 latches when a body side is closer than
            this to a lane line [m] (paper: 0.1 m).
    """

    ttc_hazard_threshold: float = 2.5
    headway_fraction: float = 0.35
    lane_distance_hazard: float = 0.1
    h1: HazardRecord = field(default_factory=HazardRecord)
    h2: HazardRecord = field(default_factory=HazardRecord)
    accident: Optional[AccidentType] = None
    accident_time: Optional[float] = None

    def update(self, world: World) -> Optional[AccidentType]:
        """Evaluate one step; returns the accident type once one latches."""
        if self.accident is not None:
            return self.accident
        ego = world.ego
        now = world.time

        # --- Hazards ------------------------------------------------------
        lead = world.lead_actor()
        if lead is not None:
            gap = max(0.0, lead.rear_s - ego.front_s)
            closing = ego.speed - lead.speed
            if closing > 0.3 and gap / closing < self.ttc_hazard_threshold:
                self.h1.mark(now)
            if gap < self.headway_fraction * ego.speed:
                self.h1.mark(now)
        dist_right, dist_left = world.lane_line_distances()
        if min(dist_right, dist_left) < self.lane_distance_hazard:
            self.h2.mark(now)

        # --- Accidents ----------------------------------------------------
        # A2 follows the MetaDrive semantics the paper evaluates under:
        # leaving the drivable road surface, or colliding with a side
        # vehicle.  Drifting *into* the adjacent lane is not yet terminal
        # (there is a whole lane of paved road to cross — and a side
        # vehicle there produces a lateral collision), whereas drifting
        # outward exits the road almost immediately; the asymmetry is
        # inherited from the road geometry.
        if world.collision is not None:
            if world.collision.lateral:
                self._latch(AccidentType.A2, world.collision.time)
            else:
                self._latch(AccidentType.A1, world.collision.time)
        elif world.off_road:
            self._latch(AccidentType.A2, now)
        return self.accident

    def _latch(self, accident: AccidentType, time: float) -> None:
        self.accident = accident
        self.accident_time = time
        if accident is AccidentType.A1:
            self.h1.mark(time)
        else:
            self.h2.mark(time)
