"""MetaDrive-substitute physical-world simulator.

A 2-D highway world stepped at 100 Hz:

* :mod:`repro.sim.road` — multi-segment road geometry with per-segment
  curvature, arc-length (Frenet) coordinates, and lane bookkeeping.
* :mod:`repro.sim.track` — prebuilt maps (the dry-highway map used by all
  paper scenarios, plus a straight map for tests).
* :mod:`repro.sim.vehicle` — friction-limited kinematic bicycle model for
  the ego vehicle, plus a simpler kinematic actor for traffic.
* :mod:`repro.sim.powertrain` — engine/brake actuation model mapping
  commanded acceleration to achieved acceleration.
* :mod:`repro.sim.agents` — lead-vehicle behaviours (cruise, accelerate,
  decelerate, sudden stop, cut-in, lane-change-away).
* :mod:`repro.sim.world` — actor registry, stepping, collision and
  lane-departure detection.
* :mod:`repro.sim.sensors` — ground-truth measurements (radar-like lead
  range, camera-like lane-line distances).
* :mod:`repro.sim.families` — the pluggable scenario-family registry
  (typed parameter schemas, canonical identities, world constructors).
* :mod:`repro.sim.scenarios` — the paper's S1-S6 NHTSA pre-collision
  scenarios with 60 m / 230 m initial gaps, registered as families.
* :mod:`repro.sim.workloads` — extra registered families: friction
  sweep, curved road, dense traffic.
* :mod:`repro.sim.weather` — road-friction conditions for Table VIII.
"""

from repro.sim.road import Road, RoadSegment
from repro.sim.track import build_highway_map, build_straight_map
from repro.sim.vehicle import EgoVehicle, KinematicActor, VehicleParams
from repro.sim.world import World
from repro.sim.weather import FrictionCondition, FRICTION_CONDITIONS
from repro.sim.families import (
    ParamSpec,
    ScenarioFamily,
    UnknownScenarioError,
    family_catalog,
    get_family,
    lead_start_s,
    register_family,
    registered_families,
)
from repro.sim.scenarios import (
    SCENARIO_IDS,
    ScenarioConfig,
    build_scenario,
)
from repro.sim import workloads as _workloads  # noqa: F401  (registers the extra families)

__all__ = [
    "Road",
    "RoadSegment",
    "build_highway_map",
    "build_straight_map",
    "EgoVehicle",
    "KinematicActor",
    "VehicleParams",
    "World",
    "FrictionCondition",
    "FRICTION_CONDITIONS",
    "SCENARIO_IDS",
    "ScenarioConfig",
    "build_scenario",
    "ParamSpec",
    "ScenarioFamily",
    "UnknownScenarioError",
    "family_catalog",
    "get_family",
    "lead_start_s",
    "register_family",
    "registered_families",
]
