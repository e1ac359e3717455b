"""The paper's driving scenarios S1-S6 (NHTSA pre-collision typology).

Common setup (Section IV-A): the ego cruises at 50 mph and approaches the
lead vehicle from an initial bumper gap of 60 m or 230 m on a dry highway
map.  Per-repetition jitter (initial gap, lead speed, trigger gaps) is drawn
from the episode's seeded RNG streams so repetitions differ but campaigns
are exactly reproducible.

* **S1** lead cruises at 30 mph.
* **S2** lead cruises at 30 mph, then accelerates to 40 mph.
* **S3** lead cruises at 40 mph, then decelerates to 30 mph.
* **S4** lead cruises at 30 mph, then suddenly brakes to a stop.
* **S5** lead cruises at 30 mph; another vehicle cuts in from the
  neighbouring lane.
* **S6** two leads cruise at 30 mph in-lane; the nearer one changes into
  the adjacent lane.

Each scenario is a registered :class:`~repro.sim.families.ScenarioFamily`
(see :mod:`repro.sim.families`): :func:`build_scenario` dispatches through
the registry, so new workloads (e.g. :mod:`repro.sim.workloads`) plug into
campaigns, digests and reports without touching this module.  The paper
families declare no parameters, keeping their episode identity — seeds,
labels, campaign digests — byte-identical to the pre-registry code (the
golden-digest regression test pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.sim.agents import (
    AgentBinding,
    CruiseBehavior,
    CutInBehavior,
    LaneChangeAwayBehavior,
    SpeedChangeBehavior,
    SuddenStopBehavior,
)
from repro.sim.families import (
    EGO_SPEED,
    EGO_START_S,
    ParamItems,
    ScenarioFamily,
    get_family,
    lead_start_s,
    register_family,
    scenario_base,
)
from repro.sim.vehicle import KinematicActor
from repro.sim.weather import FRICTION_CONDITIONS, FrictionCondition
from repro.sim.world import World
from repro.utils.units import mph_to_ms

#: Scenario identifiers in paper order.
SCENARIO_IDS = ("S1", "S2", "S3", "S4", "S5", "S6")

#: The two initial bumper gaps evaluated in the paper [m].
INITIAL_GAPS = (60.0, 230.0)

__all__ = [
    "SCENARIO_IDS",
    "INITIAL_GAPS",
    "EGO_SPEED",
    "EGO_START_S",
    "ScenarioConfig",
    "build_scenario",
    "PaperScenarioFamily",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully-specified episode setup.

    Attributes:
        scenario_id: a registered scenario-family id (paper: S1-S6).
        initial_gap: bumper gap to the (nearest) lead at t=0 [m].
        seed: episode seed; drives all per-repetition jitter.
        friction: road condition (defaults to dry, or to the family's own
            default condition — e.g. the friction-sweep family).
        jitter: enable per-repetition randomisation (disable for
            deterministic unit tests).
        params: family-parameter assignment (mapping or ``(name, value)``
            pairs); normalised to the family's full resolved tuple, so two
            configs meaning the same episode always compare equal.
    """

    scenario_id: str = "S1"
    initial_gap: float = 60.0
    seed: int = 0
    friction: Optional[FrictionCondition] = None
    jitter: bool = True
    params: ParamItems = ()

    def __post_init__(self) -> None:
        family = get_family(self.scenario_id)  # raises UnknownScenarioError
        # Explicit finiteness check: NaN compares False against any bound
        # and would otherwise sail into the geometry.
        if not math.isfinite(self.initial_gap) or self.initial_gap <= 0.0:
            raise ValueError(f"initial_gap must be positive, got {self.initial_gap}")
        if self.friction is not None:
            if not isinstance(self.friction, FrictionCondition):
                presets = ", ".join(sorted(FRICTION_CONDITIONS))
                raise ValueError(
                    f"friction must be a FrictionCondition (e.g. one of the "
                    f"presets {presets}) or None, got {self.friction!r}"
                )
            # FrictionCondition.__post_init__ enforces this, but a crafted
            # or stale object (dataclasses.replace on a subclass, pickles
            # from an older scheme) could carry an out-of-range mu into
            # every braking computation of the episode — re-check here,
            # where the episode identity is fixed.
            if not 0.0 < self.friction.mu <= 1.2:
                raise ValueError(
                    f"friction.mu must be in (0, 1.2], got {self.friction.mu}"
                )
        object.__setattr__(self, "params", family.resolve_params(self.params))


def build_scenario(config: ScenarioConfig) -> World:
    """Instantiate the world for ``config`` via the family registry.

    The ego starts at ``EGO_START_S`` already cruising at 50 mph; leads are
    placed ``initial_gap`` metres ahead (bumper to bumper).

    Raises:
        UnknownScenarioError: ``config.scenario_id`` names no registered
            family (already rejected by :class:`ScenarioConfig` itself for
            configs built through the dataclass).
    """
    return get_family(config.scenario_id).build(config)


# --------------------------------------------------------------------- #
# The paper families
# --------------------------------------------------------------------- #


class PaperScenarioFamily(ScenarioFamily):
    """One of the paper's S1-S6 NHTSA pre-collision scenarios.

    Declares no parameters, so its episode identity (seed path, labels,
    campaign digests) is byte-identical to the pre-registry hardcoded
    grid.  Construction order of the RNG draws is part of that contract:
    gap jitter, then the 30/40 mph speed jitters, then the per-scenario
    trigger jitters — exactly the original ``build_scenario`` sequence.
    """

    def __init__(
        self,
        family_id: str,
        title: str,
        populate: Callable,
    ) -> None:
        super().__init__(family_id=family_id, title=title)
        self._populate = populate

    def build(self, config: ScenarioConfig) -> World:
        world, rng, jit = scenario_base(config)
        lead_s = lead_start_s(world.ego, config.initial_gap + jit(4.0))
        v30 = mph_to_ms(30.0) + jit(0.45)
        v40 = mph_to_ms(40.0) + jit(0.45)
        self._populate(world, lead_s, v30, v40, jit)
        return world


def _populate_s1(world: World, lead_s: float, v30: float, v40: float, jit) -> None:
    road = world.road
    lv = KinematicActor(road, s=lead_s, d=0.0, speed=v30, name="LV")
    world.add_agent(AgentBinding(lv, CruiseBehavior(v30)))


def _populate_s2(world: World, lead_s: float, v30: float, v40: float, jit) -> None:
    road = world.road
    lv = KinematicActor(road, s=lead_s, d=0.0, speed=v30, name="LV")
    behavior = SpeedChangeBehavior(
        initial_speed=v30,
        final_speed=v40,
        trigger_gap=45.0 + jit(4.0),
        rate=1.0,
    )
    world.add_agent(AgentBinding(lv, behavior))


def _populate_s3(world: World, lead_s: float, v30: float, v40: float, jit) -> None:
    road = world.road
    lv = KinematicActor(road, s=lead_s, d=0.0, speed=v40, name="LV")
    behavior = SpeedChangeBehavior(
        initial_speed=v40,
        final_speed=v30,
        trigger_gap=35.0 + jit(4.0),
        rate=2.0,
    )
    world.add_agent(AgentBinding(lv, behavior))


def _populate_s4(world: World, lead_s: float, v30: float, v40: float, jit) -> None:
    road = world.road
    lv = KinematicActor(road, s=lead_s, d=0.0, speed=v30, name="LV")
    behavior = SuddenStopBehavior(
        speed=v30,
        trigger_gap=72.0 + jit(8.0),
        decel=6.5,
    )
    world.add_agent(AgentBinding(lv, behavior))


def _populate_s5(world: World, lead_s: float, v30: float, v40: float, jit) -> None:
    road = world.road
    lv = KinematicActor(road, s=lead_s, d=0.0, speed=v30, name="LV")
    world.add_agent(AgentBinding(lv, CruiseBehavior(v30)))
    # The cut-in car starts in the adjacent (left) lane, slightly
    # behind the lead, and merges when the ego closes in fast.
    cut_s = lead_s - 20.0 + jit(3.0)
    cut = KinematicActor(road, s=cut_s, d=road.lane_center(1), speed=v30, name="CutIn")
    # A leisurely merge: at speed the ego reaches the merging car while
    # it is still between lanes, so un-braked impacts are side impacts.
    cut.lane_change_rate = 0.8
    world.add_agent(
        AgentBinding(cut, CutInBehavior(speed=v30, trigger_gap=26.0 + jit(3.0)))
    )


def _populate_s6(world: World, lead_s: float, v30: float, v40: float, jit) -> None:
    road = world.road
    far = KinematicActor(road, s=lead_s + 28.0, d=0.0, speed=v30, name="LV-far")
    world.add_agent(AgentBinding(far, CruiseBehavior(v30)))
    near = KinematicActor(road, s=lead_s, d=0.0, speed=v30, name="LV-near")
    behavior = LaneChangeAwayBehavior(
        speed=v30,
        trigger_gap=40.0 + jit(4.0),
        target_d=road.lane_center(1),
    )
    world.add_agent(AgentBinding(near, behavior))


#: The paper's six families in paper order, registered below.
PAPER_FAMILIES: Tuple[PaperScenarioFamily, ...] = tuple(
    PaperScenarioFamily(fid, title, populate)
    for fid, title, populate in (
        ("S1", "Lead vehicle cruises at a constant 30 mph.", _populate_s1),
        ("S2", "Lead cruises at 30 mph, then accelerates to 40 mph.", _populate_s2),
        ("S3", "Lead cruises at 40 mph, then decelerates to 30 mph.", _populate_s3),
        ("S4", "Lead cruises at 30 mph, then suddenly brakes to a stop.", _populate_s4),
        ("S5", "Lead cruises at 30 mph; adjacent-lane vehicle cuts in.", _populate_s5),
        ("S6", "Two leads at 30 mph; the nearer changes lane away.", _populate_s6),
    )
)

# replace=True keeps module re-imports (test harnesses reloading the
# package) idempotent instead of failing on the duplicate id.
for _family in PAPER_FAMILIES:
    register_family(_family, replace=True)
