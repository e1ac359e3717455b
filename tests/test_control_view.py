"""The lockstep's control view equals the scalar world queries, bit for bit.

``BatchDynamics.control_view`` is the batch engine's only copy of the
per-step world queries: the vectorized control stack, the masked hazard
screen and the metric accumulators read it, while scalar code asks each
lane's world.  The byte-compare suites check it only end to end; this
test compares every entry with what the lane's own objects give, after
``prime`` and after every ``step``.
"""

from collections import Counter

from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core.platform import SimulationPlatform
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from repro.sim.batch_control import BatchControlStack
from repro.sim.families import registered_families

#: A driver and the independent AEBS: the view carries all three lead
#: corridors (sensor, radar, human).
FULL_CFG = InterventionConfig(
    driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT
)

#: Long enough for the curved-road ego to reach its curve.
TICKS = 800


def _bits(value):
    """Exact float identity (tells -0.0 from 0.0)."""
    return float(value).hex()


def _grid(families, gap):
    return enumerate_campaign(
        CampaignSpec(
            scenario_ids=families,
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(gap,),
            repetitions=1,
            seed=606,
        )
    )


def _expected(platform):
    """One lane's view entries, from its own objects."""
    world, sensor = platform.world, platform.sensor
    ego = world.ego
    actor = world.lead_actor()
    leads = {
        "sensor": None
        if actor is None
        else (max(0.0, actor.rear_s - ego.front_s), actor.speed),
    }
    for name, measured in (
        ("radar", sensor.radar_lead()),
        ("human", sensor.lead_human()),
    ):
        leads[name] = (
            None if measured is None else (measured.gap, measured.lead_speed)
        )
    road = world.road
    return {
        "leads": leads,
        "lane_lines": world.lane_line_distances(),
        "lane_center": road.lane_center(road.nearest_lane(ego.d)),
        "curvature": sensor.road_curvature(
            platform.perception.params.curvature_lookahead
        ),
        "cut_in": sensor.cut_in() is not None,
    }


def _assert_view_matches(stack, lanes, seen):
    view = stack.dynamics.control_view
    assert view.key == tuple(lanes)
    assert sorted(view.leads) == ["human", "radar", "sensor"]
    for pos, lane in enumerate(lanes):
        platform = stack.platforms[lane]
        want = _expected(platform)
        where = f"lane {lane} t={platform.world.time}"
        for name, lead in want["leads"].items():
            got = view.leads[name]
            assert bool(got.valid[pos]) == (lead is not None), (where, name)
            seen[name if lead is not None else f"no {name}"] += 1
            if lead is not None:
                assert _bits(got.gap[pos]) == _bits(lead[0]), (where, name)
                assert _bits(got.speed[pos]) == _bits(lead[1]), (where, name)
        right, left = want["lane_lines"]
        assert _bits(view.dist_right[pos]) == _bits(right), where
        assert _bits(view.dist_left[pos]) == _bits(left), where
        assert _bits(view.lane_center[pos]) == _bits(want["lane_center"]), where
        assert _bits(view.curvature[pos]) == _bits(want["curvature"]), where
        assert bool(view.cut_in[pos]) == want["cut_in"], where

        leads = want["leads"]
        seen["radar-wider"] += leads["radar"] != leads["sensor"]
        seen["human-wider"] += leads["human"] != leads["sensor"]
        seen["cut-in"] += want["cut_in"]
        seen["curved"] += want["curvature"] != 0.0
        actor = platform.world.lead_actor()
        if actor is not None:
            seen["overlap"] += actor.rear_s < platform.world.ego.front_s
            first = platform.world.actors[0]
            seen["not-first-actor"] += actor.speed != first.speed


def test_view_equals_scalar_queries_every_tick():
    # Every registered family, RD-attacked from its first tick; one lane
    # whose lead starts beyond World.LEAD_RANGE ("no lead"); and one
    # unprotected dense-traffic lane that runs into its platoon
    # (overlapping leads, leads other than the first actor).
    lanes_cfg = [
        (episode, FULL_CFG) for episode in _grid(tuple(registered_families()), 60.0)
    ]
    lanes_cfg += [(episode, FULL_CFG) for episode in _grid(("S1",), 300.0)]
    lanes_cfg += [
        (episode, InterventionConfig())
        for episode in _grid(("dense-traffic",), 60.0)
    ]
    platforms = [
        SimulationPlatform(episode, cfg, max_steps=TICKS)
        for episode, cfg in lanes_cfg
    ]
    stack = BatchControlStack(platforms)
    dynamics = stack.dynamics
    lanes = list(range(len(platforms)))
    for platform in platforms:
        platform._begin_episode()
    seen = Counter()
    dynamics.prime(lanes)
    _assert_view_matches(stack, lanes, seen)
    for _ in range(TICKS):
        stack.step_control(lanes)
        dynamics.step(lanes, platforms[0].DT)
        _assert_view_matches(stack, lanes, seen)

    assert all(
        p.fi.first_activation is not None
        for p in platforms
        if p.spec.initial_gap == 60.0
    )
    assert platforms[-1].world.collision is not None
    # A view entry that never varies would compare a constant: the trace
    # has to reach each case.
    for case in (
        "sensor", "radar", "human", "no sensor", "no radar", "no human",
        "radar-wider", "human-wider", "cut-in", "curved", "overlap",
        "not-first-actor",
    ):
        assert seen[case] > 0, (case, dict(seen))
