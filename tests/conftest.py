"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.attacks.campaign import EpisodeSpec
from repro.attacks.fi import FaultType
from repro.sim.agents import AgentBinding
from repro.sim.families import (
    ScenarioFamily,
    lead_start_s,
    register_family,
    scenario_base,
    unregister_family,
)
from repro.sim.track import build_highway_map, build_straight_map
from repro.sim.vehicle import EgoVehicle, KinematicActor
from repro.sim.world import World


@pytest.fixture
def force_lockstep(monkeypatch):
    """Keep every batch lockstep stepping in lockstep to its last lane.

    ``BatchExecutor`` hands a lockstep narrower than
    ``executor.BREAK_EVEN_LANES`` to the scalar loop, and most batch-vs-
    serial tests run a few lanes, so without this they would compare
    serial with serial.  0 means never hand off.  Pool workers fork from
    the test process, so the batch x jobs hybrid inherits it too.
    """
    from repro.core import executor

    monkeypatch.setattr(executor, "BREAK_EVEN_LANES", 0)


class Oscillator:
    """A third-party behaviour: no registered kind, so no array twin."""

    def __init__(self, speed=13.0):
        self.speed = speed
        self.sign = 1.0

    def update(self, actor, ego, t):
        self.sign = -self.sign
        actor.accel_cmd = 0.5 * (self.speed - actor.speed) + 0.4 * self.sign


class ThirdPartyFamily(ScenarioFamily):
    """A lead ahead of the ego, driven by :class:`Oscillator`."""

    family_id = "third-party-lead"
    title = "lead car with a third-party behaviour"

    def build(self, config):
        world, _, _ = scenario_base(config)
        lead = KinematicActor(
            world.road,
            s=lead_start_s(world.ego, config.initial_gap),
            d=0.0,
            speed=13.0,
            name="LV",
        )
        world.add_agent(AgentBinding(lead, Oscillator()))
        return world


@pytest.fixture
def third_party_family():
    """Register :class:`ThirdPartyFamily` for one test; yields its id."""
    register_family(ThirdPartyFamily())
    yield ThirdPartyFamily.family_id
    unregister_family(ThirdPartyFamily.family_id)


@pytest.fixture
def straight_road():
    """A long straight two-lane road."""
    return build_straight_map()


@pytest.fixture
def highway_road():
    """The evaluation highway map."""
    return build_highway_map()


@pytest.fixture
def straight_world(straight_road):
    """A world with a single ego at 20 m/s on the straight map."""
    ego = EgoVehicle(straight_road, s=10.0, d=0.0, speed=20.0)
    return World(straight_road, ego)


def episode(scenario_id="S1", gap=60.0, fault=FaultType.NONE, seed=1234):
    """Convenience EpisodeSpec builder used across test modules."""
    return EpisodeSpec(
        scenario_id=scenario_id,
        initial_gap=gap,
        fault_type=fault,
        repetition=0,
        seed=seed,
    )
