"""A lockstep lane's objects, once synced, are serial's objects.

``BatchDynamics`` keeps the lockstep's state in arrays and writes a lane's
ego, traffic actors and ``world.time`` back only before a scalar reader
(``BatchDynamics.sync``).  These tests step a lockstep, sync every row and
compare every field the physics step writes with serial twins stepped to
the same tick, bit for bit.
"""

import pytest

from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core.executor import BatchExecutor, SerialExecutor
from repro.core import executor as executor_module
from repro.core.hazards import AccidentType
from repro.core.platform import SimulationPlatform
from repro.safety.arbitration import InterventionConfig
from repro.sim.batch_control import BatchControlStack
from tests.test_batch_executor import FULL_CFG

EGO_FIELDS = ("steer", "accel", "speed", "s", "d", "psi")
ACTOR_FIELDS = ("accel", "speed", "s", "d", "accel_cmd", "d_target")


def _lanes():
    """Every paper scenario and the dense-traffic platoon (one to six
    actors a lane, cut-ins included) under the RD and the mixed attack,
    each with the driver, the safety check and the independent AEBS, and
    without interventions.  The unprotected lanes crash from step 319 on
    (A1 and A2), and one leaves its lane at step 852."""
    episodes = enumerate_campaign(
        CampaignSpec(
            scenario_ids=("S1", "S2", "S3", "S4", "S5", "S6", "dense-traffic"),
            fault_types=[FaultType.RELATIVE_DISTANCE, FaultType.MIXED],
            initial_gaps=(40.0,),
            repetitions=1,
            seed=515,
        )
    )
    return [(e, cfg) for cfg in (FULL_CFG, InterventionConfig()) for e in episodes]


def _state(world):
    """Every field a physics step writes, as exact bits."""
    ego = world.ego
    state = {f"ego.{name}": float(getattr(ego, name)).hex() for name in EGO_FIELDS}
    state["ego.brake_decel"] = ego.powertrain._brake_decel.hex()
    state["ego.sliding"] = ego.sliding
    for k, actor in enumerate(world.actors):
        for name in ACTOR_FIELDS:
            state[f"actor{k}.{name}"] = float(getattr(actor, name)).hex()
    state["time"] = world.time.hex()
    state["collision"] = world.collision
    state["off_lane"] = world.off_lane
    state["off_road"] = world.off_road
    return state


@pytest.mark.parametrize("ticks", (1, 97, 900))
def test_sync_reproduces_serial_objects(ticks):
    lanes_cfg = _lanes()
    platforms = [SimulationPlatform(e, cfg, max_steps=ticks) for e, cfg in lanes_cfg]
    stack = BatchControlStack(platforms)
    dynamics = stack.dynamics
    lanes = list(range(len(platforms)))
    for platform in platforms:
        platform._begin_episode()
    dynamics.prime()
    for _ in range(ticks):
        stack.step_control(lanes)
        dynamics.step(lanes, SimulationPlatform.DT)
    for row, lane in enumerate(lanes):
        dynamics.sync(row, lane)

    twins = [SimulationPlatform(e, cfg, max_steps=ticks) for e, cfg in lanes_cfg]
    for twin in twins:
        result = twin._begin_episode()
        for step in range(ticks):
            twin._control_phase(step, result)
            twin.world.step(twin.DT)

    for platform, twin in zip(platforms, twins):
        assert _state(platform.world) == _state(twin.world), platform.spec.label()
    # Preconditions: the attacks fired, and at 900 ticks lanes have
    # collided and left their lane (the detectors synced those rows).
    assert all(p.fi.first_activation is not None for p in platforms)
    if ticks == 900:
        assert any(p.world.collision is not None for p in platforms)
        assert any(p.world.off_lane for p in platforms)


@pytest.mark.usefixtures("force_lockstep")
def test_retired_lanes_leave_serial_objects(monkeypatch):
    # Under the executor, a lane's objects are synced when it retires;
    # what it leaves behind must be what serial leaves behind.
    built = []
    build = executor_module._build_platform

    def capture(task):
        built.append(build(task))
        return built[-1]

    monkeypatch.setattr(executor_module, "_build_platform", capture)
    tasks = [
        executor_module.EpisodeTask(e, cfg, max_steps=900) for e, cfg in _lanes()
    ]
    serial = SerialExecutor().run(tasks)
    serial_worlds = [p.world for p in built]
    built.clear()
    batch = BatchExecutor().run(tasks)
    assert batch == serial
    assert {r.accident for r in serial} >= {None, AccidentType.A1, AccidentType.A2}
    for world, twin in zip([p.world for p in built], serial_worlds):
        assert _state(world) == _state(twin)
