"""One registry lists every lane-axis array of a lockstep.

The batch engine keeps each lane-axis array packed to the active lanes,
and one ``LaneRegistry.compact`` call keeps the survivors' rows of every
registered array.  An array left out of the registry would keep a
retired lane's row and silently misalign every row after it.  This test
finds the arrays by walking the five batch classes' own attributes, not
by asking the registry, and checks that each one lost exactly the
retired lane's row.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core.platform import SimulationPlatform
from repro.ml.dataset import WINDOW
from repro.safety.arbitration import InterventionConfig
from repro.sim.batch_control import BatchControlStack
from repro.sim.batch_hazards import BatchHazardMonitor
from repro.sim.batch_state import LaneRegistry
from tests.test_batch_executor import FULL_CFG, ML_CFG, synthetic_ml_factory


def _walk(value, path, out):
    """Collect the arrays in ``value``, through namespaces and dicts."""
    if isinstance(value, np.ndarray):
        out[path] = value
    elif isinstance(value, dict):
        for key, item in value.items():
            _walk(item, f"{path}[{key!r}]", out)
    elif isinstance(value, SimpleNamespace):
        for name, item in vars(value).items():
            _walk(item, f"{path}.{name}", out)


def _arrays(stack, hazards):
    """Every array the five batch classes hold, the control view included."""
    out = {}
    dynamics = stack.dynamics
    for root, obj in (
        ("stack", stack),
        ("dynamics", dynamics),
        ("behaviors", dynamics.behaviors),
        ("ml", stack.ml),
        ("hazards", hazards),
    ):
        for name, item in vars(obj).items():
            _walk(item, f"{root}.{name}", out)
    _walk(dynamics.control_view, "control_view", out)
    return out


def _tick(stack, hazards, lanes):
    stack.step_control(lanes)
    stack.dynamics.step(lanes, SimulationPlatform.DT)
    stack.accumulate()
    hazards.screen(lanes)


def test_compaction_drops_the_retired_lane_from_every_array():
    # Lanes with one lead, a cut-in and a dense platoon (so the actor
    # slots differ per lane), under the driver, the safety check and the
    # independent AEBS, plus a batched ML lane and an unprotected one.
    episodes = enumerate_campaign(
        CampaignSpec(
            scenario_ids=("S1", "S5", "dense-traffic"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=1,
            seed=17,
        )
    )
    platforms = [SimulationPlatform(e, FULL_CFG, max_steps=100) for e in episodes]
    platforms.append(
        SimulationPlatform(
            episodes[0], ML_CFG, ml_controller=synthetic_ml_factory()(), max_steps=100
        )
    )
    platforms.append(SimulationPlatform(episodes[1], InterventionConfig(), max_steps=100))
    n = len(platforms)
    stack = BatchControlStack(platforms)
    dynamics = stack.dynamics
    hazards = BatchHazardMonitor([p.hazards for p in platforms], dynamics)
    results = [p._begin_episode() for p in platforms]
    lanes = list(range(n))
    dynamics.prime()
    for _ in range(WINDOW + 5):  # the ML lane's window fills: its forward runs
        _tick(stack, hazards, lanes)

    before = {path: array.copy() for path, array in _arrays(stack, hazards).items()}
    assert stack.ml is not None and dynamics.arrays.valid.shape[1] > 1
    assert any(path.startswith("control_view") for path in before)
    # Every array these classes keep is lane-axis.
    assert [p for p, a in before.items() if a.shape[:1] != (n,)] == []

    row = 2
    stack.retire(row, lanes[row], results[lanes[row]])
    keep = [r for r in range(n) if r != row]
    dynamics.registry.compact(keep)

    after = _arrays(stack, hazards)
    assert after.keys() == before.keys()
    for path, old in before.items():
        new = after[path]
        assert new.dtype == old.dtype, path
        assert new.shape == (n - 1,) + old.shape[1:], path
        assert new.tobytes() == old[keep].tobytes(), path
    assert dynamics.registry.width == n - 1

    # The survivors step on.
    lanes = [lanes[r] for r in keep]
    for _ in range(3):
        _tick(stack, hazards, lanes)


def test_compaction_refuses_an_array_off_the_lane_axis():
    registry = LaneRegistry(3)
    registry.add(SimpleNamespace(ok=np.zeros(3), table=np.zeros((4, 3))))
    with pytest.raises(ValueError, match=r"table has shape \(4, 3\), not 3 lane rows"):
        registry.compact([0, 2])
