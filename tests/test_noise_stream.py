"""Each lane's perception noise is one stream, whatever draws it.

``PerceptionModel`` draws its standard normals ``NOISE_BLOCK`` at a time
and keeps the ones it has not consumed; the lockstep keeps a block per
row, refills it from the lane's ``Generator`` when a tick needs more than
it holds, and hands the unconsumed tail back when the lane retires.  So
at every tick boundary the next normal a lane consumes is the same on
both paths.  A 7-normal block makes every row refill every tick or two
and carry tails across hand-offs.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.adas import perception as perception_module
from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core.executor import BatchExecutor, EpisodeTask, SerialExecutor
from repro.core.platform import SimulationPlatform
from repro.ml.dataset import collect_fault_free_traces
from repro.safety.arbitration import InterventionConfig
from repro.sim import batch_control
from tests.test_batch_executor import FULL_CFG
from tests.test_batch_handoff import (  # noqa: F401  (a fixture)
    check_hand_off,
    hand_off_starts,
    lines,
    staggered,
)


@pytest.fixture
def block_of_seven(monkeypatch):
    """Draw (and refill) perception normals 7 at a time on both paths."""
    monkeypatch.setattr(perception_module, "NOISE_BLOCK", 7)
    monkeypatch.setattr(batch_control, "NOISE_BLOCK", 7)


def _frames(platform):
    """Run ``platform``'s episode; return every perception frame, as bits."""
    frames = []
    run = platform.perception.run

    def recording(dt):
        frame = run(dt)
        frames.append(
            tuple(v.hex() if isinstance(v, float) else v for v in astuple(frame))
        )
        return frame

    platform.perception.run = recording
    platform.run()
    return frames


def test_scalar_block_of_seven_equals_per_call_normals(block_of_seven):
    # An RD attack walks the lead through the blind range, so frames
    # alternate between 5 and 3 draws across the block boundaries.
    spec = enumerate_campaign(
        CampaignSpec(
            scenario_ids=("S4",),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=1,
            seed=99,
        )
    )[0]
    blocked = SimulationPlatform(spec, InterventionConfig(), max_steps=600)
    per_call = SimulationPlatform(spec, InterventionConfig(), max_steps=600)
    model = per_call.perception
    model._normal = lambda scale: float(model._rng.normal(0.0, scale))
    frames = _frames(blocked)
    assert frames == _frames(per_call)
    assert {frame[0] for frame in frames} == {True, False}  # both draw counts


#: Hand-off ticks inside and across refills of a 7-normal block (a row
#: consumes 5 or 3 normals a tick), and one well into the run.
REFILL_TICKS = (0, 1, 2, 3, 4, 7, 150)


@pytest.mark.parametrize("hand_off_at", REFILL_TICKS)
def test_lockstep_stream_survives_refills_and_hand_offs(
    hand_off_at, monkeypatch, hand_off_starts  # noqa: F811
):
    episodes = enumerate_campaign(
        CampaignSpec(
            scenario_ids=("S1", "S4", "S5"),
            fault_types=[FaultType.RELATIVE_DISTANCE, FaultType.MIXED],
            initial_gaps=(60.0,),
            repetitions=1,
            seed=99,
        )
    )
    tasks = staggered(episodes, FULL_CFG, hand_off_at, horizon=300)
    # The stream does not depend on the block size: serial at the stock
    # size is serial at 7 is the lockstep at 7.
    stock = SerialExecutor().run(tasks)
    monkeypatch.setattr(perception_module, "NOISE_BLOCK", 7)
    monkeypatch.setattr(batch_control, "NOISE_BLOCK", 7)
    serial, first = check_hand_off(tasks, hand_off_at, monkeypatch, hand_off_starts)
    assert first == hand_off_at
    assert lines(serial) == lines(stock)


@pytest.mark.usefixtures("force_lockstep", "block_of_seven")
def test_lockstep_stream_with_refills_to_the_horizon():
    episodes = enumerate_campaign(
        CampaignSpec(
            scenario_ids=("S1", "S4", "S5", "dense-traffic"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=31,
        )
    )
    tasks = [EpisodeTask(e, FULL_CFG, max_steps=400) for e in episodes]
    assert lines(BatchExecutor().run(tasks)) == lines(SerialExecutor().run(tasks))


def test_fault_free_trace_digest_is_pinned():
    # The ML baseline's training traces run the scalar stream; their bytes
    # are the same as when every normal was drawn on its own.
    traces = collect_fault_free_traces(
        scenario_ids=("S1", "S4", "S5"),
        initial_gaps=(60.0,),
        seeds=(11,),
        max_steps=1500,
    )
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(trace.features.tobytes())
        digest.update(trace.targets.tobytes())
    assert digest.hexdigest()[:16] == "653b657db5177b06"
    assert [len(trace.features) for trace in traces] == [1500, 540, 1500]
