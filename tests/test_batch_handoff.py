"""Hand-off tests: a narrow batch lockstep finishes on the scalar loop.

``BatchExecutor`` steps a lockstep until fewer than
``executor.BREAK_EVEN_LANES`` lanes remain with no batched ML lane among
them, then syncs every lane back to its objects and finishes each on
``run_steps``.  These tests fire the hand-off at a chosen step and
byte-compare the results with :class:`SerialExecutor`.

Every task of a lane-capped slice joins one lockstep, so tasks with
different ``max_steps`` share one.  The *pacer*, a copy of the first
episode that ends at step ``k``, is the first lane to retire; with the
constant at the task count, the others hand off at step ``k`` (or
earlier, where a lane crashes first).  Step 0 needs no pacer: the
constant goes above the width instead.
"""

import json

import pytest

from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core import executor as executor_module
from repro.core.executor import (
    BatchExecutor,
    BatchParallelExecutor,
    EpisodeTask,
    PhaseProfile,
    SerialExecutor,
)
from repro.safety.arbitration import InterventionConfig
from repro.sim.families import registered_families
from tests.test_batch_executor import (
    FULL_CFG,
    ML_CFG,
    _family_spec,
    constant_ml_factory,
    synthetic_ml_factory,
)

HORIZON = 200

#: At once, after one tick, mid-episode, one tick before the horizon.
HAND_OFF_STEPS = (0, 1, HORIZON // 2, HORIZON - 1)


def staggered(episodes, cfg, hand_off_at, horizon=HORIZON, **kwargs):
    """One lockstep's tasks, paced to hand off at step ``hand_off_at``."""
    tasks = [
        EpisodeTask(episode, cfg, max_steps=horizon, **kwargs)
        for episode in episodes
    ]
    if hand_off_at > 0:
        pacer = EpisodeTask(
            episodes[0], cfg, max_steps=hand_off_at, **kwargs
        )
        tasks.insert(0, pacer)
    return tasks


def lines(results):
    """The results as the JSONL lines a campaign file holds."""
    return [
        json.dumps(r.to_dict(), sort_keys=True, allow_nan=False) for r in results
    ]


@pytest.fixture
def hand_off_starts(monkeypatch):
    """Record the start step of every ``run_steps`` call from here on."""
    starts = []
    run_steps = executor_module.run_steps

    def spy(platform, result, start=0, profile=None):
        starts.append(start)
        return run_steps(platform, result, start, profile)

    monkeypatch.setattr(executor_module, "run_steps", spy)
    return starts


def check_hand_off(tasks, hand_off_at, monkeypatch, starts):
    """Byte-compare a paced batch run with serial.

    The hand-off fires at the pacer's step, or at the first crash before
    it; every lane still running then goes to the scalar loop from
    there.  Returns the serial results and the hand-off step.
    """
    serial = SerialExecutor().run(tasks)
    starts.clear()
    width = len(tasks) + (hand_off_at == 0)
    monkeypatch.setattr(executor_module, "BREAK_EVEN_LANES", width)
    batch = BatchExecutor().run(tasks)
    first = 0 if hand_off_at == 0 else min(r.steps for r in serial)
    assert starts == [first] * sum(r.steps > first for r in serial)
    assert lines(batch) == lines(serial)
    assert batch == serial
    return serial, first


class TestHandOff:
    @pytest.mark.parametrize("hand_off_at", HAND_OFF_STEPS)
    @pytest.mark.parametrize("family", registered_families())
    def test_every_family_full_stack(
        self, family, hand_off_at, monkeypatch, hand_off_starts
    ):
        # At a 60 m gap the RD patch is perceived from step 0, so the
        # lanes hand off mid-attack with the tracker, AEBS and FCW live.
        episodes = enumerate_campaign(
            _family_spec(family, FaultType.RELATIVE_DISTANCE, seed=404)
        )
        tasks = staggered(episodes, FULL_CFG, hand_off_at)
        serial, first = check_hand_off(
            tasks, hand_off_at, monkeypatch, hand_off_starts
        )
        # Preconditions: the attack is on and the hand-off fired at the
        # chosen step.
        assert all(r.attack_activated for r in serial)
        assert first == hand_off_at

    @pytest.mark.parametrize("hand_off_at", (0, 1, 300, 599))
    def test_rd_blind_range_walk(self, hand_off_at, monkeypatch, hand_off_starts):
        # The RD attack walks the lead through the perception blind
        # range, so each lane alternates 5-draw and 3-draw ticks; the S4
        # lanes crash near step 460, before the last pacer.
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=99,
        )
        tasks = staggered(
            enumerate_campaign(spec), InterventionConfig(), hand_off_at,
            horizon=600,
        )
        check_hand_off(tasks, hand_off_at, monkeypatch, hand_off_starts)

    @pytest.mark.parametrize("hand_off_at", HAND_OFF_STEPS)
    def test_hazard_heavy_grid(self, hand_off_at, monkeypatch, hand_off_starts):
        # Short gaps under an RD attack: H1 marks and crashes keep the
        # masked hazard screen flagging lanes around the hand-off.
        spec = CampaignSpec(
            scenario_ids=("S3", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(15.0,),
            repetitions=2,
            seed=1234,
        )
        tasks = staggered(enumerate_campaign(spec), FULL_CFG, hand_off_at)
        check_hand_off(tasks, hand_off_at, monkeypatch, hand_off_starts)

    @pytest.mark.parametrize("hand_off_at", HAND_OFF_STEPS)
    def test_cut_in_heavy_grid(self, hand_off_at, monkeypatch, hand_off_starts):
        # Adjacent-lane mergers keep the cut-in screen flagging lanes
        # into the scalar scan, with the driver model reading it.
        spec = CampaignSpec(
            scenario_ids=("dense-traffic", "S5"),
            fault_types=[FaultType.MIXED],
            initial_gaps=(40.0,),
            repetitions=2,
            seed=77,
        )
        tasks = staggered(enumerate_campaign(spec), FULL_CFG, hand_off_at)
        check_hand_off(tasks, hand_off_at, monkeypatch, hand_off_starts)

    @pytest.mark.parametrize("hand_off_at", (0, 1, HORIZON // 2))
    def test_batch_parallel_executor(self, hand_off_at, monkeypatch):
        # Each worker's chunk is its own lockstep: two paced chunks of
        # three, with the constant at the chunk width.
        episodes = enumerate_campaign(
            _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=99, repetitions=4)
        )
        tasks = [
            task
            for pair in (episodes[:2], episodes[2:])
            for task in staggered(pair, FULL_CFG, max(hand_off_at, 1))
        ]
        serial = SerialExecutor().run(tasks)
        constant = 3 + (hand_off_at == 0)
        monkeypatch.setattr(executor_module, "BREAK_EVEN_LANES", constant)
        hybrid = BatchParallelExecutor(jobs=2, chunk_size=3).run(tasks)
        assert lines(hybrid) == lines(serial)

    def test_profile_counts_handed_off_steps(self, monkeypatch):
        episodes = enumerate_campaign(
            _family_spec("S4", FaultType.RELATIVE_DISTANCE, seed=11)
        )
        tasks = staggered(episodes, FULL_CFG, HORIZON // 2)
        serial = SerialExecutor().run(tasks)
        monkeypatch.setattr(executor_module, "BREAK_EVEN_LANES", len(tasks))
        profile = PhaseProfile()
        batch = BatchExecutor(profile=profile).run(tasks)
        assert lines(batch) == lines(serial)
        assert profile.steps == sum(r.steps for r in serial)

    def test_progress_reaches_total(self, monkeypatch):
        episodes = enumerate_campaign(
            _family_spec("S1", FaultType.NONE, seed=3)
        )
        tasks = staggered(episodes, FULL_CFG, 10, horizon=40)
        monkeypatch.setattr(executor_module, "BREAK_EVEN_LANES", len(tasks))
        calls = []
        BatchExecutor().run(tasks, progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 3), (2, 3), (3, 3)]


class TestRefusedLanes:
    def test_refused_lanes_run_scalar_from_step_0(
        self, monkeypatch, third_party_family
    ):
        # One task list: two lockstep lanes, kept in lockstep to their
        # last step, and one refused lane of each kind.  Each refused lane
        # runs on the scalar loop from step 0; the bytes match serial.
        starts = []
        run_steps = executor_module.run_steps

        def spy(platform, result, start=0, profile=None):
            kind = (
                "ml" if platform.ml_controller is not None
                else platform.spec.scenario_id
            )
            starts.append((kind, start))
            return run_steps(platform, result, start, profile)

        episodes = enumerate_campaign(
            _family_spec("S4", FaultType.RELATIVE_DISTANCE, seed=11)
        )
        third_party = enumerate_campaign(
            _family_spec(third_party_family, FaultType.RELATIVE_DISTANCE, seed=11)
        )[0]
        tasks = [
            EpisodeTask(episodes[0], FULL_CFG, max_steps=HORIZON),
            EpisodeTask(
                episodes[1], ML_CFG, ml_factory=constant_ml_factory,
                max_steps=HORIZON,
            ),
            EpisodeTask(third_party, FULL_CFG, max_steps=HORIZON),
            EpisodeTask(episodes[1], FULL_CFG, max_steps=HORIZON),
        ]
        serial = SerialExecutor().run(tasks)
        monkeypatch.setattr(executor_module, "run_steps", spy)
        monkeypatch.setattr(executor_module, "BREAK_EVEN_LANES", 0)
        batch = BatchExecutor().run(tasks)
        assert starts == [("ml", 0), (third_party_family, 0)]
        assert lines(batch) == lines(serial)
        assert batch == serial
        assert serial[2].attack_activated  # precondition: a live lane


class TestMlLanesStay:
    def test_lockstep_with_an_ml_lane_never_hands_off(
        self, monkeypatch, hand_off_starts
    ):
        # The ML lane runs to the horizon, so every tick holds it: the
        # plain lanes stay in the lockstep however narrow it gets.
        factory = synthetic_ml_factory()
        episodes = enumerate_campaign(
            _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=13)
        )
        tasks = [
            EpisodeTask(episodes[0], FULL_CFG, max_steps=50),
            EpisodeTask(episodes[1], FULL_CFG, max_steps=300),
            EpisodeTask(
                episodes[1], ML_CFG, ml_factory=factory, max_steps=300
            ),
        ]
        serial = SerialExecutor().run(tasks)
        assert serial[2].steps == 300  # precondition: the ML lane lasts
        hand_off_starts.clear()
        monkeypatch.setattr(executor_module, "BREAK_EVEN_LANES", 1000)
        batch = BatchExecutor().run(tasks)
        assert hand_off_starts == []
        assert lines(batch) == lines(serial)

    def test_plain_lanes_hand_off_once_the_ml_lane_retires(
        self, monkeypatch, hand_off_starts
    ):
        factory = synthetic_ml_factory()
        episodes = enumerate_campaign(
            _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=13)
        )
        tasks = [
            EpisodeTask(episodes[0], ML_CFG, ml_factory=factory, max_steps=50),
            EpisodeTask(episodes[0], FULL_CFG, max_steps=300),
            EpisodeTask(episodes[1], FULL_CFG, max_steps=300),
        ]
        serial = SerialExecutor().run(tasks)
        hand_off_starts.clear()
        monkeypatch.setattr(executor_module, "BREAK_EVEN_LANES", 1000)
        batch = BatchExecutor().run(tasks)
        assert hand_off_starts == [50, 50]
        assert lines(batch) == lines(serial)
