"""Batch (vectorized lockstep) executor tests.

The contract under test is the one the golden-digest suite cannot see:
``executor="batch"`` must produce byte-identical episode results — and
therefore identical aggregate metrics — to the serial reference for
every registered scenario family, every fault mode, and any lane width,
while :class:`ExecutionPolicy` keeps the name-based selection honest.

Every test here runs under the ``force_lockstep`` fixture: these
campaigns are a few lanes wide, and without it the engine would hand
them straight to the scalar loop.  The hand-off itself is pinned in
``tests/test_batch_handoff.py``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core import executor as executor_module
from repro.core.executor import (
    EXECUTOR_NAMES,
    BatchExecutor,
    BatchParallelExecutor,
    EpisodeTask,
    ExecutionPolicy,
    ParallelExecutor,
    SerialExecutor,
)
from repro.core.experiment import run_campaign
from repro.core.metrics import aggregate
from repro.ml.lstm import LstmNetwork
from repro.ml.mitigation import MitigationController, MitigationFactory
from repro.ml.trainer import TrainedBaseline
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from repro.sim.families import registered_families
from tests.test_executor import PoolContract

pytestmark = pytest.mark.usefixtures("force_lockstep")

#: The widest intervention stack: driver + safety check + independent
#: AEB exercises every lead corridor of the batch engine's control view
#: (sensor, radar, human) plus its look-ahead curvature.
FULL_CFG = InterventionConfig(
    driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT
)


def _family_spec(family, fault, seed, repetitions=2):
    return CampaignSpec(
        scenario_ids=(family,),
        fault_types=[fault],
        initial_gaps=(60.0,),
        repetitions=repetitions,
        seed=seed,
    )


def _run_pair(spec, cfg, max_steps):
    serial = run_campaign(
        spec, cfg, executor="serial", cache=False, max_steps=max_steps
    )
    batch = run_campaign(
        spec, cfg, executor="batch", cache=False, max_steps=max_steps
    )
    return serial, batch


@pytest.fixture(scope="module")
def family_sweep():
    """Every registered family as one 18-lane lockstep under the DC attack.

    The curvature patch sits about 18 s of driving down the road: at the
    230 m gap the attack activates at 18.5-22 s, so 2,300 steps (23 s)
    reach it on every family.
    """
    from repro.core import executor

    spec = CampaignSpec(
        scenario_ids=tuple(registered_families()),
        fault_types=[FaultType.DESIRED_CURVATURE],
        initial_gaps=(230.0,),
        repetitions=2,
        seed=404,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "BREAK_EVEN_LANES", 0)
        return _run_pair(spec, FULL_CFG, max_steps=2300)


class TestBatchSerialEquivalence:
    @pytest.mark.parametrize("family", registered_families())
    def test_every_registered_family_bit_identical(self, family, family_sweep):
        serial, batch = family_sweep
        assert batch.intervention == serial.intervention
        lanes = [
            i for i, r in enumerate(serial.results) if r.scenario_id == family
        ]
        assert lanes
        assert [batch.results[i] for i in lanes] == [
            serial.results[i] for i in lanes
        ]
        # Unattacked lanes would make this a byte-compare of plain driving.
        assert any(serial.results[i].attack_activated for i in lanes)

    @settings(max_examples=8, deadline=None)
    @given(
        family=st.sampled_from(registered_families()),
        fault=st.sampled_from(
            [FaultType.NONE, FaultType.RELATIVE_DISTANCE, FaultType.MIXED]
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_batch_metrics_equal_serial_property(self, family, fault, seed):
        spec = _family_spec(family, fault, seed)
        serial, batch = _run_pair(spec, FULL_CFG, max_steps=300)
        assert batch.results == serial.results
        assert aggregate(batch.results) == aggregate(serial.results)

    def test_lane_chunking_preserves_results_and_order(self):
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=99,
        )
        serial = run_campaign(
            spec, FULL_CFG, executor="serial", cache=False, max_steps=500
        )
        # 4 episodes through uneven lane widths: 1 (degenerate serial-like
        # lockstep), 3 (uneven final chunk), 100 (single wide chunk).
        for lanes in (1, 3, 100):
            batch = run_campaign(
                spec,
                FULL_CFG,
                executor=BatchExecutor(lanes=lanes),
                cache=False,
                max_steps=500,
            )
            assert batch.results == serial.results, lanes

    def test_mid_batch_finish_and_rng_draw_order(self):
        # RD-attacked baseline: the S4 lanes crash (A1) hundreds of steps
        # before the S1 lanes reach max_steps, so lanes retire mid-batch
        # and a compaction drops their rows from the survivors' packed
        # arrays; the attack also
        # walks the lead through the perception blind range, so per-lane
        # RNG consumption alternates between 5-draw (valid-lead) and
        # 3-draw steps.  Neither may disturb bit-identity at any chunk
        # width: 1 (a boundary every lane), width-1 (uneven final chunk),
        # or unbounded (all finish-orders interleaved in one batch).
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=99,
        )
        serial = run_campaign(
            spec, InterventionConfig(), executor="serial", cache=False, max_steps=600
        )
        steps = [r.steps for r in serial.results]
        # Precondition: lanes genuinely finish at different steps.
        assert len(set(steps)) > 1, steps
        assert any(r.accident is not None for r in serial.results)
        for lanes in (1, len(steps) - 1, None):
            batch = run_campaign(
                spec,
                InterventionConfig(),
                executor=BatchExecutor(lanes=lanes),
                cache=False,
                max_steps=600,
            )
            assert batch.results == serial.results, lanes

    def test_lockstep_runs_to_the_last_lane(self, monkeypatch):
        # Under force_lockstep a 2-lane batch never hands off: the
        # vectorized control phase steps both lanes until each retires.
        from repro.sim.batch_control import BatchControlStack

        widths = []
        step_control = BatchControlStack.step_control

        def spy(self, lanes):
            widths.append(len(lanes))
            step_control(self, lanes)

        monkeypatch.setattr(BatchControlStack, "step_control", spy)
        spec = _family_spec("S4", FaultType.RELATIVE_DISTANCE, seed=11)
        batch = run_campaign(
            spec, FULL_CFG, executor="batch", cache=False, max_steps=300
        )
        steps = sorted(r.steps for r in batch.results)
        assert widths == [2] * steps[0] + [1] * (steps[1] - steps[0])

    def test_minimal_config_also_identical(self):
        # No driver, no AEB: the no-intervention arm takes different
        # sensor paths (no radar/human corridors registered).
        spec = _family_spec("S2", FaultType.NONE, seed=7, repetitions=2)
        serial, batch = _run_pair(spec, InterventionConfig(), max_steps=400)
        assert batch.results == serial.results

    def test_hazard_heavy_equivalence_bit_identical(self):
        # Short initial gaps + an RD attack: H1 marks early, S4 lanes
        # crash (A1) — the masked hazard screen flags lanes step after
        # step instead of staying quiet, so the scalar-fallback half of
        # the screen is what this pins against serial.
        spec = CampaignSpec(
            scenario_ids=("S3", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(15.0,),
            repetitions=2,
            seed=1234,
        )
        serial, batch = _run_pair(spec, FULL_CFG, max_steps=500)
        # Preconditions: the campaign is genuinely hazard-heavy.
        assert any(r.h1 for r in serial.results)
        assert any(r.accident is not None for r in serial.results)
        assert batch.results == serial.results

    def test_cut_in_heavy_equivalence_bit_identical(self):
        # dense-traffic platoons carry an adjacent-lane CutInBehavior
        # merger and S5 is the paper's cut-in scenario: adjacent-lane
        # agents with lateral motion keep the vectorized cut-in screen
        # flagging lanes into the scalar first-match scan, with the
        # driver model consuming the presence bit every step.
        spec = CampaignSpec(
            scenario_ids=("dense-traffic", "S5"),
            fault_types=[FaultType.MIXED],
            initial_gaps=(40.0,),
            repetitions=2,
            seed=77,
        )
        serial, batch = _run_pair(spec, FULL_CFG, max_steps=500)
        assert batch.results == serial.results
        assert aggregate(batch.results) == aggregate(serial.results)


class TestPhaseProfile:
    def test_profiled_runs_identical_and_accumulate(self):
        from repro.core.executor import PhaseProfile

        spec = _family_spec("S4", FaultType.RELATIVE_DISTANCE, seed=11)
        serial = run_campaign(
            spec, FULL_CFG, executor="serial", cache=False, max_steps=300
        )
        for make in (
            lambda p: SerialExecutor(profile=p),
            lambda p: BatchExecutor(profile=p),
        ):
            profile = PhaseProfile()
            profiled = run_campaign(
                spec,
                FULL_CFG,
                executor=make(profile),
                cache=False,
                max_steps=300,
            )
            assert profiled.results == serial.results
            assert profile.steps == sum(r.steps for r in serial.results)
            assert profile.control_s > 0.0
            assert profile.dynamics_s > 0.0
            assert profile.post_s >= 0.0
            assert profile.total_s == pytest.approx(
                profile.control_s + profile.dynamics_s + profile.post_s
            )
            assert set(profile.as_dict()) == {
                "control_s",
                "dynamics_s",
                "post_s",
                "steps",
            }


class TestBatchExecutorConstruction:
    def test_rejects_nonpositive_lanes(self):
        with pytest.raises(ValueError, match="lanes"):
            BatchExecutor(lanes=0)
        with pytest.raises(ValueError, match="lanes"):
            BatchExecutor(lanes=-4)
        with pytest.raises(ValueError, match="lanes"):
            BatchParallelExecutor(jobs=2, lanes=0)

    def test_default_lanes_unbounded(self):
        assert BatchExecutor().lanes is None
        assert BatchExecutor(lanes=8).lanes == 8
        assert not hasattr(BatchExecutor(), "jobs")


class TestResolveExecutor:
    """``ExecutionPolicy``: validated when built, resolved to an executor."""

    def test_names_resolve_to_backends(self):
        assert isinstance(ExecutionPolicy("serial").resolve(), SerialExecutor)
        assert isinstance(
            ExecutionPolicy("parallel", jobs=2).resolve(), ParallelExecutor
        )
        assert isinstance(ExecutionPolicy("batch").resolve(), BatchExecutor)

    def test_none_defers_to_jobs(self):
        assert isinstance(ExecutionPolicy().resolve(), SerialExecutor)
        assert isinstance(ExecutionPolicy(jobs=3).resolve(), ParallelExecutor)

    def test_instance_passes_through(self):
        # run_campaign is the one entry point that takes a ready instance
        # (the policy holds names only).
        seen = []

        class Spy(SerialExecutor):
            def run(self, tasks, on_result=None):
                seen.append(len(tasks))
                return super().run(tasks, on_result)

        spec = CampaignSpec(
            fault_types=[FaultType.NONE], scenario_ids=("S1",),
            initial_gaps=(60.0,), repetitions=1, seed=3,
        )
        run_campaign(spec, InterventionConfig(), executor=Spy(), cache=False,
                     max_steps=20)
        assert seen == [1]

        # An instance that returns its results without handing each back
        # through on_result would leave a resume file short: refused.
        class Silent(SerialExecutor):
            def run(self, tasks, on_result=None):
                return super().run(tasks)

        with pytest.raises(RuntimeError, match="on_result"):
            run_campaign(spec, InterventionConfig(), executor=Silent(),
                         cache=False, max_steps=20)

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError, match="serial.*parallel.*batch"):
            ExecutionPolicy("warp")

    @pytest.mark.parametrize("knob", ["jobs", "lanes"])
    @pytest.mark.parametrize("name", ["serial", "parallel", "batch", None])
    def test_nonpositive_counts_rejected_for_every_name(self, name, knob):
        # One validator runs when the policy is built: a knob the chosen
        # executor would ignore is still refused, naming the argument.
        with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
            ExecutionPolicy(name, **{knob: 0})

    def test_names_registry(self):
        assert EXECUTOR_NAMES == ("serial", "parallel", "batch")

    def test_batch_with_jobs_routes_to_hybrid(self):
        backend = ExecutionPolicy("batch", jobs=3, lanes=8).resolve()
        assert isinstance(backend, BatchParallelExecutor)
        assert backend.jobs == 3
        assert backend.lanes == 8

    def test_batch_with_one_job_stays_single_process(self):
        assert isinstance(ExecutionPolicy("batch", jobs=1).resolve(), BatchExecutor)
        assert isinstance(ExecutionPolicy("batch").resolve(), BatchExecutor)

    def test_serial_never_reads_repro_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        assert isinstance(ExecutionPolicy("serial").resolve(), SerialExecutor)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            ExecutionPolicy().resolve()

    def test_batch_jobs_honours_repro_jobs_env(self, monkeypatch):
        # The historical footgun: REPRO_JOBS silently ignored by
        # --executor batch.  It must route to the hybrid now.
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert isinstance(ExecutionPolicy("batch").resolve(), BatchParallelExecutor)

    def test_profile_with_batch_jobs_refused_naming_both_flags(self):
        from repro.core.executor import PhaseProfile

        with pytest.raises(ValueError, match=r"--profile.*--jobs"):
            ExecutionPolicy("batch", jobs=2).resolve(PhaseProfile())
        # jobs=1 keeps profiling supported (in-process batch).
        backend = ExecutionPolicy("batch", jobs=1).resolve(PhaseProfile())
        assert isinstance(backend, BatchExecutor)
        assert backend.profile is not None


def synthetic_ml_factory(
    seed=7, hidden=(8, 6), token="test:synthetic", network_cls=LstmNetwork
):
    """A deterministic untrained-weights factory: predictions are
    arbitrary (large CUSUM deltas → the recovery path actually runs),
    construction is instant, and the bit-identity contract does not care
    about predictive quality."""
    baseline = TrainedBaseline(
        network=network_cls(
            input_size=6, hidden_sizes=hidden, output_size=2, seed=seed
        ),
        feature_mean=np.array([20.0, 60.0, 0.9, 0.9, 0.0, 0.0]),
        feature_std=np.array([5.0, 30.0, 0.5, 0.5, 1.0, 0.1]),
        target_mean=np.array([0.1, 0.0]),
        target_std=np.array([1.5, 0.05]),
    )
    return MitigationFactory(baseline, digest_token=f"{token}:{seed}:{hidden}")


class ConstantBaseline:
    """A duck-typed ML baseline: ``MitigationController`` only ever calls
    ``predict``, so serial runs it although it has no scalers or network."""

    def predict(self, window):
        return np.array([-2.0, 0.01])


def constant_ml_factory():
    """Module-level (picklable) factory over :class:`ConstantBaseline`."""
    return MitigationController(ConstantBaseline())


class SubclassedLstm(LstmNetwork):
    """An ``LstmNetwork`` subclass: it may override ``forward``, so the
    batch engine must not assume its rows are exact."""


#: ML arm on top of the widest stack: Algorithm 1 arbitrates against the
#: driver, the checker and independent AEB inside the vectorized path.
ML_CFG = InterventionConfig(
    ml=True, driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT
)


class TestBatchMlLaneEquivalence:
    """ML-arm lanes ride the vectorized path — and stay bit-identical."""

    def _ml_pair(self, spec, max_steps, executor, cfg=ML_CFG, factory=None):
        factory = factory or synthetic_ml_factory()
        serial = run_campaign(
            spec, cfg, ml_factory=factory, executor="serial",
            cache=False, max_steps=max_steps,
        )
        other = run_campaign(
            spec, cfg, ml_factory=factory, executor=executor,
            cache=False, max_steps=max_steps,
        )
        return serial, other

    def test_ml_campaign_bit_identical_with_mid_batch_finish(self):
        # S1+S4 under an RD attack with ML as the lone intervention: the
        # S4 lanes crash (A1) ~150 steps before the S1 lanes reach
        # max_steps, so lanes retire mid-batch and the ML write-through
        # and active-set reshuffle both happen with recovery state live.
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=99,
        )
        serial, batch = self._ml_pair(
            spec, 500, "batch", cfg=InterventionConfig(ml=True)
        )
        # Preconditions: recovery genuinely activates and lanes genuinely
        # finish at different steps — otherwise this test proves nothing.
        assert any(r.ml_recovery.triggered for r in serial.results)
        assert len({r.steps for r in serial.results}) > 1
        assert batch.results == serial.results
        assert aggregate(batch.results) == aggregate(serial.results)

    def test_ml_lane_chunk_boundaries(self):
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=31,
        )
        factory = synthetic_ml_factory()
        serial = run_campaign(
            spec, ML_CFG, ml_factory=factory, executor="serial",
            cache=False, max_steps=400,
        )
        for lanes in (1, 3, 100):
            batch = run_campaign(
                spec, ML_CFG, ml_factory=factory,
                executor=BatchExecutor(lanes=lanes),
                cache=False, max_steps=400,
            )
            assert batch.results == serial.results, lanes

    def test_full_stack_with_ml_bit_identical(self):
        # ML recovery commands flowing through the checker, driver and
        # independent AEB: the arbitration interplay (authority codes,
        # ACC brake clamp under "ml" authority) must vectorize exactly.
        spec = _family_spec("S2", FaultType.DESIRED_CURVATURE, seed=5)
        serial, batch = self._ml_pair(spec, 400, "batch")
        assert any(r.ml_recovery.triggered for r in serial.results)
        assert batch.results == serial.results

    def test_ml_lanes_join_ml_set(self):
        from repro.core.platform import SimulationPlatform
        from repro.sim.batch_control import BatchControlStack, lockstep_refusal

        spec = _family_spec("S1", FaultType.NONE, seed=1, repetitions=1)
        episodes = enumerate_campaign(spec)
        factory = synthetic_ml_factory()
        platforms = [
            SimulationPlatform(
                episodes[0], ML_CFG, ml_controller=factory(), max_steps=50
            )
        ]
        assert lockstep_refusal(platforms[0]) is None
        stack = BatchControlStack(platforms)
        assert stack.ml_set == {0}
        assert stack.ml is not None

    def test_non_stock_controller_refused_runs_scalar_and_matches(self):
        # A subclass may override step(): lockstep_refusal refuses its
        # lanes, so the batch executor runs them on the scalar loop from
        # step 0, and they still match serial.
        from repro.sim.batch_control import lockstep_refusal

        class TracingController(MitigationController):
            pass

        baseline = synthetic_ml_factory().baseline

        def custom_factory():
            return TracingController(baseline)

        spec = _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=13)
        lane = _platform(
            enumerate_campaign(spec)[0], ML_CFG, ml_factory=custom_factory
        )
        assert lockstep_refusal(lane) is not None
        # The nested factory is deliberate: both backends run in-process
        # here, and hoisting it would lose the subclass-under-test.
        serial = run_campaign(
            spec, ML_CFG, ml_factory=custom_factory, executor="serial",  # repro-lint: disable=unpicklable-submission
            cache=False, max_steps=300,
        )
        batch = run_campaign(
            spec, ML_CFG, ml_factory=custom_factory, executor="batch",  # repro-lint: disable=unpicklable-submission
            cache=False, max_steps=300,
        )
        assert batch.results == serial.results

    @pytest.mark.parametrize(
        "factory",
        [
            constant_ml_factory,
            synthetic_ml_factory(network_cls=SubclassedLstm, token="test:sub"),
        ],
        ids=["duck-typed-baseline", "lstm-subclass"],
    )
    def test_non_stock_baseline_refused_runs_scalar_and_matches(self, factory):
        # Serial runs any baseline with a predict method.  A duck-typed
        # one (no feature_mean) and a TrainedBaseline over a subclass are
        # refused by lockstep_refusal, so their lanes run on the scalar
        # loop from step 0 under batch and batch x jobs alike.
        from repro.sim.batch_control import lockstep_refusal

        spec = _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=13)
        lane = _platform(enumerate_campaign(spec)[0], ML_CFG, ml_factory=factory)
        assert lockstep_refusal(lane) is not None
        serial = run_campaign(
            spec, ML_CFG, ml_factory=factory, executor="serial",
            cache=False, max_steps=300,
        )
        assert any(r.ml_recovery.triggered for r in serial.results)
        for jobs in (None, 2):
            other = run_campaign(
                spec, ML_CFG, ml_factory=factory, executor="batch",
                jobs=jobs, cache=False, max_steps=300,
            )
            assert other.results == serial.results, jobs

    def test_mixed_ml_and_plain_lanes_one_batch(self):
        # One lockstep batch mixing ML lanes (two distinct baselines —
        # distinct networks must group separately) with plain lanes.
        spec = _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=21)
        episodes = enumerate_campaign(spec)
        factories = [synthetic_ml_factory(seed=1), synthetic_ml_factory(seed=2), None]
        tasks = [
            EpisodeTask(
                episode,
                ML_CFG if factory is not None else FULL_CFG,
                ml_factory=factory,
                max_steps=400,
            )
            for episode in episodes
            for factory in factories
        ]
        serial = SerialExecutor().run(tasks)
        batch = BatchExecutor().run(tasks)
        assert batch == serial


def _platform(spec, cfg=FULL_CFG, ml_factory=None, **kwargs):
    from repro.core.platform import SimulationPlatform

    controller = ml_factory() if ml_factory is not None else None
    return SimulationPlatform(
        spec, cfg, ml_controller=controller, max_steps=50, **kwargs
    )


class TestLockstepAdmission:
    """``lockstep_refusal`` is the batch engine's one admission rule."""

    @pytest.mark.parametrize("family", registered_families())
    def test_every_family_admitted_under_report_configs(self, family):
        # A shipped family with a third-party behaviour would run at
        # serial speed under --executor batch; this keeps it visible.
        from repro.sim.batch_control import lockstep_refusal

        spec = enumerate_campaign(
            _family_spec(family, FaultType.RELATIVE_DISTANCE, seed=5)
        )[0]
        assert lockstep_refusal(_platform(spec)) is None
        ml_lane = _platform(spec, ML_CFG, ml_factory=synthetic_ml_factory())
        assert lockstep_refusal(ml_lane) is None

    @pytest.mark.parametrize(
        "cause", ["trace", "ml-controller", "behaviour"]
    )
    def test_stack_refuses_naming_the_lane(self, cause, third_party_family):
        from repro.sim.batch_control import BatchControlStack, lockstep_refusal

        plain = enumerate_campaign(
            _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=5)
        )[0]
        if cause == "trace":
            refused = _platform(plain, record_trace=True)
            why = "it records a trace"
        elif cause == "ml-controller":
            refused = _platform(plain, ML_CFG, ml_factory=constant_ml_factory)
            why = "its ML controller is not a stock MitigationController"
        else:
            refused = _platform(
                enumerate_campaign(
                    _family_spec(third_party_family, FaultType.NONE, seed=5)
                )[0]
            )
            why = "agent 'LV' runs Oscillator, a behaviour with no registered kind"
        assert lockstep_refusal(refused) is not None
        with pytest.raises(
            ValueError,
            match=rf"lane 1 \({re.escape(refused.spec.label())}\) cannot "
            rf"join the lockstep: {why}",
        ):
            BatchControlStack([_platform(plain), refused])


class TestBatchParallelExecutor(PoolContract):
    pool_cls = BatchParallelExecutor

    def _spec(self, seed=99):
        return CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=3,
            seed=seed,
        )

    def test_hybrid_byte_identical_to_serial_including_ml(self, tmp_path):
        import hashlib

        factory = synthetic_ml_factory()
        serial = run_campaign(
            self._spec(), ML_CFG, ml_factory=factory, executor="serial",
            cache=False, max_steps=300,
        )
        hybrid = run_campaign(
            self._spec(), ML_CFG, ml_factory=factory, executor="batch",
            jobs=2, cache=False, max_steps=300,
        )
        assert hybrid.results == serial.results

        def digest(campaign, name):
            path = tmp_path / name
            campaign.save(str(path))
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert digest(hybrid, "hybrid.jsonl") == digest(serial, "serial.jsonl")


class TestResumeStreamWidth:
    """Under ``resume_path`` the shard primitive hands the executor the
    whole remainder in one ``run`` call, as without resume: the batch
    engine steps its lane cap (or the whole remainder) at a time, and a
    pooled executor builds one process pool."""

    #: S1-S6 x 60/230 m x 2 faults x 2 repetitions = 48 episodes.
    SPEC = CampaignSpec(
        fault_types=[FaultType.RELATIVE_DISTANCE, FaultType.DESIRED_CURVATURE],
        repetitions=2,
        seed=7,
    )

    @pytest.mark.parametrize("lanes, widths", [(None, [48]), (32, [32, 16])])
    def test_batch_widths_under_resume(self, lanes, widths, tmp_path, monkeypatch):
        seen = []
        run_batch = BatchExecutor._run_batch

        def spy(self, tasks, indices, finish):
            seen.append(len(indices))
            run_batch(self, tasks, indices, finish)

        monkeypatch.setattr(BatchExecutor, "_run_batch", spy)
        resumed = run_campaign(
            self.SPEC, FULL_CFG, executor="batch", lanes=lanes, cache=False,
            resume_path=str(tmp_path / "resume.jsonl"), max_steps=40,
        )
        assert seen == widths
        seen.clear()
        direct = run_campaign(
            self.SPEC, FULL_CFG, executor="batch", lanes=lanes, cache=False,
            max_steps=40,
        )
        assert seen == widths
        assert resumed.results == direct.results

    @pytest.mark.parametrize(
        "knobs",
        [
            {"executor": "parallel", "jobs": 2},
            {"executor": "batch", "jobs": 2, "lanes": 12},
        ],
        ids=["parallel", "hybrid"],
    )
    def test_resumed_run_builds_one_pool(self, knobs, tmp_path, monkeypatch):
        built = []

        class CountingPool(executor_module._ProcessPool):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor_module, "_ProcessPool", CountingPool)
        resumed = run_campaign(
            self.SPEC, FULL_CFG, cache=False, max_steps=40,
            resume_path=str(tmp_path / "resume.jsonl"), **knobs,
        )
        assert len(built) == 1
        serial = run_campaign(
            self.SPEC, FULL_CFG, executor="serial", cache=False, max_steps=40
        )
        assert resumed.results == serial.results
