"""Tests for the digest-keyed campaign result cache.

Covers digest stability (same spec -> same key, in-process and across
interpreter processes), key sensitivity (any field change -> new key),
cache hit/miss/invalidation round-trips through ``run_campaign``, the
cached-ML-campaign-without-retraining path, and the regression for the
report generator's old lambda ``ml_factory`` (the ML arm now dispatches
under ``jobs=2`` instead of falling back in-process).
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.attacks.campaign import CampaignSpec, ShardSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core.cache import (
    CampaignCache,
    campaign_digest,
    complete_hit,
    default_cache,
    factory_token,
)
from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.core.experiment import run_campaign
from repro.core.metrics import EpisodeResult, save_results
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from repro.sim.weather import FRICTION_CONDITIONS

SMALL_SPEC = CampaignSpec(
    fault_types=[FaultType.NONE],
    scenario_ids=("S1", "S4"),
    initial_gaps=(60.0,),
    repetitions=2,
    seed=11,
)
CFG = InterventionConfig()
MAX_STEPS = 300

#: Literal mirror of SMALL_SPEC/CFG for the cross-process stability check.
_SUBPROCESS_SNIPPET = """
from repro.attacks.campaign import CampaignSpec
from repro.attacks.fi import FaultType
from repro.core.cache import campaign_digest
from repro.safety.arbitration import InterventionConfig

spec = CampaignSpec(
    fault_types=[FaultType.NONE],
    scenario_ids=("S1", "S4"),
    initial_gaps=(60.0,),
    repetitions=2,
    seed=11,
)
print(campaign_digest(spec, InterventionConfig(), max_steps=300), end="")
"""


class RefusingExecutor(SerialExecutor):
    """Backend that fails the test if a single episode is dispatched."""

    def run(self, tasks, on_result=None):
        raise AssertionError("cache hit must not execute episodes")


class CountingExecutor(SerialExecutor):
    def __init__(self):
        super().__init__()
        self.executed = 0

    def run(self, tasks, on_result=None):
        self.executed += len(tasks)
        return super().run(tasks, on_result)


class TestDigestStability:
    def test_same_spec_same_key_in_process(self):
        a = campaign_digest(SMALL_SPEC, CFG, max_steps=300)
        b = campaign_digest(SMALL_SPEC, CFG, max_steps=300)
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_same_spec_same_key_across_processes(self):
        """sha256 over canonical JSON is process-independent (hash() is
        salted per interpreter and would not be)."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        out = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert out == campaign_digest(SMALL_SPEC, CFG, max_steps=300)

    def test_spec_and_enumeration_share_a_key(self):
        assert campaign_digest(SMALL_SPEC, CFG) == campaign_digest(
            enumerate_campaign(SMALL_SPEC), CFG
        )

    def test_shard_keys_differ_from_full_campaign(self):
        full = campaign_digest(SMALL_SPEC, CFG)
        shard = campaign_digest(
            enumerate_campaign(SMALL_SPEC, shard=ShardSpec(1, 2)), CFG
        )
        assert full != shard

    def test_any_spec_field_change_changes_the_key(self):
        base = campaign_digest(SMALL_SPEC, CFG, max_steps=300)
        variants = [
            CampaignSpec(
                fault_types=[FaultType.RELATIVE_DISTANCE],
                scenario_ids=("S1", "S4"),
                initial_gaps=(60.0,),
                repetitions=2,
                seed=11,
            ),
            CampaignSpec(
                fault_types=[FaultType.NONE],
                scenario_ids=("S1", "S2"),
                initial_gaps=(60.0,),
                repetitions=2,
                seed=11,
            ),
            CampaignSpec(
                fault_types=[FaultType.NONE],
                scenario_ids=("S1", "S4"),
                initial_gaps=(230.0,),
                repetitions=2,
                seed=11,
            ),
            CampaignSpec(
                fault_types=[FaultType.NONE],
                scenario_ids=("S1", "S4"),
                initial_gaps=(60.0,),
                repetitions=3,
                seed=11,
            ),
            CampaignSpec(
                fault_types=[FaultType.NONE],
                scenario_ids=("S1", "S4"),
                initial_gaps=(60.0,),
                repetitions=2,
                seed=12,
            ),
            CampaignSpec(
                fault_types=[FaultType.NONE],
                scenario_ids=("S1", "S4"),
                initial_gaps=(60.0,),
                repetitions=2,
                seed=11,
                friction=next(iter(FRICTION_CONDITIONS.values())),
            ),
        ]
        keys = {campaign_digest(v, CFG, max_steps=300) for v in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_any_intervention_field_change_changes_the_key(self):
        base = campaign_digest(SMALL_SPEC, CFG)
        variants = [
            InterventionConfig(driver=True),
            InterventionConfig(safety_check=True),
            InterventionConfig(aeb=AebsConfig.INDEPENDENT),
            InterventionConfig(driver=True, driver_reaction_time=1.5),
            InterventionConfig(aeb_overrides_driver=False),
            InterventionConfig(name="relabelled"),
        ]
        keys = {campaign_digest(SMALL_SPEC, v) for v in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_horizon_and_ml_token_change_the_key(self):
        base = campaign_digest(SMALL_SPEC, CFG, max_steps=300)
        assert campaign_digest(SMALL_SPEC, CFG, max_steps=301) != base
        assert campaign_digest(SMALL_SPEC, CFG) != base
        assert campaign_digest(SMALL_SPEC, CFG, ml_token="a", max_steps=300) != base
        assert (
            campaign_digest(SMALL_SPEC, CFG, ml_token="a")
            != campaign_digest(SMALL_SPEC, CFG, ml_token="b")
        )


def _module_level_factory():  # pragma: no cover - only fingerprinted
    raise AssertionError("never called")


class TestFactoryToken:
    def test_none_factory(self):
        assert factory_token(None) is None

    def test_explicit_digest_token_wins(self):
        class Tokened:
            digest_token = "weights:abc"

        assert factory_token(Tokened()) == "weights:abc"

    def test_module_level_callable_uses_qualname(self):
        token = factory_token(_module_level_factory)
        assert token == "callable:test_cache._module_level_factory"

    def test_lambda_and_closure_are_unfingerprintable(self):
        assert factory_token(lambda: None) is None

        def local():
            pass

        assert factory_token(local) is None

    def test_stateful_instance_without_token_is_unfingerprintable(self):
        """Two instances of one class can carry different weights; their
        shared class name must not become a shared cache key."""

        class WeightsCarrier:
            def __init__(self, weights):
                self.weights = weights

            def __call__(self):
                return None

        assert factory_token(WeightsCarrier("A")) is None

    def test_plain_class_is_fingerprinted_by_name(self):
        assert factory_token(_StubController) == (
            "callable:test_cache._StubController"
        )


class TestCampaignCacheStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        results = [EpisodeResult(seed=1), EpisodeResult(seed=2)]
        key = "ab" * 32
        cache.put(key, results)
        assert key in cache
        assert cache.get(key) == results
        assert cache.keys() == [key]
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        assert cache.get("cd" * 32) is None
        assert ("cd" * 32) not in cache

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="hex"):
            cache.path("../escape")
        with pytest.raises(ValueError, match="hex"):
            cache.path("")

    def test_truncated_entry_is_discarded_as_miss(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        key = "ef" * 32
        cache.put(key, [EpisodeResult(seed=1), EpisodeResult(seed=2)])
        path = cache.path(key)
        with open(path, "r+") as handle:
            text = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(text[:-20])
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_complete_hit_needs_every_record_under_the_label(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        key = campaign_digest(SMALL_SPEC, CFG)
        records = [EpisodeResult(intervention="none") for _ in range(4)]
        cache.put(key, records)
        assert complete_hit(cache, key, 4, "none") == records
        assert complete_hit(cache, key, 5, "none") is None  # short entry
        assert complete_hit(cache, key, 4, "driver") is None  # another arm
        assert complete_hit(cache, "ab" * 32, 4, "none") is None  # miss

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cache.put("aa" * 32, [EpisodeResult()])
        assert all(not n.endswith(".tmp") for n in sorted(os.listdir(cache.root)))


class TestRunCampaignCaching:
    def test_second_invocation_executes_zero_episodes(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        first = CountingExecutor()
        a = run_campaign(
            SMALL_SPEC, CFG, executor=first, cache=cache, max_steps=MAX_STEPS
        )
        assert first.executed == len(a.results) == 4
        b = run_campaign(
            SMALL_SPEC, CFG, executor=RefusingExecutor(), cache=cache,
            max_steps=MAX_STEPS,
        )
        assert b.results == a.results
        assert b.intervention == a.intervention

    def test_hit_reports_full_progress_and_fills_resume_file(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(SMALL_SPEC, CFG, cache=cache, max_steps=MAX_STEPS)
        calls = []
        resume = tmp_path / "resume.jsonl"
        run_campaign(
            SMALL_SPEC,
            CFG,
            executor=RefusingExecutor(),
            cache=cache,
            resume_path=resume,
            progress=lambda d, t: calls.append((d, t)),
            max_steps=MAX_STEPS,
        )
        assert calls == [(4, 4)]
        assert len(resume.read_text().splitlines()) == 4

    def test_any_input_change_invalidates(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(SMALL_SPEC, CFG, cache=cache, max_steps=MAX_STEPS)
        backend = CountingExecutor()
        run_campaign(SMALL_SPEC, CFG, executor=backend, cache=cache,
                     max_steps=MAX_STEPS + 1)
        assert backend.executed == 4  # another horizon -> miss
        backend2 = CountingExecutor()
        run_campaign(SMALL_SPEC, InterventionConfig(driver=True),
                     executor=backend2, cache=cache, max_steps=MAX_STEPS)
        assert backend2.executed == 4  # different interventions -> miss
        assert len(cache) == 3

    def test_repro_cache_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        run_campaign(SMALL_SPEC, CFG, max_steps=MAX_STEPS)
        result = run_campaign(
            SMALL_SPEC, CFG, executor=RefusingExecutor(), max_steps=MAX_STEPS
        )
        assert len(result.results) == 4

    def test_cache_false_disables_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        run_campaign(SMALL_SPEC, CFG, max_steps=MAX_STEPS)
        backend = CountingExecutor()
        run_campaign(
            SMALL_SPEC, CFG, executor=backend, cache=False, max_steps=MAX_STEPS
        )
        assert backend.executed == 4

    def test_cache_true_means_environment_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        run_campaign(SMALL_SPEC, CFG, cache=True, max_steps=MAX_STEPS)
        result = run_campaign(
            SMALL_SPEC, CFG, executor=RefusingExecutor(), cache=True,
            max_steps=MAX_STEPS,
        )
        assert len(result.results) == 4
        # With no environment cache configured, True degrades to uncached.
        monkeypatch.delenv("REPRO_CACHE_DIR")
        backend = CountingExecutor()
        run_campaign(SMALL_SPEC, CFG, executor=backend, cache=True,
                     max_steps=MAX_STEPS)
        assert backend.executed == 4

    def test_hit_refuses_to_overwrite_foreign_resume_file(self, tmp_path):
        """A cache hit must not clobber a resume file from a different
        campaign: the resume validation runs before the hit is served."""
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(SMALL_SPEC, CFG, cache=cache, max_steps=MAX_STEPS)
        foreign = tmp_path / "other-campaign.jsonl"
        save_results([EpisodeResult(seed=1, intervention="driver")], foreign)
        stamp = foreign.read_bytes()
        with pytest.raises(ValueError, match="refusing to resume"):
            run_campaign(
                SMALL_SPEC, CFG, executor=RefusingExecutor(), cache=cache,
                resume_path=foreign, max_steps=MAX_STEPS,
            )
        assert foreign.read_bytes() == stamp  # untouched

    def test_default_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert default_cache() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = default_cache()
        assert isinstance(cache, CampaignCache)
        assert os.path.isdir(cache.root)


class _StubController:
    """Minimal MlController: mirrors the ADAS command (deterministic)."""

    def reset(self):
        pass

    def step(self, features, y_op, dt):
        return y_op, False


class _StubFactory:
    """Picklable ML factory with a stable digest token."""

    digest_token = "stub:v1"

    def __call__(self):
        return _StubController()


class _RefusingFactory:
    """Same digest token, but building a controller means the cache missed."""

    digest_token = "stub:v1"

    def __call__(self):
        raise AssertionError("cached ML campaign must not rebuild controllers")


ML_EPISODES = enumerate_campaign(SMALL_SPEC)[:2]


class TestCachedMlCampaign:
    def test_cached_ml_campaign_returns_without_retraining(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        ml_cfg = InterventionConfig(ml=True, name="ml")
        first = run_campaign(
            ML_EPISODES, ml_cfg, ml_factory=_StubFactory(), cache=cache,
            max_steps=MAX_STEPS,
        )
        # Second invocation: neither the factory nor the executor may run —
        # the stand-ins for "no retraining, no simulation".
        second = run_campaign(
            ML_EPISODES,
            ml_cfg,
            ml_factory=_RefusingFactory(),
            executor=RefusingExecutor(),
            cache=cache,
            max_steps=MAX_STEPS,
        )
        assert second.results == first.results

    def test_unfingerprintable_ml_factory_skips_cache(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        ml_cfg = InterventionConfig(ml=True, name="ml")
        build = lambda: _StubController()  # noqa: E731 - the point of the test
        run_campaign(
            ML_EPISODES, ml_cfg, ml_factory=build, cache=cache, max_steps=MAX_STEPS
        )
        assert len(cache) == 0  # nothing stored under an unstable key
        backend = CountingExecutor()
        run_campaign(
            ML_EPISODES, ml_cfg, ml_factory=build, executor=backend, cache=cache,
            max_steps=MAX_STEPS,
        )
        assert backend.executed == len(ML_EPISODES)


class TestReportPipelineCache:
    """The report generator consults the cache for every arm — including
    the ML row, whose cache key (the trainer config) is computable before
    any weights are loaded, so a warm cache skips training entirely."""

    def test_fully_cached_report_executes_zero_campaign_episodes(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.report import TABLE6_CONFIGS, ReportConfig, generate_report
        from repro.ml import TrainerConfig
        from repro.sim.weather import FRICTION_CONDITIONS as CONDITIONS

        config = ReportConfig(
            repetitions=1, seed=5, include_ml=True, reaction_times=(2.5,),
            cache_dir=str(tmp_path / "cache"),
        )
        cache = config.cache()

        def fake_results(spec, label):
            return [
                EpisodeResult(
                    scenario_id=e.scenario_id,
                    initial_gap=e.initial_gap,
                    fault_type=e.fault_type.value,
                    seed=e.seed,
                    intervention=label,
                )
                for e in enumerate_campaign(spec)
            ]

        def seed_entry(spec, cfg, ml_token=None):
            cache.put(
                campaign_digest(spec, cfg, ml_token=ml_token),
                fake_results(spec, cfg.label()),
            )

        benign_spec = CampaignSpec(
            fault_types=[FaultType.NONE], repetitions=1, seed=5
        )
        seed_entry(benign_spec, InterventionConfig())
        attack_spec = CampaignSpec(repetitions=1, seed=5)
        for cfg in TABLE6_CONFIGS:
            seed_entry(attack_spec, cfg)
        ml_cfg = InterventionConfig(ml=True, name="ml")
        seed_entry(attack_spec, ml_cfg, ml_token=f"trainer:{TrainerConfig()!r}")
        seed_entry(
            attack_spec, InterventionConfig(driver=True, driver_reaction_time=2.5)
        )
        cfg8 = InterventionConfig(
            driver=True, safety_check=True, aeb=AebsConfig.COMPROMISED
        )
        for condition in CONDITIONS.values():
            seed_entry(
                CampaignSpec(
                    fault_types=[
                        FaultType.RELATIVE_DISTANCE,
                        FaultType.DESIRED_CURVATURE,
                    ],
                    repetitions=1,
                    seed=5,
                    friction=condition,
                ),
                cfg8,
            )

        # Every campaign arm must be served from cache: building an
        # episode's platform (which only happens when an executor runs an
        # episode) or training the ML baseline fails the test.  Fig. 5/6
        # traces build their platform directly and are unaffected.
        import repro.core.executor as executor
        import repro.ml as ml

        def boom(*args, **kwargs):
            raise AssertionError("cache miss: campaign execution attempted")

        monkeypatch.setattr(executor, "_build_platform", boom)
        monkeypatch.setattr(ml, "load_or_train_cached", boom)

        text = generate_report(config)
        for marker in ("Table IV", "Table VI", "Table VII", "Table VIII", "ml"):
            assert marker in text, marker

    def test_ml_arm_probe_refuses_another_arms_records(
        self, tmp_path, monkeypatch
    ):
        """The ML arm's pre-training probe applies the one hit rule: a
        full-length entry labelled ``none`` under the ``table6:ml`` digest
        is a miss, so the report goes on to load the baseline instead of
        serving the ``none`` arm's records as the ML row."""
        from repro.analysis.incremental import IncrementalReportEngine, ReportError
        from repro.analysis.report import ReportConfig
        import repro.ml as ml

        config = ReportConfig(
            repetitions=1, seed=5, include_ml=True, reaction_times=(2.5,),
            cache_dir=str(tmp_path / "cache"),
        )
        engine = IncrementalReportEngine(config)
        (arm,) = [
            a for art in engine.artifacts for a in art.arms if a.name == "table6:ml"
        ]
        episodes = enumerate_campaign(arm.campaign)
        config.cache().put(
            campaign_digest(arm.campaign, arm.interventions, ml_token=arm.ml_token),
            [
                EpisodeResult(
                    scenario_id=e.scenario_id, initial_gap=e.initial_gap,
                    fault_type=e.fault_type.value, seed=e.seed,
                    intervention="none",
                )
                for e in episodes
            ],
        )
        assert len(episodes) == 36

        def no_training(*args, **kwargs):
            raise RuntimeError("probe missed: baseline requested")

        monkeypatch.setattr(ml, "load_or_train_cached", no_training)
        with pytest.raises(ReportError, match="baseline requested"):
            engine._arm_result(arm)


def _tiny_baseline():
    """An untrained (but deterministic) TrainedBaseline — small and fast."""
    from repro.ml.dataset import FEATURE_NAMES
    from repro.ml.lstm import LstmNetwork
    from repro.ml.trainer import TrainedBaseline

    network = LstmNetwork(
        input_size=len(FEATURE_NAMES), hidden_sizes=(8, 4), output_size=2, seed=3
    )
    n = len(FEATURE_NAMES)
    return TrainedBaseline(
        network=network,
        feature_mean=np.zeros(n),
        feature_std=np.ones(n),
        target_mean=np.zeros(2),
        target_std=np.ones(2),
        final_loss=0.0,
    )


class TestMitigationFactory:
    """Regression: the report's ML arm used a lambda factory, which forced
    the parallel executor's in-process fallback; MitigationFactory pickles
    and dispatches to worker processes like every other arm."""

    def test_factory_is_picklable_with_weights(self):
        import pickle

        from repro.ml import MitigationFactory

        factory = MitigationFactory(_tiny_baseline())
        clone = pickle.loads(pickle.dumps(factory))
        controller = clone()
        assert controller.baseline.network.hidden_sizes == (8, 4)
        assert clone.digest_token == factory.digest_token

    def test_digest_token_tracks_weights_and_params(self):
        from repro.ml import MitigationFactory, MitigationParams

        base = MitigationFactory(_tiny_baseline())
        retrained = _tiny_baseline()
        retrained.network.w_out = retrained.network.w_out + 1.0
        assert MitigationFactory(retrained).digest_token != base.digest_token
        reparam = MitigationFactory(_tiny_baseline(), MitigationParams(tau=9.0))
        assert reparam.digest_token != base.digest_token
        explicit = MitigationFactory(_tiny_baseline(), digest_token="trainer:x")
        assert explicit.digest_token == "trainer:x"

    def test_ml_campaign_parallelises_end_to_end(self):
        from repro.ml import MitigationFactory

        factory = MitigationFactory(_tiny_baseline())
        ml_cfg = InterventionConfig(ml=True, name="ml")
        serial = run_campaign(
            ML_EPISODES, ml_cfg, ml_factory=factory,
            executor=SerialExecutor(), cache=False, max_steps=MAX_STEPS,
        )
        with warnings.catch_warnings():
            # the old lambda path warned "not picklable" here and fell back
            warnings.simplefilter("error", RuntimeWarning)
            parallel = run_campaign(
                ML_EPISODES, ml_cfg, ml_factory=factory,
                executor=ParallelExecutor(jobs=2, chunk_size=1), cache=False,
                max_steps=MAX_STEPS,
            )
        assert parallel.results == serial.results
