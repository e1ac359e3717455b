"""Cache store tests.

Covers the canonical-form round trips the worker spec files rely on,
the on-disk layout of the one cache class (``<digest>.jsonl`` entries
in a directory, byte-compatible with every historical cache), the
environment fail-fast behaviour of ``default_cache`` and the ``repro
cache`` maintenance helpers (inventory / verify / gc).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.attacks.campaign import CampaignSpec
from repro.attacks.fi import FaultType
from repro.core.cache import (
    CampaignCache,
    cache_entries,
    campaign_digest,
    default_cache,
    episode_from_canonical,
    canonical_episode,
    canonical_interventions,
    gc_cache,
    interventions_from_canonical,
    verify_cache,
)
from repro.core.experiment import run_campaign
from repro.core.metrics import save_results
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from repro.sim.weather import FRICTION_CONDITIONS
from tests.conftest import episode

SPEC = CampaignSpec(
    fault_types=[FaultType.NONE],
    scenario_ids=("S1",),
    initial_gaps=(60.0,),
    repetitions=2,
    seed=3,
)
CFG = InterventionConfig()

KEY_A = "a" * 64
KEY_B = "b" * 64


@pytest.fixture(scope="module")
def results():
    return run_campaign(SPEC, CFG, cache=False, max_steps=200).results


class TestCanonicalRoundTrip:
    def test_episode_round_trip(self):
        spec = episode(fault=FaultType.MIXED, seed=99)
        assert episode_from_canonical(canonical_episode(spec)) == spec

    def test_episode_round_trip_with_friction_and_params(self):
        spec = episode()
        spec = type(spec)(
            scenario_id="friction-sweep",
            initial_gap=80.0,
            fault_type=FaultType.RELATIVE_DISTANCE,
            repetition=2,
            seed=17,
            friction=FRICTION_CONDITIONS["50% off"],
            params=(("mu", 0.55), ("lead_mph", 50.0)),
        )
        rebuilt = episode_from_canonical(canonical_episode(spec))
        assert rebuilt == spec
        assert rebuilt.params == (("mu", 0.55), ("lead_mph", 50.0))

    def test_interventions_round_trip(self):
        cfg = InterventionConfig(
            driver=True,
            safety_check=True,
            aeb=AebsConfig.INDEPENDENT,
            driver_reaction_time=1.5,
            aeb_overrides_driver=False,
            name="custom",
        )
        assert interventions_from_canonical(canonical_interventions(cfg)) == cfg

    def test_missing_key_is_a_clear_error(self):
        with pytest.raises(ValueError, match="missing key"):
            episode_from_canonical({"scenario_id": "S1"})


class TestDirectoryBackend:
    def test_layout_unchanged(self, tmp_path, results):
        # The on-disk exchange format: <digest>.jsonl, loadable by every
        # JSONL consumer.
        cache = CampaignCache(str(tmp_path))
        key = campaign_digest(SPEC, CFG, max_steps=200)
        path = cache.put(key, results)
        assert path == os.path.join(str(tmp_path), f"{key}.jsonl")
        assert cache.get(key) == results
        assert cache.entry_count(key) == len(results)
        assert cache.keys() == [key]

    def test_missing_directory_reads_as_empty(self, tmp_path):
        cache = CampaignCache(str(tmp_path / "never"), create=False)
        assert cache.keys() == []
        assert len(cache) == 0
        assert KEY_A not in cache


class TestDefaultCacheEnvironment:
    def test_unset_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache() is None

    def test_value_names_a_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache = default_cache()
        assert isinstance(cache, CampaignCache)

    def test_file_value_fails_fast_naming_the_variable(
        self, tmp_path, monkeypatch
    ):
        bogus = tmp_path / "a-file"
        bogus.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(bogus))
        with pytest.raises(ValueError, match="REPRO_CACHE_DIR") as excinfo:
            default_cache()
        assert str(bogus) in str(excinfo.value)

    def test_nested_under_file_fails_fast(self, tmp_path, monkeypatch):
        bogus = tmp_path / "a-file"
        bogus.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(bogus / "sub"))
        with pytest.raises(ValueError, match="REPRO_CACHE_DIR"):
            default_cache()


class TestMaintenance:
    def seeded(self, tmp_path, results):
        cache = CampaignCache(str(tmp_path))
        cache.put(KEY_A, results)
        cache.put(KEY_B, results)
        return cache

    def test_inventory_reports_counts_sizes_ages(self, tmp_path, results):
        cache = self.seeded(tmp_path, results)
        entries = cache_entries(cache, now=time.time() + 10)
        assert [e.key for e in entries] == [KEY_A, KEY_B]
        for entry in entries:
            assert entry.episodes == len(results)
            assert entry.size_bytes == os.path.getsize(entry.path)
            assert entry.age_seconds >= 10

    def test_verify_reports_corruption_without_deleting(
        self, tmp_path, results
    ):
        cache = self.seeded(tmp_path, results)
        with open(cache.path(KEY_A), "a") as handle:
            handle.write('{"truncated":')
        report = verify_cache(cache)
        assert report[KEY_B] is None
        assert report[KEY_A] is not None
        # Read-only: the corrupt entry is still there for inspection.
        assert os.path.exists(cache.path(KEY_A))

    def test_verify_flags_mixed_labels(self, tmp_path, results):
        cache = CampaignCache(str(tmp_path))
        other = run_campaign(
            SPEC, InterventionConfig(driver=True), cache=False, max_steps=200
        ).results
        save_results(results + other, cache.path(KEY_A))
        report = verify_cache(cache)
        assert "mixed intervention labels" in report[KEY_A]

    def test_gc_removes_only_old_entries(self, tmp_path, results):
        cache = self.seeded(tmp_path, results)
        old = time.time() - 10 * 86400
        os.utime(cache.path(KEY_A), (old, old))
        removed, reclaimed = gc_cache(cache, keep_days=7)
        assert removed == [KEY_A]
        assert reclaimed > 0
        assert not os.path.exists(cache.path(KEY_A))
        assert os.path.exists(cache.path(KEY_B))

    def test_gc_sweeps_orphaned_temp_files(self, tmp_path, results):
        cache = self.seeded(tmp_path, results)
        orphan = os.path.join(cache.root, f".{KEY_A[:16]}-dead.tmp")
        with open(orphan, "w") as handle:
            handle.write("half-written")
        old = time.time() - 86400
        os.utime(orphan, (old, old))
        removed, reclaimed = gc_cache(cache, keep_days=0.5)
        assert removed == []  # entries are fresh
        assert reclaimed > 0
        assert not os.path.exists(orphan)

    def test_gc_rejects_negative_keep_days(self, tmp_path, results):
        cache = self.seeded(tmp_path, results)
        with pytest.raises(ValueError, match="keep_days"):
            gc_cache(cache, keep_days=-1)
