"""Tests for the incremental report engine and the report artifact DAG.

Campaign arms are seeded with *fake* (but correctly-identified) episode
records straight into the digest-keyed cache, so the DAG logic — staleness
resolution, placeholder emission, manifest reuse, failure isolation — is
exercised without running a single simulation.  The Fig. 5/6 tracers are
stubbed for the same reason.
"""

import json
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.report as report_mod
from repro.analysis.incremental import (
    MANIFEST_FORMAT,
    IncrementalReportEngine,
    ReportError,
    load_manifest,
    manifest_path_for,
    save_manifest,
    status_document,
)
from repro.analysis.report import ReportConfig, generate_report
from repro.attacks.campaign import as_episode_list
from repro.core.cache import (
    campaign_digest,
    resume_file_for,
    write_digest_sidecar,
)
from repro.core.metrics import EpisodeResult, save_results


def fake_results(campaign, label):
    """Correctly-identified (digest/label-matching) fake episode records."""
    return [
        EpisodeResult(
            scenario_id=e.scenario_id,
            initial_gap=e.initial_gap,
            fault_type=e.fault_type.value,
            seed=e.seed,
            intervention=label,
        )
        for e in as_episode_list(campaign)
    ]


def _fake_fig5(seed=2025, **kwargs):
    return {"S1": SimpleNamespace(trace=SimpleNamespace(ego_speed=[21.7, 9.6]))}


def _fake_fig6(seed=2025, **kwargs):
    return SimpleNamespace(result=EpisodeResult())


@pytest.fixture
def mocked_figs(monkeypatch):
    """Stub the figure tracers (they run real episodes otherwise)."""
    monkeypatch.setattr(report_mod, "fig5_series", _fake_fig5)
    monkeypatch.setattr(report_mod, "fig6_series", _fake_fig6)


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def small_config(tmp, **kwargs):
    kwargs.setdefault("cache_dir", os.path.join(str(tmp), "cache"))
    kwargs.setdefault("repetitions", 1)
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("reaction_times", (2.5,))
    return ReportConfig(**kwargs)


def engine_arms(engine):
    """Unique campaign arms of an engine's DAG, keyed by name."""
    arms = {}
    for artifact in engine.artifacts:
        for arm in artifact.arms:
            arms[arm.name] = arm
    return arms


def seed_arm(cache, arm):
    cache.put(
        campaign_digest(arm.campaign, arm.interventions, ml_token=arm.ml_token),
        fake_results(arm.campaign, arm.interventions.label()),
    )


class TestManifest:
    def test_manifest_path_for(self):
        assert manifest_path_for("report.md") == "report.manifest.json"
        assert manifest_path_for("out/rep.markdown") == "out/rep.manifest.json"
        assert manifest_path_for("report") == "report.manifest.json"

    def test_load_missing_and_none(self, tmp_path):
        assert load_manifest(None) == {}
        assert load_manifest(tmp_path / "absent.json") == {}

    def test_load_corrupt_and_wrong_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        assert load_manifest(path) == {}
        path.write_text(json.dumps({"format": MANIFEST_FORMAT + 1, "artifacts": {}}))
        assert load_manifest(path) == {}
        path.write_text(json.dumps({"format": MANIFEST_FORMAT, "artifacts": []}))
        assert load_manifest(path) == {}

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        entries = {"table4": {"inputs": ["ab" * 32], "body": "x"}}
        save_manifest(path, entries)
        assert load_manifest(path) == entries
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestIncrementalRun:
    def test_empty_cache_renders_only_figures(self, tmp_path, mocked_figs):
        engine = IncrementalReportEngine(small_config(tmp_path))
        outcome = engine.run(incremental=True)
        assert set(outcome.rendered_ids) == {"fig5", "fig6"}
        assert set(outcome.pending_ids) == {
            "table4", "table5", "table6", "table7", "table8",
        }
        assert not outcome.complete
        # Placeholders carry per-arm episode counts for the missing work.
        assert "— pending" in outcome.text
        fault_free_lines = [
            line for line in outcome.text.splitlines() if "fault-free" in line
        ]
        assert fault_free_lines, outcome.text
        for line in fault_free_lines:
            assert "missing" in line and "0/12 episodes" in line

    def test_partial_cache_renders_complete_artifacts_only(
        self, tmp_path, mocked_figs, monkeypatch
    ):
        config = small_config(tmp_path)
        engine = IncrementalReportEngine(config)
        seed_arm(config.cache(), engine_arms(engine)["fault-free"])

        # Nothing may execute: every rendered artifact is cache-served.
        import repro.core.executor as executor

        def boom(*args, **kwargs):
            raise AssertionError("incremental render executed episodes")

        monkeypatch.setattr(executor, "_build_platform", boom)
        outcome = engine.run(incremental=True)
        assert set(outcome.rendered_ids) == {"table4", "table5", "fig5", "fig6"}
        assert set(outcome.pending_ids) == {"table6", "table7", "table8"}
        assert "Table IV: Driving performance without attacks" in outcome.text

    def test_resumable_partial_status(self, tmp_path):
        config = small_config(
            tmp_path, resume_dir=os.path.join(str(tmp_path), "resume")
        )
        engine = IncrementalReportEngine(config)
        arm = engine_arms(engine)["fault-free"]
        digest = campaign_digest(arm.campaign, arm.interventions)
        path = resume_file_for(config.resume_dir, digest)
        save_results(fake_results(arm.campaign, "none")[:5], path)
        write_digest_sidecar(path, digest)
        status = engine.arm_status(arm)
        assert status.state == "resumable-partial"
        assert (status.done, status.total) == (5, 12)
        assert not status.complete

    def test_corrupt_cache_entry_falls_back_to_pending(
        self, tmp_path, mocked_figs, monkeypatch
    ):
        """A cache entry whose line count looks complete but whose records
        are garbage must become a pending placeholder — an incremental run
        must never fall through into executing the grid."""
        config = small_config(tmp_path)
        engine = IncrementalReportEngine(config)
        arm = engine_arms(engine)["fault-free"]
        digest = campaign_digest(arm.campaign, arm.interventions)
        cache = config.cache()
        entry = cache.path(digest)
        with open(entry, "w") as handle:
            handle.write('{"not": "an episode"}\n' * 12)  # plausible count
        assert engine.arm_status(arm).state == "cached"  # cheap probe fooled

        import repro.core.executor as executor

        def boom(*args, **kwargs):
            raise AssertionError("incremental render executed episodes")

        monkeypatch.setattr(executor, "_build_platform", boom)
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            outcome = engine.run(incremental=True)
        assert "table4" in outcome.pending_ids
        assert "table5" in outcome.pending_ids
        assert outcome.failed_ids == []
        assert not os.path.exists(entry)  # authoritative load discarded it

    def test_status_probe_creates_no_directories(self, tmp_path):
        """`report-status` is documented as executing nothing — that
        includes not materialising the resume/cache directories."""
        config = ReportConfig(
            repetitions=1,
            seed=5,
            reaction_times=(2.5,),
            cache_dir=os.path.join(str(tmp_path), "cache"),
            resume_dir=os.path.join(str(tmp_path), "resume"),
        )
        engine = IncrementalReportEngine(config)
        engine.status()
        assert not os.path.exists(config.resume_dir)
        assert not os.path.exists(config.cache_dir)

    def test_colliding_arm_names_are_rejected(self, tmp_path):
        """Two sweep points formatting to the same arm label would
        silently alias every name-keyed memo; the engine refuses the DAG
        instead."""
        config = small_config(
            tmp_path, reaction_times=(1.0000001, 1.0000002)
        )  # both format as rt=1 under %g
        with pytest.raises(ValueError, match="must be unique"):
            IncrementalReportEngine(config)

    def test_shared_arm_across_artifacts_is_not_a_collision(self, tmp_path):
        """Tables IV and V legitimately share the identical fault-free
        arm; only *different* arms under one name are rejected."""
        engine = IncrementalReportEngine(small_config(tmp_path))
        names = [a.name for art in engine.artifacts for a in art.arms]
        assert names.count("fault-free") == 2  # the DAG aspect, intact

    def test_foreign_sidecar_contributes_nothing(self, tmp_path):
        config = small_config(
            tmp_path, resume_dir=os.path.join(str(tmp_path), "resume")
        )
        engine = IncrementalReportEngine(config)
        arm = engine_arms(engine)["fault-free"]
        digest = campaign_digest(arm.campaign, arm.interventions)
        path = resume_file_for(config.resume_dir, digest)
        save_results(fake_results(arm.campaign, "none"), path)
        write_digest_sidecar(path, "f" * 64)  # written under different inputs
        assert engine.arm_status(arm).state == "missing"

    def test_fully_cached_incremental_matches_blocking_bytes(
        self, tmp_path, mocked_figs
    ):
        config = small_config(tmp_path)
        engine = IncrementalReportEngine(config)
        cache = config.cache()
        for arm in engine_arms(engine).values():
            seed_arm(cache, arm)
        incremental = engine.run(incremental=True)
        assert incremental.complete
        assert incremental.text == generate_report(config)

    def test_manifest_skips_unchanged_artifacts(self, tmp_path, mocked_figs):
        config = small_config(tmp_path)
        manifest = os.path.join(str(tmp_path), "report.manifest.json")
        engine = IncrementalReportEngine(config, manifest_path=manifest)
        cache = config.cache()
        for arm in engine_arms(engine).values():
            seed_arm(cache, arm)
        first = engine.run(incremental=True)
        assert set(first.rendered_ids) == {
            "table4", "table5", "fig5", "fig6", "table6", "table7", "table8",
        }
        second = IncrementalReportEngine(config, manifest_path=manifest).run(
            incremental=True
        )
        assert second.rendered_ids == []
        assert set(second.reused_ids) == set(first.rendered_ids)
        assert second.text == first.text

    def test_changed_inputs_invalidate_manifest(self, tmp_path, mocked_figs):
        manifest = os.path.join(str(tmp_path), "report.manifest.json")
        config = small_config(tmp_path)
        engine = IncrementalReportEngine(config, manifest_path=manifest)
        for arm in engine_arms(engine).values():
            seed_arm(config.cache(), arm)
        engine.run(incremental=True)
        # A different seed changes every digest: nothing may be reused.
        other = small_config(tmp_path, seed=6)
        engine2 = IncrementalReportEngine(other, manifest_path=manifest)
        outcome = engine2.run(incremental=True)
        assert outcome.reused_ids == []
        statuses = {
            s.artifact_id: s
            for s in IncrementalReportEngine(
                small_config(tmp_path, seed=6), manifest_path=manifest
            ).status()
        }
        # fig bodies were re-rendered (and re-recorded) for the new seed
        assert statuses["fig5"].state == "fresh"
        # table arms for seed 6 are not cached: stale manifest, no inputs
        assert statuses["table4"].state == "missing"

    def test_status_document_json_round_trips(self, tmp_path):
        config = small_config(tmp_path)
        engine = IncrementalReportEngine(config)
        seed_arm(config.cache(), engine_arms(engine)["fault-free"])
        doc = status_document(engine.status(), engine.manifest_path)
        assert json.loads(json.dumps(doc)) == doc
        states = {a["id"]: a["state"] for a in doc["artifacts"]}
        assert states["table4"] == "ready"
        assert states["table6"] == "missing"
        arm = doc["artifacts"][0]["arms"][0]
        assert set(arm) == {
            "name", "digest", "state", "episodes_done", "episodes_total",
        }


class TestReportErrorHandling:
    def _poison_fault_free(self, config, engine):
        """A resume file that *looks* complete but fails resume validation
        (its records carry a different intervention label)."""
        arm = engine_arms(engine)["fault-free"]
        digest = campaign_digest(arm.campaign, arm.interventions)
        path = resume_file_for(config.resume_dir, digest)
        save_results(fake_results(arm.campaign, "driver"), path)
        write_digest_sidecar(path, digest)
        return digest

    def test_blocking_failure_raises_report_error_naming_digest(
        self, tmp_path, mocked_figs
    ):
        config = ReportConfig(
            repetitions=1,
            seed=5,
            reaction_times=(2.5,),
            resume_dir=os.path.join(str(tmp_path), "resume"),
        )
        engine = IncrementalReportEngine(config)
        digest = self._poison_fault_free(config, engine)
        with pytest.raises(ReportError) as err:
            generate_report(config)
        assert digest[:16] in str(err.value)
        assert err.value.arm == "fault-free"
        assert err.value.digest == digest
        assert err.value.artifact_id == "table4"

    def test_incremental_failure_isolates_artifact(self, tmp_path, mocked_figs):
        config = small_config(
            tmp_path, resume_dir=os.path.join(str(tmp_path), "resume")
        )
        manifest = os.path.join(str(tmp_path), "report.manifest.json")
        engine = IncrementalReportEngine(config, manifest_path=manifest)
        arms = engine_arms(engine)
        cache = config.cache()
        for name, arm in arms.items():
            if name != "fault-free":
                seed_arm(cache, arm)
        self._poison_fault_free(config, engine)
        outcome = engine.run(incremental=True)
        # The poisoned arm fails both artifacts that consume it — and
        # nothing else: every other artifact still renders.
        assert set(outcome.failed_ids) == {"table4", "table5"}
        assert set(outcome.rendered_ids) == {
            "fig5", "fig6", "table6", "table7", "table8",
        }
        assert "— failed" in outcome.text
        entries = load_manifest(manifest)
        assert "table4" not in entries
        assert "table6" in entries


# One engine build just to enumerate the DAG's arm names for sampling.
_ALL_ARM_NAMES = sorted(
    engine_arms(
        IncrementalReportEngine(
            ReportConfig(repetitions=1, seed=5, reaction_times=(2.5,))
        )
    )
)


class TestArtifactDagProperties:
    @settings(max_examples=10, deadline=None)
    @given(chosen=st.sets(st.sampled_from(_ALL_ARM_NAMES)))
    def test_renders_exactly_the_fully_cached_artifacts(self, chosen):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            report_mod, "fig5_series", _fake_fig5
        ), mock.patch.object(report_mod, "fig6_series", _fake_fig6):
            config = small_config(tmp)
            manifest = os.path.join(tmp, "report.manifest.json")
            engine = IncrementalReportEngine(config, manifest_path=manifest)
            arms = engine_arms(engine)
            cache = config.cache()
            for name in chosen:
                seed_arm(cache, arms[name])
            outcome = engine.run(incremental=True)
            # Exactly the artifacts whose *full* digest set is cached
            # render; zero-arm artifacts (the figures) always can.
            expected = {
                a.artifact_id
                for a in engine.artifacts
                if all(arm.name in chosen for arm in a.arms)
            }
            everything = {a.artifact_id for a in engine.artifacts}
            assert set(outcome.rendered_ids) == expected
            assert set(outcome.pending_ids) == everything - expected
            # A second run against the manifest re-renders none of them.
            again = IncrementalReportEngine(config, manifest_path=manifest).run(
                incremental=True
            )
            assert again.rendered_ids == []
            assert set(again.reused_ids) == expected
            assert set(again.pending_ids) == everything - expected
            assert again.text == outcome.text


class TestCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_report_incremental_cli(self, tmp_path, mocked_figs, capsys):
        out = tmp_path / "report.md"
        rc = self.run_cli(
            [
                "report", "--incremental", "--reps", "1", "--seed", "5",
                "--reaction-times", "2.5",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "— pending" in text
        assert (tmp_path / "report.manifest.json").exists()
        assert "awaiting:" in capsys.readouterr().out

    def test_report_status_json_round_trips(self, tmp_path, capsys):
        config = small_config(tmp_path)
        engine = IncrementalReportEngine(config)
        seed_arm(config.cache(), engine_arms(engine)["fault-free"])
        rc = self.run_cli(
            [
                "report-status", "--reps", "1", "--seed", "5",
                "--reaction-times", "2.5",
                "--cache-dir", config.cache_dir,
                "--output", str(tmp_path / "report.md"),
                "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        states = {a["id"]: a["state"] for a in doc["artifacts"]}
        assert states["table4"] == "ready"
        assert states["table5"] == "ready"
        assert states["table6"] == "missing"
        assert states["fig5"] == "ready"

    def test_report_status_human_readable(self, tmp_path, capsys):
        config = small_config(tmp_path)
        engine = IncrementalReportEngine(config)
        seed_arm(config.cache(), engine_arms(engine)["fault-free"])
        rc = self.run_cli(
            [
                "report-status", "--reps", "1", "--seed", "5",
                "--reaction-times", "2.5",
                "--cache-dir", config.cache_dir,
                "--output", str(tmp_path / "report.md"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "table4" in out and "ready" in out
        assert "cached" in out and "12/12 episodes" in out
        assert "missing" in out

    def test_reaction_times_flag_rejects_garbage(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--reaction-times", "abc"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--reaction-times", ","])
