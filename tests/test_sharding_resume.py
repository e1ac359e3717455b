"""Determinism tests for campaign sharding and resume.

Property-style coverage of the two invariants the distribution layer rests
on: (1) for any grid size and any shard count, the union of the shard
slices is exactly the unsharded enumeration — and end-to-end, merged shard
JSONL files are byte-identical to the unsharded campaign file; (2) resume
from *any* truncation point of a campaign JSONL, including a write cut
mid-line, reproduces the full result bit for bit while executing only the
missing episodes.
"""

import random

import pytest

from repro.attacks.campaign import (
    CampaignSpec,
    ShardSpec,
    enumerate_campaign,
)
from repro.attacks.fi import FaultType
from repro.core.executor import SerialExecutor
from repro.core.experiment import merge_shards, run_campaign
from repro.core.metrics import (
    EpisodeResult,
    count_records,
    load_results,
    save_results,
)
from repro.safety.arbitration import InterventionConfig

#: 4-episode campaign shared by the simulation-backed tests below.
SMALL_SPEC = CampaignSpec(
    fault_types=[FaultType.NONE],
    scenario_ids=("S1", "S4"),
    initial_gaps=(60.0,),
    repetitions=2,
    seed=11,
)
CFG = InterventionConfig()
MAX_STEPS = 300

#: 10-episode campaign (2 scenarios x 5 reps) for the streaming tests.
TEN_SPEC = CampaignSpec(
    fault_types=[FaultType.NONE],
    scenario_ids=("S1", "S4"),
    initial_gaps=(60.0,),
    repetitions=5,
    seed=11,
)


class CountingExecutor(SerialExecutor):
    """Serial backend that records how many episodes actually execute."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def run(self, tasks, on_result=None):
        self.executed += len(tasks)
        return super().run(tasks, on_result)


class TestShardSpec:
    def test_parse_valid(self):
        assert ShardSpec.parse("1/1") == ShardSpec(1, 1)
        assert ShardSpec.parse("2/4") == ShardSpec(2, 4)
        assert ShardSpec.parse("4/4") == ShardSpec(4, 4)
        assert str(ShardSpec.parse("3/7")) == "3/7"

    @pytest.mark.parametrize(
        "text",
        ["0/2", "3/2", "-1/2", "1/0", "1/-1", "a/b", "1", "1/2/3", "", "2/"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="1-based"):
            ShardSpec(0, 2)
        with pytest.raises(ValueError, match="1-based"):
            ShardSpec(5, 4)
        with pytest.raises(ValueError, match="count"):
            ShardSpec(1, 0)

    def test_partition_properties_random_sizes(self):
        """For random totals and any N: shards are a contiguous, ordered,
        balanced partition — the property every multi-machine run relies on."""
        rng = random.Random(0)
        cases = [(rng.randrange(0, 60), rng.randrange(1, 12)) for _ in range(200)]
        cases += [(0, 1), (0, 5), (1, 5), (5, 5), (7, 3)]
        for total, count in cases:
            items = list(range(total))
            shards = [ShardSpec(i, count).slice(items) for i in range(1, count + 1)]
            # union in index order == the original list (completeness,
            # contiguity and order in one assertion)
            assert sum(shards, []) == items, (total, count)
            # balance: sizes differ by at most one
            sizes = [len(s) for s in shards]
            assert max(sizes) - min(sizes) <= 1, (total, count)

    def test_enumerate_campaign_shard_is_contiguous_slice(self):
        full = enumerate_campaign(SMALL_SPEC)
        rng = random.Random(1)
        for count in [1, 2, 3, len(full), len(full) + 3, rng.randrange(1, 9)]:
            shards = [
                enumerate_campaign(SMALL_SPEC, shard=ShardSpec(i, count))
                for i in range(1, count + 1)
            ]
            assert sum(shards, []) == full, count


class TestShardedCampaignEquivalence:
    def test_shard_union_bit_identical_to_unsharded(self, tmp_path):
        """The acceptance invariant: shard 1/2 + shard 2/2 + merge produces
        a JSONL byte-identical to the unsharded campaign."""
        full = run_campaign(SMALL_SPEC, CFG, cache=False, max_steps=MAX_STEPS)
        full_path = tmp_path / "full.jsonl"
        full.save(full_path)

        shard_paths = []
        for index in (1, 2):
            episodes = enumerate_campaign(SMALL_SPEC, shard=ShardSpec(index, 2))
            path = tmp_path / f"shard{index}.jsonl"
            run_campaign(episodes, CFG, cache=False, max_steps=MAX_STEPS).save(path)
            shard_paths.append(path)

        merged_path = tmp_path / "merged.jsonl"
        merged = merge_shards(shard_paths, output=merged_path)
        assert merged_path.read_bytes() == full_path.read_bytes()
        assert merged.results == full.results
        assert merged.intervention == full.intervention

    def test_more_shards_than_episodes(self, tmp_path):
        """Tiny campaigns sharded wide produce (valid) empty shards."""
        full = run_campaign(SMALL_SPEC, CFG, cache=False, max_steps=MAX_STEPS)
        count = len(full.results) + 2
        paths = []
        for index in range(1, count + 1):
            episodes = enumerate_campaign(SMALL_SPEC, shard=ShardSpec(index, count))
            path = tmp_path / f"s{index}.jsonl"
            run_campaign(episodes, CFG, cache=False, max_steps=MAX_STEPS).save(path)
            paths.append(path)
        merged = merge_shards(paths)
        assert merged.results == full.results


class TestMergeValidation:
    def _save(self, path, results):
        save_results(results, path)
        return path

    def test_rejects_empty_path_list(self):
        with pytest.raises(ValueError, match="at least one shard"):
            merge_shards([])

    def test_rejects_mixed_interventions(self, tmp_path):
        a = self._save(tmp_path / "a.jsonl", [EpisodeResult(seed=1, intervention="none")])
        b = self._save(tmp_path / "b.jsonl", [EpisodeResult(seed=2, intervention="driver")])
        with pytest.raises(ValueError, match="mixed intervention labels"):
            merge_shards([a, b])

    def test_rejects_overlapping_shards(self, tmp_path):
        record = EpisodeResult(scenario_id="S1", initial_gap=60.0, seed=7)
        a = self._save(tmp_path / "a.jsonl", [record])
        b = self._save(tmp_path / "b.jsonl", [record])
        with pytest.raises(ValueError, match="overlapping shards"):
            merge_shards([a, b])

    def test_rejects_truncated_shard(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        save_results([EpisodeResult(seed=1), EpisodeResult(seed=2)], path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # cut the final line mid-record
        with pytest.raises(ValueError, match="partial or corrupt shard"):
            merge_shards([path])

    def test_empty_files_merge_cleanly(self, tmp_path):
        a = tmp_path / "a.jsonl"
        a.write_text("")
        merged = merge_shards([a])
        assert merged.results == []
        assert merged.intervention == "none"


class TestAppendSafety:
    def test_append_trims_dangling_partial_line(self, tmp_path):
        """Appending after a write died mid-record must not fuse two
        records into one malformed interior line."""
        path = tmp_path / "dangling.jsonl"
        save_results([EpisodeResult(seed=1), EpisodeResult(seed=2)], path)
        text = path.read_text()
        path.write_text(text[:-30])  # kill the final record mid-line
        save_results([EpisodeResult(seed=3)], path, append=True)
        loaded = load_results(path)  # no warning: every line is complete
        assert [r.seed for r in loaded] == [1, 3]

    def test_append_to_clean_file_matches_one_shot_save(self, tmp_path):
        results = [EpisodeResult(seed=s) for s in (1, 2, 3)]
        one_shot, streamed = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_results(results, one_shot)
        save_results(results[:2], streamed)
        save_results(results[2:], streamed, append=True)
        assert streamed.read_bytes() == one_shot.read_bytes()

    def test_append_creates_missing_file(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        save_results([EpisodeResult(seed=4)], path, append=True)
        assert [r.seed for r in load_results(path)] == [4]


class TestResume:
    @pytest.fixture(scope="class")
    def reference(self):
        """The campaign run start-to-finish, once per class."""
        return run_campaign(SMALL_SPEC, CFG, cache=False, max_steps=MAX_STEPS)

    def test_resume_from_every_record_boundary(self, tmp_path, reference):
        total = len(reference.results)
        for keep in range(total + 1):
            path = tmp_path / f"resume{keep}.jsonl"
            save_results(reference.results[:keep], path)
            backend = CountingExecutor()
            resumed = run_campaign(
                SMALL_SPEC,
                CFG,
                executor=backend,
                resume_path=path,
                cache=False,
                max_steps=MAX_STEPS,
            )
            assert resumed.results == reference.results, keep
            assert backend.executed == total - keep, keep
            # the file is rewritten complete
            assert len(path.read_text().splitlines()) == total

    def test_resume_from_mid_line_corruption(self, tmp_path, reference):
        """A write killed mid-record leaves a malformed final line; resume
        must drop it, re-run that episode and still match bit for bit."""
        full_path = tmp_path / "full.jsonl"
        save_results(reference.results, full_path)
        text = full_path.read_text()
        line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"][:-1]
        # cut inside record 2 and inside the final record
        for cut_line in (1, len(line_starts) - 1):
            cut = line_starts[cut_line] + 25
            path = tmp_path / f"cut{cut_line}.jsonl"
            path.write_text(text[:cut])
            backend = CountingExecutor()
            with pytest.warns(RuntimeWarning, match="malformed final record"):
                resumed = run_campaign(
                    SMALL_SPEC,
                    CFG,
                    executor=backend,
                    resume_path=path,
                    cache=False,
                    max_steps=MAX_STEPS,
                )
            assert resumed.results == reference.results
            # only the corrupt record onward re-executes
            assert backend.executed == len(reference.results) - cut_line
            assert path.read_bytes() == full_path.read_bytes()

    def test_fully_complete_file_executes_nothing(self, tmp_path, reference):
        path = tmp_path / "done.jsonl"
        save_results(reference.results, path)
        backend = CountingExecutor()
        resumed = run_campaign(
            SMALL_SPEC,
            CFG,
            executor=backend,
            resume_path=path,
            cache=False,
            max_steps=MAX_STEPS,
        )
        assert backend.executed == 0
        assert resumed.results == reference.results

    def test_missing_file_is_a_fresh_run(self, tmp_path, reference):
        path = tmp_path / "fresh.jsonl"
        resumed = run_campaign(
            SMALL_SPEC, CFG, resume_path=path, cache=False, max_steps=MAX_STEPS
        )
        assert resumed.results == reference.results
        assert path.exists()

    def test_progress_spans_full_campaign_under_resume(self, tmp_path, reference):
        path = tmp_path / "progress.jsonl"
        save_results(reference.results[:2], path)
        calls = []
        run_campaign(
            SMALL_SPEC,
            CFG,
            resume_path=path,
            cache=False,
            progress=lambda done, total: calls.append((done, total)),
            max_steps=MAX_STEPS,
        )
        total = len(reference.results)
        assert calls[0] == (2, total)  # skipped episodes reported up front
        assert calls[-1] == (total, total)
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)

    def test_rejects_mismatched_intervention(self, tmp_path, reference):
        path = tmp_path / "mismatch.jsonl"
        save_results(reference.results[:2], path)
        with pytest.raises(ValueError, match="intervention"):
            run_campaign(
                SMALL_SPEC,
                InterventionConfig(driver=True),
                resume_path=path,
                cache=False,
                max_steps=MAX_STEPS,
            )

    def test_rejects_mismatched_episode_identity(self, tmp_path, reference):
        shuffled = list(reversed(reference.results))
        path = tmp_path / "shuffled.jsonl"
        save_results(shuffled[:2], path)
        with pytest.raises(ValueError, match="mismatched file"):
            run_campaign(
                SMALL_SPEC, CFG, resume_path=path, cache=False, max_steps=MAX_STEPS
            )

    def test_rejects_resume_under_different_platform_conditions(
        self, tmp_path, reference
    ):
        """A file recorded at another max_steps must be refused, not
        absorbed as a complete campaign (the digest sidecar catches what
        per-record identity checks cannot — seeds don't encode conditions)."""
        path = tmp_path / "short.jsonl"
        run_campaign(SMALL_SPEC, CFG, resume_path=path, cache=False, max_steps=50)
        with pytest.raises(ValueError, match="different inputs"):
            run_campaign(
                SMALL_SPEC, CFG, resume_path=path, cache=False, max_steps=MAX_STEPS
            )

    def test_interrupted_run_leaves_resumable_prefix(self, tmp_path):
        """Results reach the resume file as episodes finish, so a crash
        mid-campaign leaves the finished episodes on disk instead of
        nothing — resume then runs only what is missing."""

        class ExplodingExecutor(SerialExecutor):
            """Dies right after handing back its 8th result."""

            def run(self, tasks, on_result=None):
                def deliver(index, result):
                    on_result(index, result)
                    if index == 7:
                        raise RuntimeError("simulated crash")

                return super().run(tasks, deliver)

        # The crash lands after the 8th of 10 episodes, so 2 remain.
        path = tmp_path / "interrupted.jsonl"
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_campaign(
                TEN_SPEC, CFG, executor=ExplodingExecutor(), resume_path=path,
                cache=False, max_steps=50,
            )
        assert len(path.read_text().splitlines()) == 8  # all 8 persisted
        backend = CountingExecutor()
        resumed = run_campaign(
            TEN_SPEC, CFG, executor=backend, resume_path=path, cache=False,
            max_steps=50,
        )
        assert backend.executed == 2
        reference = run_campaign(TEN_SPEC, CFG, cache=False, max_steps=50)
        assert resumed.results == reference.results

    def test_progress_never_runs_ahead_of_the_file(self, tmp_path):
        """Each episode is on disk before its progress report, so a crash
        after ``(done, total)`` leaves ``done`` episodes to resume from."""
        path = tmp_path / "in-step.jsonl"
        seen = []
        run_campaign(
            TEN_SPEC,
            CFG,
            executor=SerialExecutor(),
            resume_path=path,
            cache=False,
            progress=lambda done, total: seen.append((done, count_records(path))),
            max_steps=50,
        )
        assert seen == [(done, done) for done in range(1, 11)]

    def test_rejects_oversized_resume_file(self, tmp_path, reference):
        path = tmp_path / "oversized.jsonl"
        save_results(reference.results + [reference.results[-1]], path)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_campaign(
                SMALL_SPEC, CFG, resume_path=path, cache=False, max_steps=MAX_STEPS
            )

    def test_resume_a_shard_file(self, tmp_path, reference):
        """Shard runs resume exactly like full campaigns."""
        episodes = enumerate_campaign(SMALL_SPEC, shard=ShardSpec(1, 2))
        path = tmp_path / "shard-resume.jsonl"
        save_results(reference.results[:1], path)
        backend = CountingExecutor()
        resumed = run_campaign(
            episodes,
            CFG,
            executor=backend,
            resume_path=path,
            cache=False,
            max_steps=MAX_STEPS,
        )
        assert resumed.results == reference.results[: len(episodes)]
        assert backend.executed == len(episodes) - 1
