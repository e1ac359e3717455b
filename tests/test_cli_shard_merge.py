"""CLI tests for ``repro campaign --shard``, ``repro merge`` and resume.

Exercises the argparse-level ``--shard`` validation (0-based indices,
out-of-range indices and malformed strings must be rejected before any
simulation starts), the campaign/merge round trip, merge's refusal of
mixed-intervention and overlapping shard files, and the ``--resume`` /
``--cache-dir`` flags end to end.
"""

import pytest

from repro.attacks.campaign import ShardSpec
from repro.cli import build_parser, main
from repro.core.metrics import EpisodeResult, save_results

#: One-fault, one-rep grid capped at 300 steps: 12 quick episodes.
CAMPAIGN_ARGS = ["campaign", "--fault", "none", "--reps", "1", "--seed", "7",
                 "--max-steps", "300"]


class TestShardFlagValidation:
    def test_parses_valid_shards(self):
        args = build_parser().parse_args(CAMPAIGN_ARGS + ["--shard", "2/4"])
        assert args.shard == ShardSpec(index=2, count=4)
        assert build_parser().parse_args(
            CAMPAIGN_ARGS + ["--shard", "2/2"]
        ).shard == ShardSpec(2, 2)

    @pytest.mark.parametrize(
        "text",
        ["0/2", "3/2", "-1/4", "1/0", "a/b", "1", "1/2/3", "", "1/", "/2"],
    )
    def test_rejects_invalid_shards(self, text, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(CAMPAIGN_ARGS + ["--shard", text])
        assert "--shard" in capsys.readouterr().err

    def test_default_is_unsharded(self):
        assert build_parser().parse_args(CAMPAIGN_ARGS).shard is None


class TestCampaignCommand:
    def test_shard_merge_round_trip_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        assert main(CAMPAIGN_ARGS + ["-o", str(serial)]) == 0
        shards = []
        for index in (1, 2):
            path = tmp_path / f"s{index}.jsonl"
            rc = main(CAMPAIGN_ARGS + ["--shard", f"{index}/2", "-o", str(path)])
            assert rc == 0
            shards.append(str(path))
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", *shards, "-o", str(merged)]) == 0
        assert merged.read_bytes() == serial.read_bytes()
        assert "merged 2 shards (12 episodes" in capsys.readouterr().out

    def test_default_output_names(self):
        args = build_parser().parse_args(CAMPAIGN_ARGS)
        assert args.output is None  # resolved to campaign.jsonl in main()
        sharded = build_parser().parse_args(CAMPAIGN_ARGS + ["--shard", "1/2"])
        assert sharded.output is None

    def test_resume_flag_completes_partial_output(self, tmp_path, capsys):
        out = tmp_path / "resumable.jsonl"
        assert main(CAMPAIGN_ARGS + ["-o", str(out)]) == 0
        reference = out.read_bytes()
        # Keep only the first 5 records, then resume.
        out.write_bytes(b"".join(reference.splitlines(keepends=True)[:5]))
        assert main(CAMPAIGN_ARGS + ["-o", str(out), "--resume"]) == 0
        assert out.read_bytes() == reference

    def test_resume_refuses_different_conditions(self, tmp_path, capsys):
        """Regression: a campaign saved at --max-steps 50 must not be
        absorbed by a --resume run at other step limits (the digest sidecar
        written next to the output records the run's inputs)."""
        out = tmp_path / "short.jsonl"
        short_args = ["campaign", "--fault", "none", "--reps", "1", "--seed",
                      "7", "--max-steps", "50"]
        assert main(short_args + ["-o", str(out)]) == 0
        assert (tmp_path / "short.jsonl.digest").exists()
        rc = main(CAMPAIGN_ARGS + ["-o", str(out), "--resume"])
        assert rc == 2
        assert "different inputs" in capsys.readouterr().err

    def test_resume_refuses_foreign_file(self, tmp_path, capsys):
        out = tmp_path / "foreign.jsonl"
        save_results([EpisodeResult(seed=1, intervention="driver")], out)
        rc = main(CAMPAIGN_ARGS + ["-o", str(out), "--resume"])
        assert rc == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_cache_dir_round_trip(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        base = CAMPAIGN_ARGS + ["--cache-dir", str(cache_dir)]
        assert main(base + ["-o", str(first)]) == 0
        assert len(sorted(cache_dir.glob("*.jsonl"))) == 1
        assert main(base + ["-o", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()


class TestMergeCommand:
    def test_refuses_mixed_interventions(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_results([EpisodeResult(seed=1, intervention="none")], a)
        save_results([EpisodeResult(seed=2, intervention="driver")], b)
        assert main(["merge", str(a), str(b), "-o", str(tmp_path / "o.jsonl")]) == 2
        assert "mixed intervention labels" in capsys.readouterr().err

    def test_refuses_overlapping_shards(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        record = EpisodeResult(scenario_id="S1", initial_gap=60.0, seed=9)
        save_results([record], a)
        save_results([record], b)
        assert main(["merge", str(a), str(b), "-o", str(tmp_path / "o.jsonl")]) == 2
        assert "overlapping shards" in capsys.readouterr().err

    def test_refuses_truncated_shard(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        save_results([EpisodeResult(seed=1), EpisodeResult(seed=2)], a)
        a.write_bytes(a.read_bytes()[:-15])
        assert main(["merge", str(a), "-o", str(tmp_path / "o.jsonl")]) == 2
        assert "partial or corrupt shard" in capsys.readouterr().err

    def test_missing_shard_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["merge", str(tmp_path / "nope.jsonl"), "-o",
                   str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_refuses_default_named_shards_out_of_order(self, tmp_path, capsys):
        a = tmp_path / "campaign-shard-1-of-2.jsonl"
        b = tmp_path / "campaign-shard-2-of-2.jsonl"
        save_results([EpisodeResult(seed=1)], a)
        save_results([EpisodeResult(seed=2)], b)
        rc = main(["merge", str(b), str(a), "-o", str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "shard-index order" in capsys.readouterr().err
        # in index order the same files merge fine
        assert main(["merge", str(a), str(b), "-o", str(tmp_path / "o.jsonl")]) == 0

    def test_refuses_default_named_shards_of_mixed_counts(self, tmp_path, capsys):
        a = tmp_path / "campaign-shard-1-of-2.jsonl"
        b = tmp_path / "campaign-shard-2-of-3.jsonl"
        save_results([EpisodeResult(seed=1)], a)
        save_results([EpisodeResult(seed=2)], b)
        rc = main(["merge", str(a), str(b), "-o", str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "different shard counts" in capsys.readouterr().err

    def test_refuses_incomplete_default_named_shard_set(self, tmp_path, capsys):
        a = tmp_path / "campaign-shard-1-of-3.jsonl"
        c = tmp_path / "campaign-shard-3-of-3.jsonl"
        save_results([EpisodeResult(seed=1)], a)
        save_results([EpisodeResult(seed=3)], c)
        rc = main(["merge", str(a), str(c), "-o", str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "missing shard(s) 2/3" in capsys.readouterr().err

    def test_custom_names_skip_the_order_heuristic(self, tmp_path):
        # Custom-named shards: the caller owns ordering; merge still runs.
        a, b = tmp_path / "east.jsonl", tmp_path / "west.jsonl"
        save_results([EpisodeResult(seed=1)], a)
        save_results([EpisodeResult(seed=2)], b)
        assert main(["merge", str(b), str(a), "-o", str(tmp_path / "o.jsonl")]) == 0

    def test_requires_output_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["merge", "a.jsonl"])


class TestGridCommandFlags:
    def test_grid_commands_accept_resume_and_cache_flags(self):
        for name in ("episode", "table4", "table6", "table7", "table8", "report"):
            args = build_parser().parse_args(
                [name, "--resume", "statedir", "--cache-dir", "cachedir"]
            )
            assert args.resume == "statedir"
            assert args.cache_dir == "cachedir"

    def test_table4_resume_dir_populated_and_reused(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        resume_dir = tmp_path / "state"
        argv = ["table4", "--reps", "1", "--seed", "9", "--resume",
                str(resume_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        files = sorted(resume_dir.glob("*.jsonl"))
        assert len(files) == 1  # digest-named per-campaign file
        stamp = files[0].read_bytes()
        # Re-run: the campaign resumes from the complete file (0 episodes)
        # and renders identical tables from identical results.
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert files[0].read_bytes() == stamp


@pytest.mark.usefixtures("force_lockstep")
class TestProfileFlag:
    ARGS = CAMPAIGN_ARGS + ["--scenario", "S1", "--driver"]

    def test_profile_prints_breakdown_and_keeps_output_identical(
        self, tmp_path, capsys
    ):
        plain = tmp_path / "plain.jsonl"
        profiled = tmp_path / "profiled.jsonl"
        assert main(self.ARGS + ["--executor", "batch", "-o", str(plain)]) == 0
        capsys.readouterr()
        rc = main(
            self.ARGS
            + ["--executor", "batch", "--profile", "-o", str(profiled)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase wall-clock over" in out
        assert "control" in out
        assert "dynamics" in out
        assert "post-step tail" in out
        # Profiling only reads the clock: the campaign bytes are unchanged.
        assert profiled.read_bytes() == plain.read_bytes()

    def test_profile_refuses_parallel_executor(self, tmp_path, capsys):
        rc = main(
            self.ARGS
            + ["--jobs", "2", "--profile", "-o", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2
        assert "parallel executor" in capsys.readouterr().err

    def test_profile_refuses_batch_jobs_hybrid(self, tmp_path, capsys):
        rc = main(
            self.ARGS
            + [
                "--executor", "batch", "--jobs", "2", "--profile",
                "-o", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        # The refusal must name both conflicting flags, not just one.
        assert "--profile" in err
        assert "--jobs" in err

    def test_batch_jobs_cli_output_byte_identical_to_serial(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        hybrid = tmp_path / "hybrid.jsonl"
        assert main(
            self.ARGS + ["--executor", "serial", "-o", str(serial)]
        ) == 0
        assert main(
            self.ARGS
            + ["--executor", "batch", "--jobs", "2", "-o", str(hybrid)]
        ) == 0
        assert hybrid.read_bytes() == serial.read_bytes()

    def test_profile_refuses_scheduled_backend(self, tmp_path, capsys):
        rc = main(
            self.ARGS
            + [
                "--backend", "subprocess", "--profile",
                "--workdir", str(tmp_path / "wd"),
                "-o", str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2
        assert "--profile" in capsys.readouterr().err
