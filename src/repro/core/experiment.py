"""Campaign execution: run episode grids under intervention configurations.

``run_campaign`` executes every :class:`EpisodeSpec` of a campaign under one
:class:`InterventionConfig` and wraps the results for aggregation.  Episode
seeds are derived deterministically (see :mod:`repro.attacks.campaign`), so
running the *same* campaign under different intervention configurations
compares them on identical attack episodes — the paper's Table VI setup.

Execution architecture
----------------------

Episodes are dispatched through the pluggable executor layer in
:mod:`repro.core.executor`, resolved from ``executor``, ``jobs`` and
``lanes`` by :func:`~repro.core.executor.resolve_executor`:

* ``run_campaign(..., jobs=1)`` (the default) uses the in-process
  :class:`~repro.core.executor.SerialExecutor`;
* ``jobs=N`` fans episodes out to a process pool via
  :class:`~repro.core.executor.ParallelExecutor`;
* ``executor="batch"`` steps episodes in lockstep, at most ``lanes`` at a
  time, through :class:`~repro.core.executor.BatchExecutor`; with
  ``jobs=N`` it is :class:`~repro.core.executor.BatchParallelExecutor`,
  the same process pool with the batch engine inside each worker;
* ``jobs=None`` / ``lanes=None`` defer to the ``REPRO_JOBS`` /
  ``REPRO_BATCH_LANES`` environment variables (then 1 / uncapped), so
  existing call sites parallelise without code changes;
* a ready executor instance as ``executor=`` overrides all of the above
  (used by tests and custom backends).

Every executor returns results in enumeration order, **bit-identical**
across executors for the same spec.

Environment variables (shared with the CLI and benchmark suite):

* ``REPRO_JOBS`` — default worker process count for campaigns.
* ``REPRO_BATCH_LANES`` — default lockstep lane cap of the batch executor.
* ``REPRO_REPS`` / ``REPRO_FULL`` — benchmark repetition count (see
  :mod:`benchmarks._bench_utils`).

Campaign results persist as JSONL via :meth:`CampaignResult.save` /
:meth:`CampaignResult.load` (one :class:`EpisodeResult` per line), and the
persistence layer on top of that format makes campaigns distributable:

* **resume** — ``run_campaign(..., resume_path=...)`` loads the valid
  prefix of a partially-written JSONL file, skips the episodes it already
  records, runs only the remainder and rewrites the file complete.  Safe at
  any truncation point, including a write cut mid-line.  The remainder
  streams to the file in slices of the executor's
  :meth:`~repro.core.executor.CampaignExecutor.stream_width` (under
  ``executor="batch"``, the lane cap, or the whole remainder uncapped).
* **cache** — ``run_campaign(..., cache=...)`` (default: the
  ``REPRO_CACHE_DIR`` environment variable, see
  :func:`repro.core.cache.default_cache`) consults a digest-keyed
  :class:`~repro.core.cache.CampaignCache` before executing anything, so a
  repeated campaign executes zero episodes.
* **sharding** — a contiguous slice of the enumeration (see
  :class:`~repro.attacks.campaign.ShardSpec`) runs anywhere as an ordinary
  episode-list campaign; :func:`merge_shards` validates and reassembles the
  shard files into the unsharded campaign.

``run_campaign`` itself is a thin façade over the distributed scheduler
(:mod:`repro.core.scheduler`): it builds a single-shard
:class:`~repro.core.scheduler.CampaignPlan` and executes it in-process,
so the one implementation of cache-consult / resume / streaming behaviour
is shared with every multi-worker backend (``repro dispatch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.attacks.campaign import CampaignSpec, EpisodeSpec
from repro.core.cache import CacheBackend
from repro.core.executor import CampaignExecutor
from repro.core.metrics import (
    AggregateStats,
    EpisodeResult,
    PathLike,
    aggregate,
    group_by,
    load_results,
    save_results,
)
from repro.core.platform import MlController, SimulationPlatform
from repro.safety.arbitration import InterventionConfig


@dataclass
class CampaignResult:
    """All episode results of one campaign run.

    Attributes:
        intervention: the configuration label the campaign ran under.
        results: one :class:`EpisodeResult` per episode, in order.
    """

    intervention: str
    results: List[EpisodeResult]

    def overall(self) -> AggregateStats:
        """Aggregate over every episode."""
        return aggregate(self.results)

    def by_scenario(self) -> Dict[str, AggregateStats]:
        """Aggregate per scenario id (Table IV/V layout)."""
        return {
            sid: aggregate(rs) for sid, rs in group_by(self.results, "scenario_id").items()
        }

    def by_fault_type(self) -> Dict[str, AggregateStats]:
        """Aggregate per fault type (Table VI layout)."""
        return {
            ft: aggregate(rs) for ft, rs in group_by(self.results, "fault_type").items()
        }

    def save(self, path) -> int:
        """Persist every episode as JSONL; returns the record count."""
        return save_results(self.results, path)

    @classmethod
    def load(cls, path) -> "CampaignResult":
        """Rebuild a campaign from a JSONL file written by :meth:`save`.

        The intervention label is recovered from the episode records (they
        all carry it); an empty file loads as an empty ``"none"`` campaign.

        Raises:
            ValueError: when the records carry mixed intervention labels
                (e.g. two different campaigns concatenated into one file) —
                aggregating across intervention arms silently would corrupt
                every rate the tables report.
        """
        results = load_results(path)
        labels = {r.intervention for r in results}
        if len(labels) > 1:
            raise ValueError(
                f"{path}: mixed intervention labels {sorted(labels)}; a "
                "CampaignResult aggregates one configuration — load mixed "
                "files with load_results() and group them explicitly"
            )
        intervention = results[0].intervention if results else "none"
        return cls(intervention=intervention, results=results)


def run_episode(
    spec: EpisodeSpec,
    interventions: InterventionConfig,
    ml_controller: Optional[MlController] = None,
    **platform_kwargs,
) -> EpisodeResult:
    """Run a single episode and return its measurements."""
    platform = SimulationPlatform(
        spec, interventions, ml_controller=ml_controller, **platform_kwargs
    )
    return platform.run()


def _validate_resume_prefix(
    prior: Sequence[EpisodeResult],
    episodes: Sequence[EpisodeSpec],
    label: str,
    path: PathLike,
) -> None:
    """Refuse to resume from a file that is not a prefix of this campaign.

    Raises:
        ValueError: when the file holds more records than the campaign
            enumerates, carries a different intervention label, or records
            an episode identity other than the one enumerated at its
            position — silently mixing campaigns would corrupt every
            aggregate downstream.
    """
    if len(prior) > len(episodes):
        raise ValueError(
            f"{path}: resume file holds {len(prior)} records but the campaign "
            f"enumerates only {len(episodes)} episodes; refusing to resume — "
            "is this the right campaign (or an unsharded file resumed as a "
            "shard)?"
        )
    for position, (record, spec) in enumerate(zip(prior, episodes)):
        if record.intervention != label:
            raise ValueError(
                f"{path}: record {position} was run under intervention "
                f"{record.intervention!r}, campaign requests {label!r}; "
                "refusing to resume across intervention configurations"
            )
        recorded = (
            record.scenario_id,
            record.initial_gap,
            record.fault_type,
            record.seed,
        )
        expected = (
            spec.scenario_id,
            spec.initial_gap,
            spec.fault_type.value,
            spec.seed,
        )
        if recorded != expected:
            raise ValueError(
                f"{path}: record {position} is episode {recorded}, campaign "
                f"enumerates {expected} at that position; refusing to resume "
                "a mismatched file"
            )


def run_campaign(
    campaign: CampaignSpec | Sequence[EpisodeSpec],
    interventions: InterventionConfig,
    ml_factory: Optional[Callable[[], MlController]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: Optional[int] = None,
    executor: Union[str, CampaignExecutor, None] = None,
    lanes: Optional[int] = None,
    resume_path: Optional[PathLike] = None,
    cache: Union[CacheBackend, None, bool] = None,
    **platform_kwargs,
) -> CampaignResult:
    """Run every episode of ``campaign`` under ``interventions``.

    Args:
        campaign: a :class:`CampaignSpec` or a pre-enumerated episode list
            (e.g. a :class:`~repro.attacks.campaign.ShardSpec` slice).
        interventions: the safety configuration under test.
        ml_factory: builds a fresh ML controller per episode (required when
            ``interventions.ml``); a factory rather than an instance so
            controller state can never leak across episodes.  Use
            :class:`repro.ml.mitigation.MitigationFactory` — it is picklable
            (crosses the process boundary under parallel execution) and
            carries a ``digest_token`` so ML campaigns cache like the rest.
        progress: optional ``(done, total)`` callback; invoked thread-safely
            and monotonically by every backend.  ``total`` always counts the
            full campaign; under resume, ``done`` starts at the number of
            episodes already on disk.
        jobs: worker process count; ``None`` defers to the ``REPRO_JOBS``
            environment variable (then serial).  Composes with
            ``executor="batch"`` (lane shards across ``jobs`` workers,
            batch engine inside each); ignored when ``executor`` is a
            ready instance.
        executor: explicit execution backend — an
            :data:`~repro.core.executor.EXECUTOR_NAMES` name
            (``"serial"``, ``"parallel"``, ``"batch"``) or a ready
            :class:`~repro.core.executor.CampaignExecutor` instance.
            ``executor="batch"`` steps all episodes in lockstep through
            the vectorized batch engine with bit-identical results, ML
            arm included; with ``jobs > 1`` it resolves to the
            batch×jobs hybrid (still bit-identical).
        lanes: peak lockstep lane count for ``executor="batch"``; ``None``
            defers to the ``REPRO_BATCH_LANES`` environment variable
            (then uncapped).  Ignored by the other executors.
        resume_path: campaign JSONL file to resume into.  An existing file's
            valid prefix (truncated final lines tolerated) is loaded and its
            episodes skipped; only the remainder executes, with completed
            episodes streamed to the file batch by batch so an interrupted
            run leaves a resumable prefix behind.  A ``.digest`` sidecar
            records the campaign's content digest — which carries the full
            scenario-family identity (family id plus resolved sweep
            parameters, see :func:`repro.core.cache.canonical_episode`) —
            so a file written under different inputs (platform overrides,
            interventions, grid, or another sweep point) is refused instead
            of silently absorbed; files without a sidecar fall back to
            per-record identity validation (episode seeds encode the sweep
            point, so mismatched families/points are still caught).
            Missing files simply mean a fresh run whose results land at
            this path.
        cache: a :class:`~repro.core.cache.CacheBackend` (e.g. a
            :class:`~repro.core.cache.CampaignCache` directory) to
            consult/populate, ``None``/``True`` to use the
            ``REPRO_CACHE_DIR`` environment default, or ``False`` to
            disable caching outright.  A cache hit returns the stored
            results without executing a single episode.
        **platform_kwargs: forwarded to :class:`SimulationPlatform`.

    Returns:
        A :class:`CampaignResult` whose ``results`` order matches the
        campaign's enumeration order regardless of backend, sharding,
        resumption or caching.
    """
    # A façade over the scheduler's single-shard plan: the cache-consult /
    # resume / stream-to-disk behaviour lives in execute_shard, shared with
    # every distributed backend.  Imported lazily — experiment is the
    # module the scheduler builds on, not the other way round.
    from repro.core.scheduler import CampaignPlan, execute_shard

    plan = CampaignPlan.build(
        campaign, interventions, shards=1, ml_factory=ml_factory, **platform_kwargs
    )
    (job,) = plan.jobs
    return execute_shard(
        job,
        jobs=jobs,
        executor=executor,
        lanes=lanes,
        progress=progress,
        resume_path=resume_path,
        cache=cache,
    )


def merge_shards(
    paths: Sequence[PathLike], output: Optional[PathLike] = None
) -> CampaignResult:
    """Validate and concatenate shard JSONL files into one campaign.

    Pass the shards in shard-index order (``1/N .. N/N``): shards are
    contiguous slices of the enumeration, so in-order concatenation
    reproduces the unsharded campaign file byte for byte.

    Args:
        paths: shard files written by ``repro campaign --shard I/N`` (an
            empty *file* is fine — small campaigns can enumerate fewer
            episodes than shards — but the path list must not be empty).
        output: when given, the merged campaign is also saved there.

    Raises:
        ValueError: on an empty path list, a truncated/partial shard, mixed
            intervention labels, or overlapping shards (the same episode
            identity recorded twice).
    """
    if not paths:
        raise ValueError("merge requires at least one shard file")
    results: List[EpisodeResult] = []
    first_seen: Dict[tuple, str] = {}
    labels: Dict[str, str] = {}
    for path in paths:
        try:
            shard = load_results(path, strict=True)
        except ValueError as exc:
            raise ValueError(
                f"{path}: refusing to merge a partial or corrupt shard — "
                f"re-run it to completion (resume with --resume) first ({exc})"
            ) from exc
        for record in shard:
            labels.setdefault(record.intervention, str(path))
            identity = (
                record.scenario_id,
                record.initial_gap,
                record.fault_type,
                record.seed,
            )
            if identity in first_seen:
                raise ValueError(
                    f"{path}: episode {identity} already provided by "
                    f"{first_seen[identity]}; overlapping shards — was the "
                    "same --shard run twice?"
                )
            first_seen[identity] = str(path)
        results.extend(shard)
    if len(labels) > 1:
        raise ValueError(
            f"mixed intervention labels {sorted(labels)}: shards of "
            "different campaigns cannot be merged into one CampaignResult"
        )
    label = next(iter(labels)) if labels else "none"
    merged = CampaignResult(intervention=label, results=results)
    if output is not None:
        merged.save(output)
    return merged
