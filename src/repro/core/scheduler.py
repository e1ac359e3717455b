"""Distributed campaign scheduler: plan → dispatch → collect.

PR 2 built the exchange protocol — digest-keyed shard JSONLs, resumable
valid prefixes, ``.digest`` sidecars, the merge invariants, the shared
:class:`~repro.core.cache.CampaignCache` — and left "only the scheduler
missing" for a distributed backend.  This module is that scheduler, as an
explicit three-phase pipeline:

* **plan** — :func:`CampaignPlan.build` decomposes one campaign into
  digest-keyed :class:`ShardJob`\\ s, reusing
  :class:`~repro.attacks.campaign.ShardSpec` so every worker computes the
  same partition with no coordination;
* **dispatch** — a :class:`WorkerBackend` executes the jobs, each one
  producing a shard JSONL plus its ``.digest`` sidecar.  Backends live in
  a registry (the :mod:`repro.sim.families` idiom):

  - :class:`InProcessBackend` wraps the executor layer —
    ``run_campaign`` is a thin façade over a single-shard plan on this
    backend, bit-identical to the historical path;
  - :class:`SubprocessFleetBackend` spawns N ``repro worker`` CLI
    processes, each consuming a shard-spec JSON file — a real fleet on
    one machine, and the exact protocol shape a remote backend needs;
  - :class:`SSHBackend` shells the same worker command through a
    configurable ``{command}`` template (``ssh host {command}``) — the
    stub a container/SSH fleet drops into, assuming a shared filesystem
    for the work directory and cache;

* **collect** — :func:`collect_shards` validates the shard files under
  the same invariants as ``repro merge`` (strict load, no overlap, no
  mixed labels) plus plan identity (sidecar digests, per-position episode
  identity), concatenates them into the unsharded campaign, and
  write-throughs the shared cache so the incremental report pipeline sees
  the completed grid.

Whether a job's results are already stored — a complete cache entry,
then the valid prefix of its resume file — is answered in one place:
:func:`load_stored` parses and validates (:func:`execute_shard`, the
dispatch probe and the report engine's loads call it), and
:func:`stored_count` counts cheaply (``repro report-status``, the
fleet's skip-before-spawn check).

Crash recovery falls out of the protocol: a worker killed mid-shard
leaves a valid JSONL prefix behind, and the next dispatch of the same
plan resumes that shard from the prefix — completed episodes never
re-execute.  A repeat dispatch of a fully-cached plan executes zero
episodes and spawns zero workers.
"""

from __future__ import annotations

import abc
import json
import os
import pickle
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.attacks.campaign import (
    CampaignSpec,
    EpisodeSpec,
    ShardSpec,
    as_episode_list,
)
from repro.core.cache import (
    CampaignCache,
    campaign_digest,
    canonical_episode,
    canonical_interventions,
    complete_hit,
    episode_from_canonical,
    factory_token,
    interventions_from_canonical,
    read_digest_sidecar,
    resolve_cache,
    write_digest_sidecar,
)
from repro.core.executor import (
    CampaignExecutor,
    EpisodeTask,
    ExecutionPolicy,
    available_cores,
    check_knobs,
)
from repro.core.experiment import (
    CampaignResult,
    _validate_resume_prefix,
    merge_shards,
)
from repro.core.metrics import (
    EpisodeResult,
    PathLike,
    count_records,
    load_results,
    save_results,
)
from repro.safety.arbitration import InterventionConfig

ProgressCallback = Callable[[int, int], None]
LogCallback = Callable[[str], None]

#: Bump when the worker spec-file schema changes shape, so a newer
#: scheduler can never hand a job to an older worker silently.
WORKER_SPEC_FORMAT = 1


class SchedulerError(RuntimeError):
    """A dispatch or collect phase failure (worker death, protocol breach)."""


# --------------------------------------------------------------------- #
# Plan
# --------------------------------------------------------------------- #


class _ContentKeyed:
    """The episode count and memoized content digest shared by
    :class:`ShardJob` and :class:`CampaignPlan`."""

    episodes: Tuple[EpisodeSpec, ...]
    interventions: InterventionConfig
    ml_token: Optional[str]
    max_steps: Optional[int]

    @property
    def total(self) -> int:
        """Episode count."""
        return len(self.episodes)

    def digest(self) -> str:
        """Content digest of these episodes as a standalone campaign.

        For a shard job it is what ``repro campaign --shard I/N`` records
        in its sidecar for the same slice — the key a worker's results are
        validated (and optionally cached) under.  Computed lazily and
        memoized: the hot in-process single-shard path only pays for it
        when a cache or resume file is actually in play.
        """
        memo = self.__dict__.get("_digest")
        if memo is None:
            memo = campaign_digest(
                list(self.episodes),
                self.interventions,
                ml_token=self.ml_token,
                max_steps=self.max_steps,
            )
            object.__setattr__(self, "_digest", memo)
        return memo


@dataclass(frozen=True)
class ShardJob(_ContentKeyed):
    """One dispatchable unit: a contiguous, digest-keyed campaign slice.

    Attributes:
        shard: which slice of the plan this job covers.
        episodes: the slice itself, in enumeration order.
        interventions: the safety configuration under test.
        ml_factory: per-episode ML controller factory (None unless
            ``interventions.ml``); fleet backends require it picklable.
        ml_token: the factory's digest fingerprint (see
            :func:`repro.core.cache.factory_token`).
        max_steps: every episode's horizon (None: the paper horizon).
    """

    shard: ShardSpec
    episodes: Tuple[EpisodeSpec, ...]
    interventions: InterventionConfig
    ml_factory: Optional[Callable[[], object]] = None
    ml_token: Optional[str] = None
    max_steps: Optional[int] = None

    def file_name(self) -> str:
        """Canonical shard JSONL name inside a dispatch work directory.

        Carries both the shard position (so ``repro merge``'s name-order
        check applies) and the digest prefix (so one work directory can
        host shards of many campaigns without collision).
        """
        return (
            f"shard-{self.shard.index}-of-{self.shard.count}"
            f"-{self.digest()[:16]}.jsonl"
        )


@dataclass(frozen=True)
class CampaignPlan(_ContentKeyed):
    """A campaign decomposed into its ordered, non-overlapping shard jobs.

    Build via :meth:`build`; the invariant (inherited from
    :class:`~repro.attacks.campaign.ShardSpec`) is that concatenating the
    jobs' episode slices reproduces the unsharded enumeration exactly —
    which is what lets :func:`collect_shards` validate the collected
    results against the plan position by position.
    """

    episodes: Tuple[EpisodeSpec, ...]
    interventions: InterventionConfig
    jobs: Tuple[ShardJob, ...]
    ml_factory: Optional[Callable[[], object]] = None
    ml_token: Optional[str] = None
    max_steps: Optional[int] = None

    @classmethod
    def build(
        cls,
        campaign: Union[CampaignSpec, Sequence[EpisodeSpec]],
        interventions: InterventionConfig,
        shards: int = 1,
        ml_factory: Optional[Callable[[], object]] = None,
        max_steps: Optional[int] = None,
    ) -> "CampaignPlan":
        """Decompose ``campaign`` into ``shards`` contiguous shard jobs.

        Args:
            campaign: a :class:`CampaignSpec` or pre-enumerated episode
                list (the same union every execution layer accepts).
            interventions: the safety configuration under test.
            shards: how many jobs to cut the enumeration into (>= 1);
                clamped to the episode count so no job is empty (a
                single empty job is kept for the empty campaign).
            ml_factory: required when ``interventions.ml``.
            max_steps: every episode's horizon (None: the paper horizon).

        Raises:
            ValueError: non-positive ``shards``, or an ML campaign
                without a factory.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if interventions.ml and ml_factory is None:
            raise ValueError("interventions.ml=True requires ml_factory")
        episodes = tuple(as_episode_list(campaign))
        ml_token = factory_token(ml_factory) if interventions.ml else None
        count = max(1, min(shards, len(episodes) or 1))
        jobs = tuple(
            ShardJob(
                shard=shard,
                episodes=tuple(shard.slice(episodes)),
                interventions=interventions,
                ml_factory=ml_factory,
                ml_token=ml_token,
                max_steps=max_steps,
            )
            for shard in ShardSpec.partition(count)
        )
        return cls(
            episodes=episodes,
            interventions=interventions,
            jobs=jobs,
            ml_factory=ml_factory,
            ml_token=ml_token,
            max_steps=max_steps,
        )


def _cacheable(job_or_plan) -> bool:
    """Whether results may be keyed in a cache at all.

    An unfingerprintable ML factory (lambda/closure/stateful instance
    without a ``digest_token``) cannot key an entry safely; run uncached
    rather than risk serving another factory's results.
    """
    return not job_or_plan.interventions.ml or job_or_plan.ml_token is not None


# --------------------------------------------------------------------- #
# The stored-results rule and in-process shard execution (the primitive
# behind ``run_campaign``)
# --------------------------------------------------------------------- #


def _foreign_digest(
    job: Union[ShardJob, CampaignPlan], path: PathLike
) -> Optional[str]:
    """The digest ``path``'s ``.digest`` sidecar records if it is not
    ``job``'s; None when it matches or there is no sidecar (a hand-built
    or pre-sidecar file, whose records are checked one by one instead)."""
    recorded = read_digest_sidecar(path)
    return None if recorded is None or recorded == job.digest() else recorded


def stored_count(
    job: ShardJob,
    cache: Optional[CampaignCache] = None,
    resume_path: Optional[PathLike] = None,
) -> Tuple[Optional[str], int]:
    """Where ``job``'s results are stored, and how many: the cheap form of
    the stored-results rule.

    Returns ``("cache", job.total)`` when the cache entry counts at least
    ``job.total`` lines; else ``("resume", n)`` for an existing resume
    file whose ``.digest`` sidecar is absent or names this job, ``n``
    being the records of its valid prefix; else ``(None, 0)``.

    Nothing is validated, so a corrupt entry or a foreign prefix still
    counts: this answers status displays and skip-before-spawn checks,
    while results are only ever served through :func:`load_stored` (or,
    for fleet shards, :func:`collect_shards`' strict merge).
    """
    if cache is not None and _cacheable(job):
        count = cache.entry_count(job.digest())
        if count is not None and count >= job.total:
            return "cache", job.total
    if resume_path is not None and os.path.exists(resume_path):
        # A file whose sidecar names another digest belongs to another
        # campaign, so it contributes nothing.
        if _foreign_digest(job, resume_path) is None:
            return "resume", count_records(resume_path)
    return None, 0


def load_stored(
    job: Union[ShardJob, CampaignPlan],
    cache: Optional[CampaignCache] = None,
    resume_path: Optional[PathLike] = None,
) -> Tuple[Optional[List[EpisodeResult]], List[EpisodeResult]]:
    """``job``'s stored results, parsed and validated: the authoritative
    form of the stored-results rule.

    Returns ``(hit, prior)``: ``hit`` is the cache entry if
    :func:`~repro.core.cache.complete_hit` accepts it, else None; ``prior``
    is the valid prefix of the resume file (truncated final lines
    tolerated), empty when there is none.  A hit stands for the whole
    campaign; otherwise only the episodes after ``prior`` remain.  A
    :class:`CampaignPlan` is probed the same way, for its full-campaign
    entry.

    The resume file is checked first, hit or not: a hit gets written into
    it, and that must never clobber another campaign's file.

    Raises:
        ValueError: the resume file's sidecar names another digest, or its
            records are not a prefix of this job (wrong label, episode
            identity or length).
    """
    label = job.interventions.label()
    prior: List[EpisodeResult] = []
    if resume_path is not None and os.path.exists(resume_path):
        recorded = _foreign_digest(job, resume_path)
        if recorded is not None:
            raise ValueError(
                f"{resume_path}: recorded campaign digest {recorded[:16]}… "
                f"does not match this invocation's {job.digest()[:16]}…; "
                "the file was written under different inputs (horizon, "
                "interventions or grid) — refusing to resume"
            )
        prior = load_results(resume_path)
        _validate_resume_prefix(prior, job.episodes, label, resume_path)
    hit = None
    if cache is not None and _cacheable(job):
        hit = complete_hit(cache, job.digest(), job.total, label)
    return hit, prior


def _rewrite(path: PathLike, results: List[EpisodeResult], digest: str) -> None:
    """Atomically replace a resume file with ``results``, plus its sidecar."""
    tmp = f"{os.fspath(path)}.tmp"
    save_results(results, tmp)
    os.replace(tmp, path)
    write_digest_sidecar(path, digest)


def execute_shard(
    job: ShardJob,
    executor: CampaignExecutor,
    progress: Optional[ProgressCallback] = None,
    resume_path: Optional[PathLike] = None,
    cache: Optional[CampaignCache] = None,
) -> CampaignResult:
    """Run one :class:`ShardJob` to completion in this process.

    The single-shard execution primitive: ``run_campaign`` wraps exactly
    one of these, the :class:`InProcessBackend` runs one per planned
    shard, and a ``repro worker`` process runs one per spec file — so
    every path through the system shares one implementation of the
    cache-consult / resume / stream-to-disk behaviour.

    Args:
        job: the shard to execute.
        executor: runs the episodes that are neither cached nor resumed
            (see :meth:`~repro.core.executor.ExecutionPolicy.resolve`).
        progress: optional ``(done, total)`` callback over this shard's
            episodes; under resume, ``done`` starts at the number of
            episodes already on disk.
        resume_path: shard JSONL file to resume into.  An existing file's
            valid prefix (truncated final lines tolerated) is loaded and
            its episodes skipped; only the remainder executes, streamed to
            the file batch by batch, and a ``.digest`` sidecar refuses
            files written under different inputs.
        cache: the cache to consult and populate, or None for none.  A
            hit returns the stored results without executing a single
            episode.

    Returns:
        A :class:`CampaignResult` in the shard's enumeration order,
        bit-identical regardless of backend, resumption or caching.
    """
    interventions = job.interventions
    label = interventions.label()
    total = job.total
    hit, prior = load_stored(job, cache, resume_path)
    if hit is not None:
        if progress is not None:
            progress(total, total)
        if resume_path is not None:
            _rewrite(resume_path, hit, job.digest())
        return CampaignResult(intervention=label, results=hit)

    # ---- execute the remainder ------------------------------------------
    tasks = [
        EpisodeTask(
            spec,
            interventions,
            ml_factory=job.ml_factory if interventions.ml else None,
            max_steps=job.max_steps,
        )
        for spec in job.episodes[len(prior) :]
    ]
    skipped = len(prior)
    if progress is not None and skipped:
        progress(skipped, total)

    new: List[EpisodeResult] = []
    if resume_path is None:
        offset_progress = (
            None
            if progress is None
            else (lambda done, _remaining_total: progress(skipped + done, total))
        )
        new = executor.run(tasks, progress=offset_progress)
    else:
        # Rewrite the validated prefix once (dropping any truncated tail),
        # then stream completed episodes to the file batch by batch: an
        # interrupted run leaves a valid, resumable prefix behind instead
        # of nothing.  The rewrite goes through a temp file + atomic rename
        # so a crash mid-rewrite cannot destroy the episodes already earned;
        # a crash mid-append only dangles a final line, which the next
        # resume's prefix load already tolerates.  The executor sets the
        # batch width (see CampaignExecutor.stream_width).
        _rewrite(resume_path, prior, job.digest())
        batch_size = executor.stream_width(len(tasks))
        for start in range(0, len(tasks), batch_size):
            batch = tasks[start : start + batch_size]
            done_before = skipped + len(new)
            batch_progress = (
                None
                if progress is None
                else (lambda done, _t, _base=done_before: progress(_base + done, total))
            )
            batch_results = executor.run(batch, progress=batch_progress)
            new.extend(batch_results)
            save_results(batch_results, resume_path, append=True)

    results = prior + new
    if cache is not None and _cacheable(job):
        cache.put(job.digest(), results)
    return CampaignResult(intervention=label, results=results)


# --------------------------------------------------------------------- #
# Worker spec files (the fleet exchange format)
# --------------------------------------------------------------------- #


@dataclass
class WorkerJob:
    """A :class:`ShardJob` as reconstructed by a ``repro worker`` process.

    Attributes:
        shard: which slice this worker owns.
        episodes: the reconstructed episode slice.
        interventions: the reconstructed safety configuration.
        max_steps: every episode's horizon (None: the paper horizon).
        digest: the shard digest the scheduler recorded (already verified
            against a local recomputation by :func:`load_job_spec`).
        output: shard JSONL destination (resolved to an absolute path).
        cache_dir: shared cache directory, or None for an uncached run —
            the scheduler resolves cache policy (environment included) at
            dispatch time, so workers never consult their own
            ``REPRO_CACHE_DIR``.
        ml_pickle: pickled ML-factory path, or None.
        ml_token: the factory fingerprint the digest was computed with.
    """

    shard: ShardSpec
    episodes: List[EpisodeSpec]
    interventions: InterventionConfig
    max_steps: Optional[int]
    digest: str
    output: str
    cache_dir: Optional[str] = None
    ml_pickle: Optional[str] = None
    ml_token: Optional[str] = None


def write_job_spec(
    job: ShardJob,
    path: PathLike,
    output: str,
    cache_dir: Optional[str] = None,
    ml_pickle: Optional[str] = None,
) -> str:
    """Serialise one shard job for a ``repro worker`` process.

    ``output`` and ``ml_pickle`` should be bare names or paths relative to
    the spec file's directory — workers resolve them against it, so a
    work directory stays relocatable across the machines of a fleet
    (only ``cache_dir`` is absolute: the shared cache is a global
    location by definition).

    Episodes and interventions travel in their canonical digest forms
    (:func:`~repro.core.cache.canonical_episode`), so the worker can
    reconstruct the slice and *recompute* the digest — scheduler/worker
    version skew is detected before a single episode runs.
    """
    doc = {
        "format": WORKER_SPEC_FORMAT,
        "shard": {"index": job.shard.index, "count": job.shard.count},
        "digest": job.digest(),
        "episodes": [canonical_episode(spec) for spec in job.episodes],
        "interventions": canonical_interventions(job.interventions),
        "platform": {} if job.max_steps is None else {"max_steps": job.max_steps},
        "output": output,
        "cache_dir": cache_dir,
        "ml": None
        if job.ml_factory is None
        else {"factory_pickle": ml_pickle, "token": job.ml_token},
    }
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".spec-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return os.fspath(path)


def load_job_spec(path: PathLike) -> WorkerJob:
    """Parse and verify a worker spec file written by :func:`write_job_spec`.

    Raises:
        ValueError: unknown format version, malformed content (a
            ``platform`` key other than ``max_steps`` included), or a digest
            mismatch between the spec's recorded digest and one recomputed
            from the reconstructed episodes — the scheduler and this worker
            disagree on campaign identity (version skew), and running
            anyway would poison the shard exchange.
    """
    spec_path = os.fspath(path)
    with open(spec_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("format") != WORKER_SPEC_FORMAT:
        raise ValueError(
            f"{spec_path}: unsupported worker spec format "
            f"{doc.get('format') if isinstance(doc, dict) else doc!r} "
            f"(this worker speaks format {WORKER_SPEC_FORMAT})"
        )
    try:
        shard = ShardSpec(
            index=int(doc["shard"]["index"]), count=int(doc["shard"]["count"])
        )
        episodes = [episode_from_canonical(form) for form in doc["episodes"]]
        interventions = interventions_from_canonical(doc["interventions"])
        platform = dict(doc.get("platform") or {})
        max_steps = platform.pop("max_steps", None)
        if platform:
            raise TypeError(f"unexpected platform keys {sorted(platform)}")
        recorded = str(doc["digest"])
        output = str(doc["output"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{spec_path}: malformed worker spec ({exc})") from exc
    ml_doc = doc.get("ml")
    ml_token = None if ml_doc is None else ml_doc.get("token")
    recomputed = campaign_digest(
        episodes, interventions, ml_token=ml_token, max_steps=max_steps
    )
    if recomputed != recorded:
        raise ValueError(
            f"{spec_path}: spec records digest {recorded[:16]}… but this "
            f"worker recomputes {recomputed[:16]}… from the same episodes; "
            "scheduler and worker disagree on campaign identity (version "
            "skew?) — refusing to run"
        )
    base = os.path.dirname(spec_path) or "."

    def _resolve(name: Optional[str]) -> Optional[str]:
        if name is None:
            return None
        return name if os.path.isabs(name) else os.path.join(base, name)

    ml_pickle = None if ml_doc is None else _resolve(ml_doc.get("factory_pickle"))
    return WorkerJob(
        shard=shard,
        episodes=episodes,
        interventions=interventions,
        max_steps=max_steps,
        digest=recorded,
        output=_resolve(output),
        cache_dir=doc.get("cache_dir"),
        ml_pickle=ml_pickle,
        ml_token=ml_token,
    )


# --------------------------------------------------------------------- #
# Worker backends
# --------------------------------------------------------------------- #


class UnknownBackendError(ValueError):
    """A backend name no registered worker backend claims."""

    def __init__(self, name: object, registered: Sequence[str]) -> None:
        self.backend_name = name
        self.registered = tuple(registered)
        names = ", ".join(self.registered) if self.registered else "(none)"
        super().__init__(
            f"unknown worker backend {name!r}; registered backends: {names}"
        )


class WorkerBackend(abc.ABC):
    """Dispatches the shard jobs of a :class:`CampaignPlan`.

    Implementations must leave, for every job, a complete shard JSONL
    (plus ``.digest`` sidecar) at ``workdir/<job.file_name()>`` — the
    protocol contract :func:`collect_shards` validates.  Jobs whose shard
    file is already complete must be skipped, which is what makes
    re-dispatch after a crash resume instead of recompute.
    """

    #: Registry name (set by subclasses).
    name: str = ""

    def default_shard_count(self) -> int:
        """How many shards to plan when the caller does not say."""
        return 1

    @abc.abstractmethod
    def run(
        self,
        plan: CampaignPlan,
        workdir: str,
        cache: Optional[CampaignCache] = None,
        progress: Optional[ProgressCallback] = None,
        log: Optional[LogCallback] = None,
    ) -> List[str]:
        """Execute every job of ``plan``; return shard paths in shard order."""


def shard_path(job: ShardJob, workdir: str) -> str:
    """Where a job's shard JSONL lives inside a work directory."""
    return os.path.join(workdir, job.file_name())


def shard_complete(job: ShardJob, path: PathLike) -> bool:
    """Cheap completeness probe for a shard file (skip-before-spawn).

    True when :func:`stored_count` counts the file — it exists and its
    sidecar (if any) names this job's digest — and its resumable prefix
    covers every episode.  Cheap by design — :func:`collect_shards` still
    strict-validates before any result is used.
    """
    source, done = stored_count(job, resume_path=path)
    return source is not None and done >= job.total


class InProcessBackend(WorkerBackend):
    """Runs every shard in this process via the executor layer.

    The reference backend: zero dispatch overhead beyond the shard files
    themselves, and the one ``run_campaign`` degenerates to.  ``workers``
    stands in for the policy's unset ``jobs`` (the executor's process-pool
    size), so ``--backend in-process --workers 4`` parallelises episodes
    exactly like ``--jobs 4``, and an explicit ``--jobs`` wins.
    """

    name = "in-process"

    def __init__(
        self,
        workers: Optional[int] = None,
        execution: ExecutionPolicy = ExecutionPolicy(),
    ) -> None:
        check_knobs(workers=workers)
        if execution.jobs is None and workers is not None:
            execution = replace(execution, jobs=workers)
        self.execution = execution

    def run(
        self,
        plan: CampaignPlan,
        workdir: str,
        cache: Optional[CampaignCache] = None,
        progress: Optional[ProgressCallback] = None,
        log: Optional[LogCallback] = None,
    ) -> List[str]:
        executor = self.execution.resolve()
        paths: List[str] = []
        done = 0
        for job in plan.jobs:
            path = shard_path(job, workdir)
            if shard_complete(job, path):
                if log is not None:
                    log(f"shard {job.shard}: already complete, skipping")
            else:
                if log is not None:
                    log(f"shard {job.shard}: running {job.total} episodes in-process")
                offset = done
                sub_progress = (
                    None
                    if progress is None
                    else (lambda d, _t, _o=offset: progress(_o + d, plan.total))
                )
                execute_shard(
                    job,
                    executor,
                    progress=sub_progress,
                    resume_path=path,
                    cache=cache,
                )
            done += job.total
            if progress is not None:
                progress(done, plan.total)
            paths.append(path)
        return paths


@dataclass
class _WorkerSlot:
    """Book-keeping for one fleet job across spawn attempts."""

    job: ShardJob
    spec_path: str
    output_path: str
    log_path: str
    attempts: int = 0


class SubprocessFleetBackend(WorkerBackend):
    """A fleet of ``repro worker`` subprocesses on this machine.

    Each worker consumes a shard-spec JSON file and emits the shard JSONL
    plus its ``.digest`` sidecar — the exact exchange an SSH or container
    backend performs, which is why this backend doubles as the protocol
    reference.  Worker stdout/stderr streams append to a per-shard log
    file next to the shard (``<shard>.log``).

    A worker that dies (non-zero exit, killed mid-shard) is relaunched up
    to ``max_retries`` times; because workers resume from the shard
    file's valid JSONL prefix, completed episodes never re-execute.

    Args:
        workers: concurrent worker processes (default: up to 2, bounded
            by the cores this process may use).
        python: interpreter for the worker command (default: this one).
        max_retries: relaunch budget per shard after the first attempt.
        poll_interval: seconds between liveness polls of the fleet
            (must be positive — zero would busy-spin the poll loop).
        execution: how each worker executes its shard, passed on its
            command line (see
            :meth:`~repro.core.executor.ExecutionPolicy.worker_args`).
    """

    name = "subprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        python: Optional[str] = None,
        max_retries: int = 2,
        poll_interval: float = 0.05,
        execution: ExecutionPolicy = ExecutionPolicy(),
    ) -> None:
        if workers is None:
            workers = max(1, min(2, available_cores()))
        check_knobs(workers=workers)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if poll_interval <= 0.0:
            raise ValueError(
                f"poll_interval must be positive (seconds between fleet "
                f"liveness polls), got {poll_interval}"
            )
        self.workers = workers
        self.python = python
        self.max_retries = max_retries
        self.poll_interval = poll_interval
        self.execution = execution

    def default_shard_count(self) -> int:
        return self.workers

    def worker_command(self, spec_path: str) -> List[str]:
        """The command line that executes one shard spec."""
        command = [
            self.python or sys.executable,
            "-m",
            "repro",
            "worker",
            "--spec",
            spec_path,
        ]
        return command + self.execution.worker_args()

    def run(
        self,
        plan: CampaignPlan,
        workdir: str,
        cache: Optional[CampaignCache] = None,
        progress: Optional[ProgressCallback] = None,
        log: Optional[LogCallback] = None,
    ) -> List[str]:
        cache_dir = cache.root if cache is not None else None
        if cache is not None and not _cacheable(plan):
            cache_dir = None
        ml_pickle_name: Optional[str] = None
        if plan.ml_factory is not None:
            ml_pickle_name = f"ml-{plan.digest()[:16]}.pkl"
            try:
                payload = pickle.dumps(plan.ml_factory)
            except Exception as exc:
                raise SchedulerError(
                    "fleet backends ship the ml_factory to worker processes "
                    "by pickle, and this factory does not pickle "
                    f"({exc}); use a picklable factory such as "
                    "repro.ml.MitigationFactory"
                ) from exc
            with open(os.path.join(workdir, ml_pickle_name), "wb") as handle:
                handle.write(payload)

        slots: List[_WorkerSlot] = []
        done = 0
        for job in plan.jobs:
            output_path = shard_path(job, workdir)
            stem = job.file_name()[: -len(".jsonl")]
            spec_path = os.path.join(workdir, f"{stem}.spec.json")
            write_job_spec(
                job,
                spec_path,
                output=job.file_name(),
                cache_dir=cache_dir,
                ml_pickle=ml_pickle_name,
            )
            slot = _WorkerSlot(
                job=job,
                spec_path=spec_path,
                output_path=output_path,
                log_path=os.path.join(workdir, f"{stem}.log"),
            )
            if shard_complete(job, output_path):
                if log is not None:
                    log(f"shard {job.shard}: already complete, skipping")
                done += job.total
            else:
                slots.append(slot)
        if progress is not None:
            progress(done, plan.total)

        pending = deque(slots)
        running: Dict[subprocess.Popen, _WorkerSlot] = {}
        try:
            while pending or running:
                while pending and len(running) < self.workers:
                    slot = pending.popleft()
                    slot.attempts += 1
                    if log is not None:
                        log(
                            f"shard {slot.job.shard}: launching worker "
                            f"(attempt {slot.attempts})"
                        )
                    try:
                        with open(slot.log_path, "ab") as handle:
                            proc = subprocess.Popen(
                                self.worker_command(slot.spec_path),
                                stdout=handle,
                                stderr=subprocess.STDOUT,
                            )
                    except OSError as exc:
                        # A spawn failure (missing interpreter, fork limit)
                        # is a worker failure: same retry budget, same
                        # shard-identity in the final error.
                        if slot.attempts <= self.max_retries:
                            if log is not None:
                                log(
                                    f"shard {slot.job.shard}: worker failed "
                                    f"to launch ({exc}); retrying"
                                )
                            pending.append(slot)
                            continue
                        raise SchedulerError(
                            f"shard {slot.job.shard} worker failed after "
                            f"{slot.attempts} attempts (could not launch: "
                            f"{exc}); see {slot.log_path}"
                        ) from exc
                    running[proc] = slot
                finished = [p for p in running if p.poll() is not None]
                if not finished:
                    time.sleep(self.poll_interval)
                    continue
                for proc in finished:
                    slot = running.pop(proc)
                    if proc.returncode == 0 and shard_complete(
                        slot.job, slot.output_path
                    ):
                        done += slot.job.total
                        if progress is not None:
                            progress(done, plan.total)
                        if log is not None:
                            log(f"shard {slot.job.shard}: complete")
                    elif slot.attempts <= self.max_retries:
                        recovered = count_records(slot.output_path)
                        if log is not None:
                            log(
                                f"shard {slot.job.shard}: worker exited "
                                f"{proc.returncode}; retrying from the "
                                f"{recovered}-episode JSONL prefix"
                            )
                        pending.append(slot)
                    else:
                        raise SchedulerError(
                            f"shard {slot.job.shard} worker failed after "
                            f"{slot.attempts} attempts (last exit "
                            f"{proc.returncode}); see {slot.log_path}"
                        )
        finally:
            # Teardown must reap every worker it signals: a killed-but-
            # unreaped child stays a zombie for the life of this process,
            # and a worker that ignores SIGTERM would otherwise leak
            # entirely.  Terminate the whole fleet first (this also runs
            # when one shard exhausts its retry budget and raises above),
            # then wait; on a hung worker escalate to SIGKILL and reap
            # that too.
            for proc in running:
                proc.terminate()
            for proc in running:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        return [shard_path(job, workdir) for job in plan.jobs]


class SSHBackend(SubprocessFleetBackend):
    """Fleet workers shelled through a configurable command template.

    The remote-execution stub: the worker command is identical to the
    subprocess fleet's, wrapped by ``command_template`` and executed via
    a *local* ``sh -c`` — e.g. ``"ssh build-host 'cd /shared/repo &&
    {command}'"`` (quote the remote part: an unquoted ``&&`` would split
    the pipeline on this machine instead of the remote one).  It assumes
    the work directory and cache live on a filesystem every host shares
    (spec files store workdir-relative paths, so a remounted prefix is
    fine) and that ``repro`` is importable remotely.
    ``command_template`` defaults to the ``REPRO_SSH_COMMAND``
    environment variable.
    """

    name = "ssh"

    def __init__(
        self,
        workers: Optional[int] = None,
        command_template: Optional[str] = None,
        **kwargs,
    ) -> None:
        super().__init__(workers=workers, **kwargs)
        # Transport configuration only — never part of any digest.
        template = command_template or os.environ.get(  # repro-lint: disable=env-read-in-canonical
            "REPRO_SSH_COMMAND"
        )
        if not template:
            raise ValueError(
                "the ssh backend needs a command template (e.g. "
                "'ssh build-host {command}'); pass command_template= or set "
                "the REPRO_SSH_COMMAND environment variable"
            )
        if "{command}" not in template:
            raise ValueError(
                "ssh command template must contain a '{command}' placeholder "
                f"for the worker command, got {template!r}"
            )
        self.command_template = template

    def worker_command(self, spec_path: str) -> List[str]:
        inner = super().worker_command(spec_path)
        wrapped = self.command_template.format(command=shlex.join(inner))
        return ["/bin/sh", "-c", wrapped]


# --------------------------------------------------------------------- #
# The backend registry (the ``sim/families.py`` idiom)
# --------------------------------------------------------------------- #

_BACKENDS: Dict[str, type] = {}


def register_backend(backend_cls: type, replace: bool = False) -> type:
    """Register a :class:`WorkerBackend` class under its ``name``.

    Raises:
        ValueError: missing name, or the name is already registered
            (unless ``replace``).
    """
    name = getattr(backend_cls, "name", "")
    if not name:
        raise ValueError(
            f"backend class {backend_cls!r} must set a non-empty 'name'"
        )
    if not replace and name in _BACKENDS:
        raise ValueError(
            f"worker backend {name!r} is already registered; pass "
            "replace=True to override it"
        )
    _BACKENDS[name] = backend_cls
    return backend_cls


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (test harness use)."""
    _BACKENDS.pop(name, None)


def get_backend(name: str) -> type:
    """The registered backend class for ``name``.

    Raises:
        UnknownBackendError: no registered backend claims the name; the
            message lists every registered backend.
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise UnknownBackendError(name, registered_backends())
    return backend


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(_BACKENDS)


def make_backend(name: str, **kwargs) -> WorkerBackend:
    """Instantiate a registered backend by name.

    ``kwargs`` with value None are dropped so callers can forward
    optional CLI flags verbatim and let each backend apply its defaults.
    """
    backend_cls = get_backend(name)
    return backend_cls(**{k: v for k, v in kwargs.items() if v is not None})


register_backend(InProcessBackend)
register_backend(SubprocessFleetBackend)
register_backend(SSHBackend)


# --------------------------------------------------------------------- #
# Collect
# --------------------------------------------------------------------- #


def collect_shards(
    plan: CampaignPlan,
    paths: Sequence[str],
    cache: Optional[CampaignCache] = None,
) -> CampaignResult:
    """Validate and merge dispatched shard files into the full campaign.

    Applies the ``repro merge`` invariants (strict loads — no partial
    shards, no overlapping episodes, no mixed intervention labels) plus
    the plan's own identity: every sidecar must name its job's digest and
    every collected record must match the episode the plan enumerates at
    its position.  On success the full campaign is written through
    ``cache`` under the plan digest, which is what lets a repeat dispatch
    (and the incremental report pipeline) skip execution entirely.

    Raises:
        SchedulerError: any validation failure, wrapped with the shard
            identity needed to act on it.
    """
    if len(paths) != len(plan.jobs):
        raise SchedulerError(
            f"collect expected {len(plan.jobs)} shard files, got {len(paths)}"
        )
    for job, path in zip(plan.jobs, paths):
        recorded = _foreign_digest(job, path)
        if recorded is not None:
            raise SchedulerError(
                f"{path}: sidecar records digest {recorded[:16]}… but the "
                f"plan's shard {job.shard} is {job.digest()[:16]}…; the file "
                "belongs to a different campaign"
            )
    try:
        merged = merge_shards(paths)
    except (ValueError, OSError) as exc:
        raise SchedulerError(f"shard collection failed: {exc}") from exc
    label = plan.interventions.label()
    episodes = list(plan.episodes)
    if len(merged.results) != len(episodes):
        raise SchedulerError(
            f"collected {len(merged.results)} episodes but the plan "
            f"enumerates {len(episodes)}; a shard file is incomplete or "
            "from another campaign"
        )
    try:
        _validate_resume_prefix(
            merged.results, episodes, label, "<collected shards>"
        )
    except ValueError as exc:
        raise SchedulerError(f"shard collection failed: {exc}") from exc
    if cache is not None and _cacheable(plan):
        cache.put(plan.digest(), merged.results)
    return CampaignResult(intervention=label, results=merged.results)


# --------------------------------------------------------------------- #
# The pipeline façade
# --------------------------------------------------------------------- #


def dispatch_campaign(
    campaign: Union[CampaignSpec, Sequence[EpisodeSpec]],
    interventions: InterventionConfig,
    backend: Union[str, WorkerBackend] = "in-process",
    shards: Optional[int] = None,
    workdir: Optional[PathLike] = None,
    ml_factory: Optional[Callable[[], object]] = None,
    cache: Union[CampaignCache, None, bool] = None,
    progress: Optional[ProgressCallback] = None,
    log: Optional[LogCallback] = None,
    max_steps: Optional[int] = None,
) -> CampaignResult:
    """Plan, dispatch and collect one campaign over a worker backend.

    The distributed counterpart of ``run_campaign``, with the same
    bit-identical guarantee: for any backend and shard count, the
    returned results (and the merged shard files) match the serial run
    byte for byte.

    Args:
        campaign: a :class:`CampaignSpec` or pre-enumerated episode list.
        interventions: the safety configuration under test.
        backend: a :class:`WorkerBackend` instance, or a registered
            backend name (``in-process``, ``subprocess``, ``ssh``) built
            with its defaults — :func:`make_backend` takes the worker
            count and the :class:`~repro.core.executor.ExecutionPolicy`.
        shards: how many shard jobs to plan (default: the backend's
            ``default_shard_count`` — one per worker for fleets).
        workdir: where shard JSONLs, spec files and worker logs live.
            Reusing a workdir is what enables crash recovery (complete
            shards are skipped, partial ones resume); ``None`` uses a
            private temporary directory, removed after collection.
        ml_factory: per-episode ML controller factory (fleet backends
            require it picklable).
        cache: consulted for the full campaign before any dispatch (a
            hit executes zero episodes and spawns zero workers) and
            written through after collection; shard-level entries land
            under each shard's own digest.  ``None``/``True`` defer to
            ``REPRO_CACHE_DIR``; ``False`` disables.
        progress: ``(done episodes, total)`` callback; fleet backends
            report at shard granularity.
        log: line sink for dispatch narration (worker launches, retries).
        max_steps: every episode's horizon (None: the paper horizon).

    Returns:
        The full-campaign :class:`CampaignResult`, in enumeration order.
    """
    if isinstance(backend, str):
        backend = make_backend(backend)
    plan = CampaignPlan.build(
        campaign,
        interventions,
        shards=shards if shards is not None else backend.default_shard_count(),
        ml_factory=ml_factory,
        max_steps=max_steps,
    )
    cache = resolve_cache(cache)
    hit, _ = load_stored(plan, cache)
    if hit is not None:
        if log is not None:
            log(f"campaign {plan.digest()[:16]}…: cache hit, zero episodes")
        if progress is not None:
            progress(plan.total, plan.total)
        return CampaignResult(intervention=interventions.label(), results=hit)

    tmp_workdir: Optional[str] = None
    if workdir is None:
        tmp_workdir = tempfile.mkdtemp(prefix="repro-dispatch-")
        workdir = tmp_workdir
    else:
        workdir = os.fspath(workdir)
        os.makedirs(workdir, exist_ok=True)
    try:
        paths = backend.run(
            plan, workdir, cache=cache, progress=progress, log=log
        )
        return collect_shards(plan, paths, cache=cache)
    finally:
        if tmp_workdir is not None:
            shutil.rmtree(tmp_workdir, ignore_errors=True)
