"""Incremental report pipeline: an artifact DAG resolved against the cache.

The paper's headline artifacts — Tables IV-VIII and the Fig. 5/6 trace
summaries — are pure functions of a handful of campaign arms, and PR 2's
digest-keyed :class:`~repro.core.cache.CampaignCache` already knows which
of those arms have finished.  This module turns the monolithic report
generator into a small DAG:

* a :class:`CampaignArm` names one campaign (grid + interventions + ML
  fingerprint) an artifact consumes, identified by its content digest;
* a :class:`ReportArtifact` declares the arms one table/figure consumes
  and how to render its markdown body from their results;
* the :class:`IncrementalReportEngine` resolves every arm against the
  cache/resume directory, renders each artifact whose inputs are complete,
  and emits a placeholder (with per-arm episode counts) for the rest — so
  an incremental report over a partially-populated cache returns in
  seconds instead of blocking for the full grid.

Freshness is tracked per artifact in a manifest sidecar
(``report.manifest.json`` next to ``report.md``):

.. code-block:: json

    {
      "format": 1,
      "artifacts": {
        "table6": {
          "inputs": ["<digest of arm 1>", "<digest of arm 2>", "..."],
          "body": "<rendered markdown body>"
        }
      }
    }

``inputs`` is the ordered digest set the artifact was rendered from (plus
non-campaign inputs such as the traced-figure seed), and ``body`` is the
rendered markdown stored verbatim — so a re-run reuses the body of every
artifact whose inputs are unchanged without calling its renderer, and a
fully-cached incremental report is byte-identical to a blocking one.

This is the scheduler-facing half of the distributed-backend roadmap item:
remote shards land in the shared cache, ``repro report-status`` shows which
artifacts they unblock, and ``repro report --incremental`` fills the
report in as they arrive.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.render import format_placeholder
from repro.attacks.campaign import (
    CampaignSpec,
    EpisodeSpec,
    ShardSpec,
    as_episode_list,
)
from repro.core.cache import resume_entry_path
from repro.core.experiment import CampaignResult
from repro.core.scheduler import (
    ShardJob,
    execute_shard,
    load_stored,
    stored_count,
)
from repro.safety.arbitration import InterventionConfig

#: Bump when the manifest schema changes shape so stale sidecars are
#: ignored (and rebuilt) instead of misread.
MANIFEST_FORMAT = 1

#: Fingerprint of the rendering code, included in every artifact's
#: manifest input set: a manifest body is only reused while *both* its
#: campaign inputs and the renderer that produced it are unchanged.  Bump
#: on any table/figure layout change (the golden-file suite is the
#: reminder), so reports regenerated by newer code never serve bodies
#: rendered by an older layout.
RENDER_FORMAT = 1

#: Arm staleness states, from freshest to stalest.
ARM_CACHED = "cached"
ARM_RESUMABLE_COMPLETE = "resumable-complete"
ARM_RESUMABLE_PARTIAL = "resumable-partial"
ARM_MISSING = "missing"


class _ArmIncomplete(Exception):
    """Internal: an arm the cheap status probe reported complete failed
    authoritative (parsed, validated) loading — e.g. a corrupt cache entry
    whose line count looked right.  The artifact falls back to a pending
    placeholder instead of silently executing the whole grid."""


class ReportError(RuntimeError):
    """A report campaign arm (or artifact renderer) failed.

    Carries enough identity to act on the failure: ``artifact_id`` names
    the table/figure, ``arm`` the campaign arm, and ``digest`` the content
    digest of the campaign that failed — the key to inspect in the cache
    or resume directory.
    """

    def __init__(
        self,
        message: str,
        artifact_id: Optional[str] = None,
        arm: Optional[str] = None,
        digest: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.artifact_id = artifact_id
        self.arm = arm
        self.digest = digest


@dataclass(frozen=True)
class CampaignArm:
    """One campaign an artifact consumes, identified by content digest.

    Attributes:
        name: unique arm name within the report DAG (e.g. ``table6:driver``);
            artifacts receive their resolved results keyed by this name.
        campaign: the grid to run (a spec or pre-enumerated episode list).
        interventions: the safety configuration the campaign runs under.
        ml_token: ML-arm fingerprint (see
            :func:`repro.core.cache.factory_token`); non-None exactly when
            ``interventions.ml``.
    """

    name: str
    campaign: Union[CampaignSpec, Tuple[EpisodeSpec, ...]]
    interventions: InterventionConfig
    ml_token: Optional[str] = None


@dataclass(frozen=True)
class ArmStatus:
    """Staleness of one campaign arm against the cache/resume directory."""

    name: str
    digest: str
    state: str
    done: int
    total: int

    @property
    def complete(self) -> bool:
        """Every episode of the arm is already on disk."""
        return self.state in (ARM_CACHED, ARM_RESUMABLE_COMPLETE)


@dataclass(frozen=True)
class ReportArtifact:
    """One table/figure of the report: its inputs and its renderer.

    Attributes:
        artifact_id: stable identifier (``table4`` .. ``table8``, ``fig5``,
            ``fig6``) used in the manifest and ``report-status`` output.
        title: the section title shown in placeholders and status listings.
        arms: the campaign arms this artifact consumes (possibly empty —
            the traced figures run single episodes directly).
        render: maps resolved results (keyed by arm name) to the artifact's
            markdown body.  Must be deterministic in its inputs: the body
            is stored in the manifest and reused verbatim while the input
            digest set is unchanged.
        extra_inputs: non-campaign inputs participating in freshness
            tracking (e.g. the seed the figure traces run with).
    """

    artifact_id: str
    title: str
    arms: Tuple[CampaignArm, ...]
    render: Callable[[Dict[str, CampaignResult]], str]
    extra_inputs: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ArtifactStatus:
    """Staleness of one artifact: its arms plus manifest freshness.

    ``state`` is one of:

    * ``fresh`` — the manifest records a body built from exactly the
      current input digest set; a re-run reuses it without rendering.
    * ``ready`` — every arm is complete but no fresh manifest body exists;
      the next run renders it without executing any *campaign* episodes.
      (Arm-less artifacts — the traced figures — are always ``ready``;
      rendering them runs their handful of traced episodes directly.)
    * ``partial`` — some episodes exist (cached or resumable) but at least
      one arm is incomplete.
    * ``missing`` — no episodes of any arm are on disk yet.
    """

    artifact_id: str
    title: str
    state: str
    arms: Tuple[ArmStatus, ...]
    stale: bool

    @property
    def complete(self) -> bool:
        """All campaign inputs are on disk."""
        return all(arm.complete for arm in self.arms)


@dataclass
class ArtifactOutcome:
    """What one artifact contributed to a report run."""

    artifact: ReportArtifact
    arms: Tuple[ArmStatus, ...]
    state: str  # "rendered" | "reused" | "pending" | "failed"
    body: str
    error: Optional[str] = None


@dataclass
class ReportOutcome:
    """The result of one engine run: the full text plus per-artifact states."""

    text: str
    artifacts: List[ArtifactOutcome]

    def _ids(self, state: str) -> List[str]:
        return [o.artifact.artifact_id for o in self.artifacts if o.state == state]

    @property
    def rendered_ids(self) -> List[str]:
        """Artifacts rendered from their inputs this run."""
        return self._ids("rendered")

    @property
    def reused_ids(self) -> List[str]:
        """Artifacts whose manifest body was reused unchanged."""
        return self._ids("reused")

    @property
    def pending_ids(self) -> List[str]:
        """Artifacts emitted as placeholders (inputs incomplete)."""
        return self._ids("pending")

    @property
    def failed_ids(self) -> List[str]:
        """Artifacts whose arms or renderer failed (incremental mode only)."""
        return self._ids("failed")

    @property
    def complete(self) -> bool:
        """Every artifact was rendered or reused — nothing pending/failed."""
        return not self.pending_ids and not self.failed_ids


# --------------------------------------------------------------------- #
# Manifest sidecar
# --------------------------------------------------------------------- #


def manifest_path_for(report_path: Union[str, os.PathLike]) -> str:
    """The manifest sidecar path for a report file: ``report.md`` ->
    ``report.manifest.json`` (same directory)."""
    root, _ = os.path.splitext(os.fspath(report_path))
    return f"{root}.manifest.json"


def load_manifest(path: Optional[Union[str, os.PathLike]]) -> Dict[str, dict]:
    """The artifact entries of a manifest sidecar.

    Missing, corrupt, or differently-versioned manifests load as ``{}``:
    the worst case is re-rendering artifacts from (cheap, cached) inputs,
    never reusing a body built under an unknown scheme.
    """
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (FileNotFoundError, NotADirectoryError, ValueError):
        return {}
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        return {}
    artifacts = doc.get("artifacts")
    return artifacts if isinstance(artifacts, dict) else {}


def save_manifest(
    path: Union[str, os.PathLike], artifacts: Dict[str, dict]
) -> None:
    """Atomically write a manifest sidecar (temp file + ``os.replace``)."""
    doc = {"format": MANIFEST_FORMAT, "artifacts": artifacts}
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".manifest-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def status_document(
    statuses: Sequence[ArtifactStatus], manifest_path: Optional[str]
) -> dict:
    """The machine-readable (``--json``) form of ``repro report-status``."""
    return {
        "format": MANIFEST_FORMAT,
        "manifest": manifest_path,
        "artifacts": [
            {
                "id": s.artifact_id,
                "title": s.title,
                "state": s.state,
                "stale": s.stale,
                "arms": [
                    {
                        "name": a.name,
                        "digest": a.digest,
                        "state": a.state,
                        "episodes_done": a.done,
                        "episodes_total": a.total,
                    }
                    for a in s.arms
                ],
            }
            for s in statuses
        ],
    }


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class IncrementalReportEngine:
    """Resolve a report artifact DAG against the campaign cache.

    Args:
        config: the :class:`~repro.analysis.report.ReportConfig` naming the
            grid scale, cache and resume locations.
        artifacts: the DAG to resolve; defaults to the paper's full layout
            (see :func:`repro.analysis.report.build_report_artifacts`).
        manifest_path: freshness sidecar (see :func:`manifest_path_for`);
            ``None`` disables manifest reuse and recording.
    """

    def __init__(
        self,
        config,
        artifacts: Optional[Sequence[ReportArtifact]] = None,
        manifest_path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if artifacts is None:
            from repro.analysis.report import build_report_artifacts

            artifacts = build_report_artifacts(config)
        self.config = config
        self.artifacts: List[ReportArtifact] = list(artifacts)
        self.manifest_path = (
            os.fspath(manifest_path) if manifest_path is not None else None
        )
        # Arm names key every memo below (digests, statuses, results), so
        # two *different* arms sharing a name would silently alias — e.g.
        # reaction times that format identically.  Reject the DAG up front.
        seen: Dict[str, CampaignArm] = {}
        for artifact in self.artifacts:
            for arm in artifact.arms:
                other = seen.setdefault(arm.name, arm)
                if other != arm:
                    raise ValueError(
                        f"report DAG declares two different campaign arms "
                        f"named {arm.name!r}; arm names identify campaigns, "
                        "so they must be unique (are two sweep points "
                        "formatting to the same label?)"
                    )
        self._jobs: Dict[str, ShardJob] = {}
        self._results: Dict[str, CampaignResult] = {}
        self._statuses: Dict[str, ArmStatus] = {}
        self._probe_cache_resolved = False
        self._probe_cache_value = None

    # ---- arm resolution --------------------------------------------------

    def _probe_cache(self):
        """The effective cache as a read-only handle, resolved once.

        Status probes must not materialise the cache directory (``repro
        report-status`` is documented as executing nothing), and resolving
        once avoids re-constructing the cache for every arm.  Execution
        paths keep using ``config.cache()`` — they are about to write.
        """
        if not self._probe_cache_resolved:
            self._probe_cache_value = self.config.cache(create=False)
            self._probe_cache_resolved = True
        return self._probe_cache_value

    def _job(self, arm: CampaignArm) -> ShardJob:
        """The arm as a single-shard job: its memoized digest and total,
        and the unit the scheduler's stored-results rule probes."""
        job = self._jobs.get(arm.name)
        if job is None:
            job = self._jobs[arm.name] = ShardJob(
                shard=ShardSpec(1, 1),
                episodes=tuple(as_episode_list(arm.campaign)),
                interventions=arm.interventions,
                ml_token=arm.ml_token,
            )
        return job

    def _resume_entry(self, job: ShardJob) -> Optional[str]:
        """The arm's resume file path (not created), or None."""
        if not self.config.resume_dir:
            return None
        return resume_entry_path(self.config.resume_dir, job.digest())

    def arm_status(self, arm: CampaignArm, refresh: bool = False) -> ArmStatus:
        """Staleness of one arm: cache entry first, then resume prefix.

        Probes are read-only (no directories are created) and memoized per
        engine — the shared fault-free arm feeds two artifacts but is only
        probed once.  ``refresh`` bypasses the memo, for re-probing after
        an authoritative load disagreed with the cheap count.
        """
        if not refresh and arm.name in self._statuses:
            return self._statuses[arm.name]
        job = self._job(arm)
        total = job.total
        source, done = stored_count(
            job, self._probe_cache(), self._resume_entry(job)
        )
        if source == "cache":
            state = ARM_CACHED
        elif done:
            state = ARM_RESUMABLE_COMPLETE if done >= total else ARM_RESUMABLE_PARTIAL
        else:
            state = ARM_MISSING
        status = ArmStatus(arm.name, job.digest(), state, min(done, total), total)
        self._statuses[arm.name] = status
        return status

    def artifact_inputs(self, artifact: ReportArtifact) -> List[str]:
        """The ordered input set recorded in the manifest: the renderer
        fingerprint, then the arm digests, then non-campaign inputs."""
        return (
            [f"render:{RENDER_FORMAT}"]
            + [self._job(a).digest() for a in artifact.arms]
            + list(artifact.extra_inputs)
        )

    # ---- status (no execution) ------------------------------------------

    def status(self) -> List[ArtifactStatus]:
        """Per-artifact staleness without executing a single episode."""
        manifest = load_manifest(self.manifest_path)
        statuses: List[ArtifactStatus] = []
        for artifact in self.artifacts:
            arms = tuple(self.arm_status(a) for a in artifact.arms)
            entry = manifest.get(artifact.artifact_id)
            fresh = self._entry_fresh(entry, self.artifact_inputs(artifact))
            if fresh:
                state = "fresh"
            elif all(a.complete for a in arms):
                state = "ready"
            elif any(a.done for a in arms):
                state = "partial"
            else:
                state = "missing"
            statuses.append(
                ArtifactStatus(
                    artifact_id=artifact.artifact_id,
                    title=artifact.title,
                    state=state,
                    arms=arms,
                    stale=entry is not None and not fresh,
                )
            )
        return statuses

    @staticmethod
    def _entry_fresh(entry: Optional[dict], inputs: List[str]) -> bool:
        return (
            isinstance(entry, dict)
            and entry.get("inputs") == inputs
            and isinstance(entry.get("body"), str)
        )

    # ---- execution -------------------------------------------------------

    def _arm_result(self, arm: CampaignArm, execute: bool = True) -> CampaignResult:
        """Resolve one arm's results, wrapping failures with arm identity.

        Args:
            arm: the arm to resolve.
            execute: run missing episodes (blocking mode).  When False
                (incremental mode) the arm is only *loaded* — from the
                cache or a complete resume file, fully parsed and
                validated — and :class:`_ArmIncomplete` is raised if the
                data the cheap status probe saw does not authoritatively
                load, so incremental runs can never fall through into
                grid execution.
        """
        if arm.name in self._results:
            return self._results[arm.name]
        try:
            result = (
                self._execute_arm(arm) if execute else self._load_complete_arm(arm)
            )
        except (ReportError, _ArmIncomplete):
            raise
        except Exception as exc:
            digest = self._job(arm).digest()
            raise ReportError(
                f"report campaign {arm.name!r} "
                f"(digest {digest[:16]}…) failed: {exc}",
                arm=arm.name,
                digest=digest,
            ) from exc
        self._results[arm.name] = result
        return result

    def _load_complete_arm(self, arm: CampaignArm) -> CampaignResult:
        """Execution-free authoritative load of an arm believed complete.

        A corrupt cache entry whose line count looked right is discarded
        here (and deleted by the cache itself); a resume file that resume
        would refuse is an error worth surfacing, not an incomplete input.
        """
        job = self._job(arm)
        hit, prior = load_stored(job, self._probe_cache(), self._resume_entry(job))
        results = prior if hit is None else hit
        if len(results) < job.total:
            raise _ArmIncomplete(arm.name)
        return CampaignResult(job.interventions.label(), results)

    def _execute_arm(self, arm: CampaignArm) -> CampaignResult:
        from repro.analysis.report import _run_report_campaign

        self.config._say(f"running report campaign: {arm.name} ...")

        if not arm.interventions.ml:
            return _run_report_campaign(self.config, arm.campaign, arm.interventions)
        # The ML arm is keyed by its trainer configuration, so stored
        # results short-circuit *before* weights are loaded or trained.
        from repro.ml import MitigationFactory, TrainerConfig, load_or_train_cached

        job = self._job(arm)
        hit, prior = load_stored(job, self._probe_cache(), self._resume_entry(job))
        if hit is not None:
            self.config._say("  (cache hit — skipping training and execution)")
            return CampaignResult(job.interventions.label(), hit)
        if len(prior) == job.total:
            # Given the factory-less job, the shard primitive rewrites the
            # complete resume file and its sidecar, fills the cache and
            # executes nothing.
            self.config._say(
                "  (resume file complete — skipping training and execution)"
            )
            return execute_shard(
                job,
                self.config.execution.resolve(),
                resume_path=self.config.resume_path_for(job.digest()),
                cache=self.config.cache(),
            )
        baseline = load_or_train_cached(TrainerConfig())
        return _run_report_campaign(
            self.config,
            arm.campaign,
            arm.interventions,
            ml_factory=MitigationFactory(baseline, digest_token=arm.ml_token),
        )

    # ---- the run ---------------------------------------------------------

    def run(self, incremental: bool = True) -> ReportOutcome:
        """Resolve the DAG and assemble the report.

        Args:
            incremental: when True, render only artifacts whose inputs are
                complete (or whose manifest body is fresh) and emit
                placeholders for the rest; per-artifact failures become
                ``failed`` placeholders instead of aborting the run.  When
                False, execute every missing campaign (blocking) and raise
                :class:`ReportError` naming the failed arm digest on the
                first failure.

        Returns:
            A :class:`ReportOutcome`; once every arm is complete the
            incremental text is byte-identical to the blocking one.
        """
        manifest = load_manifest(self.manifest_path)
        outcomes: List[ArtifactOutcome] = []
        for artifact in self.artifacts:
            arms = tuple(self.arm_status(a) for a in artifact.arms)
            inputs = self.artifact_inputs(artifact)
            entry = manifest.get(artifact.artifact_id)
            if self._entry_fresh(entry, inputs):
                outcomes.append(
                    ArtifactOutcome(artifact, arms, "reused", entry["body"])
                )
                continue
            if all(a.complete for a in arms) or not incremental:
                try:
                    results = {
                        a.name: self._arm_result(a, execute=not incremental)
                        for a in artifact.arms
                    }
                    body = artifact.render(results)
                except _ArmIncomplete:
                    # The cheap status probe was optimistic (e.g. a corrupt
                    # cache entry with a plausible line count); re-probe and
                    # fall back to a pending placeholder rather than
                    # executing the grid inside an incremental run.
                    arms = tuple(
                        self.arm_status(a, refresh=True) for a in artifact.arms
                    )
                    outcomes.append(
                        ArtifactOutcome(
                            artifact,
                            arms,
                            "pending",
                            format_placeholder(
                                artifact.title, self._placeholder_lines(arms)
                            ),
                        )
                    )
                    continue
                except ReportError as exc:
                    if exc.artifact_id is None:
                        exc.artifact_id = artifact.artifact_id
                    if not incremental:
                        raise
                    outcomes.append(self._failed(artifact, arms, exc))
                    continue
                except Exception as exc:
                    error = ReportError(
                        f"artifact {artifact.artifact_id!r} failed to "
                        f"render: {exc}",
                        artifact_id=artifact.artifact_id,
                    )
                    if not incremental:
                        raise error from exc
                    outcomes.append(self._failed(artifact, arms, error))
                    continue
                manifest[artifact.artifact_id] = {"inputs": inputs, "body": body}
                outcomes.append(ArtifactOutcome(artifact, arms, "rendered", body))
            else:
                body = format_placeholder(
                    artifact.title, self._placeholder_lines(arms)
                )
                outcomes.append(ArtifactOutcome(artifact, arms, "pending", body))
        text = self._assemble([o.body for o in outcomes])
        if self.manifest_path is not None:
            save_manifest(self.manifest_path, manifest)
        return ReportOutcome(text=text, artifacts=outcomes)

    @staticmethod
    def _failed(
        artifact: ReportArtifact,
        arms: Tuple[ArmStatus, ...],
        error: ReportError,
    ) -> ArtifactOutcome:
        body = format_placeholder(artifact.title, [str(error)], note="failed")
        return ArtifactOutcome(artifact, arms, "failed", body, error=str(error))

    @staticmethod
    def _placeholder_lines(arms: Sequence[ArmStatus]) -> List[str]:
        if not arms:
            return ["no campaign inputs"]
        width = max(len(s.name) for s in arms)
        return [
            f"{s.name.ljust(width)}  {s.state:<18} "
            f"{s.done}/{s.total} episodes"
            for s in arms
        ]

    def _assemble(self, bodies: Sequence[str]) -> str:
        lines = [
            "# Reproduction report",
            "",
            f"repetitions per grid cell: {self.config.repetitions}; "
            f"campaign seed: {self.config.seed}",
            "",
        ]
        for body in bodies:
            lines.append(body)
            lines.append("")
        return "\n".join(lines)
